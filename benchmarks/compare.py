"""Compare the outputs of two sidlattice source trees, byte for byte.

Usage, from anywhere:

    python3 benchmarks/compare.py PARENT_DIR CHANGE_DIR

Each directory is the root of a checkout (it holds ``src/sidlattice``). A fixed
matrix of CLI calls runs in fresh processes, once per tree, each in its own
empty directory with the same relative paths. A case prints SAME when the
sha256 of every file the call wrote, its stdout, its stderr and its exit code
agree between the trees, and DIFF (naming what differs) when they do not. The
exit code is 1 on any DIFF, else 0. Timing is perfbench's job, not this one's.

The inputs come from ``perfbench/workloads.py``, imported read-only, and from
``configs/``, both of this checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True  # leave perfbench/ as it is
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

CLI = "import sys; from sidlattice.cli import main; sys.exit(main(sys.argv[1:]))"
# one BLAS thread for both trees: the last bits of M = K1 K2 can depend on the thread count;
# and no bytecode written into either tree
ENV = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                            "PYTHONDONTWRITEBYTECODE")}


def _workload_case(name: str, seed: int, extra: tuple = ()):
    """A perfbench workload's inputs and argv, with paths relative to the run directory."""
    def setup(workdir: Path) -> list[str]:
        argv = workloads.write_inputs(workloads.WORKLOADS[name], seed, workdir)
        return [os.path.relpath(a, workdir) if a.startswith(str(workdir)) else a
                for a in argv] + list(extra)
    return setup


def _scenario_case(doc: dict, command: str):
    def setup(workdir: Path) -> list[str]:
        (workdir / "scenario.json").write_text(json.dumps(doc, indent=1), encoding="utf-8")
        outputs = (["--out", "series.csv"] if command == "simulate"
                   else ["--report", "report.json", "--series", "series.csv"])
        return [command, "--config", "scenario.json", *outputs]
    return setup


def _shipped(name: str, n_points: int = 0) -> dict:
    doc = json.loads((ROOT / "configs" / name).read_text(encoding="utf-8"))
    if n_points:
        doc["grid"]["n_points"] = n_points
    return doc


def _two_kernels(n_points: int, o1_family: str) -> dict:
    """simulate-kk-n2048's scenario at n_points, O1's kernel a lorentz_band (a real M = K1 K2)
    or a random_bandlimited one (a complex M)."""
    doc = workloads.scenario_config(workloads.WORKLOADS["simulate-kk-n2048"],
                                    workloads.DEFAULT_SEED)
    doc["grid"]["n_points"] = n_points
    if o1_family == "random_bandlimited":
        doc["observables"]["O1"]["kernel"] = {
            "family": "random_bandlimited", "amplitude": 0.5, "sigma": 1.0, "mu": 10.0,
            "Sigma": 2.0, "seed": 3}
    return doc


def cases() -> dict:
    """The fixed matrix: case name -> setup(workdir) that writes inputs and returns argv."""
    out = {}
    for name in workloads.BENCHMARKED:
        for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
            out[f"{name} seed {seed}"] = _workload_case(name, seed)
    for n in (256, 257, 2048, 4096):
        for command in ("emerge", "simulate"):
            out[f"gaussian_emerge n={n} {command}"] = _scenario_case(
                _shipped("gaussian_emerge.json", n), command)
    out["commuting_pair emerge"] = _scenario_case(_shipped("commuting_pair.json"), "emerge")
    for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
        for extra in ((), ("--max-elements", "8")):
            out[" ".join(("lattice-mo2-bool-bool", f"seed {seed}", *extra))] = \
                _workload_case("lattice-mo2-bool-bool", seed, extra)
    out["oracle gaussian_band"] = lambda workdir: [
        "oracle", "--family", "gaussian_band", "--params", '{"sigma1": 1.5, "sigma2": 2.0}',
        "--t", "0,0.25,1,3.5,10"]
    for n in (129, 257, 385):
        for o1_family, m in (("lorentz_band", "real"), ("random_bandlimited", "complex")):
            out[f"two kernels n={n} {m} M"] = _scenario_case(_two_kernels(n, o1_family),
                                                              "simulate")
    return out


def fingerprint(tree: Path, setup) -> dict:
    """sha256 of each file one call writes, and of its stdout, stderr and exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        argv = setup(workdir)
        inputs = set(workdir.iterdir())
        env = {**os.environ, **ENV, "PYTHONPATH": str(tree / "src")}
        env = {k: v for k, v in env.items() if not k.startswith("SIDLATTICE_")}
        proc = subprocess.run([sys.executable, "-c", CLI, *argv], cwd=workdir, env=env,
                              capture_output=True, timeout=600)
        parts = {"exit code": str(proc.returncode).encode(), "stdout": proc.stdout,
                 "stderr": proc.stderr}
        parts.update({path.name: path.read_bytes()
                      for path in sorted(set(workdir.iterdir()) - inputs)})
    return {key: hashlib.sha256(data).hexdigest() for key, data in parts.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("change", type=Path, help="root of the changed checkout")
    args = parser.parse_args(argv)
    trees = [path.resolve() for path in (args.parent, args.change)]
    for tree in trees:
        if not (tree / "src" / "sidlattice" / "cli.py").is_file():
            parser.error(f"no sidlattice sources under {tree / 'src'}")
    matrix, diffs = cases(), 0
    for name, setup in matrix.items():
        before, after = (fingerprint(tree, setup) for tree in trees)
        differ = sorted(key for key in before.keys() | after.keys()
                        if before.get(key) != after.get(key))
        diffs += bool(differ)
        print(f"DIFF {name}: {', '.join(differ)}" if differ else f"SAME {name}", flush=True)
    print(f"{diffs} of {len(matrix)} cases differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
