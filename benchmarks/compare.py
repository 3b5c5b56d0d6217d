"""Compare the outputs of two sidlattice source trees, byte for byte, then by value.

Usage, from anywhere:

    python3 benchmarks/compare.py PARENT_DIR CHANGE_DIR

Each directory is the root of a checkout (it holds ``src/sidlattice``). A fixed
matrix of CLI calls runs in fresh processes, once per tree, each in its own
empty directory with the same relative paths. A case prints SAME when every
file the call wrote, its stdout, its stderr and its exit code agree byte for
byte between the trees, and DIFF (naming what differs) when they do not. Under
a DIFF, each differing output that holds an expectation series (a t,re,im,abs
CSV, or an emerge report) gets one more line: the largest |change| of the
series over |<D(0)>|, the parent's first magnitude, and for a report the
distance of each HS norm in ulps and whether the verdict and both decoherence
times are equal. The exit code is 1 on any DIFF, else 0. Timing is perfbench's
job, not this one's.

The inputs come from ``perfbench/workloads.py``, imported read-only, and from
``configs/``, both of this checkout.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

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
    for n in (129, 257, 385, 513):
        for o1_family, m in (("lorentz_band", "real"), ("random_bandlimited", "complex")):
            out[f"two kernels n={n} {m} M"] = _scenario_case(_two_kernels(n, o1_family),
                                                              "simulate")
    return out


def outputs(tree: Path, setup) -> dict:
    """The bytes of each file one call writes, and of its stdout, stderr and exit code."""
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
    return parts


def _numbers(data: bytes) -> dict:
    """The series of a t,re,im,abs CSV, or an emerge report's series and scalars; else {}."""
    if data.startswith(b"t,re,im,abs\n"):
        rows = np.loadtxt(io.BytesIO(data), delimiter=",", skiprows=1, ndmin=2)
        return {"series": rows[:, 1] + 1j * rows[:, 2]}
    try:
        doc = json.loads(data)
    except ValueError:
        return {}
    if not (isinstance(doc, dict) and isinstance(doc.get("series"), dict)):
        return {}
    return {**doc, "series": np.array(doc["series"]["re"]) + 1j * np.array(doc["series"]["im"])}


def ulps(x: float, y: float) -> int:
    """How many doubles lie from x to y: 0 when equal, 1 for neighbours (-0.0 and 0.0 are 0)."""
    def line(v):  # the bits of v as a sign-magnitude integer, made monotone in v
        bits = int(np.array(v, np.float64).view(np.int64))
        return bits if bits >= 0 else -(bits & (2**63 - 1))
    return abs(line(x) - line(y))


def numeric_diff(before: bytes, after: bytes) -> str:
    """How far a differing output moved by value, or "" if it holds no series in both trees."""
    a, b = _numbers(before), _numbers(after)
    if "series" not in a or "series" not in b:
        return ""
    first, (x, y) = abs(a["series"][0]), (a["series"], b["series"])
    if x.shape != y.shape:
        notes = [f"series of {len(x)} and {len(y)} samples"]
    else:
        moved = np.max(np.abs(y - x))
        notes = [f"max |dseries| / |D(0)| = {moved / first:.3g}" if first
                 else f"max |dseries| = {moved:.3g}, D(0) = 0"]
    for key in ("hs_norm_initial", "hs_norm_final", "verdict", "decoherence_time",
                "effective_compatibility_time"):
        if key in a and key in b:
            u, v = a[key], b[key]
            if key.startswith("hs_norm") and isinstance(u, float) and isinstance(v, float):
                notes.append(f"{key} {ulps(u, v)} ulps")
            else:
                notes.append(f"{key} {'equal' if u == v else f'{u} vs {v}'}")
    return ", ".join(notes)


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
        before, after = (outputs(tree, setup) for tree in trees)
        differ = sorted(key for key in before.keys() | after.keys()
                        if before.get(key) != after.get(key))
        diffs += bool(differ)
        print(f"DIFF {name}: {', '.join(differ)}" if differ else f"SAME {name}")
        for key in differ:
            moved = numeric_diff(before.get(key, b""), after.get(key, b""))
            if moved:
                print(f"    {key}: {moved}")
        sys.stdout.flush()
    print(f"{diffs} of {len(matrix)} cases differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
