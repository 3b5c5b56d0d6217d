"""End-to-end benchmark of the sidlattice CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load model: closed loop, one client. The run generates the workload's inputs
from the seed into a scratch directory of the checkout, then starts one
child process (child.py) that imports ``sidlattice.cli`` from the
checkout's ``src`` and calls ``cli.main(argv)`` back to back: one untimed
warm-up call, then timed calls for S seconds. The child's environment caps
BLAS threads at the number of usable CPUs. After the child exits, the
outputs are checked against an independent numpy reference (workloads.py).

With ``--trace 0`` the last line reports the end-to-end metrics:
``setup_s`` (child start until ``import sidlattice.cli`` returns, median of
several fresh processes), ``wall_s`` (median time of one ``cli.main``
call, output writing included) and ``peak_rss_mb`` (the child's
``ru_maxrss``). With ``--trace 1`` it reports the per-layer metrics of
tracer.py.

The seed changes the inputs but not the amount of work. Compare commits on
the same seed all the same: workloads.DEFAULT_SEED, and
workloads.HELD_OUT_SEED for the second check a claim needs. On a shared
host the machine's speed drifts by up to about 20% over tens of minutes, so
run the two commits in alternating pairs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import METRICS as LAYER_METRICS, unit as layer_unit
from workloads import (
    DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS, Workload, check_outputs,
    output_files, write_inputs)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
NPROC = len(os.sched_getaffinity(0))
BLAS_ENV = {var: str(NPROC) for var in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

# Set-up probes run in two halves, before and after the timed calls, so that
# their median spans the run rather than one moment of it.
SETUP_PROBES = 10
MIN_ITERATIONS = 3
MIN_TRACED_PAIRS = 1
DEADLINE_S = 170.0
SETUP_PROBE_CODE = ("import sidlattice.cli, time; "
                    "print(repr(time.perf_counter())); "
                    "print(sidlattice.cli.__file__)")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("SIDLATTICE_")}
    env.update(BLAS_ENV, PYTHONPATH=str(SRC))
    return env


def _check_source(path: str) -> None:
    if not Path(path).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"sidlattice was imported from {path}, not from {SRC}")


def _run(cmd: list[str], deadline: float, **kwargs) -> subprocess.CompletedProcess:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), timeout=timeout,
                              text=True, **kwargs)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{cmd[1]} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[:2])} exited {proc.returncode}: "
                         f"{(proc.stderr or '')[-2000:]}")
    return proc


def measure_setup(probes: int, deadline: float) -> list[float]:
    """Seconds from process start until ``import sidlattice.cli`` returns.

    perf_counter is CLOCK_MONOTONIC, shared by parent and child.
    """
    samples = []
    for _ in range(probes):
        start = time.perf_counter()
        proc = _run([sys.executable, "-c", SETUP_PROBE_CODE], deadline,
                    capture_output=True)
        imported_at, path = proc.stdout.split("\n")[:2]
        _check_source(path)
        samples.append(float(imported_at) - start)
    return samples


def run_child(argv: list[str], outputs: list[Path], seconds: float, trace: bool,
              workdir: Path, deadline: float) -> dict:
    spec_path, result_path = workdir / "child_spec.json", workdir / "child_result.json"
    spec_path.write_text(json.dumps({
        "argv": argv, "outputs": [str(p) for p in outputs], "seconds": seconds,
        "trace": trace, "result": str(result_path),
        "min_iterations": MIN_TRACED_PAIRS if trace else MIN_ITERATIONS,
    }), encoding="utf-8")
    _run([sys.executable, str(BENCH_DIR / "child.py"), str(spec_path)], deadline,
         stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    result = json.loads(result_path.read_text(encoding="utf-8"))
    _check_source(result["sidlattice_file"])
    return result


def git_revision() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "sidlattice" / "cli.py").is_file():
        raise BenchError(f"no sidlattice sources under {SRC}")
    workdir = WORK_ROOT / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        argv = write_inputs(workload, seed, workdir)
        setup = measure_setup(SETUP_PROBES // 2, deadline)
        child = run_child(argv, output_files(workload, workdir), seconds, trace,
                          workdir, deadline)
        setup += measure_setup(SETUP_PROBES - SETUP_PROBES // 2, deadline)
        problems = check_outputs(workload, seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()

    if child["warmup_rc"] != 0:
        problems.append(f"warm-up call exited {child['warmup_rc']}")
    attempted = len(child["walls"])
    # A timed call passes only if it reproduced the warm-up bytes, which are
    # the bytes checked here, so a problem with them fails every call.
    failed = attempted if problems else child["ok"].count(False)
    if trace:
        metrics = {name: {"value": child["layers"][name], "unit": layer_unit(name)}
                   for name in LAYER_METRICS}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(child["walls"]), "unit": "s"},
            "peak_rss_mb": {"value": child["maxrss_kb"] / 1024.0, "unit": "MB"},
        }
    meta = {
        "workload": workload.name, "seed": seed, "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED, "seconds": seconds, "trace": trace,
        "git_revision": git_revision(), "python": child["python"],
        "numpy": child["numpy"], "backend": child["backend"], "nproc": NPROC,
        "blas_threads": BLAS_ENV,
        "iterations": attempted, "setup_probes": len(setup),
        "missing_trace_names": child.get("missing_trace_names", []),
    }
    return {"meta": meta, "problems": problems, "failed_ratio": failed / attempted,
            "result": {"correct": not problems and failed == 0,
                       "attempted": attempted, "failed": failed, "metrics": metrics}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        out = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    meta, result = out["meta"], out["result"]
    print("meta " + json.dumps(meta, sort_keys=True))
    for problem in out["problems"]:
        print(f"check failed: {problem}")
    notes = {"setup_s": f"(median of {meta['setup_probes']} processes)",
             "wall_s": f"(median of {meta['iterations']} iterations)"}
    for name, m in result["metrics"].items():
        print(f"{name:44s} {m['value']:.6g} {m['unit']} {notes.get(name, '')}".rstrip())
    print(f"{'failed_ratio':44s} {out['failed_ratio']:.6g} 1 "
          f"({result['failed']} of {result['attempted']} iterations)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
