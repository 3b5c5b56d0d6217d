"""One benchmark run in a fresh process: import the CLI, call it back to back.

Usage: ``python3 perfbench/child.py SPEC_JSON``. run.py writes the spec
(argv, output files, time budget, trace flag, result path) and sets the
environment: PYTHONPATH to the checkout's ``src`` and the BLAS thread cap.
The first call is an untimed warm-up whose output bytes every timed call
must reproduce. With tracing, untraced and traced calls alternate, so the
two can be compared.
"""

from __future__ import annotations

import hashlib
import json
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np
from sidlattice import cli

from tracer import Tracer, summarize


def _digest(paths: list[str]) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def _call(argv) -> int:
    """Exit code of one CLI call; an escaping exception counts as a failure."""
    try:
        return cli.main(argv)
    except Exception:
        traceback.print_exc()
        return -1


def _timed_call(argv, outputs, reference) -> tuple[float, bool]:
    """Wall time of one CLI call, and whether it exited 0 with the reference bytes."""
    t0 = perf_counter()
    rc = _call(argv)
    wall = perf_counter() - t0
    return wall, rc == 0 and _digest(outputs) == reference


def _loop(step, budget: float, min_steps: int) -> list:
    """Results of step() until the next step would likely overrun the budget."""
    results, durations = [], []
    start = perf_counter()
    while (len(results) < min_steps
           or perf_counter() - start + statistics.median(durations) <= budget):
        t0 = perf_counter()
        results.append(step())
        durations.append(perf_counter() - t0)
    return results


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    argv, outputs = spec["argv"], spec["outputs"]

    warmup_rc = _call(argv)
    reference = _digest(outputs) if warmup_rc == 0 else None

    def call():
        return _timed_call(argv, outputs, reference)

    result = {
        "sidlattice_file": cli.__file__,
        "backend": getattr(sys.modules.get("sidlattice._accel"), "BACKEND", "none"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "warmup_rc": warmup_rc,
    }
    if spec["trace"]:
        # Traced and untraced calls alternate, so drift in machine speed
        # cancels out of the overhead estimate.
        tracer = Tracer()

        def pair():
            plain = call()
            tracer.install()
            tracer.reset()
            try:
                traced = call()
            finally:
                tracer.uninstall()
            return plain, traced, tracer.snapshot()

        pairs = _loop(pair, spec["seconds"], spec["min_iterations"])
        plain, traced, layers = zip(*pairs)
        result["layers"] = summarize([w for w, _ in plain], [w for w, _ in traced],
                                     list(layers))
        result["missing_trace_names"] = tracer.missing
        calls = plain + traced
    else:
        calls = _loop(call, spec["seconds"], spec["min_iterations"])
    result.update(walls=[w for w, _ in calls], ok=[ok for _, ok in calls],
                  maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
