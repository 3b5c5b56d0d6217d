"""Smoke test of the benchmark harness at tiny sizes.

Run from the root of a checkout: ``python3 -m pytest -q perfbench``.
It checks that every metric named in BENCHMARK.json is emitted, and that each
output check is live: it flags a corrupted series, report or law result.
"""

from __future__ import annotations

import itertools
import json
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

import run
import tracer
import workloads
from workloads import WORKLOADS, Workload

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = {
    "emerge": replace(WORKLOADS["emerge-n2048"], name="tiny-emerge",
                      n_points=64, n_bins=2),
    "simulate": replace(WORKLOADS["simulate-kk-n2048"], name="tiny-simulate",
                        n_points=64),
    "lattice": replace(WORKLOADS["lattice-mo2-bool-bool"], name="tiny-lattice",
                       blocks=("mo2", "bool")),
}


@pytest.fixture(scope="module")
def cli():
    sys.path.insert(0, str(run.SRC))
    try:
        from sidlattice import cli
    finally:
        sys.path.remove(str(run.SRC))
    return cli


def _outputs(cli, w: Workload, tmp_path: Path, seed: int = 3) -> Path:
    assert cli.main(workloads.write_inputs(w, seed, tmp_path)) == 0
    assert workloads.check_outputs(w, seed, tmp_path) == []
    return tmp_path


def test_benchmark_json_names_the_workloads_and_metrics():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == \
        {name: WORKLOADS[name].why for name in workloads.BENCHMARKED}
    assert [m["name"] for m in SPEC["per_layer"]] == list(tracer.METRICS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("kind", sorted(TINY))
def test_every_metric_is_emitted(kind, trace):
    out = run.run(TINY[kind], seed=5, seconds=0.2, trace=trace)
    result = out["result"]
    assert out["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC[section]}
    assert all(m["value"] > 0 for name, m in result["metrics"].items()
               if not trace or name == "trace.coverage")


def test_corrupted_series_is_flagged(cli, tmp_path):
    w = TINY["simulate"]
    workdir = _outputs(cli, w, tmp_path)
    csv = workdir / "series.csv"
    lines = csv.read_text().split("\n")
    t, re, im, mag = lines[1].split(",")
    lines[1] = ",".join([t, repr(float(re) * (1 + 1e-8)), im, mag])
    csv.write_text("\n".join(lines))
    assert any("direct double sum" in p for p in workloads.check_outputs(w, 3, workdir))


def test_corrupted_emerge_report_is_flagged(cli, tmp_path):
    w = TINY["emerge"]
    workdir = _outputs(cli, w, tmp_path)
    path = workdir / "report.json"
    good = json.loads(path.read_text())
    for key, value in [("verdict", "NOT_REACHED"), ("pointer_lattice_boolean", False),
                       ("hs_norm_final", good["hs_norm_final"] + 1e-9)]:
        path.write_text(json.dumps({**good, key: value}))
        assert workloads.check_outputs(w, 3, workdir), key


def test_corrupted_law_result_is_flagged(cli, tmp_path):
    w = TINY["lattice"]
    workdir = _outputs(cli, w, tmp_path)
    path = workdir / "report.json"
    good = json.loads(path.read_text())
    assert good["n_elements"] == 24 and good["boolean"] is False
    laws = {**good["laws"], "all_pass": False}
    kolmogorov = {**good["kolmogorov"], "pairs_checked": 299}
    for key, value in [("laws", laws), ("n_elements", 23), ("boolean", True),
                       ("closed", False), ("kolmogorov", kolmogorov)]:
        path.write_text(json.dumps({**good, key: value}))
        assert workloads.check_outputs(w, 3, workdir), key


def test_changed_output_bytes_fail_the_iteration(cli, tmp_path, monkeypatch):
    import child  # needs the sidlattice import the cli fixture made
    out = tmp_path / "out.txt"
    calls = itertools.count()

    def writes(text):
        def main(argv):
            out.write_text(text())
            return 0
        return SimpleNamespace(main=main)

    monkeypatch.setattr(child, "cli", writes(lambda: "same"))
    child.cli.main([])
    reference = child._digest([str(out)])

    def step():
        return child._timed_call([], [str(out)], reference)[1]

    assert child._loop(step, 0.0, 3) == [True, True, True]
    monkeypatch.setattr(child, "cli", writes(lambda: str(next(calls))))
    assert child._loop(step, 0.0, 3) == [False, False, False]
