"""The numeric half of benchmarks/compare.py: what a differing output moved by."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "compare.py"
_SPEC = importlib.util.spec_from_file_location("compare", _PATH)
compare = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare)


@pytest.mark.parametrize("x,y,steps", [
    (1.0, 1.0, 0), (1.0, 1.0000000000000002, 1), (2.0, 1.9999999999999998, 1),
    (-0.0, 0.0, 0), (-5e-324, 5e-324, 2), (1.0, 2.0, 2**52)])
def test_ulps_counts_the_doubles_between(x, y, steps):
    assert compare.ulps(x, y) == compare.ulps(y, x) == steps


def _report(re, hs_initial, t_eff):
    return json.dumps({"series": {"re": re, "im": [0.0] * len(re)}, "verdict": "BOOLEANIZED",
                       "hs_norm_initial": hs_initial, "hs_norm_final": 2.0,
                       "decoherence_time": None, "effective_compatibility_time": t_eff}).encode()


def test_a_report_gives_the_series_move_the_norms_in_ulps_and_the_verdict():
    before = _report([4.0, 1.0], 2.0, 1.0)
    after = _report([4.0, 1.0 + 2**-52], 2.0000000000000004, 1.5)
    assert compare.numeric_diff(before, after) == (
        "max |dseries| / |D(0)| = 5.55e-17, hs_norm_initial 1 ulps, hs_norm_final 0 ulps, "
        "verdict equal, decoherence_time equal, effective_compatibility_time 1.0 vs 1.5")


def test_a_series_csv_gives_its_move_and_other_outputs_give_nothing():
    csv = b"t,re,im,abs\n0,2,0,2\n1,0.5,%s,0.5\n"
    assert compare.numeric_diff(csv % b"0", csv % b"1e-16") == "max |dseries| / |D(0)| = 5e-17"
    assert compare.numeric_diff(b"t,re,im,abs\n0,0,0,0\n", b"t,re,im,abs\n0,0,1e-300,0\n") == (
        "max |dseries| = 1e-300, D(0) = 0")
    assert compare.numeric_diff(b'{"meet": []}', b'{"meet": [1]}') == ""
    assert compare.numeric_diff(b"0", b"2") == ""


def test_both_trees_inherit_the_callers_blas_thread_count(monkeypatch, tmp_path):
    """The CLI sets its own count but for M = K1 K2 and E @ Q, whose bits can depend on the
    caller's; a compare run under OPENBLAS_NUM_THREADS=2 must run both trees at 2."""
    seen = []

    def run(argv, env, **kwargs):
        seen.append(env)
        return compare.subprocess.CompletedProcess(argv, 0, b"", b"")

    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.setattr(compare.subprocess, "run", run)
    parts = compare.outputs(tmp_path, lambda workdir: ["simulate"])
    assert parts == {"exit code": b"0", "stdout": b"", "stderr": b""}
    assert seen[0]["OPENBLAS_NUM_THREADS"] == "2"
    assert seen[0]["PYTHONDONTWRITEBYTECODE"] == "1"
