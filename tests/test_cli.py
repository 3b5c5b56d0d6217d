import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import direct_phase_series, near_the_evolved_norm
from sidlattice import (
    ExpectationSeries,
    _blas,
    cli,
    engine,
    evolve,
    hs_norm,
    incompatibility_observable,
)
from sidlattice.cli import main

_SHIPPED_PATH = Path(__file__).resolve().parents[1] / "configs" / "gaussian_emerge.json"


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def _base_config(n_points=64, t_max=8.0, n_samples=41, seed=7):
    return {
        "grid": {"omega_max": 20.0, "n_points": n_points},
        "state": {
            "diag": {"family": "gaussian", "mu": 10.0, "Sigma": 3.0},
            "kernel": {"family": "random_bandlimited", "sigma": math.sqrt(2.0),
                       "mu": 10.0, "Sigma": 2.0, "seed": seed},
        },
        "observables": {
            "O1": {"diag": {"family": "linear"}},
            "O2": {"kernel": {"family": "gaussian_band", "sigma": math.sqrt(2.0),
                              "mu": 10.0, "Sigma": 2.0}},
        },
        "time": {"t_max": t_max, "n_samples": n_samples},
        "thresholds": {"epsilon": 1e-06},
        "partition": {"n_bins": 4},
    }


def _line_doc(*vecs):
    return {"dim": len(vecs[0]),
            "elements": [[[[float(x), 0.0] for x in v]] for v in vecs]}


class TestSimulate:
    def test_writes_series_csv(self, tmp_path):
        cfg = _write(tmp_path / "cfg.json", _base_config())
        out = tmp_path / "series.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().split("\n")
        assert lines[0] == "t,re,im,abs"
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[3]) == pytest.approx(
            math.hypot(float(first[1]), float(first[2])), rel=1e-15)
        assert lines[-1] == ""  # trailing newline
        assert len(lines) == 43  # header + 41 rows + empty tail

    @pytest.mark.parametrize("rows", [3, 4095, 4096, 4097, 2 * 4096 + 1])
    def test_series_csv_is_the_one_join_written_row_by_row(self, tmp_path, monkeypatch, rows):
        rng = np.random.default_rng(rows)
        values = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows) \
            + 1j * rng.standard_normal(rows)
        values[:3] = [-0.0 - 0.0j, 1e-320 + 1e300j, 1e300 - 1e300j]
        series = ExpectationSeries(np.linspace(0.0, 1.0, rows), values, 10.0)
        lines = ["t,re,im,abs"] + [  # the writer as one joined list
            ",".join(format(float(x), ".17g") for x in (t, v.real, v.imag, abs(v)))
            for t, v in zip(series.times, series.values)]
        writes = []

        def recorded(*args, **kwargs):
            fh = open(*args, **kwargs)
            write = fh.write
            fh.write = lambda text: writes.append(len(text)) or write(text)
            return fh

        monkeypatch.setattr(cli, "open", recorded, raising=False)
        with cli._output(str(tmp_path / "s.csv")) as fh:
            cli._write_csv(fh, series.times, series.values)
        text = "\n".join(lines) + "\n"
        assert (tmp_path / "s.csv").read_bytes() == text.encode()
        assert sum(writes) == len(text)  # every write recorded, and none holds two rows
        assert max(writes) <= max(len(line) + 1 for line in lines)

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_config_exits_2(self, tmp_path):
        doc = _base_config()
        del doc["grid"]
        cfg = _write(tmp_path / "cfg.json", doc)
        assert main(["simulate", "--config", cfg, "--out",
                     str(tmp_path / "x.csv")]) == 2

    def test_window_guard_exits_3_and_names_recurrence(self, tmp_path, capsys):
        doc = _base_config()
        recurrence = 2.0 * math.pi / (20.0 / 64)
        doc["time"]["t_max"] = recurrence
        cfg = _write(tmp_path / "cfg.json", doc)
        assert main(["simulate", "--config", cfg, "--out",
                     str(tmp_path / "x.csv")]) == 3
        err = capsys.readouterr().err
        assert f"{recurrence}" in err

    def test_window_guard_runs_before_any_kernel(self, tmp_path, monkeypatch):
        def no_kernel_build(*args):
            raise AssertionError("a kernel was built before the window check")

        monkeypatch.setattr(cli, "build_kernel", no_kernel_build)
        cfg = _write(tmp_path / "cfg.json", _base_config(t_max=1e3))
        assert main(["simulate", "--config", cfg, "--out",
                     str(tmp_path / "x.csv")]) == 3

    def test_out_falls_back_to_config_output(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        doc = _base_config()
        doc["output"] = {"series": "fallback.csv"}
        cfg = _write(tmp_path / "cfg.json", doc)
        assert main(["simulate", "--config", cfg]) == 0
        assert (tmp_path / "fallback.csv").exists()

    def test_no_output_path_exits_2(self, tmp_path):
        cfg = _write(tmp_path / "cfg.json", _base_config())
        assert main(["simulate", "--config", cfg]) == 2


class TestLattice:
    def test_boolean_input(self, tmp_path):
        doc = _line_doc([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0])
        inp = _write(tmp_path / "in.json", doc)
        report_path = tmp_path / "rep.json"
        assert main(["lattice", "--in", inp, "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["boolean"] is True
        assert report["n_elements"] == 8
        assert report["laws"]["all_pass"] is True

    def test_two_line_input_with_state(self, tmp_path):
        r = 1.0 / math.sqrt(2.0)
        doc = _line_doc([1.0, 0.0], [r, r])
        inp = _write(tmp_path / "in.json", doc)
        state = _write(tmp_path / "state.json", {
            "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]})
        report_path = tmp_path / "rep.json"
        assert main(["lattice", "--in", inp, "--state", state,
                     "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["boolean"] is False
        assert report["n_elements"] == 6
        assert report["laws"]["all_pass"] is True
        assert report["kolmogorov"]["max_residual"] == pytest.approx(0.5, abs=1e-10)

    @pytest.mark.parametrize("entry", [float("nan"), float("inf")])
    def test_non_finite_subspace_entry_exits_2(self, tmp_path, capsys, entry):
        doc = _line_doc([1.0, 0.0], [0.0, 1.0])
        doc["elements"][1][0][0][0] = entry
        inp = _write(tmp_path / "in.json", doc)
        assert main(["lattice", "--in", inp,
                     "--report", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err == "error: element 1: entries must be finite\n"

    def test_bool_subspace_entry_exits_2(self, tmp_path, capsys):
        doc = _line_doc([1.0, 0.0], [0.0, 1.0])
        doc["elements"][1][0][1][0] = True
        inp = _write(tmp_path / "in.json", doc)
        assert main(["lattice", "--in", inp, "--report", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err == (
            "error: element 1: each column vector needs 2 [re, im] pairs of numbers\n")

    def test_bool_state_entry_exits_2(self, tmp_path, capsys):
        inp = _write(tmp_path / "in.json", _line_doc([1.0, 0.0], [0.0, 1.0]))
        state = _write(tmp_path / "state.json", {
            "matrix": [[[True, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]})
        assert main(["lattice", "--in", inp, "--state", state,
                     "--report", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err == (
            "error: state matrix row 0 needs 2 [re, im] pairs of numbers\n")

    @pytest.mark.parametrize("imag", [1e308, -1e308])
    def test_overflowing_state_residual_exits_2_without_a_runtime_warning(
            self, tmp_path, capsys, imag):
        inp = _write(tmp_path / "in.json", _line_doc([1.0, 0.0], [0.0, 1.0]))
        state = _write(tmp_path / "state.json", {
            "matrix": [[[0.5, imag], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["lattice", "--in", inp, "--state", state,
                         "--report", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err == (
            "error: invalid density state: density matrix is not Hermitian to 1e-10\n")

    def test_nan_state_exits_2(self, tmp_path, capsys):
        inp = _write(tmp_path / "in.json", _line_doc([1.0, 0.0], [0.0, 1.0]))
        state = _write(tmp_path / "state.json", {
            "matrix": [[[float("nan"), 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]})
        assert main(["lattice", "--in", inp, "--state", state,
                     "--report", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid density state: ") and err.count("\n") == 1

    def test_dim_past_the_storage_cap_exits_2_before_any_element(
            self, tmp_path, capsys, monkeypatch):
        def no_closure(*args, **kwargs):
            raise AssertionError("a lattice was generated past the dim cap")

        monkeypatch.setattr(cli, "generate_lattice", no_closure)
        # the element is malformed too, so parsing it first would name it
        inp = _write(tmp_path / "in.json", {"dim": 100_000_000, "elements": [[[]]]})
        assert main(["lattice", "--in", inp,
                     "--report", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err == (
            "error: dim=100000000 exceeds the lattice cap 256\n")

    @pytest.mark.parametrize("over", [0, 1], ids=["cap", "cap+1"])
    def test_dim_cap_is_checked_before_any_element(self, tmp_path, capsys, over):
        """The cap itself goes on to its (malformed) element; one past it stops first."""
        dim = cli.MAX_LATTICE_DIM + over
        inp = _write(tmp_path / "in.json", {"dim": dim, "elements": [[[]]]})
        assert main(["lattice", "--in", inp, "--report", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err == (
            f"error: dim={dim} exceeds the lattice cap {cli.MAX_LATTICE_DIM}\n" if over else
            f"error: element 0: each column vector needs {dim} [re, im] pairs of numbers\n")

    def test_bool_dim_exits_2(self, tmp_path, capsys):
        inp = _write(tmp_path / "in.json", {"dim": True, "elements": []})
        assert main(["lattice", "--in", inp,
                     "--report", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err == (
            "error: dim must be a positive integer, got True\n")

    def test_truncated_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 2, "elements": [[')
        assert main(["lattice", "--in", str(bad),
                     "--report", str(tmp_path / "r.json")]) == 2

    def test_uncertified_closure_exits_4(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        v1 = rng.standard_normal(3)
        v2 = rng.standard_normal((2, 3))
        doc = {"dim": 3, "elements": [
            [[[float(x), 0.0] for x in v1]],
            [[[float(x), 0.0] for x in row] for row in v2]]}
        inp = _write(tmp_path / "in.json", doc)
        report_path = tmp_path / "rep.json"
        assert main(["lattice", "--in", inp, "--report", str(report_path),
                     "--max-elements", "8"]) == 4
        report = json.loads(report_path.read_text())
        assert report["closed"] is False and report["n_elements"] == 8
        assert report["error"] == "closure exceeded max_elements=8"
        assert capsys.readouterr().err == (
            "lattice closure exceeded 8 elements; laws not certified\n")

    def test_failed_law_suite_exits_4(self, tmp_path, capsys, monkeypatch):
        """Three real lines 0.006 rad apart in C^2, at tolerance 1e-2: the closure holds
        six elements and six laws fail."""
        monkeypatch.setenv("SIDLATTICE_TOL", "1e-2")
        inp = _write(tmp_path / "in.json", _line_doc(
            *([math.cos(a), math.sin(a)] for a in (0.0, 0.006, 0.012))))
        report_path = tmp_path / "rep.json"
        assert main(["lattice", "--in", inp, "--report", str(report_path)]) == 4
        assert capsys.readouterr().err == (
            "lattice law suite failed: ['join_is_lub', 'order_reversal', 'de_morgan', "
            "'orthomodular', 'distributive_inclusion_meet', 'distributive_inclusion_join']\n")
        report = json.loads(report_path.read_text())
        assert report["n_elements"] == 6 and report["closed"] is True
        assert report["laws"]["all_pass"] is False

    @pytest.mark.parametrize("state_doc", [None, {"matrix": [[[1.0, 0.0], [0.0, 0.0]]]}],
                             ids=["missing", "one-row-for-dim-2"])
    def test_bad_state_exits_2_before_the_closure(self, tmp_path, capsys, monkeypatch,
                                                  state_doc):
        def no_closure(*args, **kwargs):
            raise AssertionError("the closure ran before the state was read")

        monkeypatch.setattr(cli, "generate_lattice", no_closure)
        r = 1.0 / math.sqrt(2.0)
        inp = _write(tmp_path / "in.json", _line_doc([1.0, 0.0], [r, r]))
        state = tmp_path / "state.json"
        if state_doc is not None:
            _write(state, state_doc)
        # a capped closure (6 elements past 3) exited 4 with the state never read
        assert main(["lattice", "--in", inp, "--state", str(state), "--max-elements", "3",
                     "--report", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert ("cannot read state document" if state_doc is None
                else "state matrix must be 2 x 2, got 1 rows") in err


class TestEmerge:
    def test_booleanized_run(self, tmp_path):
        cfg = _write(tmp_path / "cfg.json", _base_config())
        report_path = tmp_path / "rep.json"
        series_path = tmp_path / "series.csv"
        assert main(["emerge", "--config", cfg, "--report", str(report_path),
                     "--series", str(series_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["verdict"] == "BOOLEANIZED"
        assert report["pointer_lattice_boolean"] is True
        assert series_path.read_text().startswith("t,re,im,abs\n")

    def test_commuting_pair_exits_5(self, tmp_path, capsys):
        doc = _base_config()
        doc["observables"]["O2"] = {"diag": {"family": "gaussian", "mu": 10.0,
                                             "Sigma": 4.0}}
        cfg = _write(tmp_path / "cfg.json", doc)
        assert main(["emerge", "--config", cfg,
                     "--report", str(tmp_path / "r.json"),
                     "--series", str(tmp_path / "s.csv")]) == 5
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["verdict"] == "DEGENERATE"

    def test_constant_diagonal_against_a_huge_kernel_exits_5(self, tmp_path, capsys):
        """O1 is a multiple of the identity: the pair commutes whatever O2's scale.

        The operand bound overflows here (1e307 times 2 omega_max), so a verdict
        from D's norm against that scale read 0 <= 1e-10 * nan and said BOOLEANIZED.
        """
        doc = json.loads((Path(__file__).resolve().parents[1] / "configs"
                          / "commuting_pair.json").read_text())
        doc["observables"] = {
            "O1": {"diag": {"family": "constant"}},
            "O2": {"kernel": {"family": "gaussian_band", "amplitude": 1e307,
                              "sigma": 1.4, "mu": 10.0, "Sigma": 2.0}}}
        cfg = _write(tmp_path / "cfg.json", doc)
        assert main(["emerge", "--config", cfg, "--report", str(tmp_path / "r.json"),
                     "--series", str(tmp_path / "s.csv")]) == 5
        assert capsys.readouterr().err == "degenerate premise: the observables already commute\n"
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["verdict"] == "DEGENERATE"
        assert report["hs_norm_initial"] == report["hs_norm_final"] == 0.0

    def test_state_without_a_kernel_booleanizes_at_time_zero(self, tmp_path, capsys):
        """No state kernel weighs D, so the series is zero from t = 0 and both times read
        0.0. D is still made and read for its HS norms, and the pair does not commute, so
        the verdict is BOOLEANIZED with exit 0, not DEGENERATE."""
        doc = json.loads(_SHIPPED_PATH.read_text())
        doc["grid"]["n_points"] = 300  # more than one tile a side
        doc["state"].pop("kernel")
        cfg, report_path = _write(tmp_path / "cfg.json", doc), tmp_path / "r.json"
        assert main(["emerge", "--config", cfg, "--report", str(report_path),
                     "--series", str(tmp_path / "s.csv")]) == 0
        assert capsys.readouterr().err == ""
        report = json.loads(report_path.read_text())
        assert report["verdict"] == "BOOLEANIZED"
        assert report["decoherence_time"] == report["effective_compatibility_time"] == 0.0
        assert not any(v for part in ("re", "im", "abs") for v in report["series"][part])
        scenario = cli.load_scenario(cfg, need_partition=True, outputs={})
        incompat = incompatibility_observable(scenario.o1, scenario.o2)
        assert report["hs_norm_initial"] == hs_norm(incompat.kernel) > 0.0
        assert near_the_evolved_norm(report["hs_norm_final"], hs_norm(
            evolve(incompat.to_observable(), scenario.t_max).kernel))

    def test_tiny_kernel_amplitude_still_decoheres(self, tmp_path, capsys):
        """An O2 kernel of amplitude 1e-170 makes D's squares underflow; its HS norm must
        still be 1e-170 times that at amplitude 1, not 0 (which read as commuting)."""
        reports = {}
        for amplitude in (1.0, 1e-170):
            doc = json.loads(_SHIPPED_PATH.read_text())
            doc["observables"]["O2"]["kernel"]["amplitude"] = amplitude
            cfg, path = _write(tmp_path / "cfg.json", doc), tmp_path / f"r{amplitude}.json"
            assert main(["emerge", "--config", cfg, "--report", str(path),
                         "--series", str(tmp_path / "s.csv")]) == 0
            assert capsys.readouterr().err == ""
            reports[amplitude] = json.loads(path.read_text())
        tiny, unit = reports[1e-170], reports[1.0]
        assert tiny["verdict"] == "BOOLEANIZED"
        assert tiny["decoherence_time"] == unit["decoherence_time"]
        for key in ("hs_norm_initial", "hs_norm_final"):
            assert tiny[key] == pytest.approx(1e-170 * unit[key], rel=1e-13, abs=0.0)

    def test_missing_partition_exits_2(self, tmp_path):
        doc = _base_config()
        del doc["partition"]
        cfg = _write(tmp_path / "cfg.json", doc)
        assert main(["emerge", "--config", cfg,
                     "--report", str(tmp_path / "r.json"),
                     "--series", str(tmp_path / "s.csv")]) == 2

    def test_missing_epsilon_exits_2(self, tmp_path):
        doc = _base_config()
        del doc["thresholds"]["epsilon"]
        cfg = _write(tmp_path / "cfg.json", doc)
        assert main(["emerge", "--config", cfg,
                     "--report", str(tmp_path / "r.json"),
                     "--series", str(tmp_path / "s.csv")]) == 2

    def test_deterministic_outputs(self, tmp_path):
        cfg = _write(tmp_path / "cfg.json", _base_config())
        paths = []
        for tag in ("a", "b"):
            report_path = tmp_path / f"rep_{tag}.json"
            series_path = tmp_path / f"series_{tag}.csv"
            assert main(["emerge", "--config", cfg, "--report", str(report_path),
                         "--series", str(series_path)]) == 0
            paths.append((report_path.read_bytes(), series_path.read_bytes()))
        assert paths[0] == paths[1]

    @pytest.mark.parametrize("n_bins", [9, 100])
    def test_too_many_bins_exits_2(self, tmp_path, capsys, monkeypatch, n_bins):
        def no_kernel_build(*args):
            raise AssertionError("a kernel was built before the cap check")

        monkeypatch.setattr(cli, "build_kernel", no_kernel_build)
        doc = _base_config(n_points=128)
        doc["partition"]["n_bins"] = n_bins
        cfg = _write(tmp_path / "cfg.json", doc)
        assert main(["emerge", "--config", cfg,
                     "--report", str(tmp_path / "r.json"),
                     "--series", str(tmp_path / "s.csv")]) == 2
        assert capsys.readouterr().err == (
            "error: pointer lattice closure exceeded max_elements=256\n")
        assert not (tmp_path / "r.json").exists()

    def test_eight_bins_booleanize_quickly(self, tmp_path):
        doc = _base_config()
        doc["partition"]["n_bins"] = 8
        cfg = _write(tmp_path / "cfg.json", doc)
        report_path = tmp_path / "rep.json"
        start = time.perf_counter()
        assert main(["emerge", "--config", cfg, "--report", str(report_path),
                     "--series", str(tmp_path / "s.csv")]) == 0
        # A generic closure of the 256 bin subspaces takes minutes; the
        # bound leaves room for a slow shared host.
        assert time.perf_counter() - start < 5.0
        report = json.loads(report_path.read_text())
        assert report["verdict"] == "BOOLEANIZED"
        assert report["pointer_lattice_boolean"] is True


class TestOracle:
    def test_gaussian_sigma_c(self, capsys):
        assert main(["oracle", "--family", "gaussian_band",
                     "--params", '{"sigma_c": 1.0}', "--t", "0,1,2"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "t,re,im,abs"
        values = [float(row.split(",")[3]) for row in lines[1:]]
        assert values == pytest.approx(
            [1.0, math.exp(-0.5), math.exp(-2.0)], rel=1e-12)

    def test_gaussian_pair_widths(self, capsys):
        assert main(["oracle", "--family", "gaussian_band",
                     "--params", '{"sigma1": 1.4142135623730951, '
                                 '"sigma2": 1.4142135623730951}',
                     "--t", "2"]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert float(out[1].split(",")[3]) == pytest.approx(math.exp(-2.0), rel=1e-10)

    def test_lorentz_gamma_c(self, capsys):
        assert main(["oracle", "--family", "lorentz_band",
                     "--params", '{"gamma_c": 0.5}', "--t", "2"]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert float(out[1].split(",")[3]) == pytest.approx(math.exp(-1.0), rel=1e-10)

    def test_bad_params_exit_2(self, capsys):
        assert main(["oracle", "--family", "gaussian_band",
                     "--params", "not json", "--t", "1"]) == 2
        assert main(["oracle", "--family", "rect_band",
                     "--params", '{"sigma_c": 1.0}', "--t", "1"]) == 2

    def test_stdout_is_the_series_writer_text(self, capsys):
        times = np.array([0.0, 0.5, 1.0, 2.5, 1e-320])
        assert main(["oracle", "--family", "lorentz_band", "--params", '{"gamma_c": 0.5}',
                     "--t", ",".join(map(repr, times.tolist()))]) == 0
        expected = io.StringIO()
        cli._write_csv(expected, times, np.exp(-0.5 * times))
        assert capsys.readouterr().out == expected.getvalue()

    def test_rate_that_overflows_its_square_prints_no_warning(self, capsys):
        assert main(["oracle", "--family", "gaussian_band",
                     "--params", '{"sigma_c": 1e300}', "--t", "0,1"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "t,re,im,abs\n0,1,0,1\n1,0,0,0\n"
        assert captured.err == ""

    @pytest.mark.parametrize("family,params,message", [
        ("gaussian_band", '{"sigma1": 1e-320, "sigma2": 2.0}', "decay rate must be positive"),
        ("gaussian_band", '{"sigma1": 1e200, "sigma2": 1e200}', "decay rate must be positive"),
        ("lorentz_band", '{"gamma1": 1e308, "gamma2": 1e308}', "decay rate must be positive"),
        ("gaussian_band", '{"sigma1": -1.0, "sigma2": 2.0}',
         "widths sigma1, sigma2 must be positive"),
        ("lorentz_band", '{"gamma1": 0, "gamma2": 2.0}', "widths gamma1, gamma2 must be positive"),
        ("lorentz_band", '{"gamma1": 1.0}', "lorentz_band oracle needs gamma_c or gamma1+gamma2"),
    ])
    def test_width_pair_out_of_range_exits_2_with_one_line(self, capsys, family, params,
                                                           message):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["oracle", "--family", family, "--params", params, "--t", "0,1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1

    def test_huge_width_beside_a_unit_one_reduces_to_it(self, capsys):
        assert main(["oracle", "--family", "lorentz_band",
                     "--params", '{"gamma1": 1e308, "gamma2": 1.0}', "--t", "1"]) == 0
        captured = capsys.readouterr()
        assert float(captured.out.split("\n")[1].split(",")[3]) == math.exp(-1.0)
        assert captured.err == ""

    def test_lorentz_rate_past_the_exponent_range_prints_no_warning(self, capsys):
        assert main(["oracle", "--family", "lorentz_band",
                     "--params", '{"gamma_c": 1e308}', "--t", "0,1,2"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "t,re,im,abs\n0,1,0,1\n1,0,0,0\n2,0,0,0\n"
        assert captured.err == ""

    @pytest.mark.parametrize("params,times", [
        ('{"sigma_c": "x"}', "1"),
        ('{"sigma_c": [1]}', "1"),
        ('{"sigma1": 1.0, "sigma2": null}', "1"),
        ('{"sigma_c": 1.0}', "0,nan"),
        ('{"sigma_c": 1.0}', "inf"),
        ('{"sigma_c": 1' + "0" * 400 + '}', "1"),
    ])
    def test_non_numeric_param_or_time_exits_2(self, capsys, params, times):
        assert main(["oracle", "--family", "gaussian_band",
                     "--params", params, "--t", times]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def _set(path, value):
    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return mutate


_MALFORMED = {
    "sustain-string": _set(("thresholds", "sustain"), "ten"),
    "ratio-null": _set(("thresholds", "decoherence_ratio"), None),
    "epsilon-string": _set(("thresholds", "epsilon"), "1e-6"),
    "amplitude-string": _set(("state", "diag", "amplitude"), "2"),
    "mu-string": _set(("state", "diag", "mu"), "10"),
    "state-diag-not-object": _set(("state", "diag"), "gaussian"),
    "o1-diag-not-object": _set(("observables", "O1", "diag"), ["linear"]),
    "samples-nan": _set(("state", "diag"), {"samples": [float("nan")] * 64}),
    "samples-string": _set(("state", "diag"), {"samples": ["1"] * 64}),
    "thresholds-zero": _set(("thresholds",), 0),
    "thresholds-null": _set(("thresholds",), None),
    "output-list": _set(("output",), []),
    "output-false": _set(("output",), False),
    # pass a type-only spec check, then crash the kernel build
    "seed-float": _set(("state", "kernel", "seed"), 1.5),
    "seed-negative": _set(("state", "kernel", "seed"), -1),
    "seed-bool": _set(("state", "kernel", "seed"), True),
    "gamma-overflows": _set(("observables", "O2", "kernel"), {
        "family": "lorentz_band", "gamma": 1e200, "mu": 10.0, "Sigma": 2.0}),
    "amplitude-overflows": _set(("state", "kernel", "amplitude"), 1e308),
    "t-max-int-past-float": _set(("time", "t_max"), 10**400),
}


@pytest.mark.parametrize("mutate", _MALFORMED.values(), ids=_MALFORMED.keys())
def test_malformed_scenario_field_exits_2(tmp_path, capsys, mutate):
    doc = _base_config()
    mutate(doc)
    cfg = _write(tmp_path / "cfg.json", doc)
    assert main(["emerge", "--config", cfg, "--report", str(tmp_path / "r.json"),
                 "--series", str(tmp_path / "s.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_overflowing_kernel_exits_2_without_a_runtime_warning(tmp_path, capsys):
    doc = _base_config(n_points=32, t_max=4.0)
    doc["state"]["kernel"]["amplitude"] = 1e308
    cfg = _write(tmp_path / "cfg.json", doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["emerge", "--config", cfg, "--report", str(tmp_path / "r.json"),
                     "--series", str(tmp_path / "s.csv")]) == 2
    assert capsys.readouterr().err == (
        "error: state kernel invalid: samples must be finite\n")


@pytest.mark.parametrize("argv,doc,message", [
    (["simulate", "--config", "{doc}"], [1], "config {doc} must hold a JSON object"),
    (["lattice", "--in", "{doc}", "--report", "{tmp}/r.json"], {"dim": 2, "elements": [5]},
     "element 0 must be a list of column vectors"),
    (["oracle", "--family", "gaussian_band", "--params", "[1]", "--t", "0"], None,
     "--params must be a JSON object"),
], ids=["config-not-an-object", "element-not-a-list", "params-not-an-object"])
def test_shape_guard_exits_2_with_its_line(tmp_path, capsys, argv, doc, message):
    path = _write(tmp_path / "doc.json", doc)
    argv = [arg.format(doc=path, tmp=tmp_path) for arg in argv]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message.format(doc=path)}\n"


def test_lattice_max_elements_below_two_exits_2(tmp_path, capsys):
    inp = _write(tmp_path / "in.json", _line_doc([1.0, 0.0], [0.0, 1.0]))
    assert main(["lattice", "--in", inp, "--report", str(tmp_path / "r.json"),
                 "--max-elements", "1"]) == 2
    assert "--max-elements must be at least 2" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_lattice_max_elements_cap_itself_is_accepted(tmp_path):
    inp = _write(tmp_path / "in.json", _line_doc([1.0, 0.0], [0.0, 1.0]))
    report_path = tmp_path / "r.json"
    assert main(["lattice", "--in", inp, "--report", str(report_path),
                 "--max-elements", str(cli.MAX_LATTICE_ELEMENTS)]) == 0
    assert json.loads(report_path.read_text())["n_elements"] == 4


def test_lattice_max_elements_past_the_cap_exits_2_before_reading(tmp_path, capsys, monkeypatch):
    def unread(*args, **kwargs):
        raise AssertionError("the input was read before --max-elements was checked")

    monkeypatch.setattr(cli, "_load_json", unread)
    cap = cli.MAX_LATTICE_ELEMENTS
    assert main(["lattice", "--in", str(tmp_path / "unread.json"), "--report",
                 str(tmp_path / "r.json"), "--max-elements", str(cap + 1)]) == 2
    assert capsys.readouterr().err == (
        f"error: --max-elements must be at least 2 and at most {cap}, got {cap + 1}\n")
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("raw", ["zero", "-1e-8", "nan", "inf"])
def test_bad_tolerance_env_exits_2_naming_it(tmp_path, capsys, monkeypatch, raw):
    monkeypatch.setenv("SIDLATTICE_TOL", raw)
    cfg = _write(tmp_path / "cfg.json", _base_config())
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: SIDLATTICE_TOL must ")


@pytest.mark.parametrize("command,field,value", [
    ("simulate", "series", 1),
    ("emerge", "series", None),
    ("emerge", "report", ["r.json"]),
])
def test_non_string_output_path_exits_2(tmp_path, capsys, monkeypatch,
                                        command, field, value):
    monkeypatch.chdir(tmp_path)
    doc = _base_config()
    doc["output"] = {"series": "s.csv", "report": "r.json", field: value}
    cfg = _write(tmp_path / "cfg.json", doc)
    assert main([command, "--config", cfg]) == 2
    assert capsys.readouterr().err == f"error: output key {field!r} must be a str\n"
    assert not (tmp_path / "r.json").exists()
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("block,value", [("thresholds", 0), ("output", [])])
def test_falsy_block_is_named_in_the_error(tmp_path, capsys, block, value):
    doc = _base_config()
    doc[block] = value
    cfg = _write(tmp_path / "cfg.json", doc)
    assert main(["emerge", "--config", cfg, "--report", str(tmp_path / "r.json"),
                 "--series", str(tmp_path / "s.csv")]) == 2
    assert capsys.readouterr().err == f"error: config key {block!r} must be a dict\n"


def _no_work(*args, **kwargs):
    raise AssertionError("numeric work ran before the output path was checked")


@pytest.mark.parametrize("command,flag", [
    ("emerge", "--report"), ("emerge", "--series"), ("simulate", "--out"),
])
def test_missing_output_directory_exits_2_before_any_kernel(
        tmp_path, capsys, monkeypatch, command, flag):
    monkeypatch.setattr(cli, "build_kernel", _no_work)
    cfg = _write(tmp_path / "cfg.json", _base_config())
    paths = {"--report": str(tmp_path / "r.json"), "--series": str(tmp_path / "s.csv"),
             "--out": str(tmp_path / "s.csv")}
    paths[flag] = str(tmp_path / "missing" / "out.file")
    flags = ("--report", "--series") if command == "emerge" else ("--out",)
    argv = [command, "--config", cfg]
    for f in flags:
        argv += [f, paths[f]]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: output directory ") and err.count("\n") == 1
    assert not (tmp_path / "r.json").exists() and not (tmp_path / "s.csv").exists()


def test_missing_config_output_directory_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "build_kernel", _no_work)
    monkeypatch.chdir(tmp_path)
    doc = _base_config()
    doc["output"] = {"series": "s.csv", "report": "missing/r.json"}
    cfg = _write(tmp_path / "cfg.json", doc)
    assert main(["emerge", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("error: output directory ")


@pytest.mark.parametrize("mutate", [
    _set(("thresholds", "decoherence_ratio"), 2.0),
    _set(("thresholds", "sustain"), 0),
    lambda doc: doc["thresholds"].pop("epsilon"),
], ids=["ratio-2", "sustain-0", "emerge-without-epsilon"])
def test_threshold_errors_exit_2_before_any_kernel(tmp_path, capsys, monkeypatch, mutate):
    built = []
    build = cli.build_kernel
    monkeypatch.setattr(cli, "build_kernel",
                        lambda *args: built.append(args) or build(*args))
    doc = _base_config()
    mutate(doc)
    cfg = _write(tmp_path / "cfg.json", doc)
    assert main(["emerge", "--config", cfg, "--report", str(tmp_path / "r.json"),
                 "--series", str(tmp_path / "s.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert built == []


def test_lattice_missing_report_directory_exits_2_before_closure(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "generate_lattice", _no_work)
    inp = _write(tmp_path / "in.json", _line_doc([1.0, 0.0], [0.0, 1.0]))
    assert main(["lattice", "--in", inp,
                 "--report", str(tmp_path / "missing" / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: output directory ") and err.count("\n") == 1


def _argv_writing_to(tmp_path, command, out):
    """command's argv on small inputs, its report (simulate: its series) written to out."""
    if command == "lattice":
        inp = _write(tmp_path / "in.json", _line_doc([1.0, 0.0], [0.0, 1.0]))
        return ["lattice", "--in", inp, "--report", out]
    cfg = _write(tmp_path / "cfg.json", _base_config())
    if command == "simulate":
        return ["simulate", "--config", cfg, "--out", out]
    return ["emerge", "--config", cfg, "--report", out, "--series", str(tmp_path / "s.csv")]


@pytest.mark.parametrize("command", ["emerge", "simulate", "lattice"])
def test_directory_output_path_exits_2_before_any_work(tmp_path, capsys, monkeypatch, command):
    """Opening a directory for writing would fail after all the numeric work."""
    monkeypatch.setattr(cli, "build_kernel", _no_work)
    monkeypatch.setattr(cli, "_parse_subspaces", _no_work)
    out = tmp_path / "out"
    out.mkdir()
    assert main(_argv_writing_to(tmp_path, command, str(out))) == 2
    assert capsys.readouterr().err == f"error: output path {out} is a directory\n"
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full device")
@pytest.mark.parametrize("command", ["emerge", "simulate", "lattice"])
def test_failed_write_exits_2_with_one_line(tmp_path, capsys, command):
    """/dev/full opens, and refuses every write with ENOSPC."""
    assert main(_argv_writing_to(tmp_path, command, "/dev/full")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write /dev/full: ") and err.count("\n") == 1


@pytest.mark.parametrize("mutate,message", [
    # omega_max / n_points underflows to a zero spacing
    (_set(("grid",), {"omega_max": 1e-320, "n_points": 4096}), "underflows to 0"),
    (_set(("time", "n_samples"), 10**13), f"n_samples must be in [2, {cli.MAX_SAMPLES}]"),
    (_set(("observables", "O1", "diag"), {"family": "linear", "amplitude": 1e308}),
     "invalid O1 diag: samples must be finite"),
    (_set(("state", "diag", "Sigma"), 1e-320), "invalid state: "),
], ids=["spacing-underflow", "n-samples-past-cap", "linear-diag-overflow",
        "gaussian-diag-tiny-sigma"])
def test_boundary_input_exits_2_with_one_line(tmp_path, capsys, monkeypatch, mutate, message):
    built = []
    build = cli.build_kernel
    monkeypatch.setattr(cli, "build_kernel",
                        lambda *args: built.append(args) or build(*args))
    doc = _base_config()
    mutate(doc)
    cfg = _write(tmp_path / "cfg.json", doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["emerge", "--config", cfg, "--report", str(tmp_path / "r.json"),
                     "--series", str(tmp_path / "s.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    if "n_samples" in message:  # the cap is checked before any kernel is built
        assert built == []


def _counted_builds(monkeypatch):
    built = []
    build = cli.build_kernel
    monkeypatch.setattr(cli, "build_kernel", lambda *args: built.append(args) or build(*args))
    return built


def test_two_kernels_past_the_dense_cap_exit_2_before_any_kernel(tmp_path, capsys, monkeypatch):
    built = _counted_builds(monkeypatch)
    doc = _base_config(n_points=cli.MAX_GRID_POINTS + 1)
    doc["observables"]["O1"]["kernel"] = {"family": "lorentz_band", "gamma": 1.0,
                                          "mu": 10.0, "Sigma": 2.0}
    cfg = _write(tmp_path / "cfg.json", doc)
    assert main(["emerge", "--config", cfg, "--report", str(tmp_path / "r.json"),
                 "--series", str(tmp_path / "s.csv")]) == 2
    assert capsys.readouterr().err == (
        "error: invalid grid: n_points=4097 exceeds the grid cap 4096\n")
    assert built == []


def test_one_operand_kernel_past_the_dense_cap_loads(tmp_path, monkeypatch):
    built = _counted_builds(monkeypatch)
    cfg = _write(tmp_path / "cfg.json", _base_config(n_points=cli.MAX_GRID_POINTS + 1))
    scenario = cli.load_scenario(cfg, need_partition=True, outputs={})
    assert scenario.grid.n_points == 4097 and len(built) == 2  # the state's and O2's
    too_fine = _write(tmp_path / "fine.json",
                      _base_config(n_points=cli.MAX_MADE_GRID_POINTS + 1))
    with pytest.raises(cli.ConfigError, match="exceeds the grid cap 16384"):
        cli.load_scenario(too_fine, need_partition=True, outputs={})


def test_a_series_one_sample_past_the_old_phase_budget_runs(tmp_path):
    """A cap of 2e8 phases, n_samples (2 n_points - 1), once bounded the series at one exp each.

    The factored series takes about 2 sqrt(n_samples) exps per offset, so one sample past that
    budget is an ordinary run, checked against the direct sum at the block edges.
    """
    n = 2048
    n_samples = 200_000_000 // (2 * n - 1) + 1  # 48841 samples at 4095 phases each
    doc = _base_config(n_points=n, n_samples=n_samples)
    cfg, out = _write(tmp_path / "cfg.json", doc), tmp_path / "s.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    np.testing.assert_array_equal(rows[:, 0], np.linspace(0.0, doc["time"]["t_max"], n_samples))
    scenario = cli.load_scenario(cfg, need_partition=False, outputs={"series": str(out)})
    profile, _ = engine._tile_pass(
        scenario.rho, incompatibility_observable(scenario.o1, scenario.o2).kernel)
    k = math.isqrt(n_samples - 1) + 1  # 221 baby steps a block
    at = [0, 1, k - 1, k, n_samples // 2, (n_samples - 1) // k * k - 1,
          (n_samples - 1) // k * k, n_samples - 1]
    expected = direct_phase_series(scenario.grid, profile, rows[at, 0])
    assert np.max(np.abs(rows[at, 1] + 1j * rows[at, 2] - expected)) <= 1e-13 * abs(expected[0])


@pytest.mark.parametrize("operand", ["state", "O2"])
@pytest.mark.parametrize("key", ["amplitude", "sigma", "gamma", "mu", "Sigma"])
@pytest.mark.parametrize("value", [True, 10**400], ids=["bool", "int-past-float-range"])
def test_kernel_spec_number_that_is_no_float_exits_2(tmp_path, capsys, operand, key, value):
    doc = _base_config()
    spec = (doc["state"] if operand == "state" else doc["observables"]["O2"])["kernel"]
    spec[key] = value
    cfg = _write(tmp_path / "cfg.json", doc)
    assert main(["emerge", "--config", cfg, "--report", str(tmp_path / "r.json"),
                 "--series", str(tmp_path / "s.csv")]) == 2
    assert capsys.readouterr().err == f"error: {operand} kernel key {key!r} must be a float\n"


def test_max_samples_itself_is_accepted_by_the_loader(tmp_path):
    doc = _base_config()
    doc["time"]["n_samples"] = cli.MAX_SAMPLES
    cfg = _write(tmp_path / "cfg.json", doc)
    scenario = cli.load_scenario(cfg, need_partition=False, outputs={"series": "s.csv"})
    assert scenario.n_samples == cli.MAX_SAMPLES


class TestStreamedIncompatibility:
    @pytest.mark.parametrize("o1_kernel", [False, True], ids=["diag-only-O1", "kernel-O1"])
    def test_cli_runs_never_store_or_scan_d(self, tmp_path, monkeypatch, o1_kernel):
        from sidlattice import engine, spectral

        def stored_or_scanned(*args):
            raise AssertionError("the CLI path stored or scanned an n x n array")

        made_d = []  # every D the run makes, however cli and emergence name its maker
        make_d, dense = engine._incompatibility_blocks, spectral.RegularKernel.dense

        def recorded(*args):
            made_d.append(make_d(*args))
            return made_d[-1]

        def dense_unless_d(kernel, *args):  # .values makes D dense through dense()
            if any(kernel is d for d in made_d):
                stored_or_scanned()
            return dense(kernel, *args)

        monkeypatch.setattr(engine, "_incompatibility_blocks", recorded)
        monkeypatch.setattr(spectral.RegularKernel, "dense", dense_unless_d)
        monkeypatch.setattr(spectral, "_hermitian_residual", stored_or_scanned)
        doc = _base_config(n_points=300, t_max=10.0, n_samples=101)  # two tiles a side
        if o1_kernel:
            doc["observables"]["O1"]["kernel"] = {
                "family": "lorentz_band", "amplitude": 0.5, "gamma": 1.0,
                "mu": 10.0, "Sigma": 2.0}
        cfg = _write(tmp_path / "cfg.json", doc)
        assert main(["emerge", "--config", cfg, "--report", str(tmp_path / "r.json"),
                     "--series", str(tmp_path / "s.csv")]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 0
        assert len(made_d) == 2 and not any("values" in vars(d) for d in made_d)
        assert (tmp_path / "x.csv").read_bytes() == (tmp_path / "s.csv").read_bytes()

    @pytest.mark.parametrize("command", ["emerge", "simulate"])
    @pytest.mark.parametrize("o1,o2_amplitude", [
        ({"diag": {"family": "linear", "amplitude": 1e306}}, 1e4),
        ({"kernel": {"family": "gaussian_band", "amplitude": 1e200, "sigma": 1.5,
                     "mu": 10.0, "Sigma": 2.0}}, 1e200),
    ], ids=["diag-times-kernel", "kernel-times-kernel"])
    def test_d_that_overflows_exits_2_with_one_line(self, tmp_path, capsys, command,
                                                    o1, o2_amplitude):
        doc = _base_config(n_points=300)  # more than one tile a side
        doc["observables"]["O1"] = o1
        doc["observables"]["O2"]["kernel"]["amplitude"] = o2_amplitude
        cfg = _write(tmp_path / "cfg.json", doc)
        outputs = {"emerge": ["--report", str(tmp_path / "r.json"),
                              "--series", str(tmp_path / "s.csv")],
                   "simulate": ["--out", str(tmp_path / "s.csv")]}[command]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([command, "--config", cfg, *outputs]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot evaluate the scenario: ")
        assert err.count("\n") == 1 and "finite" in err
        assert not (tmp_path / "r.json").exists() and not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("operand,value,message", [
    ("O1", {"diag": {"family": "gaussian", "mu": 10.0, "Sigma": 1e-320}},
     "O1 diag samples to zero on the grid"),
    ("O2", {"kernel": {"family": "gaussian_band", "sigma": 1.5, "mu": 1e200, "Sigma": 2.0}},
     "O2 kernel samples to zero on the grid"),
], ids=["diag-narrower-than-the-spacing", "kernel-envelope-outside-the-window"])
def test_operand_that_samples_to_zero_exits_2_naming_it(tmp_path, capsys, operand, value,
                                                        message):
    from sidlattice import SupportOverflowWarning

    doc = _base_config()
    doc["observables"][operand] = value
    cfg = _write(tmp_path / "cfg.json", doc)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SupportOverflowWarning)
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["emerge", "--config", cfg, "--report", str(tmp_path / "r.json"),
                     "--series", str(tmp_path / "s.csv")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["emerge", "simulate"])
def test_envelope_leak_is_one_warning_line_and_only_on_success(tmp_path, capsys, command):
    outputs = {"emerge": ["--report", str(tmp_path / "r.json"),
                          "--series", str(tmp_path / "s.csv")],
               "simulate": ["--out", str(tmp_path / "s.csv")]}[command]
    doc = _base_config()
    with warnings.catch_warnings(record=True) as escaped:
        warnings.simplefilter("always")
        doc["observables"]["O2"]["kernel"]["mu"] = 1e200  # samples to zero: exit 2
        assert main([command, "--config", _write(tmp_path / "a.json", doc), *outputs]) == 2
        assert capsys.readouterr().err == "error: O2 kernel samples to zero on the grid\n"
        doc["observables"]["O2"]["kernel"]["mu"] = 19.0  # near the edge of [0, 20]
        assert main([command, "--config", _write(tmp_path / "b.json", doc), *outputs]) == 0
        err = capsys.readouterr().err
    assert err.startswith("warning: gaussian_band envelope leaks ") and err.count("\n") == 1
    assert escaped == []


@pytest.mark.parametrize("diag", [{"family": "zero"}, {"family": "constant", "amplitude": 0.0}])
def test_diag_zero_by_family_or_amplitude_still_commutes(tmp_path, diag):
    doc = _base_config()
    doc["observables"]["O2"] = {"diag": diag}  # against O1's linear diagonal: D = 0
    cfg = _write(tmp_path / "cfg.json", doc)
    assert main(["emerge", "--config", cfg, "--report", str(tmp_path / "r.json"),
                 "--series", str(tmp_path / "s.csv")]) == 5


def test_hs_norm_past_the_square_overflow_is_finite(tmp_path):
    doc = _base_config(n_points=300)
    doc["observables"]["O1"]["diag"]["amplitude"] = 1e150
    doc["observables"]["O2"]["kernel"]["amplitude"] = 1e10
    cfg = _write(tmp_path / "cfg.json", doc)
    assert main(["emerge", "--config", cfg, "--report", str(tmp_path / "r.json"),
                 "--series", str(tmp_path / "s.csv")]) == 0
    report = json.loads((tmp_path / "r.json").read_text())
    assert 1e150 < report["hs_norm_initial"] < math.inf
    assert report["hs_norm_final"] == pytest.approx(report["hs_norm_initial"], rel=1e-12)


@pytest.mark.parametrize("command", ["emerge", "simulate"])
def test_subnormal_spacing_exits_2_with_one_line(tmp_path, capsys, command):
    doc = _base_config(n_points=256)
    doc["grid"]["omega_max"] = 1e-320  # a nonzero spacing whose 2*pi/spacing overflows
    cfg = _write(tmp_path / "cfg.json", doc)
    outputs = {"emerge": ["--report", str(tmp_path / "r.json"),
                          "--series", str(tmp_path / "s.csv")],
               "simulate": ["--out", str(tmp_path / "s.csv")]}[command]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([command, "--config", cfg, *outputs]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid grid: ") and err.count("\n") == 1


# one rule each, as the library's guards state them; a float field also meets inf and NaN
_OUT_OF_RANGE = [
    ("n_bins", ("partition", "n_bins"), [0, -1, 65]),
    ("t_max", ("time", "t_max"), [0.0, -1.0, math.inf, -math.inf, math.nan]),
    ("n_samples", ("time", "n_samples"), [1, 0, -3]),
    ("ratio", ("thresholds", "decoherence_ratio"), [0.0, 1.0, 2.0, math.inf, math.nan]),
    ("sustain", ("thresholds", "sustain"), [0, -1]),
    ("epsilon", ("thresholds", "epsilon"), [0.0, -1e-6, math.inf, math.nan]),
]


@pytest.mark.parametrize("field,path,value", [
    pytest.param(field, path, value, id=f"{field}-{value}")
    for field, path, values in _OUT_OF_RANGE for value in values])
def test_out_of_range_field_exits_2_before_any_kernel(tmp_path, capsys, monkeypatch,
                                                      field, path, value):
    built = _counted_builds(monkeypatch)
    doc = _base_config()
    _set(path, value)(doc)
    cfg = _write(tmp_path / "cfg.json", doc)
    assert main(["emerge", "--config", cfg, "--report", str(tmp_path / "r.json"),
                 "--series", str(tmp_path / "s.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and field in err
    assert built == []


def test_t_max_past_the_window_exits_3_before_any_kernel(tmp_path, capsys, monkeypatch):
    built = _counted_builds(monkeypatch)
    cfg = _write(tmp_path / "cfg.json", _base_config(t_max=11.0))  # half the recurrence: 10.05
    assert main(["emerge", "--config", cfg, "--report", str(tmp_path / "r.json"),
                 "--series", str(tmp_path / "s.csv")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: t_max=11.0 exceeds half the recurrence time")
    assert err.count("\n") == 1 and built == []


@pytest.mark.parametrize("mutate", [
    lambda doc: doc.pop("observables"),
    lambda doc: doc["observables"].pop("O2"),
    _set(("observables", "O1"), "linear"),
], ids=["no-observables", "no-O2", "O1-not-object"])
def test_observables_block_is_checked_before_any_kernel(tmp_path, capsys, monkeypatch, mutate):
    built = _counted_builds(monkeypatch)
    doc = _base_config()
    mutate(doc)
    cfg = _write(tmp_path / "cfg.json", doc)
    assert main(["emerge", "--config", cfg, "--report", str(tmp_path / "r.json"),
                 "--series", str(tmp_path / "s.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and built == []


def _leaves(node, path=()):
    if not isinstance(node, dict):
        return [path]
    return [leaf for key, value in node.items() for leaf in _leaves(value, path + (key,))]


_SHIPPED = json.loads(_SHIPPED_PATH.read_text())
_SHIPPED["grid"]["n_points"], _SHIPPED["time"]["t_max"] = 32, 4.0
_LEAF_VALUES = [None, True, False, 0, 1, -1, 1.5, 1e308, -1e308, 1e-320, 2**70, 10**400, "x",
                [1.0], {"a": 1}, math.nan, math.inf, -math.inf]


@settings(max_examples=500, deadline=None)
@given(path=st.sampled_from(_leaves(_SHIPPED)), value=st.sampled_from(_LEAF_VALUES),
       command=st.sampled_from(["emerge", "simulate"]))
def test_cli_contract_on_one_mutated_leaf(path, value, command):
    """Any one leaf of the shipped config replaced: a documented exit, one line if nonzero."""
    doc = copy.deepcopy(_SHIPPED)
    _set(path, value)(doc)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = _write(Path(tmp) / "cfg.json", doc)
        outputs = {"emerge": ["--report", f"{tmp}/r.json", "--series", f"{tmp}/s.csv"],
                   "simulate": ["--out", f"{tmp}/s.csv"]}[command]
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter("error", RuntimeWarning)
            code = main([command, "--config", cfg, *outputs])
    assert code in (0, 2, 3, 4, 5)
    if code != 0:
        assert err.getvalue().count("\n") == 1, err.getvalue()


def _doc_leaves(node, path=()):
    """Paths of the scalar leaves of a JSON document, through objects and lists."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        return [leaf for key, value in items for leaf in _doc_leaves(value, path + (key,))]
    return [path]


def _check_contract(argv):
    """main(argv) under RuntimeWarning-as-error: a documented exit, one line if nonzero."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv)
    assert code in (0, 2, 3, 4, 5)
    if code != 0:
        assert err.getvalue().count("\n") == 1, err.getvalue()


_SUBSPACES = _line_doc([1.0, 0.0], [1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)])
_STATE = {"matrix": [[[0.7, 0.0], [0.1, -0.2]], [[0.1, 0.2], [0.3, 0.0]]]}


@settings(max_examples=200, deadline=None)
@given(path=st.sampled_from(_doc_leaves(_SUBSPACES)), value=st.sampled_from(_LEAF_VALUES))
def test_cli_contract_on_one_mutated_subspace_leaf(path, value):
    """Any one leaf of a subspace document replaced: a documented exit, one line if nonzero."""
    doc = copy.deepcopy(_SUBSPACES)
    _set(path, value)(doc)
    with tempfile.TemporaryDirectory() as tmp:
        inp = _write(Path(tmp) / "in.json", doc)
        _check_contract(["lattice", "--in", inp, "--report", f"{tmp}/r.json"])


@settings(max_examples=200, deadline=None)
@given(path=st.sampled_from(_doc_leaves(_STATE)), value=st.sampled_from(_LEAF_VALUES))
def test_cli_contract_on_one_mutated_state_leaf(path, value):
    """Any one leaf of a state document replaced: a documented exit, one line if nonzero."""
    doc = copy.deepcopy(_STATE)
    _set(path, value)(doc)
    with tempfile.TemporaryDirectory() as tmp:
        inp = _write(Path(tmp) / "in.json", _SUBSPACES)
        state = _write(Path(tmp) / "state.json", doc)
        _check_contract(["lattice", "--in", inp, "--state", state,
                         "--report", f"{tmp}/r.json"])


_ORACLE_PARAMS = [("gaussian_band", {"sigma_c": 1.0}),
                  ("gaussian_band", {"sigma1": 1.5, "sigma2": 2.0}),
                  ("lorentz_band", {"gamma_c": 0.5}),
                  ("lorentz_band", {"gamma1": 1.0, "gamma2": 3.0})]
_WIDTHS = _LEAF_VALUES + [1e-200, 1e-160, 1e150, 1e200]
_TIME_LISTS = ["0,1,2", "", ",", "0,,1", " 1 , 2 ", "-1", "-1e308,1e308", "1e-320", "1e400",
               "nan", "0,inf", "-inf", "x", "1,two", "[1]"]


@settings(max_examples=300, deadline=None)
@given(base=st.sampled_from(_ORACLE_PARAMS), key=st.integers(0, 1),
       value=st.sampled_from(_WIDTHS), times=st.sampled_from(_TIME_LISTS),
       mutate_times=st.booleans())
def test_cli_contract_on_one_mutated_oracle_argument(base, key, value, times, mutate_times):
    """One --params value or the --t list replaced: a documented exit, one line if nonzero."""
    family, params = base[0], dict(base[1])
    if mutate_times:
        params_json, t_list = json.dumps(params), times
    else:
        params[sorted(params)[key % len(params)]] = value
        params_json, t_list = json.dumps(params), "0,1,2"
    # one argument, since argparse reads a separate value that starts with "-" as an option
    _check_contract(["oracle", "--family", family, "--params", params_json, f"--t={t_list}"])


_THREAD_PROBE = """
import json, sys
from pathlib import Path
from sidlattice.cli import main
doc, out = json.loads(Path(sys.argv[1]).read_text()), Path(sys.argv[2])
for n in map(int, sys.argv[3:]):
    doc["grid"]["n_points"] = n
    (out / f"{n}.json").write_text(json.dumps(doc))
    cfg = str(out / f"{n}.json")
    assert main(["emerge", "--config", cfg, "--report", str(out / f"report{n}.json"),
                 "--series", str(out / f"emerge{n}.csv")]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out / f"simulate{n}.csv")]) == 0
"""


def _kernel_pair_config():
    """The base scenario on 300 points with a kernel on O1 too, so that M = K1 K2 is formed."""
    doc = _base_config(n_points=300)
    doc["observables"]["O1"]["kernel"] = {"family": "lorentz_band", "amplitude": 0.5,
                                          "gamma": 1.0, "mu": 10.0, "Sigma": 2.0}
    return doc


class TestBlasThreads:
    """A CLI call runs on one BLAS thread, and raises the pool back to the process's own count
    only around M = K1 K2 and the phase series' E @ Q; a library caller keeps its own count."""

    @pytest.fixture
    def pool(self):
        """The process's count raised to 2 for the test, where the loaded OpenBLAS allows it,
        and the count found restored after."""
        calls = _blas._lookup()
        if not calls:
            pytest.skip("no OpenBLAS thread-count call found")
        setter, getter = calls
        own = getter()
        setter(2)
        yield getter
        setter(own)

    @staticmethod
    def _argv(tmp_path, command, cfg):
        if command == "simulate":
            return ["simulate", "--config", cfg, "--out", str(tmp_path / "s.csv")]
        return ["emerge", "--config", cfg, "--report", str(tmp_path / "r.json"),
                "--series", str(tmp_path / "s.csv")]

    @staticmethod
    def _recorded(monkeypatch, own=3):
        """Stand-in thread-count calls that record each count set, with the engine function
        (or "main") it was set inside."""
        count, sets = [own], []

        def setter(value):
            frame, names = sys._getframe(1), set()
            while frame is not None:
                names.add(frame.f_code.co_name)
                frame = frame.f_back
            site = [f for f in ("_incompatibility_blocks", "_phase_series") if f in names]
            sets.append((value, site[0] if site else "main"))
            count[0] = value

        monkeypatch.setattr(_blas, "_calls", (setter, lambda: count[0]))
        return sets

    def test_one_kernel_outputs_are_the_same_bytes_at_one_and_two_threads(self, tmp_path):
        """Defect: M's products aside, output bits depended on the host's thread count
        (emerge's HS norms moved at n = 385 and 2048). M is not formed here: O1 is diag-only."""
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
            filter(None, [str(Path(cli.__file__).resolve().parents[1]),
                          os.environ.get("PYTHONPATH")])))
        outputs = {}
        for threads in ("1", "2"):
            out = tmp_path / threads
            out.mkdir()
            subprocess.run([sys.executable, "-c", _THREAD_PROBE, str(_SHIPPED_PATH), str(out),
                            "129", "257", "385", "1000", "2048"],
                           env=dict(env, OPENBLAS_NUM_THREADS=threads), check=True)
            outputs[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert len(outputs["1"]) == 20
        assert [name for name in outputs["1"] if outputs["1"][name] != outputs["2"][name]] == []

    @pytest.mark.parametrize("command", ["emerge", "simulate"])
    def test_the_count_is_restored_after_a_run(self, tmp_path, pool, command):
        cfg = _write(tmp_path / "cfg.json", _kernel_pair_config())
        own = pool()
        assert main(self._argv(tmp_path, command, cfg)) == 0
        assert pool() == own and _blas._pool == 0

    def test_the_count_is_restored_after_a_config_error(self, tmp_path, capsys, pool):
        cfg = _write(tmp_path / "cfg.json", {"grid": "not a block"})
        own = pool()
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "s.csv")]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert pool() == own and _blas._pool == 0

    def test_the_count_is_restored_when_an_exception_escapes(self, tmp_path, monkeypatch, pool):
        def broken(*args):
            assert _blas._lookup()[1]() == 1  # the run itself is on one thread
            raise RuntimeError("broken run")

        monkeypatch.setattr(cli, "run_simulate", broken)
        own = pool()
        with pytest.raises(RuntimeError, match="broken run"):
            main(["simulate", "--config", str(_SHIPPED_PATH), "--out", str(tmp_path / "s.csv")])
        assert pool() == own and _blas._pool == 0

    def test_a_library_call_never_sets_the_count(self, tmp_path, monkeypatch):
        cfg = _write(tmp_path / "cfg.json", _kernel_pair_config())
        scenario = cli.load_scenario(cfg, need_partition=False, outputs={})
        sets = self._recorded(monkeypatch)
        incompat = incompatibility_observable(scenario.o1, scenario.o2)  # M is formed
        engine.series_and_norms(scenario.rho, incompat, scenario.t_max, scenario.n_samples)
        assert sets == []

    def test_one_kernel_emerge_raises_the_pool_only_in_the_phase_series(self, tmp_path,
                                                                         monkeypatch):
        sets = self._recorded(monkeypatch)
        cfg = _write(tmp_path / "cfg.json", _base_config(n_points=300))
        assert main(self._argv(tmp_path, "emerge", cfg)) == 0
        assert sets == [(1, "main"), (3, "_phase_series"), (1, "_phase_series"), (3, "main")]

    def test_two_kernel_simulate_raises_the_pool_around_m_too(self, tmp_path, monkeypatch):
        sets = self._recorded(monkeypatch)
        cfg = _write(tmp_path / "cfg.json", _kernel_pair_config())  # 3 tile rows, 2 halves
        assert main(self._argv(tmp_path, "simulate", cfg)) == 0
        products = [(3, "_incompatibility_blocks"), (1, "_incompatibility_blocks")] * 6
        assert sets == [(1, "main"), *products, (3, "_phase_series"), (1, "_phase_series"),
                        (3, "main")]

    def test_emerge_runs_unchanged_where_no_thread_call_is_found(self, tmp_path, monkeypatch):
        cfg = _write(tmp_path / "cfg.json", _base_config(n_points=300))
        assert main(self._argv(tmp_path, "emerge", cfg)) == 0
        found = (tmp_path / "r.json").read_bytes(), (tmp_path / "s.csv").read_bytes()
        monkeypatch.setattr(_blas, "_calls", None)
        monkeypatch.setattr(_blas, "_NAMES", [("no_such_set_num_threads", "no_such_get")])
        assert main(self._argv(tmp_path, "emerge", cfg)) == 0
        assert _blas._calls == ()  # nothing bound, so nothing set
        assert ((tmp_path / "r.json").read_bytes(), (tmp_path / "s.csv").read_bytes()) == found
