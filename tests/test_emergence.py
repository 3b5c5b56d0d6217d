import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    ONE_WIDE_LAST_TILE,
    gaussian_scenario,
    linear_vs_gaussian_pair,
    near_the_evolved_norm,
    traced_peak,
)
from sidlattice import (
    BinPartition,
    DiagonalPart,
    ExpectationSeries,
    GridMismatch,
    KernelFamilySpec,
    LatticeTooLarge,
    PointerAlgebra,
    RegularKernel,
    Subspace,
    VanHoveObservable,
    VanHoveState,
    Verdict,
    angle_sweep,
    build_kernel,
    check_lattice_laws,
    commutator_kernel,
    effective_compatibility,
    evolve,
    expectation_series,
    generate_lattice,
    hs_norm,
    incompatibility_observable,
    is_boolean,
    make_grid,
    pointer_lattice,
    run_emergence,
)
from sidlattice import cli, emergence, engine, spectral
from sidlattice.errors import ConfigError
from sidlattice.lattice import DEFAULT_MAX_ELEMENTS


def _complex_state(grid, seed=7):
    kernel = build_kernel(grid, KernelFamilySpec(
        "random_bandlimited", sigma=math.sqrt(2.0), mu=10.0, Sigma=2.0, seed=seed))
    diag = DiagonalPart(grid, np.exp(-0.5 * ((grid.nodes - 10.0) / 3.0) ** 2))
    return VanHoveState.normalized(diag, kernel)


class TestAngleSweep:
    def test_key_angles(self):
        rows = angle_sweep([0.0, math.pi / 4, math.pi / 2])
        assert rows[0].incompatibility == pytest.approx(0.0, abs=1e-12)
        assert rows[0].meet_rank == 1
        assert rows[0].first_defect == pytest.approx(0.0, abs=1e-12)
        assert rows[1].incompatibility == pytest.approx(0.5, abs=1e-12)
        assert rows[1].meet_rank == 0
        assert rows[1].first_defect == pytest.approx(1.0, abs=1e-12)
        assert rows[2].incompatibility == pytest.approx(0.0, abs=1e-12)
        assert rows[2].first_defect == pytest.approx(0.0, abs=1e-12)

    def test_norm_follows_sin_cos(self):
        thetas = np.linspace(0.0, math.pi / 2, 100)
        for row in angle_sweep(thetas):
            expected = math.sin(row.theta) * math.cos(row.theta)
            assert abs(row.incompatibility - expected) < 1e-10

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            angle_sweep([2.0])


class TestEffectiveCompatibility:
    def test_zero_series(self):
        times = np.linspace(0.0, 1.0, 5)
        series = ExpectationSeries(times, np.zeros(5, dtype=complex), 10.0)
        assert effective_compatibility(series, 1e-6) == 0.0

    def test_gaussian_inversion(self):
        grid, rho, incompat = gaussian_scenario(n_points=256)
        series = expectation_series(rho, incompat, 5.0, 201)
        eps = math.exp(-2.0) * series.initial_magnitude
        t_eff = effective_compatibility(series, eps)
        step = series.times[1] - series.times[0]
        assert abs(t_eff - 2.0) <= step

    def test_constant_series_not_reached(self):
        times = np.linspace(0.0, 1.0, 5)
        series = ExpectationSeries(times, np.ones(5, dtype=complex), 10.0)
        assert effective_compatibility(series, 0.5) is None

    def test_requires_positive_epsilon(self):
        times = np.linspace(0.0, 1.0, 5)
        series = ExpectationSeries(times, np.zeros(5, dtype=complex), 10.0)
        with pytest.raises(ValueError):
            effective_compatibility(series, 0.0)


class TestBinPartition:
    def test_equal_bins(self):
        grid = make_grid(20.0, 256)
        part = BinPartition.equal_bins(grid, 4)
        assert part.edges == (0, 64, 128, 192, 256)
        assert part.n_bins == 4

    def test_validation(self):
        grid = make_grid(20.0, 8)
        with pytest.raises(ValueError):
            BinPartition(grid, (0, 3, 3, 8))
        with pytest.raises(ValueError):
            BinPartition(grid, (1, 8))
        with pytest.raises(ValueError):
            BinPartition.equal_bins(grid, 0)


class TestPointerLattice:
    def test_single_bin_trivial(self):
        grid = make_grid(20.0, 32)
        o1, o2 = linear_vs_gaussian_pair(grid)
        lat = pointer_lattice([o1, o2], BinPartition.equal_bins(grid, 1))
        assert len(lat) == 2

    def test_two_bins_complementary(self):
        grid = make_grid(20.0, 32)
        o1, o2 = linear_vs_gaussian_pair(grid)
        lat = pointer_lattice([o1, o2], BinPartition.equal_bins(grid, 2))
        assert len(lat) == 4 and lat.full == 0b11
        assert lat.partition.edges == (0, 16, 32)

    def test_three_bins_eight_elements(self):
        grid = make_grid(20.0, 32)
        o1, o2 = linear_vs_gaussian_pair(grid)
        lat = pointer_lattice([o1, o2], BinPartition.equal_bins(grid, 3))
        assert len(lat) == 8 and lat.full == 0b111

    @pytest.mark.parametrize("n_bins", [1, 2, 3, 4, 5, 6])
    def test_boolean_for_every_partition(self, n_bins):
        grid = make_grid(20.0, 64)
        o1, o2 = linear_vs_gaussian_pair(grid)
        lat = pointer_lattice([o1, o2], BinPartition.equal_bins(grid, n_bins))
        assert len(lat) == 2**n_bins
        assert lat.is_boolean

    @pytest.mark.parametrize("n_bins", [1, 2, 3, 4, 5])
    def test_bitmask_tables_match_subspace_closure(self, n_bins):
        # Reference: close the bin-indicator subspaces generically; the closure
        # records the element each operation lands on. Compare with the masks.
        grid = make_grid(20.0, 10)
        partition = BinPartition.equal_bins(grid, n_bins)
        algebra = PointerAlgebra(partition)
        n = grid.n_points
        eye = np.eye(n, dtype=np.complex128)

        def subspace(mask):
            nodes = [k for i, (lo, hi) in enumerate(zip(partition.edges,
                                                        partition.edges[1:]))
                     if mask >> i & 1 for k in range(lo, hi)]
            return Subspace(n, eye[:, nodes])

        lat = generate_lattice([subspace(1 << i) for i in range(n_bins)],
                               ambient_dim=n)
        assert len(lat) == len(algebra) == 2**n_bins
        assert check_lattice_laws(lat)["all_pass"]
        assert is_boolean(lat)

        masks = range(len(algebra))
        index = np.array([lat.index_of(subspace(a)) for a in masks])
        assert sorted(index.tolist()) == list(range(len(lat)))
        for a in masks:
            assert lat.ortho[index[a]] == index[algebra.full ^ a]
            for b in masks:
                i, j = index[a], index[b]
                assert lat.meet[i, j] == index[a & b]
                assert lat.join[i, j] == index[a | b]
                assert (lat.meet[i, j] == i) == (a & ~b == 0)

    def test_grid_mismatch(self):
        grid = make_grid(20.0, 64)
        other = make_grid(20.0, 32)
        o1, o2 = linear_vs_gaussian_pair(grid)
        with pytest.raises(GridMismatch):
            pointer_lattice([o1, o2], BinPartition.equal_bins(other, 2))

    def test_cap_raises(self):
        """8 bins make the 256 elements of the cap itself; 9 bins go past it."""
        grid = make_grid(20.0, 64)
        o1, o2 = linear_vs_gaussian_pair(grid)
        assert 2**8 == DEFAULT_MAX_ELEMENTS
        assert len(pointer_lattice([o1, o2], BinPartition.equal_bins(grid, 8))) == 2**8
        with pytest.raises(LatticeTooLarge, match=f"max_elements={DEFAULT_MAX_ELEMENTS}$"):
            pointer_lattice([o1, o2], BinPartition.equal_bins(grid, 9))
        with pytest.raises(LatticeTooLarge, match=f"max_elements={DEFAULT_MAX_ELEMENTS}$"):
            PointerAlgebra(BinPartition.equal_bins(grid, 9))  # the algebra's own guard


class TestRunEmergence:
    def test_commuting_pair_degenerate(self):
        grid = make_grid(20.0, 64)
        rho = _complex_state(grid)
        o1 = VanHoveObservable.diag_only(DiagonalPart(grid, grid.nodes))
        o2 = VanHoveObservable.diag_only(DiagonalPart(grid, np.cos(grid.nodes)))
        report = run_emergence(rho, o1, o2, BinPartition.equal_bins(grid, 4),
                               10.0, 101, epsilon=1e-6)
        assert report.verdict is Verdict.DEGENERATE

    def test_state_on_another_grid_is_rejected(self):
        grid = make_grid(20.0, 64)
        o1, o2 = linear_vs_gaussian_pair(grid)
        with pytest.raises(GridMismatch):
            run_emergence(_complex_state(make_grid(20.0, 32)), o1, o2,
                          BinPartition.equal_bins(grid, 4), 10.0, 101, epsilon=1e-6)

    def test_cap_checked_before_kernel_work(self, monkeypatch):
        grid = make_grid(20.0, 64)
        rho = _complex_state(grid)
        o1, o2 = linear_vs_gaussian_pair(grid)

        def no_kernel_work(*args):
            raise AssertionError("kernel work ran before the cap check")

        monkeypatch.setattr(emergence, "incompatibility_observable", no_kernel_work)
        with pytest.raises(LatticeTooLarge):
            run_emergence(rho, o1, o2, BinPartition.equal_bins(grid, 9),
                          10.0, 101, epsilon=1e-6)

    def test_gaussian_scenario_booleanizes(self):
        grid = make_grid(20.0, 128)
        rho = _complex_state(grid)
        o1, o2 = linear_vs_gaussian_pair(grid)
        report = run_emergence(rho, o1, o2, BinPartition.equal_bins(grid, 4),
                               10.0, 201, epsilon=1e-6)
        assert report.verdict is Verdict.BOOLEANIZED
        assert report.pointer_lattice_boolean
        assert report.decoherence_time is not None
        assert report.effective_compatibility_time is not None
        assert abs(report.hs_norm_initial - report.hs_norm_final) <= 1e-10

    @pytest.mark.parametrize("t_max", [2.5, 7.0, 10.0])
    def test_hs_norm_final_is_the_evolved_observable_norm(self, t_max):
        grid = make_grid(20.0, 96)
        rho = _complex_state(grid)
        o1 = VanHoveObservable(DiagonalPart(grid, grid.nodes), build_kernel(
            grid, KernelFamilySpec("random_bandlimited", amplitude=0.4, sigma=1.0,
                                   mu=10.0, Sigma=2.0, seed=3)))
        for a, b in ((o1, linear_vs_gaussian_pair(grid)[1]),
                     linear_vs_gaussian_pair(grid)):
            report = run_emergence(rho, a, b, BinPartition.equal_bins(grid, 2),
                                   t_max, 21, epsilon=1e-6)
            incompat = incompatibility_observable(a, b)
            assert report.hs_norm_final == hs_norm(
                evolve(incompat.to_observable(), t_max).kernel)
            assert report.hs_norm_initial == hs_norm(incompat.kernel)

    def test_narrow_band_not_reached(self):
        grid = make_grid(20.0, 128)
        rho = _complex_state(grid)
        o1 = VanHoveObservable.diag_only(DiagonalPart(grid, grid.nodes))
        narrow = build_kernel(grid, KernelFamilySpec(
            "gaussian_band", sigma=0.1, mu=10.0, Sigma=2.0))
        o2 = VanHoveObservable.kernel_only(narrow)
        epsilon = 1e-6
        report = run_emergence(rho, o1, o2, BinPartition.equal_bins(grid, 4),
                               10.0, 101, epsilon=epsilon)
        assert report.verdict is Verdict.NOT_REACHED
        # never BOOLEANIZED while the window end still sits above epsilon
        assert abs(report.series.values[-1]) > epsilon

    def test_json_document_shape(self):
        grid = make_grid(20.0, 64)
        rho = _complex_state(grid)
        o1, o2 = linear_vs_gaussian_pair(grid)
        report = run_emergence(rho, o1, o2, BinPartition.equal_bins(grid, 2),
                               8.0, 33, epsilon=1e-6)
        doc = report.to_json_dict()
        assert doc["verdict"] in {"BOOLEANIZED", "NOT_REACHED", "DEGENERATE"}
        assert len(doc["series"]["times"]) == 33
        assert set(doc["series"]) == {"times", "re", "im", "abs",
                                      "initial_magnitude", "recurrence_time"}
        import json

        json.dumps(doc)  # must be serializable as-is


def _commuting_pair(grid, shape):
    """Three exactly commuting shapes: no term of D survives."""
    if shape == "two-diagonals":  # configs/commuting_pair.json
        return (VanHoveObservable.diag_only(DiagonalPart(grid, grid.nodes)),
                VanHoveObservable.diag_only(DiagonalPart(
                    grid, np.exp(-0.5 * ((grid.nodes - 10.0) / 4.0) ** 2))))
    if shape == "constant-vs-kernel":
        return (VanHoveObservable.diag_only(DiagonalPart(grid, np.ones(grid.n_points))),
                linear_vs_gaussian_pair(grid)[1])
    o1 = VanHoveObservable(DiagonalPart(grid, np.sin(grid.nodes)), build_kernel(
        grid, KernelFamilySpec("random_bandlimited", sigma=1.5, mu=10.0, Sigma=2.0, seed=4)))
    return o1, VanHoveObservable.diag_only(DiagonalPart.zeros(grid))


class TestExactlyCommutingPair:
    """D = 0 is the absent kernel: DEGENERATE without an n x n pass or an operand norm."""

    SHAPES = ["two-diagonals", "constant-vs-kernel", "kernel-vs-kernel-less"]

    @staticmethod
    def _recorded(o1, o2):
        made = []
        for kernel in (o1.kernel, o2.kernel):
            if kernel.present:
                make = kernel._maker.make
                kernel._maker = kernel._maker._replace(
                    make=lambda rows, cols, out=None, make=make:
                    made.append((rows.start, cols.start)) or make(rows, cols, out))
        return made

    @pytest.mark.parametrize("shape", SHAPES)
    def test_d_and_the_commutator_are_the_absent_kernel(self, shape):
        grid = make_grid(20.0, 300)  # more than one tile a side
        o1, o2 = _commuting_pair(grid, shape)
        made = self._recorded(o1, o2)
        assert not incompatibility_observable(o1, o2).kernel.present
        assert not commutator_kernel(o1, o2).present
        assert not commutator_kernel(o2, o1).present
        assert made in ([], [(0, 0)])  # at most the first tile, read by is_zero

    @pytest.mark.parametrize("shape", SHAPES)
    def test_run_is_degenerate_without_an_operand_norm(self, shape, monkeypatch):
        def no_norm(kernel):
            raise AssertionError("an operand norm was formed for an absent D")

        monkeypatch.setattr(emergence, "hs_norm", no_norm)
        monkeypatch.setattr(emergence, "_hs_bound", no_norm)
        grid = make_grid(20.0, 300)
        o1, o2 = _commuting_pair(grid, shape)
        made = self._recorded(o1, o2)
        report = run_emergence(_complex_state(grid), o1, o2, BinPartition.equal_bins(grid, 4),
                               10.0, 101, epsilon=1e-6)
        assert report.verdict is Verdict.DEGENERATE
        assert report.hs_norm_initial == report.hs_norm_final == 0.0
        assert not np.any(report.series.values)
        assert made in ([], [(0, 0)])


class TestPeakMemory:
    @pytest.mark.parametrize("o1_kernel", [False, True], ids=["diag-only-O1", "kernel-O1"])
    def test_no_n_by_n_temporary_beyond_d(self, o1_kernel):
        """The traced peak stays within half an n x n complex array of the live arrays.

        rho and the operands are built before tracing starts, so the live
        traced arrays are D and, for two real kernels, the real half of
        M^H - M, M = K1 K2, that D's maker holds.
        """
        n = 1024
        grid = make_grid(20.0, n)
        rho = _complex_state(grid)
        o1, o2 = linear_vs_gaussian_pair(grid)
        if o1_kernel:
            o1 = VanHoveObservable(o1.diag, build_kernel(grid, KernelFamilySpec(
                "lorentz_band", amplitude=0.5, gamma=1.0, mu=10.0, Sigma=2.0)))
        live = n * n * 16 + (n * n * 8 if o1_kernel else 0)

        def run():
            incompat = incompatibility_observable(o1, o2)
            expectation_series(rho, incompat, 10.0, 201)
            del incompat
            run_emergence(rho, o1, o2, BinPartition.equal_bins(grid, 4), 10.0, 201,
                          epsilon=1e-6)

        assert traced_peak(run).peak <= live + n * n * 8

    @pytest.mark.parametrize("o1_kernel", [False, True], ids=["diag-only-O1", "kernel-O1"])
    def test_emerge_and_simulate_hold_no_n_by_n_d(self, tmp_path, monkeypatch, o1_kernel):
        """D is made and used one tile (spectral._TILE a side) at a time.

        At n = 2048 a tile is at most a 64th of an n x n complex array, and a stored
        D would be a whole one. rho and the operands are built before tracing
        starts, so the live traced arrays are the tiles and, for two real
        kernels, the real half of M^H - M, M = K1 K2, and a column half of K2
        while M is formed.
        """
        n = 2048
        grid = make_grid(20.0, n)
        rho = _complex_state(grid)
        o1, o2 = _operands(grid, o1_kernel)
        bound = 0.6 * n * n * 16 + (n * n * 8 if o1_kernel else 0)
        scenario = cli.Scenario(
            grid=grid, rho=rho, o1=o1, o2=o2, t_max=10.0, n_samples=201,
            decoherence_ratio=0.5, epsilon=None, sustain=10, partition=None,
            outputs={"series": str(tmp_path / "s.csv")})
        monkeypatch.setattr(cli, "load_scenario", lambda *args, **kwargs: scenario)
        runs = {
            "emerge": lambda: run_emergence(rho, o1, o2, BinPartition.equal_bins(grid, 4),
                                            10.0, 201, epsilon=1e-6),
            "simulate": lambda: cli.run_simulate("unread.json", None),
        }
        for name, run in runs.items():
            assert traced_peak(run).peak <= bound, name

    @pytest.mark.parametrize("o1_family", ["lorentz_band", "random_bandlimited"])
    def test_d_is_formed_beside_k2_and_keeps_half_of_m(self, o1_family):
        """Forming D holds one column half of K2 (n x cut, cut = _TILE ceil(n / (2 _TILE))),
        H = M^H - M by its upper tile rows (n (n + _TILE) / 2 entries) and two one-row buffers,
        K1's tile row (n wide) and its product (cut wide): no n x n copy of K1, K2 or M. Once
        formed, D keeps H and its three scratch tiles. The peak's slack is five tiles (the
        scratch, a cast's buffers, a complex block's conjugate) and 64 KiB. With M formed in K1's
        dense copy beside dense K2 and kept whole, the peak was 71.8 and 143.7 MB here, and D
        kept 34.1 and 68.2 MB; with H by tile rows but K2 made dense whole, the peak was 56.0
        and 111.9 MB, 17.5 and 35.1 MB above this bound (38.5 and 76.9 MB)."""
        n, rows = 2048, spectral._TILE
        cut = rows * -(-n // (2 * rows))
        grid = make_grid(20.0, n)
        o1, o2 = _operands(grid, True, o1_family)
        assert o1.kernel.hermitian_residual == o2.kernel.hermitian_residual == 0.0  # D unscanned
        itemsize = np.result_type(o1.kernel.dtype, o2.kernel.dtype).itemsize
        assert itemsize == (8 if o1_family == "lorentz_band" else 16)  # a real and a complex M
        traced = traced_peak(lambda: incompatibility_observable(o1, o2))
        assert traced.result.kernel.hermitian_residual == 0.0
        half = (n * n + n * rows) // 2 * itemsize
        tile = rows**2 * itemsize
        formed = (n * cut + rows * (n + cut)) * itemsize + half
        assert traced.peak <= formed + 5 * tile + 2**16
        assert traced.held <= half + 3 * tile + 2**16

    def test_emerge_builds_and_holds_no_n_by_n_kernel(self, tmp_path):
        """The emerge-n2048 benchmark scenario, its kernels built inside the traced window.

        The state kernel alone, stored, would be one whole n x n complex
        array; the bound is 0.6 of one.
        """
        n = 2048
        doc = {
            "grid": {"omega_max": 20.0, "n_points": n},
            "state": {
                "diag": {"family": "gaussian", "mu": 10.0, "Sigma": 3.0},
                "kernel": {"family": "random_bandlimited", "sigma": math.sqrt(2.0),
                           "mu": 10.0, "Sigma": 2.0, "seed": 1}},
            "observables": {
                "O1": {"diag": {"family": "linear"}},
                "O2": {"kernel": {"family": "gaussian_band", "sigma": math.sqrt(2.0),
                                  "mu": 10.0, "Sigma": 2.0}}},
            "time": {"t_max": 10.0, "n_samples": 201},
            "thresholds": {"epsilon": 1e-6},
            "partition": {"n_bins": 4},
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))

        def run():
            s = cli.load_scenario(str(cfg), need_partition=True, outputs={})
            return run_emergence(s.rho, s.o1, s.o2, s.partition, s.t_max, s.n_samples,
                                 s.epsilon, s.decoherence_ratio, s.sustain)

        traced = traced_peak(run)
        assert traced.result.verdict is Verdict.BOOLEANIZED
        assert traced.peak <= 0.6 * n * n * 16


SHIPPED_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "gaussian_emerge.json"


def _shipped_scenario(tmp_path, n):
    """configs/gaussian_emerge.json at n grid points, loaded (kernels built, none made)."""
    doc = json.loads(SHIPPED_CONFIG.read_text())
    doc["grid"]["n_points"] = n
    cfg = tmp_path / f"cfg{n}.json"
    cfg.write_text(json.dumps(doc))
    return cli.load_scenario(str(cfg), need_partition=True, outputs={})


def _emerge(s):
    return run_emergence(s.rho, s.o1, s.o2, s.partition, s.t_max, s.n_samples,
                         s.epsilon, s.decoherence_ratio, s.sustain)


class TestTiledWorkingSet:
    @pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["one-lane", "two-lanes"])
    def test_emerge_peak_does_not_grow_with_n(self, tmp_path, monkeypatch, cpus):
        """Every pass reads 128 x 128 tiles, so the traced peak is a few tiles' bytes a lane.

        By 256-row blocks it was 13.8 MB at n = 1024 and 26.5 MB at n = 2048, and by
        256 x 256 tiles 4.63 MB at n = 2048. A second lane adds its own buffers: the (h, 2h - 1)
        sheared buffer, two tiles and D's three scratch planes, 1.44 MB at h = 128 for a real
        D, plus its numpy temporaries and the sums it holds until the caller folds them.
        """
        monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: cpus, raising=False)
        peaks = {}
        for n in (1024, 2048):
            scenario = _shipped_scenario(tmp_path, n)
            report, peaks[n], _ = traced_peak(lambda: _emerge(scenario))
            assert report.verdict is Verdict.BOOLEANIZED
        assert peaks[2048] < 2.5e6 + (len(cpus) - 1) * 2.2e6
        assert peaks[2048] - peaks[1024] <= 2e6

    @pytest.mark.parametrize("n", [256, 600])  # as shipped, and several tiles a side
    def test_no_operand_tile_is_made_after_the_pass(self, tmp_path, n):
        """The DEGENERATE threshold is settled by a bound from the kernels' tables."""
        scenario = _shipped_scenario(tmp_path, n)
        made = []
        for name in ("o1", "o2"):
            kernel = getattr(scenario, name).kernel
            if kernel.present:
                make = kernel._maker.make
                kernel._maker = kernel._maker._replace(
                    make=lambda rows, cols, out=None, make=make, name=name:
                    made.append((name, rows.start, cols.start)) or make(rows, cols, out))
        report = _emerge(scenario)
        assert report.verdict is Verdict.BOOLEANIZED
        tiles = [("o2", rows.start, cols.start) for rows, cols, _ in spectral._upper_tiles(n)]
        # each tile I <= J once, by D's pass: no lower tile, and no more (two lanes interleave)
        assert sorted(made) == sorted(tiles)

    def test_exact_scale_decides_when_the_bound_does_not(self, monkeypatch):
        grid = make_grid(20.0, 64)
        rho = _complex_state(grid)
        o1, o2 = linear_vs_gaussian_pair(grid)
        calls = []
        monkeypatch.setattr(emergence, "hs_norm",
                            lambda k: calls.append(k) or hs_norm(k))
        monkeypatch.setattr(emergence, "DEGENERACY_RTOL", 1e300)
        report = run_emergence(rho, o1, o2, BinPartition.equal_bins(grid, 4),
                               10.0, 101, epsilon=1e-6)
        assert report.verdict is Verdict.DEGENERATE
        assert o2.kernel in calls


    @pytest.mark.parametrize("n", ONE_WIDE_LAST_TILE)
    def test_emerge_at_a_tile_edge_booleanizes_with_the_hs_norms(self, tmp_path, n):
        scenario = _shipped_scenario(tmp_path, n)
        doc = json.loads(SHIPPED_CONFIG.read_text())
        doc["grid"]["n_points"] = n
        cfg, report_path = tmp_path / "edge.json", tmp_path / "r.json"
        cfg.write_text(json.dumps(doc))
        assert cli.main(["emerge", "--config", str(cfg), "--report", str(report_path),
                         "--series", str(tmp_path / "s.csv")]) == 0
        report = json.loads(report_path.read_text())
        assert report["verdict"] == "BOOLEANIZED"
        incompat = incompatibility_observable(scenario.o1, scenario.o2)
        assert report["hs_norm_initial"] == hs_norm(incompat.kernel)
        assert near_the_evolved_norm(report["hs_norm_final"], hs_norm(
            evolve(incompat.to_observable(), scenario.t_max).kernel))


def test_emergence_holds_no_tile_code():
    """emergence reads D's series and norms from the engine's tile pass alone."""
    tree = ast.parse(Path(emergence.__file__).read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    tile_code = {"_TILE", "_tiles", "_SumOfSquares", "_Tiles", "phased_values"}
    assert not imported & tile_code
    assert not any(isinstance(node, ast.Attribute) and node.attr == "_maker"
                   for node in ast.walk(tree))


def test_only_the_kernel_writes_its_facts():
    """hermitian_residual and _maker are assigned in RegularKernel's own methods alone, and
    _maker is read there alone: any other reader asks the kernel (bound, tile, dense)."""
    facts = {"hermitian_residual", "_maker"}
    writes = []
    for path in sorted(Path(emergence.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owned = {id(node) for cls in ast.walk(tree)
                 if isinstance(cls, ast.ClassDef) and cls.name == "RegularKernel"
                 for method in cls.body if isinstance(method, ast.FunctionDef)
                 for node in ast.walk(method)}
        writes += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and id(node) not in owned
                   and (node.attr == "_maker" or node.attr in facts
                        and not isinstance(node.ctx, ast.Load))]
    assert writes == []


def _operands(grid, o1_kernel, o1_family="lorentz_band"):
    o1, o2 = linear_vs_gaussian_pair(grid)
    if o1_kernel:
        widths = {"lorentz_band": {"gamma": 1.0}, "random_bandlimited": {"sigma": 1.0, "seed": 3}}
        o1 = VanHoveObservable(o1.diag, build_kernel(grid, KernelFamilySpec(
            o1_family, amplitude=0.5, mu=10.0, Sigma=2.0, **widths[o1_family])))
    return o1, o2


class TestStreamedIncompatibility:
    @pytest.mark.parametrize("n", [300, *ONE_WIDE_LAST_TILE])  # one-wide, non-square mirrors
    @pytest.mark.parametrize("o1_kernel,o1_family", [
        (False, None), (True, "lorentz_band"), (True, "random_bandlimited")])
    def test_matches_the_stored_d_bit_for_bit(self, o1_kernel, o1_family, n):
        grid = make_grid(20.0, n)  # more than one tile a side
        rho = _complex_state(grid)
        o1, o2 = _operands(grid, o1_kernel, o1_family)
        report = run_emergence(rho, o1, o2, BinPartition.equal_bins(grid, 4),
                               10.0, 101, epsilon=1e-6)
        incompat = incompatibility_observable(o1, o2)
        assert incompat.kernel.values.shape == (n, n)  # stored: tiles now read from it
        stored = expectation_series(rho, incompat, 10.0, 101)
        assert report.series.values.tobytes() == stored.values.tobytes()
        assert report.hs_norm_initial == hs_norm(incompat.kernel)
        assert near_the_evolved_norm(report.hs_norm_final, hs_norm(
            evolve(incompat.to_observable(), 10.0).kernel))
        simulated = engine.expectation_series(
            rho, engine.incompatibility_observable(o1, o2), 10.0, 101)
        assert simulated.values.tobytes() == stored.values.tobytes()

    @pytest.fixture
    def scans(self, monkeypatch):
        """The shapes of the 2-d arrays checked finite, wherever the check is called from."""
        shapes, finite = [], spectral._finite

        def recorded(values):
            if values.ndim == 2:
                shapes.append(values.shape)
            return finite(values)

        monkeypatch.setattr(spectral, "_finite", recorded)
        monkeypatch.setattr(engine, "_finite", recorded)
        return shapes

    @pytest.mark.parametrize("o1_kernel", [False, True], ids=["diag-only-O1", "kernel-O1"])
    def test_a_bounded_made_d_is_never_scanned(self, scans, o1_kernel):
        grid = make_grid(20.0, 300)
        rho = _complex_state(grid)
        o1, o2 = _operands(grid, o1_kernel)
        incompat = engine.incompatibility_observable(o1, o2)
        assert math.isfinite(incompat.kernel.bound)
        run_emergence(rho, o1, o2, BinPartition.equal_bins(grid, 4), 10.0, 101, epsilon=1e-6)
        engine.expectation_series(rho, incompat, 10.0, 101)  # simulate's path
        assert scans == []

    @pytest.mark.parametrize("read", ["evolve", "values"])
    def test_an_operand_read_keeps_its_bound(self, scans, read):
        """Evolving O2 or reading its samples leaves its bound, so D stays bounded, unscanned."""
        grid = make_grid(20.0, 300)
        rho = _complex_state(grid)
        o1, o2 = _operands(grid, False)
        bound = o2.kernel.bound
        if read == "evolve":
            evolve(o2, 3.0)
        else:
            o2.kernel.values  # built and kept: the maker is dropped
        assert o2.kernel.bound == bound < math.inf
        scans.clear()  # the evolved kernel's own check
        run_emergence(rho, o1, o2, BinPartition.equal_bins(grid, 4), 10.0, 101, epsilon=1e-6)
        assert scans == []

    def test_an_unbounded_made_d_is_scanned_tile_by_tile(self, scans):
        grid = make_grid(20.0, 300)
        rho = _complex_state(grid)
        o1, o2 = _operands(grid, False)
        o2 = VanHoveObservable.kernel_only(RegularKernel(grid, o2.kernel.values))  # stored
        scans.clear()  # the stored operand's own check
        run_emergence(rho, o1, o2, BinPartition.equal_bins(grid, 4), 10.0, 101, epsilon=1e-6)
        incompat = engine.incompatibility_observable(o1, o2)
        assert incompat.kernel.bound == math.inf
        engine.expectation_series(rho, incompat, 10.0, 101)
        upper = [(i.stop - i.start, j.stop - j.start) for i, j, _ in spectral._upper_tiles(300)]
        assert sorted(scans) == sorted(upper * 2)  # the tiles I <= J, each pass, in lane order

    def test_a_stored_d_is_scanned_once(self, scans):
        grid = make_grid(20.0, 300)
        made = engine.incompatibility_observable(*_operands(grid, True)).kernel
        stored = engine.IncompatibilityObservable(RegularKernel(grid, made.dense()))
        engine.expectation_series(_complex_state(grid), stored, 10.0, 101)
        assert scans == [(300, 300)]

    def test_absent_state_kernel_still_sums_the_norms(self):
        grid = make_grid(20.0, 300)
        diag = DiagonalPart(grid, np.exp(-0.5 * ((grid.nodes - 10.0) / 3.0) ** 2))
        rho = VanHoveState.normalized(diag, RegularKernel.absent(grid))
        o1, o2 = _operands(grid, True)
        report = run_emergence(rho, o1, o2, BinPartition.equal_bins(grid, 4),
                               10.0, 101, epsilon=1e-6)
        incompat = incompatibility_observable(o1, o2)
        assert report.hs_norm_initial == hs_norm(incompat.kernel) > 0.0
        assert near_the_evolved_norm(report.hs_norm_final, hs_norm(
            evolve(incompat.to_observable(), 10.0).kernel))
        assert not np.any(report.series.values)

    def test_inexact_operand_still_fails_the_d_check(self, tmp_path, monkeypatch):
        grid = make_grid(20.0, 16)
        values = build_kernel(grid, KernelFamilySpec(
            "gaussian_band", sigma=1.5, mu=10.0, Sigma=2.0)).values.copy()
        values[0, 15] += 1e-9
        o2 = VanHoveObservable.kernel_only(RegularKernel(grid, values))
        assert 0.0 < o2.kernel.hermitian_residual <= 1e-8
        o1 = VanHoveObservable.diag_only(DiagonalPart(grid, grid.nodes))
        rho = _complex_state(grid)
        with pytest.raises(ValueError, match="1e-10"):
            run_emergence(rho, o1, o2, BinPartition.equal_bins(grid, 2), 10.0, 21,
                          epsilon=1e-6)
        with pytest.raises(ValueError, match="1e-10"):
            engine.expectation_series(rho, engine.incompatibility_observable(o1, o2), 10.0, 21)
        scenario = cli.Scenario(
            grid=grid, rho=rho, o1=o1, o2=o2, t_max=10.0, n_samples=21,
            decoherence_ratio=0.5, epsilon=None, sustain=10, partition=None,
            outputs={"series": str(tmp_path / "s.csv")})
        monkeypatch.setattr(cli, "load_scenario", lambda *args, **kwargs: scenario)
        with pytest.raises(ConfigError, match="1e-10") as caught:  # exit 2 on the CLI
            cli.run_simulate("unread.json", None)
        assert isinstance(caught.value.__cause__, ValueError)
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("streamed", [True, False], ids=["streamed", "stored"])
    def test_d_that_overflows_is_rejected(self, streamed):
        """Checked on D itself: without a state kernel the series never reads D."""
        grid = make_grid(20.0, 300)
        diag = DiagonalPart(grid, np.exp(-0.5 * ((grid.nodes - 10.0) / 3.0) ** 2))
        rho = VanHoveState.normalized(diag, RegularKernel.absent(grid))
        kernel = build_kernel(grid, KernelFamilySpec(
            "gaussian_band", amplitude=1e4, sigma=1.5, mu=10.0, Sigma=2.0))
        if not streamed:  # a residual within tolerance sends D through the stored check
            values = kernel.values.copy()
            values[0, -1] += 1e-12
            kernel = RegularKernel(grid, values)
        o1 = VanHoveObservable.diag_only(DiagonalPart(grid, 1e306 * grid.nodes))
        o2 = VanHoveObservable.kernel_only(kernel)
        assert (o2.kernel.hermitian_residual == 0.0) is streamed
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="samples must be finite"):
                run_emergence(rho, o1, o2, BinPartition.equal_bins(grid, 4), 10.0, 21,
                              epsilon=1e-6)
            with pytest.raises(ValueError, match="samples must be finite"):
                engine.expectation_series(rho, engine.incompatibility_observable(o1, o2), 10.0, 21)

    def test_norms_that_overflow_fail_the_constancy_check(self):
        times = np.linspace(0.0, 1.0, 3)
        series = ExpectationSeries(times, np.ones(3, dtype=complex), 10.0)
        with pytest.raises(ValueError, match="conserve the kernel norm"):
            emergence.EmergenceReport(series, None, None, math.inf, math.inf, False,
                                      degenerate=False)


@pytest.mark.parametrize("degenerate,t_dec,t_eff,boolean", [
    (degenerate, t_dec, t_eff, boolean) for degenerate in (False, True)
    for t_dec in (None, 1.0) for t_eff in (None, 0.0) for boolean in (False, True)])
def test_verdict_is_derived_from_the_stored_facts(degenerate, t_dec, t_eff, boolean):
    """DEGENERATE whenever the premise failed; else BOOLEANIZED exactly when both times were
    reached (0.0 counts) and the pointer lattice is Boolean; NOT_REACHED otherwise."""
    series = ExpectationSeries(np.linspace(0.0, 1.0, 3), np.ones(3, dtype=complex), 10.0)
    report = emergence.EmergenceReport(series, t_dec, t_eff, 1.0, 1.0, boolean,
                                       degenerate=degenerate)
    if degenerate:
        expected = Verdict.DEGENERATE
    elif (t_dec, t_eff, boolean) == (1.0, 0.0, True):
        expected = Verdict.BOOLEANIZED
    else:
        expected = Verdict.NOT_REACHED
    assert report.verdict is expected
    assert report.to_json_dict()["verdict"] == expected.value
