import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_expectation,
    gaussian_scenario,
    linear_vs_gaussian_pair,
    obs_matrix,
)
from sidlattice import engine, spectral
from sidlattice import (
    DiagonalPart,
    ExpectationSeries,
    GridMismatch,
    IncompatibilityObservable,
    KernelFamilySpec,
    RegularKernel,
    SupportOverflowWarning,
    UnsupportedFamily,
    VanHoveObservable,
    VanHoveState,
    WindowExceeded,
    analytic_oracle,
    build_kernel,
    check_hermitian,
    combined_decay_rate,
    commutator_kernel,
    decoherence_time,
    evolve,
    expectation,
    expectation_series,
    hs_norm,
    incompatibility_observable,
    make_grid,
)


def _random_observable(grid, seed, with_diag=True):
    kernel = build_kernel(grid, KernelFamilySpec(
        "random_bandlimited", sigma=1.5, mu=grid.omega_max / 2,
        Sigma=grid.omega_max / 12, seed=seed))
    diag = DiagonalPart(grid, np.sin(grid.nodes)) if with_diag \
        else DiagonalPart.zeros(grid)
    return VanHoveObservable(diag, kernel)


def _random_state(grid, seed):
    kernel = build_kernel(grid, KernelFamilySpec(
        "random_bandlimited", amplitude=0.3, sigma=1.5, mu=grid.omega_max / 2,
        Sigma=grid.omega_max / 12, seed=seed))
    diag = DiagonalPart(grid, np.exp(-0.5 * ((grid.nodes - grid.omega_max / 2)
                                             / (grid.omega_max / 8)) ** 2))
    return VanHoveState.normalized(diag, kernel)


class TestEvolve:
    def test_zero_time_is_identity(self):
        grid = make_grid(20.0, 64)
        obs = _random_observable(grid, 1)
        evolved = evolve(obs, 0.0)
        np.testing.assert_array_equal(evolved.kernel.values, obs.kernel.values)

    def test_recurrence_periodicity(self):
        grid = make_grid(20.0, 128)
        obs = _random_observable(grid, 2)
        evolved = evolve(obs, grid.recurrence_time)
        assert np.max(np.abs(evolved.kernel.values - obs.kernel.values)) < 1e-12

    def test_diag_only_unchanged(self):
        grid = make_grid(20.0, 32)
        obs = VanHoveObservable.diag_only(DiagonalPart(grid, grid.nodes**2))
        evolved = evolve(obs, 3.7)
        np.testing.assert_array_equal(evolved.kernel.values, obs.kernel.values)
        np.testing.assert_array_equal(evolved.diag.values, obs.diag.values)

    def test_hermiticity_preserved(self):
        grid = make_grid(20.0, 64)
        obs = _random_observable(grid, 3)
        assert check_hermitian(evolve(obs, 2.31).kernel, 1e-12)

    def test_norm_conserved(self):
        grid = make_grid(20.0, 64)
        obs = _random_observable(grid, 4)
        h0 = hs_norm(obs.kernel)
        for t in (0.5, 5.0, 40.0):
            assert abs(hs_norm(evolve(obs, t).kernel) - h0) <= 1e-12 * h0

    def test_rejects_nonfinite_time(self):
        grid = make_grid(20.0, 16)
        with pytest.raises(ValueError):
            evolve(_random_observable(grid, 5), math.inf)


class TestCommutator:
    def test_self_commutator_vanishes(self):
        grid = make_grid(20.0, 48)
        obs = _random_observable(grid, 6)
        np.testing.assert_array_equal(
            commutator_kernel(obs, obs).values, np.zeros((48, 48)))

    def test_diag_only_pair_commutes(self):
        grid = make_grid(20.0, 32)
        o1 = VanHoveObservable.diag_only(DiagonalPart(grid, grid.nodes))
        o2 = VanHoveObservable.diag_only(DiagonalPart(grid, np.cos(grid.nodes)))
        np.testing.assert_array_equal(
            commutator_kernel(o1, o2).values, np.zeros((32, 32)))

    def test_linear_diag_times_kernel(self):
        grid = make_grid(20.0, 64)
        o1, o2 = linear_vs_gaussian_pair(grid)
        ck = commutator_kernel(o1, o2)
        nu = grid.nodes[:, None] - grid.nodes[None, :]
        assert np.max(np.abs(ck.values - nu * o2.kernel.values)) < 1e-13

    def test_matches_dense_matrix_oracle(self):
        grid = make_grid(20.0, 64)
        for o1, o2 in [linear_vs_gaussian_pair(grid),
                       (_random_observable(grid, 7), _random_observable(grid, 8))]:
            ck = commutator_kernel(o1, o2)
            m1, m2 = obs_matrix(o1), obs_matrix(o2)
            oracle = (m1 @ m2 - m2 @ m1) / grid.spacing
            assert np.max(np.abs(ck.values - oracle)) < 1e-10

    def test_anti_hermitian_and_bilinear(self):
        grid = make_grid(20.0, 48)
        o1 = _random_observable(grid, 9)
        o2 = _random_observable(grid, 10)
        o3 = _random_observable(grid, 15)
        ck = commutator_kernel(o1, o2).values
        assert np.max(np.abs(ck + ck.conj().T)) < 1e-10
        scaled = VanHoveObservable(
            DiagonalPart(grid, 2.0 * o1.diag.values),
            RegularKernel(grid, 2.0 * o1.kernel.values))
        assert np.max(np.abs(commutator_kernel(scaled, o2).values - 2.0 * ck)) < 1e-10
        summed = VanHoveObservable(
            DiagonalPart(grid, o1.diag.values + o3.diag.values),
            RegularKernel(grid, o1.kernel.values + o3.kernel.values))
        additive = commutator_kernel(summed, o2).values
        parts = ck + commutator_kernel(o3, o2).values
        assert np.max(np.abs(additive - parts)) < 1e-10

    def test_grid_mismatch(self):
        o1 = _random_observable(make_grid(20.0, 32), 11)
        o2 = _random_observable(make_grid(20.0, 64), 12)
        with pytest.raises(GridMismatch):
            commutator_kernel(o1, o2)


class TestIncompatibilityObservable:
    def test_commuting_pair_gives_zero(self):
        grid = make_grid(20.0, 32)
        o1 = VanHoveObservable.diag_only(DiagonalPart(grid, grid.nodes))
        o2 = VanHoveObservable.diag_only(DiagonalPart(grid, grid.nodes**2))
        assert hs_norm(incompatibility_observable(o1, o2).kernel) == 0.0

    def test_linear_diag_case_is_hermitian(self):
        grid = make_grid(20.0, 64)
        o1, o2 = linear_vs_gaussian_pair(grid)
        incompat = incompatibility_observable(o1, o2)
        nu = grid.nodes[:, None] - grid.nodes[None, :]
        expected = -1j * nu * o2.kernel.values
        assert np.max(np.abs(incompat.kernel.values - expected)) < 1e-13
        assert check_hermitian(incompat.kernel, 1e-12)

    def test_swap_negates(self):
        grid = make_grid(20.0, 48)
        o1 = _random_observable(grid, 13)
        o2 = _random_observable(grid, 14)
        d12 = incompatibility_observable(o1, o2)
        d21 = incompatibility_observable(o2, o1)
        np.testing.assert_array_equal(d12.kernel.values, -d21.kernel.values)

    def test_rejects_non_hermitian_kernel(self):
        grid = make_grid(20.0, 8)
        bad = np.zeros((8, 8), dtype=complex)
        bad[0, 1] = 1.0
        with pytest.raises(ValueError):
            IncompatibilityObservable(RegularKernel(grid, bad))


class TestExpectation:
    def test_zero_observable(self):
        grid = make_grid(20.0, 32)
        rho = _random_state(grid, 15)
        zero = VanHoveObservable.diag_only(DiagonalPart.zeros(grid))
        assert expectation(rho, zero, 1.3) == 0.0

    def test_normalization(self):
        grid = make_grid(20.0, 32)
        rho = VanHoveState.normalized(
            DiagonalPart(grid, np.exp(-grid.nodes / 4.0)), RegularKernel.zeros(grid))
        unit = VanHoveObservable.diag_only(DiagonalPart(grid, np.ones(32)))
        assert abs(expectation(rho, unit, 0.7) - 1.0) < 1e-14

    def test_matches_brute_force_oracle(self):
        grid = make_grid(20.0, 96)
        rho = _random_state(grid, 16)
        obs = _random_observable(grid, 17)
        for t in (0.0, 0.9, 4.2, 11.0):
            got = expectation(rho, obs, t)
            want = brute_expectation(rho, obs, t)
            assert abs(got - want) < 1e-12

    def test_real_for_hermitian_pair(self):
        grid = make_grid(20.0, 64)
        rho = _random_state(grid, 18)
        o1 = _random_observable(grid, 19)
        o2 = _random_observable(grid, 20)
        incompat = incompatibility_observable(o1, o2)
        for t in np.linspace(0.0, 12.0, 7):
            value = expectation(rho, incompat.to_observable(), t)
            assert abs(value.imag) < 1e-10

    def test_conjugation_convention_matches_plain_pairing_for_real_state(self):
        # real symmetric state kernels make both index pairings identical
        grid, rho, incompat = gaussian_scenario(n_points=64)
        assert np.max(np.abs(rho.kernel.values.imag)) == 0.0
        obs = incompat.to_observable()
        for t in (0.0, 1.1):
            plain = grid.spacing**2 * np.sum(
                rho.kernel.values * obs.kernel.values
                * np.exp(1j * t * (grid.nodes[:, None] - grid.nodes[None, :])))
            assert abs(expectation(rho, obs, t) - plain) < 1e-12

    def test_recurrence_fingerprint(self):
        grid, rho, incompat = gaussian_scenario(n_points=128)
        obs = incompat.to_observable()
        v0 = expectation(rho, obs, 1.5)
        v1 = expectation(rho, obs, 1.5 + grid.recurrence_time)
        assert abs(v1 - v0) < 1e-10

    def test_grid_mismatch(self):
        rho = _random_state(make_grid(20.0, 32), 21)
        obs = _random_observable(make_grid(20.0, 64), 22)
        with pytest.raises(GridMismatch):
            expectation(rho, obs, 0.0)


def _nu_profile(values):
    """The anti-diagonal sums of an n x n array, by the tile pass of the expectation."""
    return engine._skewed_profile(len(values), lambda i, j, view: np.copyto(view, values[i, j]))


class TestAntiDiagonalRegrouping:
    @pytest.fixture
    def kernel(self):
        rng = np.random.default_rng(99)
        return rng.standard_normal((37, 37)) + 1j * rng.standard_normal((37, 37))

    def test_nu_profile_matches_direct_sum(self, kernel):
        profile = _nu_profile(kernel)
        n = kernel.shape[0]
        assert profile.shape == (2 * n - 1,)
        for m in (-(n - 1), -3, 0, 5, n - 1):
            expected = sum(kernel[k, k - m] for k in range(n) if 0 <= k - m < n)
            assert abs(profile[m + n - 1] - expected) < 1e-12
        assert abs(profile.sum() - kernel.sum()) < 1e-10

    def test_phase_series_matches_direct(self, kernel):
        grid = make_grid(0.25 * 37, 37)
        assert grid.spacing == 0.25
        profile = _nu_profile(kernel)
        nu = 0.25 * np.arange(-36, 37, dtype=np.float64)
        times = np.array([0.0, 0.7, 2.1])
        got = engine._phase_series(grid, profile, times)
        for j, t in enumerate(times):
            expected = np.sum(profile * np.exp(1j * nu * t))
            assert abs(got[j] - expected) < 1e-12


class TestGaussianDecay:
    def test_matches_closed_form(self):
        grid, rho, incompat = gaussian_scenario(n_points=256)
        series = expectation_series(rho, incompat, 5.0, 101)
        ratio = np.abs(series.values) / series.initial_magnitude
        expected = np.exp(-0.5 * series.times**2)
        assert np.max(np.abs(ratio - expected) / expected) < 1e-6

    def test_reduced_width_combination(self):
        # unequal band widths: sigma_c^2 = s1^2 s2^2 / (s1^2 + s2^2)
        grid = make_grid(20.0, 512)
        k_rho = build_kernel(grid, KernelFamilySpec(
            "gaussian_band", sigma=1.0, mu=10.0, Sigma=2.0))
        k_obs = build_kernel(grid, KernelFamilySpec(
            "gaussian_band", sigma=2.0, mu=10.0, Sigma=2.0))
        diag = DiagonalPart(grid, np.exp(-0.5 * ((grid.nodes - 10.0) / 3.0) ** 2))
        rho = VanHoveState.normalized(diag, k_rho)
        series = expectation_series(rho, IncompatibilityObservable(k_obs), 5.0, 51)
        sigma_c2 = 4.0 / 5.0
        expected = np.exp(-0.5 * sigma_c2 * series.times**2)
        ratio = np.abs(series.values) / series.initial_magnitude
        assert np.max(np.abs(ratio - expected) / expected) < 1e-6

    def test_matches_fine_grid_quadrature_oracle(self):
        coarse, rho_c, incompat_c = gaussian_scenario(n_points=128)
        fine, rho_f, incompat_f = gaussian_scenario(n_points=1280)
        times = np.linspace(0.0, 5.0, 11)
        got = np.array([expectation(rho_c, incompat_c.to_observable(), t)
                        for t in times])
        oracle = np.array([brute_expectation(rho_f, incompat_f.to_observable(), t)
                           for t in times])
        scale = np.abs(oracle[0])
        rel = np.abs(got / scale - oracle / scale) / np.maximum(
            np.abs(oracle) / scale, 1e-12)
        assert np.max(rel) < 1e-6


class TestExpectationSeries:
    def test_zero_incompatibility_gives_zero_series(self):
        grid = make_grid(20.0, 32)
        rho = _random_state(grid, 23)
        zero = IncompatibilityObservable(RegularKernel.zeros(grid))
        series = expectation_series(rho, zero, 5.0, 16)
        np.testing.assert_array_equal(series.values, np.zeros(16))
        assert series.initial_magnitude == 0.0

    def test_window_guard(self):
        grid = make_grid(20.0, 32)
        rho = _random_state(grid, 24)
        zero = IncompatibilityObservable(RegularKernel.zeros(grid))
        with pytest.raises(WindowExceeded):
            expectation_series(rho, zero, grid.recurrence_time, 8)
        with pytest.raises(WindowExceeded):
            expectation_series(rho, zero, 0.5 * grid.recurrence_time * 1.0001, 8)
        ok = expectation_series(rho, zero, 0.5 * grid.recurrence_time, 8)
        assert ok.times[-1] == 0.5 * grid.recurrence_time

    def test_agrees_with_single_time_expectation(self):
        grid = make_grid(20.0, 64)
        rho = _random_state(grid, 25)
        o1 = _random_observable(grid, 26)
        o2 = _random_observable(grid, 27)
        incompat = incompatibility_observable(o1, o2)
        series = expectation_series(rho, incompat, 4.0, 9)
        for t, v in zip(series.times, series.values):
            direct = expectation(rho, incompat.to_observable(), float(t))
            assert abs(v - direct) <= 1e-14 * max(1.0, abs(direct))

    def test_sampling_layout(self):
        grid, rho, incompat = gaussian_scenario(n_points=64)
        series = expectation_series(rho, incompat, 2.0, 21)
        np.testing.assert_allclose(series.times, np.linspace(0.0, 2.0, 21))
        assert series.recurrence_time == grid.recurrence_time

    def test_riemann_lebesgue_tail(self):
        # band width 36 grid spacings: the tail is destroyed long before
        # half the recurrence time
        grid, rho, incompat = gaussian_scenario(n_points=512)
        tail = expectation(rho, incompat.to_observable(),
                           0.5 * grid.recurrence_time)
        initial = expectation(rho, incompat.to_observable(), 0.0)
        assert abs(tail) <= 1e-3 * abs(initial)

    def test_peak_does_not_grow_with_samples(self):
        # formed for all times at once, the phases of 2001 samples at
        # n = 1024 traced 66 MB
        grid, rho, incompat = gaussian_scenario(n_points=1024)
        tracemalloc.start()
        try:
            series = expectation_series(rho, incompat, 10.0, 2001)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 12e6
        profile = engine._kernel_profile(rho, engine._kernel_tiles(incompat.kernel))
        for k in (0, 255, 256, 2000):  # either side of a block edge (32 times a block)
            alone = engine._phase_series(grid, profile, series.times[k:k + 1])[0]
            assert abs(series.values[k] - alone) <= 1e-12 * series.initial_magnitude

    def test_peak_is_the_same_for_201_and_2001_samples(self):
        # the phases take as many times at once as fit in one tile's bytes (32 at
        # n = 1024): by 256 times, 201 samples traced 7.8 MB and 2001 8.8 MB
        grid, rho, incompat = gaussian_scenario(n_points=1024)
        peaks = {}
        for n_samples in (201, 2001):
            tracemalloc.start()
            try:
                expectation_series(rho, incompat, 10.0, n_samples)
                _, peaks[n_samples] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        # only the times and values themselves may grow: 1800 samples, 0.1 MB with copies
        assert peaks[2001] - peaks[201] <= 0.2e6

    def test_validation(self):
        grid = make_grid(20.0, 32)
        rho = _random_state(grid, 28)
        zero = IncompatibilityObservable(RegularKernel.zeros(grid))
        with pytest.raises(ValueError):
            expectation_series(rho, zero, -1.0, 8)
        with pytest.raises(ValueError):
            expectation_series(rho, zero, 1.0, 1)


class TestDecoherenceTime:
    def test_gaussian_closed_form_inversion(self):
        grid, rho, incompat = gaussian_scenario(n_points=256)
        series = expectation_series(rho, incompat, 5.0, 201)
        t_d = decoherence_time(series, math.exp(-1.0), 10)
        step = series.times[1] - series.times[0]
        assert abs(t_d - math.sqrt(2.0)) <= step

    def test_zero_series_degenerate_rule(self):
        grid = make_grid(20.0, 32)
        rho = _random_state(grid, 29)
        zero = IncompatibilityObservable(RegularKernel.zeros(grid))
        series = expectation_series(rho, zero, 5.0, 16)
        assert decoherence_time(series) == 0.0

    def test_constant_series_not_reached(self):
        times = np.linspace(0.0, 1.0, 11)
        series = ExpectationSeries(times, np.ones(11, dtype=complex), 10.0)
        assert decoherence_time(series, 0.5, 1) is None

    def test_sustain_skips_transient_dips(self):
        times = np.linspace(0.0, 1.0, 11)
        values = np.ones(11, dtype=complex)
        values[2:5] = 0.01  # dip shorter than sustain
        values[7:] = 0.01
        series = ExpectationSeries(times, values, 10.0)
        assert decoherence_time(series, 0.5, 4) == pytest.approx(times[7])
        assert decoherence_time(series, 0.5, 3) == pytest.approx(times[2])
        assert decoherence_time(series, 0.5, 5) is None

    def test_parameter_validation(self):
        times = np.linspace(0.0, 1.0, 4)
        series = ExpectationSeries(times, np.ones(4, dtype=complex), 10.0)
        with pytest.raises(ValueError):
            decoherence_time(series, 1.5, 1)
        with pytest.raises(ValueError):
            decoherence_time(series, 0.5, 0)
        for ratio, sustain in ((math.nan, 1), (0.5, math.nan)):
            with pytest.raises(ValueError):
                decoherence_time(series, ratio, sustain)

    def test_values_must_be_finite(self):
        times = np.linspace(0.0, 1.0, 4)
        for bad in (math.inf, complex(0.0, math.nan)):
            with pytest.raises(ValueError, match="finite"):
                ExpectationSeries(times, np.array([1.0, bad, 1.0, 1.0], dtype=complex), 10.0)

    @pytest.mark.parametrize("times", [[0.0, math.nan], [math.nan], [0.0, math.inf]])
    def test_times_must_be_finite(self, times):
        with pytest.raises(ValueError, match="finite"):
            ExpectationSeries(times, np.ones(len(times), dtype=complex), 10.0)

    def test_nan_recurrence_time_is_outside_every_window(self):
        with pytest.raises(WindowExceeded):
            ExpectationSeries([0.0, 1.0], [1.0, 0.1], math.nan)


class TestAnalyticOracle:
    def test_normalized_at_zero(self):
        spec = KernelFamilySpec("gaussian_band", sigma=2.0, mu=10.0, Sigma=2.0)
        assert analytic_oracle(spec, spec, [0.0])[0] == 1.0

    def test_gaussian_value(self):
        s1 = KernelFamilySpec("gaussian_band", sigma=math.sqrt(2.0), mu=10.0, Sigma=2.0)
        values = analytic_oracle(s1, s1, [2.0])
        assert values[0] == pytest.approx(math.exp(-2.0), rel=1e-12)
        kind, rate = combined_decay_rate(s1, s1)
        assert kind == "gaussian" and rate == pytest.approx(1.0)

    def test_gaussian_cross_checked_by_quadrature(self):
        s1 = KernelFamilySpec("gaussian_band", sigma=math.sqrt(2.0), mu=10.0, Sigma=2.0)
        nu = np.linspace(-40.0, 40.0, 80001)
        profile = np.exp(-0.5 * (nu / s1.sigma) ** 2) ** 2
        for t in (0.5, 1.5, 2.0):
            ft = np.trapezoid(profile * np.exp(1j * nu * t), nu)
            ft0 = np.trapezoid(profile, nu)
            assert abs(analytic_oracle(s1, s1, [t])[0] - abs(ft / ft0)) < 1e-9

    def test_lorentz_value_within_truncation(self):
        # a broad partner makes the reduced rate essentially gamma2
        broad = KernelFamilySpec("lorentz_band", gamma=1000.0, mu=10.0, Sigma=2.0)
        narrow = KernelFamilySpec("lorentz_band", gamma=0.5002501250625313,
                                  mu=10.0, Sigma=2.0)
        kind, rate = combined_decay_rate(broad, narrow)
        assert kind == "lorentz" and rate == pytest.approx(0.5, rel=1e-9)
        value = analytic_oracle(broad, narrow, [2.0])[0]
        assert value == pytest.approx(math.exp(-1.0), rel=1e-9)
        # high-resolution quadrature of the truncated product profile
        omega_max = 400.0
        nu = np.linspace(-omega_max, omega_max, 2000001)
        profile = (broad.gamma**2 / (nu**2 + broad.gamma**2)) \
            * (narrow.gamma**2 / (nu**2 + narrow.gamma**2))
        ft = np.trapezoid(profile * np.exp(1j * nu * 2.0), nu)
        ft0 = np.trapezoid(profile, nu)
        truncation = 5.0 * rate / omega_max
        assert abs(value - abs(ft / ft0)) < truncation

    @pytest.mark.parametrize("kind,w1,w2,want", [
        ("gaussian", 1e-320, 2.0, 0.0),  # 1e-320**-2 overflows
        ("gaussian", 1e200, 1e200, math.inf),  # 1e200**-2 underflows to 0
        ("lorentz", 1e308, 1e308, math.nan),  # inf / inf
        ("lorentz", 1e308, 1.0, 1.0),
    ])
    def test_reduced_width_leaves_the_float_range_without_raising(self, kind, w1, w2, want):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert engine.reduced_width(kind, w1, w2) == pytest.approx(want, nan_ok=True)

    def test_reduced_width_matches_the_python_float_forms_bitwise(self):
        rng = np.random.default_rng(11)
        for w1, w2 in 10.0 ** rng.uniform(-150.0, 150.0, (2000, 2)):
            w1, w2 = float(w1), float(w2)
            assert engine.reduced_width("gaussian", w1, w2) == math.sqrt(
                1.0 / (w1**-2 + w2**-2))
            assert engine.reduced_width("lorentz", w1, w2) == w1 * w2 / (w1 + w2)

    def test_lorentz_decay_past_the_exponent_range_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            values = engine.analytic_decay("lorentz", 1e308, [0.0, 1.0, 2.0])
        assert values.tolist() == [1.0, 0.0, 0.0]

    def test_family_mismatch_rejected(self):
        g = KernelFamilySpec("gaussian_band", sigma=1.0, mu=10.0, Sigma=2.0)
        l = KernelFamilySpec("lorentz_band", gamma=1.0, mu=10.0, Sigma=2.0)
        with pytest.raises(UnsupportedFamily):
            analytic_oracle(g, l, [1.0])
        r = KernelFamilySpec("rect_band", sigma=1.0, mu=10.0, Sigma=2.0)
        with pytest.raises(UnsupportedFamily):
            analytic_oracle(r, r, [1.0])


def _two_matmul_commutator(o1, o2):
    """The commutator kernel with every term written out, zero or not."""
    d1, d2 = o1.diag.values, o2.diag.values
    k1, k2 = o1.kernel.values, o2.kernel.values
    cross = (d1[:, None] - d1[None, :]) * k2 - (d2[:, None] - d2[None, :]) * k1
    return cross + o1.grid.spacing * (k1 @ k2 - k2 @ k1)


class TestCommutatorShortcuts:
    @pytest.mark.parametrize("explicit_zeros", [False, True])
    def test_zero_kernel_operand_matches_two_matmul_formula(self, explicit_zeros):
        grid = make_grid(20.0, 64)
        diag = DiagonalPart(grid, grid.nodes)
        o1 = VanHoveObservable(diag, RegularKernel.zeros(grid)) if explicit_zeros \
            else VanHoveObservable.diag_only(diag)
        o2 = _random_observable(grid, 3)
        o3 = VanHoveObservable.diag_only(DiagonalPart(grid, np.cos(grid.nodes)))
        for a, b in ((o1, o2), (o2, o1), (o1, o3)):
            np.testing.assert_array_equal(
                commutator_kernel(a, b).values, _two_matmul_commutator(a, b))

    def test_in_place_products_are_bit_identical(self):
        grid = make_grid(20.0, 48)
        diag_only = VanHoveObservable.diag_only(DiagonalPart(grid, grid.nodes))
        phases = np.exp(1j * 0.7 * grid.nodes)
        for a, b in ((diag_only, _random_observable(grid, 3)),
                     (_random_observable(grid, 4), _random_observable(grid, 5))):
            incompat = incompatibility_observable(a, b)
            d = incompat.kernel.values
            assert np.array_equal(d, -1j * commutator_kernel(a, b).values)
            rho = _random_state(grid, 6)
            assert np.array_equal(
                engine._kernel_profile(rho, engine._kernel_tiles(incompat.kernel)),
                grid.spacing**2 * _nu_profile(np.conjugate(rho.kernel.values) * d))
            assert np.array_equal(
                engine.phased_values(d, phases),
                d * phases[:, None] * np.conjugate(phases)[None, :])

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 64), seed=st.integers(0, 2**32 - 1),
           gamma=st.floats(0.3, 5.0))
    def test_one_matmul_matches_two_matmul(self, n, seed, gamma):
        grid = make_grid(20.0, n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SupportOverflowWarning)
            o1 = VanHoveObservable.kernel_only(build_kernel(grid, KernelFamilySpec(
                "random_bandlimited", amplitude=0.8, sigma=1.5, mu=10.0,
                Sigma=2.0, seed=seed)))
            o2 = VanHoveObservable.kernel_only(build_kernel(grid, KernelFamilySpec(
                "lorentz_band", amplitude=-1.3, gamma=gamma, mu=10.0, Sigma=2.0)))
        k1, k2 = o1.kernel.values, o2.kernel.values
        oracle = grid.spacing * (k1 @ k2 - k2 @ k1)
        bound = 1e-12 * grid.spacing * np.linalg.norm(k1) * np.linalg.norm(k2)
        got = commutator_kernel(o1, o2).values
        assert np.max(np.abs(got - oracle)) <= bound
        assert spectral._hermitian_residual(-1j * got) == 0.0

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 64), pair=st.sampled_from([
               ("gaussian_band", "lorentz_band"), ("rect_band", "gaussian_band")]),
           amp1=st.floats(-2.0, 2.0).filter(lambda a: abs(a) > 0.1),
           amp2=st.floats(-2.0, 2.0).filter(lambda a: abs(a) > 0.1),
           width=st.floats(0.3, 5.0))
    def test_real_product_matches_two_matmul(self, n, pair, amp1, amp2, width):
        grid = make_grid(20.0, n)
        widths = {"gaussian_band": {"sigma": width}, "rect_band": {"sigma": width},
                  "lorentz_band": {"gamma": width}}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SupportOverflowWarning)
            o1, o2 = (VanHoveObservable.kernel_only(build_kernel(grid, KernelFamilySpec(
                family, amplitude=amp, mu=10.0, Sigma=2.0, **widths[family])))
                for family, amp in zip(pair, (amp1, amp2)))
        k1, k2 = o1.kernel.values, o2.kernel.values
        assert not np.any(k1.imag) and not np.any(k2.imag)
        oracle = grid.spacing * (k1 @ k2 - k2 @ k1)
        bound = 1e-12 * grid.spacing * np.linalg.norm(k1) * np.linalg.norm(k2)
        got = commutator_kernel(o1, o2).values
        assert np.max(np.abs(got - oracle)) <= bound
        assert spectral._hermitian_residual(-1j * got) == 0.0

    def test_tiny_imaginary_part_takes_complex_product(self):
        grid = make_grid(20.0, 32)
        k1 = build_kernel(grid, KernelFamilySpec(
            "gaussian_band", amplitude=-0.7, sigma=1.5, mu=10.0, Sigma=2.0)).values.copy()
        k1 = k1.astype(np.complex128)
        k1[0, 31] += 1e-300j
        k1[31, 0] -= 1e-300j
        o1 = VanHoveObservable.kernel_only(RegularKernel(grid, k1))
        o2 = VanHoveObservable.kernel_only(build_kernel(grid, KernelFamilySpec(
            "lorentz_band", amplitude=1.3, gamma=1.0, mu=10.0, Sigma=2.0)))
        got = commutator_kernel(o1, o2).values
        # a real product would drop the imaginary parts the 1e-300 entries carry
        assert np.any(got.imag)
        np.testing.assert_array_equal(got, _two_matmul_commutator(o1, o2))


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint8)


class TestAbsentKernelOperand:
    def test_diag_only_matches_explicit_zero_kernel(self):
        grid = make_grid(20.0, 64)
        diag = DiagonalPart(grid, grid.nodes)
        absent = VanHoveObservable.diag_only(diag)
        explicit = VanHoveObservable(diag, RegularKernel.zeros(grid))
        assert absent.kernel.values.strides == (0, 0)
        assert explicit.kernel.values.strides == (64 * 16, 16)
        rho = _random_state(grid, 8)
        for other in (_random_observable(grid, 3),
                      VanHoveObservable.diag_only(DiagonalPart(grid, np.cos(grid.nodes)))):
            for a, b in ((absent, other), (other, absent)):
                x, y = (explicit, other) if a is absent else (other, explicit)
                assert np.array_equal(_bits(commutator_kernel(a, b).values),
                                      _bits(commutator_kernel(x, y).values))
                d_absent = incompatibility_observable(a, b)
                d_explicit = incompatibility_observable(x, y)
                assert np.array_equal(_bits(d_absent.kernel.values),
                                      _bits(d_explicit.kernel.values))
        assert expectation(rho, absent, 0.9) == expectation(rho, explicit, 0.9)
        assert evolve(absent, 3.0) is absent

    def test_absent_state_kernel_gives_the_explicit_zero_series(self):
        grid = make_grid(20.0, 48)
        diag = DiagonalPart(grid, np.exp(-0.5 * ((grid.nodes - 10.0) / 3.0) ** 2))
        incompat = incompatibility_observable(
            VanHoveObservable.diag_only(DiagonalPart(grid, grid.nodes)),
            _random_observable(grid, 4))
        absent = VanHoveState.normalized(diag, RegularKernel.absent(grid))
        explicit = VanHoveState.normalized(diag, RegularKernel.zeros(grid))
        got = expectation_series(absent, incompat, 5.0, 17).values
        expected = expectation_series(explicit, incompat, 5.0, 17).values
        assert np.array_equal(_bits(got), _bits(expected))


class TestIncompatibilityCheckedOnce:
    def test_exactly_hermitian_operands_give_d_without_a_scan(self, monkeypatch):
        grid = make_grid(20.0, 64)
        pairs = [(_random_observable(grid, 5), _random_observable(grid, 6)),
                 (VanHoveObservable.diag_only(DiagonalPart(grid, grid.nodes)),
                  _random_observable(grid, 7))]

        def no_scan(*args):
            raise AssertionError("D was scanned although it is Hermitian by construction")

        monkeypatch.setattr(spectral, "check_hermitian", no_scan)
        for o1, o2 in pairs:
            incompat = incompatibility_observable(o1, o2)
            assert incompat.kernel.hermitian_residual == 0.0
            assert spectral._hermitian_residual(incompat.kernel.values) == 0.0

    def test_inexact_operand_passes_entry_and_d_still_fails(self):
        grid = make_grid(20.0, 16)
        values = build_kernel(grid, KernelFamilySpec(
            "gaussian_band", sigma=1.5, mu=10.0, Sigma=2.0)).values.copy()
        values[0, 15] += 1e-9
        o2 = VanHoveObservable.kernel_only(RegularKernel(grid, values))
        assert 0.0 < o2.kernel.hermitian_residual <= 1e-8
        o1 = VanHoveObservable.diag_only(DiagonalPart(grid, grid.nodes))
        with pytest.raises(ValueError, match="1e-10"):
            incompatibility_observable(o1, o2)


    def test_d_once_stored_serves_the_tiles_and_drops_the_maker(self):
        grid = make_grid(20.0, 300)  # more than one tile a side
        incompat = incompatibility_observable(*linear_vs_gaussian_pair(grid))
        kernel = incompat.kernel
        assert kernel._maker is not None and "values" not in vars(kernel)
        tiles = list(spectral._tiles(300))
        made = [kernel.tile(*ij) for ij in tiles]
        # a real tile of [O1, O2] goes to D.imag alone; a given out is zeroed first
        stale = np.full((256, 256), 7.0 + 7.0j)
        assert np.array_equal(kernel.tile(*tiles[0], out=stale), made[0])
        values = kernel.values
        assert kernel._maker is None
        for ij, tile in zip(tiles, made):
            assert np.shares_memory(kernel.tile(*ij), values)
            assert np.array_equal(tile, values[ij])

    def test_inexact_operand_d_is_made_once_per_tile(self, monkeypatch):
        grid = make_grid(20.0, 300)
        values = build_kernel(grid, KernelFamilySpec(
            "gaussian_band", sigma=1.5, mu=10.0, Sigma=2.0)).values.copy()
        values[0, 15] += 1e-12  # D's residual 15 * spacing * 1e-12 passes its 1e-10 check
        o2 = VanHoveObservable.kernel_only(RegularKernel(grid, values))
        o1 = VanHoveObservable.diag_only(DiagonalPart(grid, grid.nodes))
        made = []

        def counted(make, dtype):
            return spectral._Tiles(lambda rows, cols, out=None: made.append(
                (rows.start, cols.start)) or make(rows, cols, out), dtype)

        monkeypatch.setattr(engine, "_Tiles", counted)
        incompat = incompatibility_observable(o1, o2)
        assert 0.0 < incompat.kernel.hermitian_residual <= 1e-10  # scanned: made dense
        expectation_series(_random_state(grid, 3), incompat, 5.0, 17)
        hs_norm(incompat.kernel)
        assert made == [(0, 0), (0, 256), (256, 0), (256, 256)]


class TestConstantDiagonalSkip:
    def test_skipped_cross_term_gives_the_forced_d(self, monkeypatch):
        grid = make_grid(20.0, 300)  # more than one tile a side
        lorentz = build_kernel(grid, KernelFamilySpec(
            "lorentz_band", amplitude=0.5, gamma=1.0, mu=10.0, Sigma=2.0))
        gaussian = build_kernel(grid, KernelFamilySpec(
            "gaussian_band", sigma=1.5, mu=10.0, Sigma=2.0))
        linear = DiagonalPart(grid, grid.nodes)
        constant = DiagonalPart(grid, np.full(300, 2.5))
        pairs = [
            # kernels on both observables, O2 without a diagonal
            (VanHoveObservable(linear, lorentz), VanHoveObservable.kernel_only(gaussian)),
            (VanHoveObservable(constant, _random_observable(grid, 3).kernel),
             _random_observable(grid, 4)),
            (VanHoveObservable(constant, lorentz), VanHoveObservable(constant, gaussian)),
        ]
        skipped = [engine.incompatibility_observable(a, b).kernel.values for a, b in pairs]
        # a nonzero spread for every diagonal forces every cross term
        monkeypatch.setattr(engine.np, "ptp", lambda diag: 1.0)
        for (a, b), d in zip(pairs, skipped):
            forced = engine.incompatibility_observable(a, b).kernel.values
            # adding 0.0 turns -0.0 into 0.0 and leaves every other value alone
            assert np.array_equal(_bits(d + 0.0), _bits(forced + 0.0))


def _hermitian_array(rng, n, is_complex):
    a = rng.standard_normal((n, n))
    if is_complex:
        a = a + 1j * rng.standard_normal((n, n))
    return a + a.conj().T


class TestFusedProfile:
    @settings(max_examples=40, deadline=None)
    @given(n=st.one_of(st.sampled_from([2, 255, 256, 257, 511, 512, 513]),
                       st.integers(2, 600)),
           rho_complex=st.booleans(), kernel_complex=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_the_direct_double_sum(self, n, rho_complex, kernel_complex, seed):
        rng = np.random.default_rng(seed)
        grid = make_grid(20.0, n)
        rho = VanHoveState.normalized(
            DiagonalPart(grid, np.ones(n)),
            RegularKernel(grid, _hermitian_array(rng, n, rho_complex)))
        kernel = RegularKernel(grid, _hermitian_array(rng, n, kernel_complex))
        assert rho.kernel.values.dtype == (np.complex128 if rho_complex else np.float64)
        assert kernel.values.dtype == (np.complex128 if kernel_complex else np.float64)

        got = engine._kernel_profile(rho, engine._kernel_tiles(kernel))
        terms = grid.spacing**2 * np.conjugate(rho.kernel.values) * kernel.values
        offsets = (np.arange(n)[:, None] - np.arange(n)[None, :] + n - 1).ravel()
        direct = np.zeros(2 * n - 1, dtype=np.complex128)
        np.add.at(direct, offsets, terms.ravel())
        scale = np.zeros(2 * n - 1)
        np.add.at(scale, offsets, np.abs(terms).ravel())
        assert np.all(np.abs(got - direct) <= 1e-12 * scale)

        weights = np.conjugate(rho.kernel.values) * kernel.values
        assert np.array_equal(got, grid.spacing**2 * _nu_profile(weights))


class TestTileInvariants:
    @pytest.mark.parametrize("n", [2, 3, 255, 256, 257, 300, 511, 700, 1025])
    def test_mixture_and_d_are_exactly_hermitian_and_their_tiles(self, n):
        """A tile and its mirror are products of the same shapes, so the residual is 0.0;
        dense() writes each tile into place and equals the fresh tiles put together."""
        grid = make_grid(20.0, n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SupportOverflowWarning)
            mixture = build_kernel(grid, KernelFamilySpec(
                "random_bandlimited", amplitude=0.5, sigma=1.0, mu=10.0, Sigma=2.0, seed=3))
            _, o2 = linear_vs_gaussian_pair(grid)
        o1 = VanHoveObservable(DiagonalPart(grid, grid.nodes), mixture)
        d = incompatibility_observable(o1, o2).kernel
        for kernel in (mixture, d):
            dense = kernel.dense()
            assert spectral._hermitian_residual(dense) == 0.0
            tiles = np.empty_like(dense)
            for rows, cols in spectral._tiles(n):
                tiles[rows, cols] = kernel.tile(rows, cols)
            assert np.array_equal(_bits(dense), _bits(tiles))
