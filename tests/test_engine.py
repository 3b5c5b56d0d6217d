import ast
import contextlib
import json
import math
import sys
import threading
import time
import warnings
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    TILE_EDGES,
    brute_expectation,
    direct_phase_series,
    gaussian_scenario,
    linear_vs_gaussian_pair,
    near_the_evolved_norm,
    obs_matrix,
    tile_edge,
    traced_peak,
)
from sidlattice import cli, engine, spectral
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
from sidlattice.settings import default_tol


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

    @settings(max_examples=40, deadline=None)
    @given(family=st.sampled_from(["gaussian_band", "lorentz_band", "rect_band",
                                   "random_bandlimited"]),
           n=st.one_of(st.integers(2, 64),
                       st.sampled_from([tile_edge(1, d) for d in (-1, 0, 1)])),
           t=st.floats(-50.0, 50.0), width=st.floats(0.2, 4.0),
           seed=st.integers(0, 2**32 - 1))
    def test_hermiticity_and_norm_are_invariants(self, family, n, t, width, seed):
        grid = make_grid(20.0, n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SupportOverflowWarning)
            obs = VanHoveObservable.kernel_only(build_kernel(grid, KernelFamilySpec(
                family, amplitude=0.7, mu=10.0, Sigma=2.0,
                gamma=width if family == "lorentz_band" else None,
                sigma=None if family == "lorentz_band" else width,
                seed=seed if family == "random_bandlimited" else None)))
        evolved = evolve(obs, t).kernel
        assert evolved.hermitian_residual <= 1e-12 * np.max(np.abs(obs.kernel.values))
        h0 = hs_norm(obs.kernel)
        assert abs(hs_norm(evolved) - h0) <= 1e-12 * h0

    def test_rejects_nonfinite_time(self):
        grid = make_grid(20.0, 16)
        with pytest.raises(ValueError):
            evolve(_random_observable(grid, 5), math.inf)

    def test_leaves_the_operand_as_built(self):
        """evolve phases a dense copy: the operand keeps its maker and caches no samples."""
        grid = make_grid(20.0, 300)  # more than one tile a side
        obs = _random_observable(grid, 6)
        evolved = evolve(obs, 2.0)
        assert obs.kernel._maker is not None and "values" not in vars(obs.kernel)
        phased = engine.phased_values(obs.kernel.values, np.exp(2j * grid.nodes))
        assert evolved.kernel.values.tobytes() == phased.tobytes()


@pytest.mark.parametrize("call,message", [
    (lambda grid: ExpectationSeries(np.zeros((2, 2)), np.zeros((2, 2)), grid.recurrence_time),
     "times and values must be matching 1-d arrays"),
    (lambda grid: expectation(_random_state(grid, 1), _random_observable(grid, 1), math.nan),
     "time must be finite, got nan"),
], ids=["series-not-1-d", "expectation-at-nan"])
def test_engine_guard_raises_its_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call(make_grid(20.0, 16))


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

    def test_finite_time_whose_phase_overflows_raises_as_evolve_does(self):
        """t nu past the float range makes a phase nan: ValueError, and no RuntimeWarning."""
        grid, rho, incompat = gaussian_scenario(omega_max=20.0, n_points=64)
        obs = incompat.to_observable()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isfinite(abs(expectation(rho, obs, 1e300)))
            with pytest.raises(ValueError, match="samples must be finite"):
                expectation(rho, obs, 1e307)
            with pytest.raises(ValueError, match="samples must be finite"):
                evolve(obs, 1e307)


def _nu_profile(values):
    """The anti-diagonal sums of an n x n array, by the tile pass of the expectation.

    The state kernel is all ones and the spacing 1, so the pass sums the values themselves.
    """
    n = len(values)
    grid = make_grid(float(n), n)
    ones = VanHoveState.normalized(DiagonalPart(grid, np.ones(n)),
                                   RegularKernel(grid, np.ones((n, n))))
    return engine._tile_pass(ones, RegularKernel(grid, values))[0]


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
        series, peak, _ = traced_peak(lambda: expectation_series(rho, incompat, 10.0, 2001))
        assert peak <= 12e6
        profile, _ = engine._tile_pass(rho, incompat.kernel)
        # K = 45 baby steps a block: either side of the first giant step and of the last,
        # partial block (samples 1980-2000)
        for k in (0, 44, 45, 1979, 1980, 2000):
            alone = engine._phase_series(grid, profile, series.times[k:k + 1])[0]
            assert abs(series.values[k] - alone) <= 1e-12 * series.initial_magnitude

    def test_peak_is_the_same_for_201_and_2001_samples(self):
        # the phases of each chunk of offsets fit one tile's bytes whatever the number of
        # samples: formed by 256 times at once, 201 samples traced 7.8 MB and 2001 8.8 MB
        grid, rho, incompat = gaussian_scenario(n_points=1024)
        peaks = {}
        for n_samples in (201, 2001):
            peaks[n_samples] = traced_peak(
                lambda: expectation_series(rho, incompat, 10.0, n_samples)).peak
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

    @settings(max_examples=300, deadline=None)
    @given(later=st.lists(st.booleans(), max_size=38), sustain=st.integers(1, 44))
    def test_first_sustained_drop_matches_the_scan(self, later, sustain):
        # sample 0 sets the scale, so it is never below; sustain may pass the length
        below = np.array([False, *later])
        values = np.where(below, 0.1, 1.0).astype(complex)
        series = ExpectationSeries(np.linspace(0.0, 1.0, below.size), values, 10.0)
        start = next((j for j in range(below.size - sustain + 1)
                      if below[j:j + sustain].all()), None)
        assert decoherence_time(series, 0.5, sustain) == (
            None if start is None else float(series.times[start]))

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
                engine._tile_pass(rho, incompat.kernel)[0],
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


_DIAGS = {"zero": lambda g: np.zeros(g.n_points), "constant": lambda g: np.full(g.n_points, 2.5),
          "linear": lambda g: g.nodes}


def _family_observable(grid, diag, kernel, seed):
    spec = {"gaussian_band": KernelFamilySpec("gaussian_band", sigma=1.5, mu=10.0, Sigma=2.0),
            "random_bandlimited": KernelFamilySpec(
                "random_bandlimited", sigma=1.5, mu=10.0, Sigma=2.0, seed=seed)}.get(kernel)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SupportOverflowWarning)
        k = RegularKernel.absent(grid) if spec is None else build_kernel(grid, spec)
    return VanHoveObservable(DiagonalPart(grid, _DIAGS[diag](grid)), k)


class TestAbsentCommutator:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 40), seed=st.integers(0, 2**32 - 1),
           operands=st.tuples(*[st.sampled_from(sorted(_DIAGS)), st.sampled_from(
               [None, "gaussian_band", "random_bandlimited"])] * 2))
    def test_d_is_absent_exactly_when_no_term_survives(self, n, seed, operands):
        grid = make_grid(20.0, n)
        o1 = _family_observable(grid, *operands[:2], seed)
        o2 = _family_observable(grid, *operands[2:], seed + 1)
        k1, k2 = o1.kernel.values, o2.kernel.values
        spread1, spread2 = (np.ptp(o.diag.values) != 0 for o in (o1, o2))
        survives = (spread1 and np.any(k2)) or (spread2 and np.any(k1)) \
            or (np.any(k1) and np.any(k2))
        got = commutator_kernel(o1, o2)
        assert incompatibility_observable(o1, o2).kernel.present == bool(survives)
        assert got.present == bool(survives)
        oracle = _two_matmul_commutator(o1, o2)
        if not survives:
            np.testing.assert_array_equal(got.values, np.zeros((n, n)))
            np.testing.assert_array_equal(oracle, np.zeros((n, n)))
        nu1, nu2 = (o.diag.values[:, None] - o.diag.values[None, :] for o in (o1, o2))
        scale = np.max(np.abs(nu1 * k2)) + np.max(np.abs(nu2 * k1)) \
            + grid.spacing * np.linalg.norm(k1) * np.linalg.norm(k2)
        assert np.max(np.abs(got.values - oracle)) <= 1e-12 * scale


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
        def no_scan(*args):
            raise AssertionError("an operand or D was scanned although exactly Hermitian")

        scan = spectral._hermitian_residual
        monkeypatch.setattr(spectral, "_hermitian_residual", no_scan)
        grid = make_grid(20.0, 64)
        pairs = [(_random_observable(grid, 5), _random_observable(grid, 6)),
                 (VanHoveObservable.diag_only(DiagonalPart(grid, grid.nodes)),
                  _random_observable(grid, 7))]
        for o1, o2 in pairs:
            incompat = incompatibility_observable(o1, o2)
            assert incompat.kernel.hermitian_residual == 0.0
            assert scan(incompat.kernel.values) == 0.0

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
        stale = np.full((spectral._TILE,) * 2, 7.0 + 7.0j)
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

        def counted(make, dtype, bound, exact):
            return spectral._Tiles(lambda rows, cols, out=None: made.append(
                (rows.start, cols.start)) or make(rows, cols, out), dtype, bound, exact)

        monkeypatch.setattr(engine, "_Tiles", counted)
        incompat = incompatibility_observable(o1, o2)
        assert 0.0 < incompat.kernel.hermitian_residual <= 1e-10  # scanned: made dense
        expectation_series(_random_state(grid, 3), incompat, 5.0, 17)
        hs_norm(incompat.kernel)
        assert made == [(rows.start, cols.start) for rows, cols in spectral._tiles(300)]


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
    @given(n=st.one_of(st.sampled_from([2, *TILE_EDGES]),
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

        got, _ = engine._tile_pass(rho, kernel)
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
    @pytest.mark.parametrize("n", [2, 3, *TILE_EDGES, 300, 700, 1025])
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


_WIDTHS = {"gaussian_band": {"sigma": 1.5}, "lorentz_band": {"gamma": 1.0},
           "rect_band": {"sigma": 1.5}, "random_bandlimited": {"sigma": 1.5}}
_FAMILIES = sorted(_WIDTHS)
# small grids, and the sizes either side of one and two tiles (a one-column last tile at T + 1
# and 2T + 1)
_SIZES = st.one_of(st.integers(2, 64), st.sampled_from(TILE_EDGES))


def _tile_pass_scenario(n, state_family, o1_family, o2_family, seed):
    """A state, and D for a linear O1 diagonal (plus a kernel unless o1_family is None)
    against an O2 kernel, every kernel of a built family."""
    grid = make_grid(20.0, n)

    def kernel(family, amplitude):
        spec = KernelFamilySpec(family, amplitude=amplitude, mu=10.0, Sigma=2.0,
                                seed=seed if family == "random_bandlimited" else None,
                                **_WIDTHS[family])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SupportOverflowWarning)
            return build_kernel(grid, spec)

    rho = VanHoveState.normalized(
        DiagonalPart(grid, np.exp(-0.5 * ((grid.nodes - 10.0) / 3.0) ** 2)),
        kernel(state_family, 0.5))
    o1_kernel = RegularKernel.absent(grid) if o1_family is None else kernel(o1_family, 0.4)
    o1 = VanHoveObservable(DiagonalPart(grid, grid.nodes), o1_kernel)
    o2 = VanHoveObservable.kernel_only(kernel(o2_family, 1.0))
    return grid, rho, incompatibility_observable(o1, o2)


def _weighted_terms(grid, rho, incompat):
    """spacing^2 conj(rho) D, the terms of <D(0)>, from the stored arrays."""
    return grid.spacing**2 * np.conjugate(rho.kernel.values) * incompat.kernel.values


_scenarios = dict(n=_SIZES, state_family=st.sampled_from(_FAMILIES),
                  o1_family=st.sampled_from([None] + _FAMILIES),
                  o2_family=st.sampled_from(_FAMILIES), seed=st.integers(0, 2**32 - 1),
                  fraction=st.floats(0.05, 1.0))


class TestTilePassProperties:
    """The physics invariants of the tile pass, over all four kernel families.

    |D(0)| is read as the sum of the absolute terms of <D(0)>, which bounds
    |<D(t)>| at every t: for a real state, <D(0)> itself is 0 by symmetry.
    """

    @settings(max_examples=40, deadline=None)
    @given(**_scenarios)
    def test_series_matches_the_dense_sum_and_is_real(self, n, state_family, o1_family,
                                                       o2_family, seed, fraction):
        grid, rho, incompat = _tile_pass_scenario(n, state_family, o1_family, o2_family, seed)
        t_max = fraction * 0.5 * grid.recurrence_time
        series = expectation_series(rho, incompat, t_max, 5)
        with_norms, _, _ = engine.series_and_norms(rho, incompat, t_max, 5)
        assert with_norms.values.tobytes() == series.values.tobytes()
        terms = _weighted_terms(grid, rho, incompat)
        scale = np.sum(np.abs(terms))
        nu = grid.nodes[:, None] - grid.nodes[None, :]
        for t, value in zip(series.times, series.values):
            assert abs(value - np.sum(terms * np.exp(1j * nu * t))) <= 1e-12 * scale
        assert np.all(np.abs(series.values.imag) <= 1e-10 * scale)

    @settings(max_examples=40, deadline=None)
    @given(**_scenarios)
    def test_expectation_recurs_after_the_recurrence_time(self, n, state_family, o1_family,
                                                          o2_family, seed, fraction):
        grid, rho, incompat = _tile_pass_scenario(n, state_family, o1_family, o2_family, seed)
        obs, t = incompat.to_observable(), fraction * 0.5 * grid.recurrence_time
        scale = np.sum(np.abs(_weighted_terms(grid, rho, incompat)))
        later = expectation(rho, obs, t + grid.recurrence_time)
        assert abs(later - expectation(rho, obs, t)) <= 1e-10 * scale

    @settings(max_examples=40, deadline=None)
    @given(**_scenarios)
    @example(n=tile_edge(1, 1), state_family="random_bandlimited", o1_family=None,
             o2_family="gaussian_band", seed=7, fraction=0.5)
    @example(n=tile_edge(2, 1), state_family="gaussian_band", o1_family="lorentz_band",
             o2_family="random_bandlimited", seed=3, fraction=1.0)
    @example(n=tile_edge(2, -1), state_family="gaussian_band", o1_family=None,
             o2_family="gaussian_band", seed=0, fraction=1.0)
    @example(n=130, state_family="gaussian_band", o1_family=None,  # one ulp apart at T = 128
             o2_family="gaussian_band", seed=0, fraction=1.0)
    def test_pass_norms_are_hs_norms_bit_for_bit(self, n, state_family, o1_family,
                                                 o2_family, seed, fraction):
        grid, rho, incompat = _tile_pass_scenario(n, state_family, o1_family, o2_family, seed)
        t_max = fraction * 0.5 * grid.recurrence_time
        _, initial, final = engine.series_and_norms(rho, incompat, t_max, 3)  # D made by tiles
        assert initial == hs_norm(incompat.kernel)  # D is exact: both read the tiles I <= J
        assert near_the_evolved_norm(
            final, hs_norm(evolve(incompat.to_observable(), t_max).kernel))

    @settings(max_examples=40, deadline=None)
    @given(n=st.one_of(st.integers(2, 600), st.sampled_from([300, tile_edge(1, 1),
                                                              tile_edge(2, 1)])),
           state_family=st.sampled_from(_FAMILIES), o1_family=st.sampled_from([None] + _FAMILIES),
           o2_family=st.sampled_from(_FAMILIES), seed=st.integers(0, 2**32 - 1),
           fraction=st.floats(0.05, 1.0), low=st.integers(0, 598), gap=st.integers(1, 599),
           r=st.floats(0.0, 1e-8), angle=st.floats(0.0, 2 * math.pi))
    @example(n=300, state_family="gaussian_band", o1_family=None, o2_family="gaussian_band",
             seed=0, fraction=0.5, low=tile_edge(1, -1), gap=1, r=0.99e-8,
             angle=1.0)  # the corner (T - 1, T) of tile (0, T)
    def test_inexact_state_stays_within_the_stated_bound(self, n, state_family, o1_family,
                                                         o2_family, seed, fraction, low, gap,
                                                         r, angle):
        """A stored state Hermitian only to r <= default_tol(): one upper entry (k, l) moved
        by r. The pass reads its tiles I <= J alone, so the series may leave the direct double
        sum by spacing^2 r sum |D| (D is exact), beyond the 1e-12 regrouping term."""
        grid, rho, incompat = _tile_pass_scenario(n, state_family, o1_family, o2_family, seed)
        k = low % (n - 1)
        values = rho.kernel.values.astype(np.complex128)
        values[k, min(k + gap, n - 1)] += r * np.exp(1j * angle)
        kernel = RegularKernel(grid, values)
        assume(kernel.hermitian_residual <= default_tol())  # else the state is refused
        state = VanHoveState(rho.diag, kernel)
        t_max = fraction * 0.5 * grid.recurrence_time
        series = expectation_series(state, incompat, t_max, 5)
        d = incompat.kernel.values
        terms = grid.spacing**2 * np.conjugate(values) * d
        bound = grid.spacing**2 * kernel.hermitian_residual * np.sum(np.abs(d)) \
            + 1e-12 * np.sum(np.abs(terms))
        nu = grid.nodes[:, None] - grid.nodes[None, :]
        for t, value in zip(series.times, series.values):
            assert abs(value - np.sum(terms * np.exp(1j * nu * t))) <= bound


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture
def exp_shapes(monkeypatch):
    """Shapes of the complex arguments of numpy.exp: the phases (a kernel build's are real)."""
    shapes, exp = [], np.exp

    def recorded(x, *args, **kwargs):
        if np.iscomplexobj(x):
            shapes.append(np.shape(x))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", recorded)
    return shapes


class TestUnweightedPassFormsNoPhase:
    """A state without a kernel, or an absent D, weighs no offset: the pass returns no
    profile, and the series is +0.0 at every time with no (2n - 1)-long phase block."""

    N = 300  # more than one tile a side; the phase block's offset axis is 2N - 1 = 599

    def _no_offset_axis(self, shapes):
        return all(2 * self.N - 1 not in shape for shape in shapes)

    def _config(self, tmp_path, name, edit=lambda doc: None):
        doc = json.loads((CONFIGS / name).read_text())
        doc["grid"]["n_points"] = self.N
        edit(doc)
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        return str(tmp_path / "cfg.json"), doc["time"]

    @staticmethod
    def _zero_series_csv(time):
        """The series file of +0.0 at every time, each value written as 0."""
        times = np.linspace(0.0, time["t_max"], time["n_samples"])
        return "t,re,im,abs\n" + "".join(f"{format(t, '.17g')},0,0,0\n" for t in times)

    def test_absent_d_emerge(self, tmp_path, exp_shapes):
        cfg, time = self._config(tmp_path, "commuting_pair.json")
        series = tmp_path / "s.csv"
        assert cli.main(["emerge", "--config", cfg, "--report", str(tmp_path / "r.json"),
                         "--series", str(series)]) == 5
        assert self._no_offset_axis(exp_shapes)
        assert series.read_text() == self._zero_series_csv(time)

    def test_simulate_with_a_kernel_less_state(self, tmp_path, exp_shapes):
        cfg, time = self._config(tmp_path, "gaussian_emerge.json",
                                 lambda doc: doc["state"].pop("kernel"))
        series = tmp_path / "s.csv"
        assert cli.main(["simulate", "--config", cfg, "--out", str(series)]) == 0
        assert self._no_offset_axis(exp_shapes)
        assert series.read_text() == self._zero_series_csv(time)

    def test_expectation_of_a_diagonal_only_observable(self, exp_shapes):
        grid = make_grid(20.0, self.N)
        rho = _random_state(grid, 5)
        obs = VanHoveObservable.diag_only(DiagonalPart(grid, np.sin(grid.nodes)))
        value = expectation(rho, obs, 3.0)
        assert self._no_offset_axis(exp_shapes)
        assert value == grid.spacing * float(np.dot(rho.diag.values, obs.diag.values))
        assert math.copysign(1.0, value.imag) == 1.0

    def test_a_weighted_pass_is_seen_forming_its_phases(self, exp_shapes):
        """The recorder does see the phase block of a pass with a profile."""
        grid = make_grid(20.0, self.N)
        incompat = incompatibility_observable(
            VanHoveObservable.diag_only(DiagonalPart(grid, grid.nodes)),
            _random_observable(grid, 4))
        expectation_series(_random_state(grid, 5), incompat, 5.0, 17)
        assert not self._no_offset_axis(exp_shapes)


def _long_double_series(grid, profile, times):
    """The phase series in np.longdouble cos and sin from the float64 spacing, times, profile."""
    n = grid.n_points
    nu = np.longdouble(grid.spacing) * np.arange(-(n - 1), n)
    phase = np.multiply.outer(np.asarray(times, dtype=np.longdouble), nu)
    re, im = (np.asarray(part, dtype=np.longdouble) for part in (profile.real, profile.imag))
    cos, sin = np.cos(phase), np.sin(phase)
    return (cos * re - sin * im).sum(1), (sin * re + cos * im).sum(1)


class TestFactoredPhaseSeries:
    """The series as E @ Q of baby-step and giant-step phases (see engine._phase_series)."""

    def test_exps_are_about_two_sqrt_s_per_offset(self, exp_shapes):
        n, n_samples = 300, 2001  # the direct form takes 2001 (2n - 1) exps
        k = math.isqrt(n_samples - 1) + 1  # ceil(sqrt(S)) = 45
        grid = make_grid(20.0, n)
        incompat = incompatibility_observable(
            VanHoveObservable.diag_only(DiagonalPart(grid, grid.nodes)),
            _random_observable(grid, 4))
        rho = _random_state(grid, 5)
        exp_shapes.clear()
        expectation_series(rho, incompat, 5.0, n_samples)
        assert 0 < sum(math.prod(shape) for shape in exp_shapes) <= (2 * k + 1) * (2 * n - 1)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 600), n_samples=st.integers(1, 5000),
           omega_max=st.floats(1.0, 100.0), window=st.floats(0.0, 1.0),
           picks=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
           seed=st.integers(0, 2**32 - 1))
    def test_factored_and_direct_stay_near_a_long_double_reference(
            self, n, n_samples, omega_max, window, picks, seed):
        """Both forms within eps (5 + 3 nu_max t_max) sum|profile| of the reference.

        Per offset the factored form rounds two exps and two complex products (about 4.3 eps
        of |profile[m]|) and its phase by about 2.5 eps nu t (the two arguments, nu_m itself and
        the split of the sample time); the direct form about half of each. The sums' roundoff,
        for a random profile far below its worst case, fills the rest. The factored error is not
        pointwise at most the direct one's: their ratio reached 4.9 over 200 random cases, and
        the factored error 1.2 eps sum|profile| at n = 4 near t = 0, so the constant is not 1.
        """
        grid = make_grid(omega_max, n)
        t_max = window * 0.5 * grid.recurrence_time
        # one time is expectation's case, K = 1, at t_max
        times = np.linspace(0.0 if n_samples > 1 else t_max, t_max, n_samples)
        rng = np.random.default_rng(seed)
        profile = rng.standard_normal(2 * n - 1) + 1j * rng.standard_normal(2 * n - 1)
        k = math.isqrt(n_samples - 1) + 1
        at = np.unique(np.clip([0, k - 1, k, (n_samples - 1) // k * k, n_samples - 1]
                               + [round(p * (n_samples - 1)) for p in picks], 0, n_samples - 1))
        re, im = _long_double_series(grid, profile, times[at])
        bound = np.finfo(np.float64).eps * (5.0 + 3.0 * (n - 1) * grid.spacing * t_max) \
            * np.sum(np.abs(profile))
        for got in (engine._phase_series(grid, profile, times)[at],
                    direct_phase_series(grid, profile, times[at])):
            error = np.hypot(np.asarray(got.real, np.longdouble) - re,
                             np.asarray(got.imag, np.longdouble) - im)
            assert np.max(error) <= bound


_BOUND_DIAGS = {"linear": lambda g: g.nodes, "sine": lambda g: np.sin(g.nodes),
                "gaussian": lambda g: np.exp(-0.5 * ((g.nodes / g.omega_max - 0.5) / 0.2) ** 2),
                "zero": lambda g: np.zeros(g.n_points)}
_BOUND_FAMILIES = (None, "gaussian_band", "lorentz_band", "rect_band", "random_bandlimited")


def _bounded_operand(grid, diag, diag_exponent, family, amplitude_exponent, width_exponent,
                     center, spread_exponent, seed):
    """An operand: a diagonal scaled by 10^diag_exponent and a made kernel (or none) of
    amplitude 10^amplitude_exponent, band width omega_max 10^width_exponent and envelope
    center * omega_max, omega_max 10^spread_exponent wide."""
    w = grid.omega_max
    with np.errstate(over="ignore"):
        values = 10.0 ** diag_exponent * _BOUND_DIAGS[diag](grid)
    assume(np.isfinite(values).all())
    if family is None:
        return VanHoveObservable(DiagonalPart(grid, values), RegularKernel.absent(grid))
    widths = {"gamma" if family == "lorentz_band" else "sigma": w * 10.0 ** width_exponent}
    if family == "random_bandlimited":
        widths["seed"] = seed
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SupportOverflowWarning)
        kernel = build_kernel(grid, KernelFamilySpec(
            family, amplitude=10.0 ** amplitude_exponent, mu=center * w,
            Sigma=w * 10.0 ** spread_exponent, **widths))
    return VanHoveObservable(DiagonalPart(grid, values), kernel)


_bound_operand = st.tuples(st.sampled_from(sorted(_BOUND_DIAGS)), st.floats(-300.0, 307.0),
                           st.sampled_from(_BOUND_FAMILIES), st.floats(-300.0, 300.0),
                           st.floats(-2.0, 0.5), st.floats(0.2, 0.8), st.floats(-1.5, 0.0))


class TestIncompatibilityBound:
    """D's maker bound (see engine._incompatibility_blocks), read instead of a finiteness scan."""

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(2, 600), omega_max=st.floats(0.5, 5000.0), seed=st.integers(0, 2**16),
           op1=_bound_operand, op2=_bound_operand)
    @example(n=300, omega_max=20.0, seed=3,  # 2 ptp(d1) b2 = 4e306
             op1=("linear", 305.0, None, 0.0, 0.0, 0.5, -1.0),
             op2=("zero", 0.0, "gaussian_band", 0.0, -1.0, 0.5, -1.0))
    @example(n=2, omega_max=9594.0, seed=1,  # spacing 4797: |D| passes 4 n b1 b2
             op1=("zero", 0.0, "gaussian_band", 150.0, -0.07, 0.53, -0.31),
             op2=("zero", 0.0, "lorentz_band", 150.0, -0.52, 0.7, -0.65))
    @example(n=tile_edge(2, 1), omega_max=20.0, seed=5,
             op1=("sine", 300.0, "lorentz_band", 5.0, -1.3, 0.5, -0.8),
             op2=("gaussian", 290.0, "random_bandlimited", 1.0, -1.0, 0.4, -0.9))
    def test_every_tile_is_within_the_bound(self, n, omega_max, seed, op1, op2):
        """Where the bound is finite no intermediate overflows and max |D tile| <= bound."""
        grid = make_grid(omega_max, n)
        o1 = _bounded_operand(grid, *op1, seed)
        o2 = _bounded_operand(grid, *op2, seed + 1)
        with np.errstate(over="ignore", invalid="ignore"):
            d = engine._incompatibility_blocks(o1, o2)
        assume(d.present and math.isfinite(d.bound))
        with np.errstate(over="raise", invalid="raise"):
            for ij in spectral._tiles(n):
                assert np.max(np.abs(d.tile(*ij))) <= d.bound

    def test_d_whose_product_overflows_before_the_spacing_is_rejected(self):
        """n b1 b2 overflows and omega_max b1 b2 does not: M = K1 K2 itself overflows.

        Checked on D itself: without a state kernel the series never reads D's tiles.
        """
        grid = make_grid(1.0, 300)
        ops = [VanHoveObservable.kernel_only(build_kernel(grid, KernelFamilySpec(
            "rect_band", amplitude=1e153, sigma=2.0, mu=0.5, Sigma=half)))
            for half in (0.5, 0.4)]  # K1 = 1e153 everywhere, K2 on 240 or more of each column
        b1, b2 = (o.kernel.bound for o in ops)
        assert math.isfinite(grid.omega_max * b1 * b2) and grid.n_points * b1 * b2 == math.inf
        rho = VanHoveState.normalized(DiagonalPart(grid, np.ones(300)), RegularKernel.absent(grid))
        with np.errstate(over="ignore", invalid="ignore"):
            incompat = incompatibility_observable(*ops)
            assert incompat.kernel.bound == math.inf
            with pytest.raises(ValueError, match="samples must be finite"):
                expectation_series(rho, incompat, 1.0, 11)


def _column_halves(n):
    """The engine's split of K2's columns: at _TILE ceil(n / (2 _TILE)), unless the second half
    would be one column wide (numpy would then take a matrix-vector product) or empty."""
    cut = spectral._TILE * -(-n // (2 * spectral._TILE))
    return [slice(0, cut), slice(cut, n)] if n - cut > 1 else [slice(0, n)]


def _row_product_d(o1, o2, halves=True):
    """D by the dense formula: K1 and K2 made dense, M = K1 K2 by _TILE-row np.matmul products
    against K2's column halves (or, with halves false, against the whole of K2), then
    i ((d1(w') - d1(w)) K2 + (d2(w) - d2(w')) K1 + spacing (conj(M).T - M)), each term
    in the terms' dtype and summed in this order, a cross term left out where its diagonal
    is constant. The oracle of the engine's M and its upper half of M^H - M."""
    grid, rows, n = o1.grid, spectral._TILE, o1.grid.n_points
    k1, k2 = o1.kernel, o2.kernel
    dtype = np.result_type(np.float64, k1.dtype, k2.dtype)
    left, right = k1.dense().astype(dtype), k2.dense().astype(dtype)
    m = np.empty_like(left)
    for top in range(0, n, rows):
        for cols in _column_halves(n) if halves else [slice(0, n)]:
            m[top:top + rows, cols] = np.matmul(left[top:top + rows], right[:, cols])
    d1, d2 = o1.diag.values, o2.diag.values  # d(w) - d(w') is np.subtract.outer(d, d)
    terms = [k.dense().astype(dtype) * diff.astype(dtype) for k, diff, d in (
        (k2, np.subtract.outer(d1, d1).T, d1), (k1, np.subtract.outer(d2, d2), d2))
        if np.ptp(d) != 0]
    mixing = np.subtract(np.conjugate(m).T, m)
    mixing *= grid.spacing
    acc = terms[0] if terms else mixing
    for term in terms[1:] + [mixing] * bool(terms):
        acc += term
    return np.multiply(acc, 1j)


def _kernel_pair(grid, o1_family, diagonals):
    """O1 with a kernel of o1_family, O2 with a gaussian_band one (rect_band for a rect O1);
    linear and gaussian diagonals, or none."""
    widths = {"lorentz_band": {"gamma": 1.0}, "random_bandlimited": {"sigma": 1.0, "seed": 3},
              "rect_band": {"sigma": 1.0}}
    k1 = build_kernel(grid, KernelFamilySpec(o1_family, amplitude=0.5, mu=10.0, Sigma=2.0,
                                             **widths[o1_family]))
    k2 = build_kernel(grid, KernelFamilySpec(
        "rect_band" if o1_family == "rect_band" else "gaussian_band", sigma=1.0, mu=10.0,
        Sigma=2.0))
    if not diagonals:
        return VanHoveObservable.kernel_only(k1), VanHoveObservable.kernel_only(k2)
    return (VanHoveObservable(DiagonalPart(grid, grid.nodes), k1),
            VanHoveObservable(DiagonalPart(grid, np.exp(-0.5 * ((grid.nodes - 9.0) / 3.0)**2)),
                              k2))


class TestMixingTermByHalves:
    @pytest.mark.parametrize("n", [spectral._TILE - 1, spectral._TILE + 1, 2 * spectral._TILE,
                                   2 * spectral._TILE + 1, 2 * spectral._TILE + 2, 300,
                                   4 * spectral._TILE + 1])
    @pytest.mark.parametrize("o1_family,diagonals", [
        ("lorentz_band", True), ("random_bandlimited", True), ("rect_band", False)],
        ids=["real-M", "complex-M", "M-zero-off-the-band"])
    def test_d_matches_the_row_product_bit_for_bit(self, monkeypatch, n, o1_family, diagonals):
        """n = 2 _TILE fills its last tile row, 300 does not, and 2 _TILE + 1 leaves a one-row
        last tile row. K2's columns are not split at _TILE +- 1 and 2 _TILE + 1 (a one-column
        second half); 2 _TILE + 2 leaves a two-column second half, 4 _TILE + 1 one of
        _TILE + 1 columns beside three tile columns. Two rect kernels and no diagonals leave M
        exactly 0 away from the band, where a lower tile's -conj(H[J, I]).T must keep the +0.0
        that conj(M[J, I]) - M[I, J] rounds to: D's bytes, signs of zero included, are compared."""
        def no_scan(*args):
            raise AssertionError("D was scanned although exactly Hermitian")

        grid = make_grid(20.0, n)
        o1, o2 = _kernel_pair(grid, o1_family, diagonals)
        assert (o1.kernel.dtype.kind == "c") == (o1_family == "random_bandlimited")
        monkeypatch.setattr(spectral, "_hermitian_residual", no_scan)
        d = engine._incompatibility_blocks(o1, o2)
        assert d.hermitian_residual == 0.0
        got, expected = d.dense(), _row_product_d(o1, o2)
        assert got.tobytes() == expected.tobytes()
        if not diagonals:
            assert np.count_nonzero(got) < got.size  # some entries are zeros to compare

    @pytest.mark.parametrize("n", [258, 385, 511, 513])
    @pytest.mark.parametrize("o1_family", ["lorentz_band", "random_bandlimited"],
                             ids=["real-M", "complex-M"])
    def test_d_by_halves_is_within_eps_max_d_of_one_gemm_per_tile_row(self, n, o1_family):
        """Against M by one GEMM per tile row, a BLAS may round a product of K2's column halves
        otherwise in a near-cancelling entry of D; the sizes are those where one moved."""
        grid = make_grid(20.0, n)
        o1, o2 = _kernel_pair(grid, o1_family, True)
        got, whole = engine._incompatibility_blocks(o1, o2).dense(), _row_product_d(o1, o2, False)
        assert np.max(np.abs(got - whole)) <= np.finfo(float).eps * np.max(np.abs(whole))

    @pytest.mark.parametrize("o1_family", ["lorentz_band", "random_bandlimited"])
    def test_commutator_kernel_is_i_times_d_bit_for_bit(self, o1_family):
        grid = make_grid(20.0, 300)
        o1, o2 = _kernel_pair(grid, o1_family, True)
        d = incompatibility_observable(o1, o2).kernel
        assert commutator_kernel(o1, o2).values.tobytes() == (1j * d.values).tobytes()

    def test_commutator_kernel_holds_one_n_by_n_complex_array(self):
        """D is made into the commutator's own array and multiplied by i in place, so the peak
        is that array beside the real half of M^H - M and a few tiles. With a second array for
        i D, as before, it traced 33.7 MB; with H kept by 256-row slabs, 0.3 MB above this bound."""
        n, rows = 1024, spectral._TILE
        grid = make_grid(20.0, n)
        o1, o2 = _kernel_pair(grid, "lorentz_band", True)
        traced = traced_peak(lambda: commutator_kernel(o1, o2))
        assert traced.result.values.shape == (n, n)
        slack = 3 * rows**2 * 16 + 2**16
        assert traced.peak <= n * n * 16 + (n * n + n * rows) // 2 * 8 + slack


@contextlib.contextmanager
def _lanes(count):
    """The tile pass run by count lanes: os.sched_getaffinity made to report count CPUs."""
    with patch.object(engine.os, "sched_getaffinity", lambda pid: set(range(count)),
                      create=True):
        yield


def _slowed(kernel):
    """Make kernel's maker sleep 1 ms a tile (releasing the GIL), so that both lanes take rows;
    the list returned gets (thread, np.geterr()["over"]) at each make."""
    make, seen = kernel._maker.make, []

    def slow(rows, cols, out=None):
        seen.append((threading.get_ident(), np.geterr()["over"]))
        time.sleep(1e-3)
        return make(rows, cols, out)

    kernel._maker = kernel._maker._replace(make=slow)
    return seen


def _shared_kernels():
    """A random_bandlimited kernel (a mixture tile a make), and D of two kernels, one of them
    that kernel, over 300 points: three tiles a side, the last 44 wide."""
    grid = make_grid(20.0, 300)
    mixture = build_kernel(grid, KernelFamilySpec("random_bandlimited", sigma=1.5, mu=10.0,
                                                  Sigma=2.0, seed=5))
    o1 = VanHoveObservable(DiagonalPart(grid, grid.nodes), mixture)
    o2 = VanHoveObservable.kernel_only(build_kernel(grid, KernelFamilySpec(
        "gaussian_band", sigma=1.5, mu=10.0, Sigma=2.0)))
    return {"random_bandlimited": mixture,
            "two-kernel-d": incompatibility_observable(o1, o2).kernel}


class TestTwoLanes:
    """The tile pass's rows split between the caller and one helper thread: the same bits as
    one lane, the caller's numeric context, one error in tile order, and no thread left."""

    @pytest.mark.parametrize("name", ["random_bandlimited", "two-kernel-d"])
    def test_concurrent_tile_makes_give_one_threads_bytes(self, name):
        """Each thread's makes use scratch of their own; with one shared scratch, as before,
        a thread's tile picked up the other's half-made planes."""
        kernel = _shared_kernels()[name]
        tiles = list(spectral._tiles(kernel.grid.n_points))
        alone = [kernel.tile(*ij).tobytes() for ij in tiles] * 20
        got, start = [], threading.Barrier(2)

        def read():
            start.wait()
            got.append([kernel.tile(*ij).tobytes() for _ in range(20) for ij in tiles])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # hand the GIL over between almost every two bytecodes
        try:
            threads = [threading.Thread(target=read) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(got) == 2 and got[0] == alone and got[1] == alone

    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([*TILE_EDGES, tile_edge(3, 1)]),
           state_family=st.sampled_from(_FAMILIES + [None]),
           o1_family=st.sampled_from([None] + _FAMILIES), o2_family=st.sampled_from(_FAMILIES),
           seed=st.integers(0, 2**32 - 1), stored=st.sampled_from([None, 1.0, 1e-170, 1e160]),
           fraction=st.sampled_from([None, 0.3, 1.0]))
    @example(n=tile_edge(3, 1), state_family=None, o1_family=None, o2_family="gaussian_band",
             seed=0, stored=1e-170, fraction=1.0)  # every tile tiny: each made again to add
    @example(n=tile_edge(3, 1), state_family="random_bandlimited", o1_family="lorentz_band",
             o2_family="random_bandlimited", seed=1, stored=1e160,
             fraction=0.3)  # the plain sums overflow: the later tiles made again
    def test_one_lane_and_two_give_the_same_bits(self, n, state_family, o1_family, o2_family,
                                                 seed, stored, fraction):
        """Over tile edges, an absent state kernel (state_family None), and a stored D, scaled
        so its squares underflow or overflow, and with or without the norms (fraction None)."""
        grid, rho, incompat = _tile_pass_scenario(n, state_family or "gaussian_band", o1_family,
                                                  o2_family, seed)
        if state_family is None:
            rho = VanHoveState(rho.diag, RegularKernel.absent(grid))
        d = incompat.kernel if stored is None else RegularKernel(
            grid, stored * incompat.kernel.dense(), _adopt=True)
        t = None if fraction is None else fraction * 0.5 * grid.recurrence_time
        passes = []
        for count in (1, 2):
            with _lanes(count), np.errstate(over="ignore"):
                passes.append(engine._tile_pass(rho, d, t))
        (one, one_norms), (two, two_norms) = passes
        assert (one is None) == (two is None) == (state_family is None)
        assert one is None or one.tobytes() == two.tobytes()
        assert one_norms == two_norms and len(two_norms) == (0 if t is None else 2)
        if t is not None:
            assert two_norms[0] == hs_norm(d)  # D is exact: the same upper tiles, one thread

    def test_the_error_of_the_first_failing_tile_in_tile_order_is_raised(self):
        """Whichever lane makes it, and however far the other lane has got."""
        grid, rho, incompat = _tile_pass_scenario(tile_edge(4), "gaussian_band", None,
                                                  "gaussian_band", 0)
        d, failing = incompat.kernel, {(128, 384): "first", (256, 256): "second",
                                       (384, 384): "third"}
        make = d._maker.make

        def broken(rows, cols, out=None):
            if (rows.start, cols.start) in failing:
                raise RuntimeError(failing[rows.start, cols.start])
            return make(rows, cols, out)

        d._maker = d._maker._replace(make=broken)
        before = threading.active_count()
        for _ in range(10):
            with _lanes(2), pytest.raises(RuntimeError, match="^first$"):
                engine._tile_pass(rho, d, 1.0)
            assert threading.active_count() == before

    @pytest.mark.parametrize("count", [1, 2])
    def test_a_stored_operand_whose_d_overflows_raises_and_leaves_no_thread(self, count):
        """D of a stored kernel is unbounded, so its tiles are checked finite as made, here
        by both lanes; under the CLI's errstate the overflow is the one ValueError."""
        grid = make_grid(20.0, tile_edge(3))
        rho = VanHoveState.normalized(
            DiagonalPart(grid, np.exp(-0.5 * ((grid.nodes - 10.0) / 3.0) ** 2)),
            build_kernel(grid, KernelFamilySpec("gaussian_band", sigma=1.5, mu=10.0, Sigma=2.0)))
        kernel = build_kernel(grid, KernelFamilySpec(
            "gaussian_band", amplitude=1e4, sigma=1.5, mu=10.0, Sigma=2.0))
        o1 = VanHoveObservable.diag_only(DiagonalPart(grid, 1e306 * grid.nodes))
        o2 = VanHoveObservable.kernel_only(RegularKernel(grid, kernel.values))  # stored
        before = threading.active_count()
        with np.errstate(over="ignore", invalid="ignore"):
            incompat = incompatibility_observable(o1, o2)
            assert incompat.kernel.bound == math.inf
            with _lanes(count), pytest.raises(ValueError, match="^samples must be finite$"):
                engine.series_and_norms(rho, incompat, 10.0, 21)
        assert threading.active_count() == before

    def test_the_helper_runs_under_the_callers_errstate(self):
        """np.errstate is a context variable; a new thread would start at numpy's default."""
        grid, rho, incompat = _tile_pass_scenario(tile_edge(4), "gaussian_band", None,
                                                  "gaussian_band", 0)
        seen = _slowed(incompat.kernel)
        with _lanes(2), np.errstate(over="ignore"):
            engine._tile_pass(rho, incompat.kernel, 1.0)
        assert len({thread for thread, _ in seen}) == 2  # both lanes made tiles
        assert {mode for _, mode in seen} == {"ignore"}

    def test_the_helper_calls_nothing_the_benchmark_tracer_wraps(self):
        """perfbench's tracer keeps one span stack for every thread, so a traced function called
        from the helper would interleave its spans with the caller's."""
        source = (Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py").read_text()
        names = {target.id: ast.literal_eval(node.value) for node in ast.parse(source).body
                 if isinstance(node, ast.Assign) for target in node.targets
                 if isinstance(target, ast.Name) and target.id in ("SPANS", "COUNTERS")}
        traced = {name.split(".")[1] for name in names["SPANS"] + names["COUNTERS"]}
        traced = {f"{name}.__init__" if name[0].isupper() else name for name in traced}
        package, called = str(Path(engine.__file__).parent), set()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_filename.startswith(package):
                called.add(getattr(frame.f_code, "co_qualname", frame.f_code.co_name))

        grid, rho, incompat = _tile_pass_scenario(tile_edge(4), "random_bandlimited",
                                                  "random_bandlimited", "gaussian_band", 0)
        seen = _slowed(incompat.kernel)
        threading.setprofile(profile)  # threads started from now on: the helper alone
        try:
            with _lanes(2):
                engine.series_and_norms(rho, incompat, 1.0, 5)
        finally:
            threading.setprofile(None)
        assert len({thread for thread, _ in seen}) == 2  # the helper made tiles
        assert "_SumOfSquares.plain" in called
        assert not called & traced
