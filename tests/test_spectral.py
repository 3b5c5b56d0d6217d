import math
import warnings
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from scipy.integrate import quad as scipy_quad

from conftest import ONE_WIDE_LAST_TILE, TILE_EDGES
from sidlattice import spectral
from sidlattice import (
    DiagonalPart,
    FrequencyGrid,
    GridMismatch,
    KernelFamilySpec,
    LengthMismatch,
    NonPositiveRange,
    RegularKernel,
    SupportOverflowWarning,
    TooFewPoints,
    UnsupportedFamily,
    VanHoveObservable,
    VanHoveState,
    build_kernel,
    check_hermitian,
    hs_norm,
    kernel_compose,
    make_grid,
    quad1,
)


def _quiet_gaussian(sigma=math.sqrt(2.0), mu=10.0, Sigma=2.0, amplitude=1.0):
    return KernelFamilySpec("gaussian_band", amplitude=amplitude, sigma=sigma,
                            mu=mu, Sigma=Sigma)


class TestGrid:
    def test_midpoint_nodes(self):
        g = make_grid(10.0, 4)
        assert g.spacing == 2.5
        np.testing.assert_array_equal(g.nodes, [1.25, 3.75, 6.25, 8.75])

    def test_two_point_grid(self):
        g = make_grid(1.0, 2)
        np.testing.assert_array_equal(g.nodes, [0.25, 0.75])

    def test_negative_range_rejected(self):
        with pytest.raises(NonPositiveRange):
            make_grid(-1.0, 4)

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            make_grid(1.0, 1)

    def test_dense_storage_cap(self):
        with pytest.raises(ValueError):
            make_grid(1.0, 5000)
        assert make_grid(1.0, 5000, max_points=8192).n_points == 5000

    def test_node_invariants(self):
        for omega_max, n in [(3.7, 13), (100.0, 257), (0.5, 2)]:
            g = make_grid(omega_max, n)
            assert g.spacing > 0
            assert np.all(np.diff(g.nodes) > 0)
            assert g.nodes[0] > 0 and g.nodes[-1] < omega_max

    def test_spacing_that_underflows_is_rejected(self):
        # 1e-320 / 4096 rounds to 0.0: no recurrence time, no nodes to tell apart
        with pytest.raises(NonPositiveRange, match="underflows"):
            make_grid(1e-320, 4096)
        # a subnormal spacing whose recurrence time 2*pi/spacing overflows to inf
        with pytest.raises(NonPositiveRange, match="overflow"):
            make_grid(1e-320, 2)

    def test_grid_value_equality(self):
        assert make_grid(10.0, 4) == FrequencyGrid(10.0, 4)
        assert make_grid(10.0, 4) != make_grid(10.0, 8)


class TestBuildKernel:
    def test_infinite_widths_give_all_ones(self):
        g = make_grid(10.0, 8)
        spec = KernelFamilySpec("gaussian_band", sigma=math.inf, mu=5.0,
                                Sigma=math.inf)
        with pytest.warns(SupportOverflowWarning):
            k = build_kernel(g, spec)
        np.testing.assert_array_equal(k.values, np.ones((8, 8)))

    def test_peak_value_is_amplitude(self):
        g = make_grid(10.0, 10)  # nodes at 0.5, 1.5, ..., 9.5
        spec = KernelFamilySpec("gaussian_band", amplitude=2.5, sigma=1.0,
                                mu=4.5, Sigma=0.8)
        k = build_kernel(g, spec)
        assert k.values[4, 4] == 2.5

    def test_random_bandlimited_reproducible(self):
        g = make_grid(10.0, 32)
        spec = KernelFamilySpec("random_bandlimited", sigma=1.0, mu=5.0,
                                Sigma=1.0, seed=42)
        k1 = build_kernel(g, spec)
        k2 = build_kernel(g, spec)
        np.testing.assert_array_equal(k1.values, k2.values)
        other = build_kernel(g, KernelFamilySpec(
            "random_bandlimited", sigma=1.0, mu=5.0, Sigma=1.0, seed=43))
        assert np.max(np.abs(other.values - k1.values)) > 1e-6

    @pytest.mark.parametrize("family,extra", [
        ("gaussian_band", {"sigma": 1.0}),
        ("lorentz_band", {"gamma": 0.7}),
        ("rect_band", {"sigma": 1.5}),
        ("random_bandlimited", {"sigma": 1.0, "seed": 5}),
    ])
    def test_families_hermitian(self, family, extra):
        g = make_grid(20.0, 48)
        k = build_kernel(g, KernelFamilySpec(family, mu=10.0, Sigma=2.0, **extra))
        assert check_hermitian(k, 1e-12)

    def test_support_overflow_warning(self):
        g = make_grid(10.0, 16)
        leaky = KernelFamilySpec("gaussian_band", sigma=1.0, mu=9.5, Sigma=2.0)
        with pytest.warns(SupportOverflowWarning):
            build_kernel(g, leaky)
        contained = _quiet_gaussian(mu=5.0, Sigma=0.8)
        with warnings.catch_warnings():
            warnings.simplefilter("error", SupportOverflowWarning)
            build_kernel(g, contained)

    def test_unknown_family_rejected(self):
        with pytest.raises(UnsupportedFamily):
            KernelFamilySpec("chirp_band", sigma=1.0, mu=5.0, Sigma=1.0)

    def test_nonpositive_width_rejected(self):
        with pytest.raises(ValueError):
            KernelFamilySpec("gaussian_band", sigma=0.0, mu=5.0, Sigma=1.0)

    def test_spec_json_round_trip(self):
        spec = KernelFamilySpec("random_bandlimited", amplitude=0.5, sigma=1.0,
                                mu=5.0, Sigma=1.0, seed=9)
        assert KernelFamilySpec.from_json(spec.to_json()) == spec
        with pytest.raises(ValueError):
            KernelFamilySpec.from_json({"family": "gaussian_band", "width": 1.0})


class TestQuad:
    def test_constant_exact(self):
        for omega_max, n in [(10.0, 4), (7.3, 64), (1.0, 256)]:
            g = make_grid(omega_max, n)
            assert quad1(g, np.ones(n)) == omega_max
        # arbitrary constants are exact up to one rounding of the product
        for omega_max, n, c in [(7.3, 64, 0.1), (1.0, 256, 3.7)]:
            g = make_grid(omega_max, n)
            assert abs(quad1(g, np.full(n, c)).real - c * omega_max) \
                <= 4e-16 * c * omega_max

    def test_linear_exact(self):
        g = make_grid(1.0, 8)
        assert quad1(g, g.nodes) == 0.5
        g2 = make_grid(1.0, 11)
        assert abs(quad1(g2, g2.nodes) - 0.5) < 1e-15

    def test_gaussian_matches_adaptive_quadrature(self):
        g = make_grid(10.0, 2048)
        samples = np.exp(-0.5 * (g.nodes - 5.0) ** 2)
        expected, err = scipy_quad(
            lambda w: math.exp(-0.5 * (w - 5.0) ** 2), 0.0, 10.0,
            epsabs=1e-13, epsrel=1e-13)
        assert err < 1e-12
        assert abs(quad1(g, samples).real - expected) < 1e-10

    def test_length_mismatch(self):
        g = make_grid(10.0, 4)
        with pytest.raises(LengthMismatch):
            quad1(g, np.ones(5))


class TestKernelCompose:
    def test_zero_absorbs(self):
        g = make_grid(10.0, 16)
        k = build_kernel(g, _quiet_gaussian(mu=5.0, Sigma=0.8))
        z = RegularKernel.zeros(g)
        np.testing.assert_array_equal(kernel_compose(k, z).values, z.values)

    def test_discrete_delta_is_identity(self):
        g = make_grid(10.0, 16)
        k = build_kernel(g, _quiet_gaussian(mu=5.0, Sigma=0.8))
        delta = RegularKernel(g, np.eye(16) / g.spacing)
        out = kernel_compose(delta, k)
        assert np.max(np.abs(out.values - k.values)) < 1e-15

    def test_matches_triple_loop_oracle(self):
        g = make_grid(10.0, 24)
        k1 = build_kernel(g, _quiet_gaussian(sigma=1.0, mu=5.0, Sigma=0.8))
        k2 = build_kernel(g, _quiet_gaussian(sigma=2.0, mu=4.5, Sigma=0.7))
        expected = np.zeros((24, 24), dtype=complex)
        for i in range(24):
            for j in range(24):
                acc = 0.0
                for m in range(24):
                    acc += k1.values[i, m] * k2.values[m, j]
                expected[i, j] = g.spacing * acc
        assert np.max(np.abs(kernel_compose(k1, k2).values - expected)) < 1e-12

    def test_associative(self):
        g = make_grid(10.0, 128)
        ks = [build_kernel(g, KernelFamilySpec(
            "random_bandlimited", sigma=1.0, mu=5.0, Sigma=1.0, seed=s))
            for s in (1, 2, 3)]
        left = kernel_compose(kernel_compose(ks[0], ks[1]), ks[2])
        right = kernel_compose(ks[0], kernel_compose(ks[1], ks[2]))
        assert np.max(np.abs(left.values - right.values)) < 1e-10

    def test_grid_mismatch(self):
        k1 = RegularKernel.zeros(make_grid(10.0, 8))
        k2 = RegularKernel.zeros(make_grid(10.0, 16))
        with pytest.raises(GridMismatch):
            kernel_compose(k1, k2)

    def test_leaves_the_operands_as_built(self):
        """kernel_compose multiplies dense copies: each operand keeps its maker, caches nothing."""
        g = make_grid(10.0, 300)  # more than one tile a side
        k1 = build_kernel(g, _quiet_gaussian(sigma=1.0, mu=5.0, Sigma=0.8))
        k2 = build_kernel(g, KernelFamilySpec(
            "random_bandlimited", sigma=1.0, mu=5.0, Sigma=1.0, seed=2))
        product = kernel_compose(k1, k2)
        for k in (k1, k2):
            assert k._maker is not None and "values" not in vars(k)
        assert product.values.tobytes() == (g.spacing * (k1.values @ k2.values)).tobytes()


class TestHsNorm:
    def test_zero(self):
        assert hs_norm(RegularKernel.zeros(make_grid(10.0, 8))) == 0.0

    def test_single_entry(self):
        g = make_grid(1.0, 2)  # spacing 0.5
        values = np.zeros((2, 2), dtype=complex)
        values[0, 0] = 2.0
        assert hs_norm(RegularKernel(g, values)) == 1.0

    def test_matches_fine_quadrature(self):
        coarse = make_grid(20.0, 128)
        fine = make_grid(20.0, 1280)
        spec = _quiet_gaussian()
        h_coarse = hs_norm(build_kernel(coarse, spec))
        kf = build_kernel(fine, spec)
        h_fine = math.sqrt(fine.spacing**2 * float(np.sum(np.abs(kf.values) ** 2)))
        assert abs(h_coarse - h_fine) < 1e-10

    @pytest.mark.parametrize("n", ONE_WIDE_LAST_TILE)
    def test_complex_array_with_a_one_column_last_tile(self, n):
        """A one-column tile of a caller's array is a strided view; it is squared all the same."""
        rng = np.random.default_rng(n)
        g = make_grid(20.0, n)
        a = rng.standard_normal((n, n))
        for values in (a + 0j, a + 1j * rng.standard_normal((n, n))):
            dense = g.spacing * math.sqrt(float(np.sum(np.abs(values) ** 2)))
            assert hs_norm(RegularKernel(g, values)) == pytest.approx(dense, rel=1e-13)

    def test_definite(self):
        g = make_grid(20.0, 32)
        k = build_kernel(g, KernelFamilySpec(
            "random_bandlimited", sigma=1.0, mu=10.0, Sigma=2.0, seed=11))
        assert hs_norm(k) > 0


class TestCheckHermitian:
    def test_real_symmetric(self):
        g = make_grid(10.0, 8)
        rng = np.random.default_rng(0)
        sym = rng.standard_normal((8, 8))
        sym = sym + sym.T
        assert check_hermitian(RegularKernel(g, sym.astype(complex)), 1e-12)

    def test_constant_imaginary_fails(self):
        g = make_grid(10.0, 4)
        k = RegularKernel(g, 1j * np.ones((4, 4)))
        assert not check_hermitian(k, 1.9)
        assert check_hermitian(k, 2.1)

    def test_gaussian_band(self):
        g = make_grid(20.0, 64)
        assert check_hermitian(build_kernel(g, _quiet_gaussian()), 1e-12)


@pytest.mark.parametrize("call,message", [
    (lambda g: VanHoveState.normalized(DiagonalPart(g, np.ones(4)),
                                       RegularKernel(g, 1j * np.ones((4, 4)))),
     "state kernel is not Hermitian within tolerance"),
    (lambda g: KernelFamilySpec.from_json({"sigma": 1.0}), "kernel spec needs a 'family' tag"),
    (lambda g: check_hermitian(RegularKernel.zeros(g), 0.0), "tolerance must be positive, got 0.0"),
], ids=["state-kernel-not-hermitian", "spec-without-family", "zero-tolerance"])
def test_spectral_guard_raises_its_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call(make_grid(10.0, 4))


def _dense_residual(values):
    return float(np.max(np.abs(values - values.conj().T)))


class TestBlockwiseResidual:
    def test_equals_dense_in_every_block_position(self):
        block, n = 8, 29  # n is not a multiple of the block size
        rng = np.random.default_rng(5)
        base = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        base = base + base.conj().T
        starts = range(0, n, block)
        with patch.object(spectral, "_TILE", block):
            assert spectral._hermitian_residual(base) == 0.0
            for r0 in starts:
                for c0 in starts:
                    values = base.copy()
                    r = min(r0 + 3, n - 1)
                    c = min(c0 + 5, n - 1)
                    values[r, c] += 1e-3 - 2e-3j
                    got = spectral._hermitian_residual(values)
                    assert got == _dense_residual(values)
                    assert got > 0.0

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 40), block=st.integers(1, 9),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_dense_property(self, n, block, seed):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        with patch.object(spectral, "_TILE", block):
            assert spectral._hermitian_residual(values) == _dense_residual(values)

    def test_equals_dense_at_default_block_size(self):
        n = 2 * spectral._TILE + 37
        rng = np.random.default_rng(8)
        values = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert spectral._hermitian_residual(values) == _dense_residual(values)


class TestObservableAndState:
    def test_observable_requires_hermitian_kernel(self):
        g = make_grid(10.0, 4)
        bad = np.zeros((4, 4), dtype=complex)
        bad[0, 1] = 1.0
        with pytest.raises(ValueError):
            VanHoveObservable(DiagonalPart.zeros(g), RegularKernel(g, bad))

    def test_state_diag_nonnegative(self):
        g = make_grid(10.0, 4)
        with pytest.raises(ValueError):
            VanHoveState(DiagonalPart(g, [-0.1, 0.5, 0.4, 0.2]),
                         RegularKernel.zeros(g))

    def test_state_normalization_enforced(self):
        g = make_grid(10.0, 4)
        with pytest.raises(ValueError):
            VanHoveState(DiagonalPart(g, np.ones(4)), RegularKernel.zeros(g))
        rho = VanHoveState.normalized(DiagonalPart(g, np.ones(4)),
                                      RegularKernel.zeros(g))
        assert abs(quad1(g, rho.diag.values) - 1.0) < 1e-12

    def test_state_grid_mismatch(self):
        with pytest.raises(GridMismatch):
            VanHoveState(DiagonalPart(make_grid(10.0, 4), [0.1] * 4),
                         RegularKernel.zeros(make_grid(10.0, 8)))

    def test_values_are_immutable(self):
        g = make_grid(10.0, 4)
        k = RegularKernel.zeros(g)
        with pytest.raises(ValueError):
            k.values[0, 0] = 1.0
        with pytest.raises(ValueError):
            g.nodes[0] = 7.0

    def test_caller_array_is_copied(self):
        g = make_grid(10.0, 4)
        source = np.eye(4, dtype=complex)
        k = RegularKernel(g, source)
        source[0, 0] = 5.0
        assert k.values[0, 0] == 1.0
        assert not np.shares_memory(k.values, source)

    def test_adopted_array_is_checked_and_frozen_in_place(self):
        g = make_grid(10.0, 4)
        fresh = np.eye(4, dtype=complex)
        k = RegularKernel(g, fresh, _adopt=True)
        assert k.values is fresh and not fresh.flags.writeable
        with pytest.raises(LengthMismatch):
            RegularKernel(g, np.eye(3, dtype=complex), _adopt=True)
        bad = np.eye(4, dtype=complex)
        bad[1, 2] = complex(0.0, math.nan)
        with pytest.raises(ValueError, match="finite"):
            RegularKernel(g, bad, _adopt=True)


def _direct_kernel(grid, spec):
    """The closed-form families evaluated entry by entry on the n x n grid."""
    nodes = grid.nodes
    nu = nodes[:, None] - nodes[None, :]
    s = 0.5 * (nodes[:, None] + nodes[None, :])
    if spec.family == "rect_band":
        return spec.amplitude * (np.abs(nu) <= spec.sigma) \
            * (np.abs(s - spec.mu) <= spec.Sigma)
    envelope = np.exp(-0.5 * ((s - spec.mu) / spec.Sigma) ** 2)
    if spec.family == "lorentz_band":
        return spec.amplitude * spec.gamma**2 / (nu**2 + spec.gamma**2) * envelope
    band = np.exp(-0.5 * (nu / spec.sigma) ** 2)
    if spec.family == "gaussian_band":
        return spec.amplitude * band * envelope
    modes = 6
    rng = np.random.default_rng(spec.seed)
    phases = np.exp(2j * math.pi * np.outer(nodes / grid.omega_max, np.arange(modes)))
    coeff = rng.standard_normal((modes, modes)) + 1j * rng.standard_normal((modes, modes))
    coeff = 0.5 * (coeff + coeff.conj().T)
    mix = phases @ coeff @ phases.conj().T / modes
    mix = 0.5 * (mix + mix.conj().T)
    return spec.amplitude * mix * band * envelope


class TestBuildKernelFactorization:
    @pytest.mark.parametrize("family", ["gaussian_band", "lorentz_band",
                                        "rect_band", "random_bandlimited"])
    @pytest.mark.parametrize("n", [2, 7, 64])
    @settings(max_examples=15, deadline=None)
    @given(amplitude=st.floats(-4.0, 4.0).filter(lambda a: abs(a) > 0.05 and a != 1.0),
           width=st.floats(0.5, 4.0), seed=st.integers(0, 2**32 - 1))
    def test_matches_direct_formula(self, family, n, amplitude, width, seed):
        grid = make_grid(20.0, n)
        spec = KernelFamilySpec(
            family, amplitude=amplitude, mu=10.0, Sigma=2.0,
            gamma=width if family == "lorentz_band" else None,
            sigma=None if family == "lorentz_band" else width,
            seed=seed if family == "random_bandlimited" else None)
        kernel = build_kernel(grid, spec)
        direct = _direct_kernel(grid, spec)
        keep = np.ones((n, n), dtype=bool)
        if family == "rect_band":
            # an entry on a window edge may fall either side of it
            nodes = grid.nodes
            nu = nodes[:, None] - nodes[None, :]
            s = 0.5 * (nodes[:, None] + nodes[None, :])
            keep = (np.abs(np.abs(nu) - spec.sigma) > 1e-9) \
                & (np.abs(np.abs(s - spec.mu) - spec.Sigma) > 1e-9)
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(kernel.values - direct)[keep], initial=0.0) \
            <= 1e-14 * scale
        assert spectral._hermitian_residual(kernel.values) == 0.0


def _random_bandlimited_tables(n, amplitude, sigma=1.5, mu=10.0, Sigma=2.0):
    """Toeplitz (nu) and Hankel (s) views built as build_kernel builds them."""
    h = 20.0 / n
    steps = np.arange(2 * n - 1, dtype=np.float64)
    band = np.exp(-0.5 * ((h * (steps - (n - 1))) / sigma) ** 2)
    band *= amplitude
    envelope = np.exp(-0.5 * ((0.5 * h * (steps + 1.0) - mu) / Sigma) ** 2)
    return sliding_window_view(band, n)[:, ::-1], sliding_window_view(envelope, n)


def _whole_array_mix(base, toeplitz, hankel):
    """random_bandlimited as one whole-array expression: the mixture B on and right of the
    diagonal tiles, mirrored (B^H) left of them, and 0.5 (B + B^H) inside each diagonal tile."""
    block = np.arange(len(base)) // spectral._TILE
    mix = np.where(block[:, None] <= block[None, :], base, base.conj().T)
    diagonal = block[:, None] == block[None, :]
    mix[diagonal] = ((base + base.conj().T) * 0.5)[diagonal]
    mix *= toeplitz
    mix *= hankel
    return mix


class TestTiledRandomBandlimited:
    @pytest.mark.parametrize("n", [2, *TILE_EDGES])
    @pytest.mark.parametrize("amplitude", [1.0, -0.7])
    def test_build_is_the_whole_array_formula_bit_for_bit(self, n, amplitude):
        grid = make_grid(20.0, n)
        spec = KernelFamilySpec("random_bandlimited", amplitude=amplitude,
                                sigma=1.5, mu=10.0, Sigma=2.0, seed=n)
        rng = np.random.default_rng(spec.seed)
        phases = np.exp(2j * math.pi * np.outer(grid.nodes / grid.omega_max,
                                                np.arange(6)))
        coeff = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        coeff = 0.5 * (coeff + coeff.conj().T)
        base = phases @ coeff @ phases.conj().T / 6
        expected = _whole_array_mix(base, *_random_bandlimited_tables(n, amplitude))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SupportOverflowWarning)
            got = build_kernel(grid, spec).values
        assert np.array_equal(got.view(np.uint8), expected.view(np.uint8))
        assert spectral._hermitian_residual(got) == 0.0


def _real_family_tables(grid, spec):
    """Toeplitz (nu) and Hankel (s) views of a real family, built as build_kernel builds them."""
    n, h = grid.n_points, grid.spacing
    steps = np.arange(2 * n - 1, dtype=np.float64)
    nu = h * (steps - (n - 1))
    s = 0.5 * h * (steps + 1.0)
    if spec.family == "rect_band":
        envelope = np.abs(s - spec.mu) <= spec.Sigma
        band = (np.abs(nu) <= spec.sigma).astype(np.float64)
    else:
        envelope = np.exp(-0.5 * ((s - spec.mu) / spec.Sigma) ** 2)
        band = np.exp(-0.5 * (nu / spec.sigma) ** 2) if spec.family == "gaussian_band" \
            else spec.gamma**2 / (nu**2 + spec.gamma**2)
    band *= spec.amplitude
    return sliding_window_view(band, n)[:, ::-1], sliding_window_view(envelope, n)


class TestKernelDtypes:
    @pytest.mark.parametrize("family,width", [
        ("gaussian_band", {"sigma": 1.5}),
        ("lorentz_band", {"gamma": 0.7}),
        ("rect_band", {"sigma": 1.5}),
    ])
    @pytest.mark.parametrize("n", [2, 7, 300])
    @pytest.mark.parametrize("amplitude", [1.0, -0.7])
    def test_real_family_is_the_real_part_of_the_complex_product(
            self, family, width, n, amplitude):
        grid = make_grid(20.0, n)
        spec = KernelFamilySpec(family, amplitude=amplitude, mu=10.0, Sigma=2.0, **width)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SupportOverflowWarning)
            values = build_kernel(grid, spec).values
        product = np.multiply(*_real_family_tables(grid, spec), dtype=np.complex128)
        assert values.dtype == np.float64
        assert np.array_equal(values.view(np.uint8),
                              np.ascontiguousarray(product.real).view(np.uint8))

    def test_complex_samples_stay_complex(self):
        grid = make_grid(20.0, 16)
        random = build_kernel(grid, KernelFamilySpec(
            "random_bandlimited", sigma=1.0, mu=10.0, Sigma=2.0, seed=3))
        assert random.values.dtype == np.complex128
        assert RegularKernel(grid, np.eye(16, dtype=complex)).values.dtype == np.complex128
        assert RegularKernel(grid, np.eye(16)).values.dtype == np.float64
        assert RegularKernel.absent(grid).values.dtype == np.float64


class TestSpecRejectsWhatTheBuildCannotTake:
    @pytest.mark.parametrize("seed", [1.5, -1, True, "3"])
    def test_seed_must_be_a_non_negative_int(self, seed):
        with pytest.raises(ValueError, match="seed"):
            KernelFamilySpec("random_bandlimited", sigma=1.0, mu=5.0, Sigma=1.0,
                             seed=seed)

    def test_gamma_whose_square_overflows(self):
        with pytest.raises(ValueError, match="overflows"):
            KernelFamilySpec("lorentz_band", gamma=1e200, mu=5.0, Sigma=1.0)
        KernelFamilySpec("lorentz_band", gamma=1e150, mu=5.0, Sigma=1.0)


class TestAbsentKernel:
    def test_holds_no_array_and_reads_as_zero(self):
        g = make_grid(10.0, 512)
        k = RegularKernel.absent(g)
        assert not k.present and k.hermitian_residual == 0.0
        assert k.values.shape == (512, 512) and k.values.strides == (0, 0)
        assert not k.values.flags.writeable
        assert not np.any(k.values) and hs_norm(k) == 0.0

    def test_is_never_scanned(self, monkeypatch):
        def no_scan(*args):
            raise AssertionError("an absent kernel was scanned")

        g = make_grid(10.0, 16)
        diag = DiagonalPart(g, np.ones(16) / 10.0)
        monkeypatch.setattr(spectral, "_hermitian_residual", no_scan)
        monkeypatch.setattr(spectral, "_frozen_array", no_scan)
        obs = VanHoveObservable.diag_only(diag)
        assert not obs.kernel.present
        VanHoveState(diag, RegularKernel.absent(g))

    def test_explicit_zeros_are_a_present_kernel_and_scanned(self, monkeypatch):
        calls = _counted_scans(monkeypatch)
        g = make_grid(10.0, 16)
        obs = VanHoveObservable(DiagonalPart.zeros(g), RegularKernel.zeros(g))
        assert obs.kernel.present and obs.kernel.values.strides == (16 * 16, 16)
        assert len(calls) == 1 and calls[0] is obs.kernel.values


def _counted_scans(monkeypatch):
    """The list of arrays passed to spectral._hermitian_residual, the one scan, from now on."""
    calls, scan = [], spectral._hermitian_residual
    monkeypatch.setattr(spectral, "_hermitian_residual",
                        lambda values: calls.append(values) or scan(values))
    return calls


class TestHermitianResidualRecord:
    def test_scanned_once_on_first_read_then_not_again(self, monkeypatch):
        calls = _counted_scans(monkeypatch)
        g = make_grid(10.0, 8)
        bad = np.zeros((8, 8), dtype=complex)
        bad[0, 7] = 1e-9
        k = RegularKernel(g, bad)
        assert calls == []
        VanHoveObservable.kernel_only(k)  # 1e-9 passes the 1e-8 entry check
        assert len(calls) == 1 and k.hermitian_residual == 1e-9
        assert check_hermitian(k, 1e-8) and not check_hermitian(k, 1e-10)
        VanHoveObservable.kernel_only(k)
        assert len(calls) == 1

    @settings(max_examples=40, deadline=None)
    @given(family=st.sampled_from(["gaussian_band", "lorentz_band", "rect_band",
                                   "random_bandlimited"]),
           n=st.one_of(st.sampled_from([2, *TILE_EDGES]), st.integers(2, 600)),
           amplitude=st.floats(-4.0, 4.0).filter(lambda a: abs(a) > 0.05),
           width=st.floats(0.2, 4.0), mu=st.floats(0.0, 20.0),
           seed=st.integers(0, 2**32 - 1))
    def test_built_kernels_carry_the_exact_zero_residual_unscanned(
            self, family, n, amplitude, width, mu, seed):
        def no_scan(*args):
            raise AssertionError("a built kernel was scanned")

        grid = make_grid(20.0, n)
        spec = KernelFamilySpec(
            family, amplitude=amplitude, mu=mu, Sigma=2.0,
            gamma=width if family == "lorentz_band" else None,
            sigma=None if family == "lorentz_band" else width,
            seed=seed if family == "random_bandlimited" else None)
        with warnings.catch_warnings(), patch.object(spectral, "_hermitian_residual", no_scan):
            warnings.simplefilter("ignore", SupportOverflowWarning)
            k = build_kernel(grid, spec)
            VanHoveObservable.kernel_only(k)
        assert k.hermitian_residual == 0.0 == spectral._hermitian_residual(k.values)

    def test_a_passed_in_copy_of_a_built_kernel_is_scanned(self, monkeypatch):
        calls = _counted_scans(monkeypatch)
        g = make_grid(20.0, 32)
        k = RegularKernel(g, build_kernel(g, _quiet_gaussian()).values)
        VanHoveObservable.kernel_only(k)
        assert len(calls) == 1 and calls[0] is k.values and k.hermitian_residual == 0.0


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint8)


_FAMILY_WIDTHS = {"gaussian_band": {"sigma": 1.5}, "lorentz_band": {"gamma": 0.7},
                  "rect_band": {"sigma": 1.5}, "random_bandlimited": {"sigma": 1.5, "seed": 11}}


class TestTabulatedKernelTiles:
    @pytest.mark.parametrize("family", sorted(_FAMILY_WIDTHS))
    @pytest.mark.parametrize("n", [2, 7, *TILE_EDGES])
    def test_tiles_are_the_densified_values_bit_for_bit(self, family, n):
        grid = make_grid(20.0, n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SupportOverflowWarning)
            kernel = build_kernel(grid, KernelFamilySpec(
                family, amplitude=-0.7, mu=10.0, Sigma=2.0, **_FAMILY_WIDTHS[family]))
        tiles = list(spectral._tiles(n))
        fresh = [kernel.tile(*ij) for ij in tiles]
        written = [kernel.tile(rows, cols, out=np.zeros(
            (rows.stop - rows.start, cols.stop - cols.start), complex)) for rows, cols in tiles]
        made = []
        tile = RegularKernel.tile
        with patch.object(RegularKernel, "tile",
                          lambda self, *args: made.append(args[:2]) or tile(self, *args)):
            values = kernel.values
            assert kernel.values is values
        assert made == tiles  # built once, tile by tile
        assert not values.flags.writeable and values.dtype == kernel.dtype
        for ij, got, into in zip(tiles, fresh, written):
            assert np.array_equal(_bits(got), _bits(values[ij]))
            assert np.array_equal(_bits(into), _bits(values[ij].astype(complex)))

    @pytest.mark.parametrize("family", sorted(_FAMILY_WIDTHS))
    def test_values_once_built_serve_the_tiles_and_drop_the_maker(self, family):
        grid = make_grid(20.0, 300)  # more than one tile a side
        kernel = build_kernel(grid, KernelFamilySpec(
            family, mu=10.0, Sigma=2.0, **_FAMILY_WIDTHS[family]))
        assert kernel._maker is not None and "values" not in vars(kernel)
        values = kernel.values
        assert kernel._maker is None
        for rows, cols in spectral._tiles(300):
            assert np.shares_memory(kernel.tile(rows, cols), values)
            into = np.empty((rows.stop - rows.start, cols.stop - cols.start), complex)
            assert np.array_equal(kernel.tile(rows, cols, out=into), values[rows, cols])

    def test_zero_test_reads_up_to_the_first_nonzero_tile_once(self):
        grid = make_grid(20.0, 600)
        with pytest.warns(SupportOverflowWarning):
            outside = build_kernel(grid, _quiet_gaussian(mu=1e200))
        assert outside.is_zero
        kernel = build_kernel(grid, _quiet_gaussian())
        read = []
        tile = RegularKernel.tile
        with patch.object(RegularKernel, "tile",
                          lambda self, *args: read.append(args) or tile(self, *args)):
            assert not kernel.is_zero and not kernel.is_zero
        assert read == [(slice(0, spectral._TILE), slice(0, spectral._TILE))]
        assert RegularKernel.absent(grid).is_zero and RegularKernel.zeros(grid).is_zero


class TestHsNormPastTheSquareOverflow:
    def test_block_past_the_overflow_is_rescaled(self):
        g = make_grid(10.0, 300)  # plain first tiles, then ones whose squares overflow
        values = np.ones((300, 300))
        values[256:] = 1e200
        expected = g.spacing * 1e200 * math.sqrt(44 * 300)
        assert hs_norm(RegularKernel(g, values)) == pytest.approx(expected, rel=1e-14)
        assert hs_norm(RegularKernel(g, -1j * values)) == pytest.approx(expected, rel=1e-14)

    def test_ordinary_norm_is_the_plain_sum(self):
        g = make_grid(20.0, 300)
        kernel = build_kernel(g, _quiet_gaussian())
        plain = 0.0
        for ij in spectral._tiles(300):
            parts = kernel.values[ij].ravel()
            plain += float(parts @ parts)
        assert hs_norm(kernel) == g.spacing * math.sqrt(plain)


class TestHsNormBelowTheSquareUnderflow:
    @pytest.mark.parametrize("value", [1e-160, 1e-200, 1e-300, -3e-308j])
    def test_tiny_kernel_keeps_its_norm(self, value):
        """Squares of entries below about 1e-162 are subnormal or 0: a block whose plain sum
        is that small is scaled up by 2^600 before it is squared."""
        g = make_grid(20.0, 64)
        expected = g.spacing * 64 * abs(value)  # 2e-199 at 1e-200
        assert hs_norm(RegularKernel(g, np.full((64, 64), value))) == pytest.approx(
            expected, rel=1e-14, abs=0.0)

    def test_tiny_tiles_beside_ordinary_ones_keep_the_plain_bits(self):
        g = make_grid(20.0, 300)
        values = build_kernel(g, _quiet_gaussian()).values.copy()
        values[spectral._TILE:] = 1e-200  # every square 0: the plain sum reads them as 0
        kernel = RegularKernel(g, values)
        plain = 0.0
        for ij in spectral._tiles(300):
            parts = values[ij].ravel()
            plain += float(parts @ parts)
        assert hs_norm(kernel) == g.spacing * math.sqrt(plain)

    def test_tiny_and_overflowing_tiles_together(self):
        g = make_grid(10.0, 300)
        values = np.full((300, 300), 1e-200)
        values[-1] = 1e200
        expected = g.spacing * 1e200 * math.sqrt(300)
        assert hs_norm(RegularKernel(g, values)) == pytest.approx(expected, rel=1e-14)
