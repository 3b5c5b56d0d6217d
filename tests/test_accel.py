from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidlattice import _accel


@pytest.fixture
def kernel():
    rng = np.random.default_rng(99)
    values = rng.standard_normal((37, 37)) + 1j * rng.standard_normal((37, 37))
    return np.ascontiguousarray(values)


def test_nu_profile_matches_direct_sum(kernel):
    profile = _accel._nu_profile_py(kernel)
    n = kernel.shape[0]
    assert profile.shape == (2 * n - 1,)
    for m in (-(n - 1), -3, 0, 5, n - 1):
        expected = sum(kernel[k, k - m] for k in range(n) if 0 <= k - m < n)
        assert abs(profile[m + n - 1] - expected) < 1e-12
    assert abs(profile.sum() - kernel.sum()) < 1e-10


def test_phase_series_matches_direct(kernel):
    profile = _accel._nu_profile_py(kernel)
    nu = 0.25 * np.arange(-36, 37, dtype=np.float64)
    times = np.array([0.0, 0.7, 2.1])
    got = _accel._phase_series_py(profile, nu, times)
    for j, t in enumerate(times):
        expected = np.sum(profile * np.exp(1j * nu * t))
        assert abs(got[j] - expected) < 1e-12


@pytest.mark.skipif(not _accel.HAVE_NUMBA, reason="numba unavailable")
def test_backend_parity(kernel):
    profile_nb = _accel.nu_profile_numba(kernel)
    profile_py = _accel._nu_profile_py(kernel)
    assert np.max(np.abs(profile_nb - profile_py)) < 1e-12

    nu = 0.25 * np.arange(-36, 37, dtype=np.float64)
    times = np.linspace(0.0, 3.0, 7)
    series_nb = _accel.phase_series_numba(profile_py, nu, times)
    series_py = _accel._phase_series_py(profile_py, nu, times)
    assert np.max(np.abs(series_nb - series_py)) < 1e-11

    phases = np.exp(1j * 0.3 * np.arange(37, dtype=np.float64))
    assert np.max(np.abs(_accel.apply_phase_numba(kernel, phases)
                         - _accel._apply_phase_py(kernel, phases))) < 1e-14

    assert _accel.hermitian_residual_numba(kernel) == pytest.approx(
        _accel._hermitian_residual_py(kernel), rel=1e-14)


def test_backend_selection_reported():
    assert _accel.BACKEND in ("numba", "numpy")
    if _accel.HAVE_NUMBA:
        import os

        expected = "numpy" if os.environ.get("SIDLATTICE_BACKEND") == "numpy" \
            else "numba"
        assert _accel.BACKEND == expected


def _dense_residual(values):
    return float(np.max(np.abs(values - values.conj().T)))


def test_blockwise_residual_equals_dense_in_every_block_position():
    block, n = 8, 29  # n is not a multiple of the block size
    rng = np.random.default_rng(5)
    base = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    base = base + base.conj().T
    starts = range(0, n, block)
    with patch.object(_accel, "_RESIDUAL_BLOCK", block):
        assert _accel._hermitian_residual_py(base) == 0.0
        for r0 in starts:
            for c0 in starts:
                values = base.copy()
                r = min(r0 + 3, n - 1)
                c = min(c0 + 5, n - 1)
                values[r, c] += 1e-3 - 2e-3j
                got = _accel._hermitian_residual_py(values)
                assert got == _dense_residual(values)
                assert got > 0.0


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), block=st.integers(1, 9),
       seed=st.integers(0, 2**32 - 1))
def test_blockwise_residual_equals_dense_property(n, block, seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    with patch.object(_accel, "_RESIDUAL_BLOCK", block):
        assert _accel._hermitian_residual_py(values) == _dense_residual(values)


def test_blockwise_residual_at_default_block_size():
    n = 2 * _accel._RESIDUAL_BLOCK + 37
    rng = np.random.default_rng(8)
    values = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    assert _accel._hermitian_residual_py(values) == _dense_residual(values)
