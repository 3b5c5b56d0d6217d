"""Hot numeric kernels, numba-jitted with a pure-numpy fallback.

The fallback is selected by ``SIDLATTICE_BACKEND=numpy`` (or automatically
when numba is not importable). Both paths are deterministic run to run;
across backends results agree to roughly 1e-13 because the summation
order differs. ``benchmarks/bench_backends.py`` times both.
"""

from __future__ import annotations

import numpy as np

from .settings import backend

# Rows per block of the Hermitian residual: bounds its temporaries at
# 256 x n entries.
_RESIDUAL_BLOCK = 256


def _nu_profile_py(values: np.ndarray) -> np.ndarray:
    n = values.shape[0]
    out = np.empty(2 * n - 1, dtype=np.complex128)
    for m in range(-(n - 1), n):
        # diagonal(offset=q) walks entries [i, i+q], i.e. k - l = -q
        out[m + n - 1] = values.diagonal(-m).sum()
    return out


def _phase_series_py(profile: np.ndarray, nu: np.ndarray,
                     times: np.ndarray) -> np.ndarray:
    return np.exp(1j * np.outer(times, nu)) @ profile


def _apply_phase_py(values: np.ndarray, phases: np.ndarray) -> np.ndarray:
    out = values * phases[:, None]
    out *= np.conjugate(phases)[None, :]
    return out


def _hermitian_residual_py(values: np.ndarray) -> float:
    # Row block [i, i+B) right of column i against the conjugate transpose
    # of the matching column block covers every pair once; the value equals
    # the dense max |v - v^H| exactly, since |a - conj(b)| == |b - conj(a)|.
    n = values.shape[0]
    block_max = [np.max(np.abs(values[i:i + _RESIDUAL_BLOCK, i:]
                               - values[i:, i:i + _RESIDUAL_BLOCK].conj().T))
                 for i in range(0, n, _RESIDUAL_BLOCK)]
    return float(np.max(block_max))


def _nu_profile_impl(values):
    n = values.shape[0]
    out = np.zeros(2 * n - 1, dtype=np.complex128)
    for k in range(n):
        for l in range(n):
            out[k - l + n - 1] += values[k, l]
    return out


def _phase_series_impl(profile, nu, times):
    out = np.empty(times.shape[0], dtype=np.complex128)
    for j in range(times.shape[0]):
        t = times[j]
        acc = 0.0 + 0.0j
        for i in range(profile.shape[0]):
            acc += profile[i] * np.exp(1j * (nu[i] * t))
        out[j] = acc
    return out


def _apply_phase_impl(values, phases):
    n = values.shape[0]
    out = np.empty_like(values)
    for k in range(n):
        for l in range(n):
            out[k, l] = values[k, l] * phases[k] * np.conj(phases[l])
    return out


def _hermitian_residual_impl(values):
    n = values.shape[0]
    worst = 0.0
    for k in range(n):
        for l in range(n):
            r = abs(values[k, l] - np.conj(values[l, k]))
            if r > worst:
                worst = r
    return worst


HAVE_NUMBA = False
nu_profile_numba = None
phase_series_numba = None
apply_phase_numba = None
hermitian_residual_numba = None

try:
    from numba import njit

    nu_profile_numba = njit(cache=True)(_nu_profile_impl)
    phase_series_numba = njit(cache=True)(_phase_series_impl)
    apply_phase_numba = njit(cache=True)(_apply_phase_impl)
    hermitian_residual_numba = njit(cache=True)(_hermitian_residual_impl)
    HAVE_NUMBA = True
except ImportError:
    pass

if HAVE_NUMBA and backend() == "numba":
    BACKEND = "numba"
    nu_profile = nu_profile_numba
    phase_series = phase_series_numba
    apply_phase = apply_phase_numba
    hermitian_residual = hermitian_residual_numba
else:
    BACKEND = "numpy"
    nu_profile = _nu_profile_py
    phase_series = _phase_series_py
    apply_phase = _apply_phase_py
    hermitian_residual = _hermitian_residual_py
