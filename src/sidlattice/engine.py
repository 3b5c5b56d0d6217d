"""Heisenberg-picture evolution, commutator kernels, and expectation decay.

Observables evolve while states stay fixed: evolution multiplies the
regular kernel by unit-modulus phases exp(i (omega - omega') t) and leaves
the diagonal profile alone. The commutator of two such observables has no
singular part; scaled by -i it is the Hermitian incompatibility observable
whose expectation value decays whenever the paired state/kernel profile is
integrable in nu = omega - omega'.

On the uniform grid the phases depend only on the node-index difference,
so expectation values are evaluated by collapsing the weighted kernel onto
its anti-diagonals (the nu profile) and summing one oscillatory factor per
offset. That regrouping is exact and keeps roundoff at the 1e-13 level even
for strongly cancelling late-time sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import UnsupportedFamily, WindowExceeded
from .spectral import (
    DiagonalPart,
    FrequencyGrid,
    KernelFamilySpec,
    RegularKernel,
    VanHoveObservable,
    VanHoveState,
    _require_same_grid,
    hermitian_within,
)

INCOMPATIBILITY_HERMITIAN_TOL = 1e-10
DEFAULT_THRESHOLD_RATIO = math.exp(-1.0)
DEFAULT_SUSTAIN = 10


@dataclass(frozen=True, eq=False)
class IncompatibilityObservable:
    """Hermitian observable -i [O1, O2]; kernel only, the singular part cancels.

    The kernel is checked to 1e-10 unless its residual is already known.
    """

    kernel: RegularKernel

    def __post_init__(self):
        if not hermitian_within(self.kernel, INCOMPATIBILITY_HERMITIAN_TOL):
            raise ValueError("incompatibility kernel is not Hermitian at 1e-10")

    @property
    def grid(self) -> FrequencyGrid:
        return self.kernel.grid

    def to_observable(self) -> VanHoveObservable:
        return VanHoveObservable(DiagonalPart.zeros(self.grid), self.kernel)


@dataclass(frozen=True, eq=False)
class ExpectationSeries:
    """Sampled expectation values of an incompatibility observable.

    Times must stay inside half the grid recurrence time 2*pi/spacing;
    beyond it the discrete model turns quasi-periodic and stops tracking
    the continuum decay.
    """

    times: np.ndarray
    values: np.ndarray
    recurrence_time: float

    def __post_init__(self):
        times = np.array(self.times, dtype=np.float64, copy=True)
        values = np.array(self.values, dtype=np.complex128, copy=True)
        if times.ndim != 1 or times.shape != values.shape:
            raise ValueError("times and values must be matching 1-d arrays")
        if times.size < 1 or np.any(np.diff(times) <= 0.0):
            raise ValueError("times must be strictly increasing")
        if times[-1] > 0.5 * self.recurrence_time:
            raise WindowExceeded(
                f"series reaches t={times[-1]}, beyond half the recurrence "
                f"time {self.recurrence_time}")
        times.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @property
    def initial_magnitude(self) -> float:
        return float(abs(self.values[0]))


def phased_values(kernel: RegularKernel, t: float) -> np.ndarray:
    """Fresh samples K(w, w') exp(i (w - w') t) of a present kernel."""
    phases = np.exp(1j * t * kernel.grid.nodes)
    out = kernel.values * phases[:, None]
    out *= np.conjugate(phases)[None, :]
    return out


def evolve(obs: VanHoveObservable, t: float) -> VanHoveObservable:
    """Heisenberg evolution by time t: phase the kernel, keep the diagonal."""
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    if not obs.kernel.present:
        return obs
    evolved = phased_values(obs.kernel, t)
    return VanHoveObservable(obs.diag, RegularKernel(obs.grid, evolved, _adopt=True))


def _commutator_values(o1: VanHoveObservable, o2: VanHoveObservable) -> np.ndarray:
    """Fresh, writable samples of the [O1, O2] kernel.

    The diagonal profiles enter through difference cross terms
    (d1(w) - d1(w')) K2 - (d2(w) - d2(w')) K1, and the kernels through the
    composed difference K1 o K2 - K2 o K1. Terms with an absent or
    identically zero kernel operand are skipped, so a diagonal-only
    observable against a kernel costs no matmul; an absent kernel is
    skipped without a scan. Both kernels are Hermitian, so the composed
    difference is M - M^H with M = K1 o K2: one matmul instead of two.
    When both kernels have identically zero imaginary parts, M is formed
    as a real product of their real parts and M - M^H is the real, exactly
    antisymmetric M - M^T; otherwise M is the complex product.
    """
    grid = _require_same_grid(o1.grid, o2.grid)
    d1 = o1.diag.values
    d2 = o2.diag.values
    k1 = o1.kernel.values
    k2 = o2.kernel.values
    has_k1 = o1.kernel.present and bool(np.any(k1))
    has_k2 = o2.kernel.present and bool(np.any(k2))
    values = None
    if has_k2:
        values = np.subtract.outer(d1, d1) * k2
    if has_k1:
        cross = np.subtract.outer(d2, d2) * k1
        if values is None:
            values = np.negative(cross, out=cross)
        else:
            values -= cross
        del cross
    if has_k1 and has_k2:
        if np.any(k1.imag) or np.any(k2.imag):
            m = k1 @ k2
            # M - M^H into the buffer of conj(M).T, which is not M's own memory
            mixing = m.conj().T
            np.subtract(m, mixing, out=mixing)
        else:
            r1 = np.ascontiguousarray(k1.real)
            m = r1 @ np.ascontiguousarray(k2.real)
            # M - M^T into the real part of K1, which the product no longer needs
            mixing = np.subtract(m, m.T, out=r1)
        del m
        mixing *= grid.spacing
        values += mixing
    if values is None:
        values = np.zeros(k1.shape, dtype=np.complex128)
    return values


def commutator_kernel(o1: VanHoveObservable, o2: VanHoveObservable) -> RegularKernel:
    """Regular kernel of [O1, O2]; anti-Hermitian, singular part identically zero."""
    return RegularKernel(o1.grid, _commutator_values(o1, o2), _adopt=True)


def incompatibility_observable(o1: VanHoveObservable,
                               o2: VanHoveObservable) -> IncompatibilityObservable:
    """Hermitian D = -i [O1, O2] built from the commutator kernel.

    When both operand kernels are exactly Hermitian (recorded residual 0.0,
    or absent), so is D, with no scan: IEEE rounding is sign-symmetric, so
    the cross terms (d(w) - d(w')) K and the mixing term M - M^H come out
    exactly anti-Hermitian. Any other D is scanned at 1e-10.
    """
    values = _commutator_values(o1, o2)
    values *= -1j
    kernel = RegularKernel(o1.grid, values, _adopt=True)
    if o1.kernel.hermitian_residual == 0.0 and o2.kernel.hermitian_residual == 0.0:
        kernel._record_residual(0.0)
    return IncompatibilityObservable(kernel)


def _nu_profile(values: np.ndarray) -> np.ndarray:
    n = values.shape[0]
    out = np.empty(2 * n - 1, dtype=np.complex128)
    for m in range(-(n - 1), n):
        # diagonal(offset=q) walks entries [i, i+q], i.e. k - l = -q
        out[m + n - 1] = values.diagonal(-m).sum()
    return out


def _phase_series(grid: FrequencyGrid, profile: np.ndarray,
                  times: np.ndarray) -> np.ndarray:
    """For each time t, the sum over offsets m of profile[m] exp(i m spacing t)."""
    n = grid.n_points
    nu = grid.spacing * np.arange(-(n - 1), n, dtype=np.float64)
    return np.exp(1j * np.outer(times, nu)) @ profile


def require_window(grid: FrequencyGrid, t_max: float) -> None:
    """Raise WindowExceeded when t_max goes past half the recurrence time."""
    half = 0.5 * grid.recurrence_time
    if t_max > half:
        raise WindowExceeded(
            f"t_max={t_max} exceeds half the recurrence time: recurrence "
            f"2*pi/spacing = {grid.recurrence_time}, window limit {half}")


def _kernel_profile(rho: VanHoveState, kernel: RegularKernel) -> np.ndarray:
    if not (rho.kernel.present and kernel.present):
        return np.zeros(2 * rho.grid.n_points - 1, dtype=np.complex128)
    weights = np.conjugate(rho.kernel.values)
    weights *= kernel.values
    profile = _nu_profile(weights)
    return rho.grid.spacing**2 * profile


def expectation(rho: VanHoveState, obs: VanHoveObservable, t: float) -> complex:
    """Expectation value of the observable evolved to time t, in the state rho.

    The singular sector contributes the time-independent quadrature of
    rho(omega) O(omega); the regular sector contributes the double
    quadrature of conj(rho(w, w')) O(w, w') exp(i (w - w') t). The result
    is real (to 1e-10) whenever both arguments are Hermitian.
    """
    grid = _require_same_grid(rho.grid, obs.grid)
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    diag_term = grid.spacing * float(np.dot(rho.diag.values, obs.diag.values))
    profile = _kernel_profile(rho, obs.kernel)
    kernel_term = _phase_series(grid, profile, np.array([t], dtype=np.float64))[0]
    return diag_term + complex(kernel_term)


def expectation_series(rho: VanHoveState, incompat: IncompatibilityObservable,
                       t_max: float, n_samples: int) -> ExpectationSeries:
    """Uniformly sampled expectation of the incompatibility observable.

    Raises WindowExceeded when t_max goes past half the recurrence time
    2*pi/spacing, where the discrete spectrum can no longer emulate the
    continuum limit.
    """
    grid = _require_same_grid(rho.grid, incompat.grid)
    if not (math.isfinite(t_max) and t_max > 0.0):
        raise ValueError(f"t_max must be positive, got {t_max}")
    if n_samples < 2:
        raise ValueError(f"need at least 2 samples, got {n_samples}")
    require_window(grid, t_max)
    times = np.linspace(0.0, t_max, int(n_samples))
    profile = _kernel_profile(rho, incompat.kernel)
    values = _phase_series(grid, profile, times)
    return ExpectationSeries(times, values, grid.recurrence_time)


def decoherence_time(series: ExpectationSeries,
                     threshold_ratio: float = DEFAULT_THRESHOLD_RATIO,
                     sustain: int = DEFAULT_SUSTAIN) -> Optional[float]:
    """First sampled time with |value| sustained below a fraction of |value(0)|.

    The drop must hold for ``sustain`` consecutive samples. Returns None when
    never sustained inside the window; a series that starts at exactly zero
    magnitude is degenerate and reports time 0.
    """
    if not 0.0 < threshold_ratio < 1.0:
        raise ValueError(f"threshold_ratio must be in (0, 1), got {threshold_ratio}")
    if sustain < 1:
        raise ValueError(f"sustain must be at least 1, got {sustain}")
    if series.initial_magnitude == 0.0:
        return 0.0
    below = np.abs(series.values) <= threshold_ratio * series.initial_magnitude
    for j in range(below.size - sustain + 1):
        if below[j:j + sustain].all():
            return float(series.times[j])
    return None


def combined_decay_rate(rho_spec: KernelFamilySpec,
                        obs_spec: KernelFamilySpec) -> tuple[str, float]:
    """Reduced decay parameter for a state/observable kernel family pair.

    Two gaussian_band profiles multiply to a Gaussian of width sigma_c with
    1/sigma_c^2 = 1/sigma1^2 + 1/sigma2^2. For two lorentz_band profiles the
    same reduced combination gamma_c = gamma1 gamma2 / (gamma1 + gamma2) is
    used; it is exact in the limit where one width dominates (the broad
    profile is flat across the narrow one) and approximate otherwise.
    """
    if rho_spec.family != obs_spec.family:
        raise UnsupportedFamily(
            f"analytic decay needs matching families, got {rho_spec.family} "
            f"and {obs_spec.family}")
    if rho_spec.family == "gaussian_band":
        sigma_c = math.sqrt(1.0 / (rho_spec.sigma**-2 + obs_spec.sigma**-2))
        return "gaussian", sigma_c
    if rho_spec.family == "lorentz_band":
        gamma_c = rho_spec.gamma * obs_spec.gamma / (rho_spec.gamma + obs_spec.gamma)
        return "lorentz", gamma_c
    raise UnsupportedFamily(
        f"no analytic decay form for family {rho_spec.family!r}")


def analytic_decay(kind: str, rate: float, times) -> np.ndarray:
    """Closed-form normalized decay |<D(t)>/<D(0)>| for a known profile kind.

    gaussian: exp(-rate^2 t^2 / 2). lorentz: exp(-rate |t|), accurate up to
    the O(rate/omega_max) truncation of the Lorentzian tails by the window.
    """
    times = np.asarray(times, dtype=np.float64)
    if kind == "gaussian":
        return np.exp(-0.5 * (rate * times) ** 2)
    if kind == "lorentz":
        return np.exp(-rate * np.abs(times))
    raise UnsupportedFamily(f"unknown analytic decay kind {kind!r}")


def analytic_oracle(rho_spec: KernelFamilySpec, obs_spec: KernelFamilySpec,
                    times) -> np.ndarray:
    """Normalized decay profile for a gaussian_band or lorentz_band pair."""
    kind, rate = combined_decay_rate(rho_spec, obs_spec)
    return analytic_decay(kind, rate, times)
