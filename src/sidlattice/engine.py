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
from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import UnsupportedFamily, WindowExceeded
from .spectral import (
    DiagonalPart,
    FrequencyGrid,
    KernelFamilySpec,
    RegularKernel,
    VanHoveObservable,
    VanHoveState,
    _TILE,
    _Tiles,
    _finite,
    _kernel_tiles,
    _require_same_grid,
    _row_blocks,
    _tiles,
    hermitian_within,
)

INCOMPATIBILITY_HERMITIAN_TOL = 1e-10
DEFAULT_THRESHOLD_RATIO = math.exp(-1.0)
DEFAULT_SUSTAIN = 10
# kernel family with a closed-form decay -> (analytic decay kind, width parameter)
ANALYTIC_FORMS = {"gaussian_band": ("gaussian", "sigma"), "lorentz_band": ("lorentz", "gamma")}


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
        if times.size < 1 or not (np.isfinite(times).all() and np.all(np.diff(times) > 0.0)):
            raise ValueError("times must be finite and strictly increasing")
        _finite(values)
        if not times[-1] <= 0.5 * self.recurrence_time:
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


def phased_values(values: np.ndarray, phases: np.ndarray,
                  rows=slice(None), cols=slice(None), out=None) -> np.ndarray:
    """K[rows, cols] exp(i (w - w') t) from K[rows, cols], phases = exp(i w t): fresh or in out."""
    out = np.multiply(values, phases[rows, None], out=out)
    out *= np.conjugate(phases[cols])[None, :]
    return out


def evolve(obs: VanHoveObservable, t: float) -> VanHoveObservable:
    """Heisenberg evolution by time t: phase the kernel, keep the diagonal."""
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    if not obs.kernel.present:
        return obs
    evolved = phased_values(obs.kernel.values, np.exp(1j * t * obs.grid.nodes))
    return VanHoveObservable(obs.diag, RegularKernel(obs.grid, evolved, _adopt=True))


def _incompatibility_blocks(o1: VanHoveObservable, o2: VanHoveObservable) -> RegularKernel:
    """D = -i [O1, O2] as a made kernel: complex tiles, each checked finite as made.

    [O1, O2] is (d1(w) - d1(w')) K2 - (d2(w) - d2(w')) K1 + K1 o K2 - K2 o K1;
    a cross term is skipped when its kernel is zero (``is_zero``: absent, or
    read once) or its diagonal constant. For Hermitian kernels
    K1 o K2 - K2 o K1 = M - M^H, M = K1 o K2 (real for two real kernels), the
    one n x n array the tiles need. It is formed here, by 256-row slabs of K1
    against K2 made dense for it alone. Each tile sums -[O1, O2] = i D into D's
    buffer (its imaginary part alone if every term is real), the negation folded into
    each subtraction's operand order, exact under round-to-nearest.

    When both operand kernels are exactly Hermitian (recorded residual 0.0,
    or absent), so is D, which records 0.0 with no scan: IEEE rounding is
    sign-symmetric, so the cross terms (d(w) - d(w')) K and the mixing term
    M - M^H come out exactly anti-Hermitian.
    """
    grid = _require_same_grid(o1.grid, o2.grid)
    n = grid.n_points
    d1, d2 = o1.diag.values, o2.diag.values
    k1, k2 = o1.kernel, o2.kernel
    m = None
    if not (k1.is_zero or k2.is_zero):
        right = k2.dense(np.result_type(k1.dtype, k2.dtype))
        m, slab = np.empty((n, n), right.dtype), np.empty((_TILE, n), k1.dtype)
        for rows in _row_blocks(n):
            left = slab[:rows.stop - rows.start]  # K1[rows], made tile by tile
            for cols in _row_blocks(n):
                k1.tile(rows, cols, left[:, cols])
            np.matmul(left, right, out=m[rows])

    def cross(kernel, diag, order):  # (d(w) - d(w')) K, or (d(w') - d(w)) K for order -1
        def write(rows, cols, into, diff):
            kernel.tile(rows, cols, into)
            into *= np.subtract(*(diag[rows, None], diag[None, cols])[::order], out=diff)
        return write

    def mixing(rows, cols, into, diff):  # (M[cols, rows]^H - M[rows, cols]) spacing
        np.subtract(np.conjugate(m[cols, rows].T, out=into), m[rows, cols], out=into)
        into *= grid.spacing

    # -[O1, O2] = (d1(w') - d1(w)) K2 + (d2(w) - d2(w')) K1 + M^H - M, summed in this order
    crosses = [(k, d, order) for k, d, order in ((k2, d1, -1), (k1, d2, 1))
               if not k.is_zero and np.ptp(d) != 0]
    terms = [cross(*term) for term in crosses] + [mixing] * (m is not None)
    dtype = np.result_type(np.float64, *(k.dtype for k, _, _ in crosses), *[m] * (m is not None))
    scratch = np.empty((2, _TILE, _TILE), dtype)  # the diagonal difference, a later term

    def make(rows, cols, out=None):
        d = np.empty((len(d1[rows]), len(d1[cols])), complex) if out is None else out
        acc = d if dtype.kind == "c" else d.imag  # -[O1, O2] = i D, summed term by term
        diff, later = scratch[:, :d.shape[0], :d.shape[1]]
        for k, write in enumerate(terms):
            write(rows, cols, later if k else acc, diff)
            if k:
                acc += later
        if not terms:  # D = 0
            d.fill(0.0)
        elif acc is d:
            d *= 1j
        else:
            d.real = 0.0
        return _finite(d)

    kernel = RegularKernel(grid, _Tiles(make, np.dtype(np.complex128)))
    if k1.hermitian_residual == 0.0 and k2.hermitian_residual == 0.0:
        kernel.hermitian_residual = 0.0
    return kernel


def commutator_kernel(o1: VanHoveObservable, o2: VanHoveObservable) -> RegularKernel:
    """Regular kernel of [O1, O2] = i D; anti-Hermitian, singular part identically zero."""
    return RegularKernel(o1.grid, 1j * _incompatibility_blocks(o1, o2).values, _adopt=True)


def incompatibility_observable(o1: VanHoveObservable,
                               o2: VanHoveObservable) -> IncompatibilityObservable:
    """Hermitian D = -i [O1, O2], made by tiles; stored only if it must be scanned."""
    return IncompatibilityObservable(_incompatibility_blocks(o1, o2))


def _skewed_profile(n: int, fill) -> np.ndarray:
    """profile[m + n - 1] = sum over k - l = m of the n x n array fill writes by tiles.

    fill(rows, cols, view[:a, :w]) writes an a x w tile into an (h, 2h - 1) buffer,
    h = _TILE, entry [i, l] at column h - 1 - i + l: one column per anti-diagonal.
    """
    h = _TILE
    buf = np.zeros((h, 2 * h - 1), dtype=np.complex128)
    view = as_strided(buf.reshape(-1)[h - 1:], (h, h), ((2 * h - 2) * 16, 16))
    profile = np.zeros(2 * n - 1, dtype=np.complex128)
    for rows, cols in _tiles(n):
        a, w = rows.stop - rows.start, cols.stop - cols.start
        view[:a, w:] = 0.0  # a wider tile before a narrower one wrote its right corner
        fill(rows, cols, view[:a, :w])
        start = rows.start - cols.stop + n  # column h + w - 2: offset rows.start - cols.stop + 1
        profile[start:start + a + w - 1] += buf[:a, h - a:h + w - 1].sum(axis=0)[::-1]
    return profile


def _phase_series(grid: FrequencyGrid, profile: np.ndarray,
                  times: np.ndarray) -> np.ndarray:
    """For each time t, the sum over offsets m of profile[m] exp(i m spacing t).

    The phases are formed for as many times at once as fit in one tile's
    bytes, so the peak grows neither with the number of samples nor past a tile.
    """
    n = grid.n_points
    nu = grid.spacing * np.arange(-(n - 1), n, dtype=np.float64)
    step = max(1, _TILE * _TILE // (2 * n - 1))
    values = np.empty(len(times), dtype=np.complex128)
    for rows in (slice(i, i + step) for i in range(0, len(times), step)):
        phases = np.multiply.outer(times[rows], 1j * nu)
        values[rows] = np.exp(phases, out=phases) @ profile
        del phases  # else the next block is formed while this one is alive
    return values


def require_window(grid: FrequencyGrid, t_max: float, n_samples: int) -> None:
    """Raise ValueError unless t_max is positive and finite and n_samples at least 2,
    and WindowExceeded when t_max goes past half the recurrence time."""
    if not 0.0 < t_max < math.inf:
        raise ValueError(f"t_max must be positive and finite, got {t_max}")
    if not n_samples >= 2:
        raise ValueError(f"n_samples must be at least 2, got {n_samples}")
    half = 0.5 * grid.recurrence_time
    if not t_max <= half:
        raise WindowExceeded(
            f"t_max={t_max} exceeds half the recurrence time: recurrence "
            f"2*pi/spacing = {grid.recurrence_time}, window limit {half}")


def _kernel_profile(rho: VanHoveState, d_tiles) -> np.ndarray:
    """spacing^2 nu-profile of conj(rho) o D; runs D's tile iterator (None: absent) to its end."""
    n = rho.grid.n_points

    def fill(rows, cols, view):  # in the complex view, so real and complex operands mix
        np.conjugate(rho.kernel.tile(rows, cols, out=view), out=view)
        view *= next(d_tiles)

    profile = rho.grid.spacing**2 * _skewed_profile(n, fill) \
        if d_tiles is not None and rho.kernel.present else np.zeros(2 * n - 1, np.complex128)
    deque(d_tiles or (), maxlen=0)
    return profile


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
    profile = _kernel_profile(rho, _kernel_tiles(obs.kernel))
    kernel_term = _phase_series(grid, profile, np.array([t], dtype=np.float64))[0]
    return diag_term + complex(kernel_term)


def series_from_tiles(rho: VanHoveState, d_tiles, t_max: float,
                      n_samples: int) -> ExpectationSeries:
    """Uniformly sampled expectation of D, from its tiles (see _kernel_profile).

    Raises WindowExceeded past half the recurrence time 2*pi/spacing.
    """
    grid = rho.grid
    require_window(grid, t_max, n_samples)
    times = np.linspace(0.0, t_max, int(n_samples))
    values = _phase_series(grid, _kernel_profile(rho, d_tiles), times)
    return ExpectationSeries(times, values, grid.recurrence_time)


def expectation_series(rho: VanHoveState, incompat: IncompatibilityObservable,
                       t_max: float, n_samples: int) -> ExpectationSeries:
    """Uniformly sampled expectation of incompat: series_from_tiles over its kernel's tiles."""
    _require_same_grid(rho.grid, incompat.grid)
    return series_from_tiles(rho, _kernel_tiles(incompat.kernel), t_max, n_samples)


def require_thresholds(threshold_ratio: float, sustain: int) -> None:
    """Raise ValueError unless 0 < threshold_ratio < 1 and sustain is at least 1."""
    if not 0.0 < threshold_ratio < 1.0:
        raise ValueError(f"decoherence threshold ratio must be in (0, 1), got {threshold_ratio}")
    if not sustain >= 1:
        raise ValueError(f"sustain must be at least 1, got {sustain}")


def decoherence_time(series: ExpectationSeries,
                     threshold_ratio: float = DEFAULT_THRESHOLD_RATIO,
                     sustain: int = DEFAULT_SUSTAIN) -> Optional[float]:
    """First sampled time with |value| sustained below a fraction of |value(0)|.

    The drop must hold for ``sustain`` consecutive samples. Returns None when
    never sustained inside the window; a series that starts at exactly zero
    magnitude is degenerate and reports time 0.
    """
    require_thresholds(threshold_ratio, sustain)
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
    if rho_spec.family not in ANALYTIC_FORMS:
        raise UnsupportedFamily(f"no analytic decay form for family {rho_spec.family!r}")
    kind, width = ANALYTIC_FORMS[rho_spec.family]
    return kind, reduced_width(kind, getattr(rho_spec, width), getattr(obs_spec, width))


def reduced_width(kind: str, w1: float, w2: float) -> float:
    """combined_decay_rate's width for two positive widths of an ANALYTIC_FORMS kind;
    0, inf or nan where it leaves the float range, for the caller to reject."""
    w1, w2 = np.float64(w1), np.float64(w2)
    with np.errstate(all="ignore"):
        return float(np.sqrt(1.0 / (w1**-2 + w2**-2)) if kind == "gaussian"
                     else w1 * w2 / (w1 + w2))


def analytic_decay(kind: str, rate: float, times) -> np.ndarray:
    """Closed-form normalized decay |<D(t)>/<D(0)>| for a known profile kind.

    gaussian: exp(-rate^2 t^2 / 2). lorentz: exp(-rate |t|), accurate up to
    the O(rate/omega_max) truncation of the Lorentzian tails by the window.
    """
    times = np.asarray(times, dtype=np.float64)
    if kind == "gaussian":
        with np.errstate(over="ignore"):  # (rate t)^2 = inf gives exp(-inf) = 0
            return np.exp(-0.5 * (rate * times) ** 2)
    if kind == "lorentz":
        with np.errstate(over="ignore"):  # rate |t| = inf gives exp(-inf) = 0
            return np.exp(-rate * np.abs(times))
    raise UnsupportedFamily(f"unknown analytic decay kind {kind!r}")


def analytic_oracle(rho_spec: KernelFamilySpec, obs_spec: KernelFamilySpec,
                    times) -> np.ndarray:
    """Normalized decay profile for a gaussian_band or lorentz_band pair."""
    kind, rate = combined_decay_rate(rho_spec, obs_spec)
    return analytic_decay(kind, rate, times)
