"""Heisenberg-picture evolution, commutator kernels, and expectation decay.

Observables evolve while states stay fixed: evolution multiplies the regular kernel by
unit-modulus phases exp(i (omega - omega') t) and leaves the diagonal profile alone. The
commutator of two such observables has no singular part; scaled by -i it is the Hermitian
incompatibility observable whose expectation value decays whenever the paired state/kernel
profile is integrable in nu = omega - omega'.

On the uniform grid the phases depend only on the node-index difference, so expectation values
are evaluated by collapsing the weighted kernel (Hermitian, so read by its tiles I <= J) onto its
anti-diagonals (the nu profile) and summing one factor per offset, a baby-step times a giant-step
phase. The regrouping is exact and keeps roundoff near 1e-13 even for strongly cancelling sums.
Kernels are read by L2-sized tiles (spectral._TILE); M = K1 K2 by panels, kept as half M^H - M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ._blas import blas_threads
from .errors import UnsupportedFamily, WindowExceeded
from .spectral import (
    FrequencyGrid,
    KernelFamilySpec,
    RegularKernel,
    VanHoveObservable,
    VanHoveState,
    _SumOfSquares,
    _TILE,
    _Tiles,
    _finite,
    _require_same_grid,
    _row_blocks,
    _upper_tiles,
)

INCOMPATIBILITY_HERMITIAN_TOL = 1e-10
DEFAULT_THRESHOLD_RATIO = math.exp(-1.0)
DEFAULT_SUSTAIN = 10
# kernel family with a closed-form decay -> (analytic decay kind, width parameter)
ANALYTIC_FORMS = {"gaussian_band": ("gaussian", "sigma"), "lorentz_band": ("lorentz", "gamma")}
_PHASE_CHUNK = 256  # least offsets per chunk of the phase series: a 1-MB E and Q, and their bits


@dataclass(frozen=True, eq=False)
class IncompatibilityObservable:
    """Hermitian observable -i [O1, O2]; kernel only, the singular part cancels.

    The kernel's own ``hermitian_residual`` is checked to 1e-10.
    """

    kernel: RegularKernel

    def __post_init__(self):
        if self.kernel.hermitian_residual > INCOMPATIBILITY_HERMITIAN_TOL:
            raise ValueError("incompatibility kernel is not Hermitian at 1e-10")

    @property
    def grid(self) -> FrequencyGrid:
        return self.kernel.grid

    def to_observable(self) -> VanHoveObservable:
        return VanHoveObservable.kernel_only(self.kernel)


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
        _require_half_window(times[-1], self.recurrence_time)
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
    """Heisenberg evolution by time t: phase a dense copy of the kernel, keep the diagonal."""
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    if not obs.kernel.present:
        return obs
    with np.errstate(over="ignore", invalid="ignore"):  # t omega past the float range: nan
        evolved = phased_values(obs.kernel.dense(), np.exp(1j * t * obs.grid.nodes))
    return VanHoveObservable(obs.diag, RegularKernel(obs.grid, evolved, _adopt=True))


def _incompatibility_blocks(o1: VanHoveObservable, o2: VanHoveObservable) -> RegularKernel:
    """D = -i [O1, O2] as a made kernel: complex tiles, checked finite as made unless bounded.

    [O1, O2] is (d1(w) - d1(w')) K2 - (d2(w) - d2(w')) K1 + K1 o K2 - K2 o K1; a cross term is
    skipped when its diagonal is constant or its kernel zero (``is_zero``: absent, or read up to
    its first nonzero tile). When no term survives, the pair commutes exactly and D is the absent
    kernel. For Hermitian kernels K1 o K2 - K2 o K1 = M - M^H, M = K1 o K2, made by panels: each
    tile row of K1, made by tiles, times a column half of K2 made by tiles into one n x cut buffer
    (cut = _TILE ceil(n / (2 _TILE)); no split where a half would be one column). Each panel goes
    at once into H = M^H - M, kept as half[i], tile row i from its first column on (n (n + _TILE)
    / 2 in all), by _TILE x _TILE blocks, each set by its first term (-M[I, J] if I and J share a
    half, else conj(M[J, I]).T) and combined with its second: one rounding of conj(M[J, I]) -
    M[I, J]. A tile J >= I reads H, a lower one -conj(H[J, I]).T. Each tile sums -[O1, O2] = -i D
    in one scratch of the terms' dtype (negated exactly by operand order); D is i times that sum.

    When both operand kernels are exactly Hermitian (residual 0.0, or absent), so is D, whose
    maker is then exact (residual 0.0, no scan): IEEE rounding is sign-symmetric, so the cross
    terms (d(w) - d(w')) K and the mixing term M - M^H come out exactly anti-Hermitian.

    Tiles are checked finite as made only if the maker's bound is not: 2 (ptp(d1) b2 + ptp(d2) b1
    + 2 max(n, omega_max) b1 b2) over the surviving terms, b >= max |K| an operand's own bound
    (inf if stored; a zero K's is unread), covers every intermediate (|M| <= n b1 b2 before the
    spacing scales it, omega_max b1 b2 after).
    """
    grid = _require_same_grid(o1.grid, o2.grid)
    n = grid.n_points
    d1, d2 = o1.diag.values, o2.diag.values
    k1, k2 = o1.kernel, o2.kernel
    half = []  # H's upper tile rows, when the mixing term survives
    if not (k1.is_zero or k2.is_zero):
        dtype, cut = np.result_type(k1.dtype, k2.dtype), _TILE * -(-n // (2 * _TILE))
        halves = [(0, cut), (cut, n)] if n - cut > 1 else [(0, n)]  # no one-column half
        half = [np.empty((r.stop - r.start, n - r.start), dtype) for r in _row_blocks(n)]
        left, buf = np.empty((_TILE, n), dtype), np.empty((n + _TILE) * halves[0][1], dtype)
        for lo, hi in halves:  # K2[:, lo:hi] by tiles, times each tile row of K1 by tiles
            right, product = buf[:n * (hi - lo)].reshape(n, -1), buf[n * (hi - lo):]
            for rows in _row_blocks(n):
                for cols in _row_blocks(hi - lo):
                    k2.tile(rows, slice(lo + cols.start, lo + cols.stop), right[rows, cols])
            for rows in _row_blocks(n):
                top, a = rows.start, rows.stop - rows.start
                for cols in _row_blocks(n):
                    k1.tile(rows, cols, left[:a, cols])
                with blas_threads():  # M's products need the pool
                    m = np.matmul(left[:a], right, out=product[:a * (hi - lo)].reshape(a, -1))
                if top < lo:  # -M[I, J >= I]: subtracted in the half after I's, set in I's
                    half[top // _TILE][:, lo - top:hi - top] -= m
                elif top < hi:
                    np.negative(m[:, top - lo:], out=half[top // _TILE][:, :hi - top])
                for j in range(lo, min(top + 1, hi), _TILE):  # conj(M[I, J]).T into H[J, I]:
                    into = half[j // _TILE][:, top - j:top - j + a]  # added in I's half, else set
                    blk = m[:, j - lo:j - lo + _TILE].T  # real: conj makes no copy
                    np.add(into, blk.conj(), out=into) if top < hi else np.conjugate(blk, out=into)

    def cross(kernel, diag, order):  # (d(w) - d(w')) K, or (d(w') - d(w)) K for order -1
        def write(rows, cols, into, diff):
            kernel.tile(rows, cols, into)
            into *= np.subtract(*(diag[rows, None], diag[None, cols])[::order], out=diff)
        return write

    def mixing(rows, cols, into, diff):  # H[rows, cols] spacing, from the tile row of min(I, J)
        i, j = (rows, cols) if cols.start >= rows.start else (cols, rows)
        h = half[i.start // _TILE][:, j.start - i.start:j.stop - i.start]
        if i is cols:  # -conj(H[J, I]).T; re as 0 - re keeps the +0.0 that x - x rounds to
            h = np.positive(h.T, out=into)
            np.subtract(0.0, h.real, out=h.real)
        np.multiply(h, grid.spacing, out=into)

    # -[O1, O2] = (d1(w') - d1(w)) K2 + (d2(w) - d2(w')) K1 + M^H - M, summed in this order
    crosses = [(k, d, order) for k, d, order in ((k2, d1, -1), (k1, d2, 1))
               if np.ptp(d) != 0 and not k.is_zero]
    terms = [cross(*term) for term in crosses] + [mixing] * bool(half)
    if not terms:  # D = 0
        return RegularKernel.absent(grid)
    b1, b2 = k1.bound, k2.bound  # >= max |K|
    limit = 2.0 * (sum(float(np.ptp(d)) * (b1 if k is k1 else b2) for k, d, _ in crosses)
                   + (2.0 * max(n, grid.omega_max) * b1 * b2 if half else 0.0))
    dtype = np.result_type(np.float64, *(k.dtype for k, _, _ in crosses), *half[:1])
    scratch = np.empty((3, _TILE, _TILE), dtype)  # diff, later, the sum

    def make(rows, cols, out=None):
        d = np.empty((len(d1[rows]), len(d1[cols])), complex) if out is None else out
        diff, later, acc = scratch[:, :d.shape[0], :d.shape[1]]
        for k, write in enumerate(terms):  # -[O1, O2] = -i D, summed term by term
            write(rows, cols, later if k else acc, diff)
            if k:
                acc += later
        np.multiply(acc, 1j, out=d)
        return d if math.isfinite(limit) else _finite(d)

    exact = k1.hermitian_residual == 0.0 and k2.hermitian_residual == 0.0
    return RegularKernel(grid, _Tiles(make, np.dtype(np.complex128), limit, exact))


def commutator_kernel(o1: VanHoveObservable, o2: VanHoveObservable) -> RegularKernel:
    """Regular kernel of [O1, O2] = i D, stored, or absent with D; singular part zero."""
    d = _incompatibility_blocks(o1, o2)
    if d.present:  # D made into one n x n array, times i in place
        d = RegularKernel(o1.grid, np.multiply(values := d.dense(), 1j, out=values), _adopt=True)
    return d


def incompatibility_observable(o1: VanHoveObservable,
                               o2: VanHoveObservable) -> IncompatibilityObservable:
    """Hermitian D = -i [O1, O2], made by tiles; stored only if it must be scanned,
    and absent, with no tile to make, if no term survives (see _incompatibility_blocks)."""
    return IncompatibilityObservable(_incompatibility_blocks(o1, o2))


def _phase_series(grid: FrequencyGrid, profile: Optional[np.ndarray],
                  times: np.ndarray) -> np.ndarray:
    """For each time t, the sum over offsets m of profile[m] exp(i nu_m t), nu_m = m spacing.

    The S times are a linspace, so with K = ceil(sqrt(S)) sample bK + k is at t_bK + (t_k - t_0),
    a baby-step giant-step split (Shanks 1971; Paterson and Stockmeyer 1973): E[k, m] =
    exp(i nu_m (t_k - t_0)) and Q[m, b] = profile[m] exp(i nu_m t_bK) make the series E @ Q, read
    in sample order, from about 2 sqrt(S) (2n - 1) exps; one time is K = 1, the direct sum. The
    offsets go in chunks of at least C = _PHASE_CHUNK, E and Q within C^2 complex or K x C each.
    """
    if profile is None:  # known zero: +0.0 at every time, and no phase formed
        return np.zeros(len(times), dtype=np.complex128)
    n, k = grid.n_points, math.isqrt(len(times) - 1) + 1  # K = ceil(sqrt(S))
    inu = 1j * grid.spacing * np.arange(-(n - 1), n, dtype=np.float64)
    babies, giants = times[:k] - times[0], times[::k]
    step = max(_PHASE_CHUNK, _PHASE_CHUNK**2 // (k + len(giants)))
    series, part = np.zeros((2, k, len(giants)), dtype=np.complex128)
    with blas_threads():  # E @ Q needs the pool
        for m in (slice(i, i + step) for i in range(0, 2 * n - 1, step)):
            e, q = np.multiply.outer(babies, inu[m]), np.multiply.outer(inu[m], giants)
            np.multiply(np.exp(q, out=q), profile[m, None], out=q)
            series += np.matmul(np.exp(e, out=e), q, out=part)
            del e, q  # else the next chunk is formed while this one is alive
    return series.T.reshape(-1)[:len(times)]


def require_window(grid: FrequencyGrid, t_max: float, n_samples: int) -> None:
    """Raise ValueError unless t_max is positive and finite and n_samples at least 2,
    and WindowExceeded when t_max goes past half the recurrence time."""
    if not 0.0 < t_max < math.inf:
        raise ValueError(f"t_max must be positive and finite, got {t_max}")
    if not n_samples >= 2:
        raise ValueError(f"n_samples must be at least 2, got {n_samples}")
    _require_half_window(t_max, grid.recurrence_time)


def _require_half_window(t_max: float, recurrence_time: float) -> None:
    if not t_max <= 0.5 * recurrence_time:  # the one window rule; a NaN recurrence admits none
        raise WindowExceeded(f"t_max={t_max} exceeds half the recurrence time: recurrence 2*pi/"
                             f"spacing = {recurrence_time}, window limit {0.5 * recurrence_time}")


def _tile_pass(rho: VanHoveState, d: RegularKernel, t: Optional[float] = None):
    """(profile, norms) from one pass over D's tiles I <= J, each made once into one buffer.

    profile is the spacing^2 nu-profile of conj(rho) o D, profile[m + n - 1] summing the terms
    with k - l = m, or None (zero) when rho has no kernel or D is absent. Each tile of rho is made
    and conjugated in its own buffer, and its product with D's tile written by one multiply into a
    sheared view of an (h, 2h - 1) buffer, h = _TILE, entry [i, l] at column h - 1 - i + l (one
    per anti-diagonal). norms is None, or, given a time t, D's HS norms at 0 and at t (tiles phased
    in place once read).

    conj(rho) o D is Hermitian with rho and D, so a strict tile (I < J) stands for its mirror: its
    profile row, strict, is added as read and conjugated and reversed, and its squares count twice.
    With residuals r_rho and r_D a mirrored term is off by r_rho |D| + r_D |rho| + r_rho r_D at
    most, so the series leaves the full double sum by spacing^2 (r_rho sum |D| + r_D sum |rho| +
    n^2 r_rho r_D) at most beyond the regrouping's roundoff, and each norm D's by n spacing r_D.
    """
    grid = rho.grid
    n, h = grid.n_points, _TILE
    weighted = rho.kernel.present and d.present
    skew = np.zeros((h, 2 * h - 1), dtype=np.complex128)
    view = as_strided(skew.reshape(-1)[h - 1:], (h, h), ((2 * h - 2) * 16, 16))
    buf, state = np.empty((2, h, h), dtype=np.complex128)  # D's tile, conj(rho)'s tile
    profile = np.zeros((2, 2 * n - 1), dtype=np.complex128) if weighted else None  # row times - 1
    squares = _SumOfSquares(), _SumOfSquares()  # |D|^2 at 0 and at t
    phases = None if t is None else np.exp(1j * t * grid.nodes)
    for rows, cols, times in _upper_tiles(n) if d.present else ():
        a, w = rows.stop - rows.start, cols.stop - cols.start
        tile = d.tile(rows, cols, buf[:a, :w])  # made even unweighted: checked if unbounded
        if weighted:  # in complex buffers, so real and complex operands mix
            view[:a, w:] = 0.0  # a wider tile before a narrower one wrote its right corner
            conj = np.conjugate(rho.kernel.tile(rows, cols, out=state[:a, :w]), out=state[:a, :w])
            np.multiply(conj, tile, out=view[:a, :w])
            start = rows.start - cols.stop + n  # column h + w - 2: offset start - n + 1
            profile[times - 1, start:start + a + w - 1] += skew[:a, h - a:h + w - 1].sum(0)[::-1]
        if phases is not None:
            squares[0].add(tile, times)
            squares[1].add(phased_values(tile, phases, rows, cols, out=tile), times)
    if weighted:  # the diagonal tiles' row, plus the strict row and its mirror
        profile = grid.spacing**2 * (profile[0] + (profile[1] + np.conjugate(profile[1, ::-1])))
    return profile, None if phases is None else tuple(s.norm(grid.spacing) for s in squares)


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
    with np.errstate(over="ignore", invalid="ignore"):  # t nu past the float range: nan
        kernel_term = _phase_series(grid, _tile_pass(rho, obs.kernel)[0], np.array([t], float))
    return diag_term + complex(_finite(kernel_term)[0])


def expectation_series(rho: VanHoveState, incompat: IncompatibilityObservable,
                       t_max: float, n_samples: int) -> ExpectationSeries:
    """Uniformly sampled expectation of incompat, from one pass over its kernel's tiles I <= J.

    Raises WindowExceeded past half the recurrence time 2*pi/spacing.
    """
    grid = _require_same_grid(rho.grid, incompat.grid)
    require_window(grid, t_max, n_samples)
    times = np.linspace(0.0, t_max, int(n_samples))
    profile, _ = _tile_pass(rho, incompat.kernel)
    return ExpectationSeries(times, _phase_series(grid, profile, times), grid.recurrence_time)


def series_and_norms(rho: VanHoveState, incompat: IncompatibilityObservable,
                     t_max: float, n_samples: int) -> tuple[ExpectationSeries, float, float]:
    """expectation_series, with the HS norms of D and of D evolved to t_max from its pass."""
    grid = _require_same_grid(rho.grid, incompat.grid)
    require_window(grid, t_max, n_samples)
    times = np.linspace(0.0, t_max, int(n_samples))
    profile, norms = _tile_pass(rho, incompat.kernel, t_max)
    series = ExpectationSeries(times, _phase_series(grid, profile, times), grid.recurrence_time)
    return (series, *norms)


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
    magnitude has nothing to decay and reports time 0 (not a DEGENERATE verdict).
    """
    require_thresholds(threshold_ratio, sustain)
    if series.initial_magnitude == 0.0:
        return 0.0
    below = np.abs(series.values) <= threshold_ratio * series.initial_magnitude
    # window j holds sustain samples below iff the count over below[j:j + sustain] is full
    counts = np.concatenate(([0], np.cumsum(below)))
    starts = np.flatnonzero(counts[sustain:] - counts[:-sustain] == sustain)
    return float(series.times[starts[0]]) if starts.size else None


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
    with np.errstate(over="ignore"):  # (rate t)^2 or rate |t| = inf gives exp(-inf) = 0
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
