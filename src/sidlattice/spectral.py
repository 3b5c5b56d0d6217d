"""Discretized continuous-spectrum objects: grids, kernels, quadrature.

Frequencies live on a uniform midpoint grid over ``[0, omega_max]``; an
observable is a real diagonal profile plus a regular two-frequency kernel
sampled on that grid. All integrals are midpoint sums (exact for constants
and linear integrands, O(spacing^2) for smooth ones, and spectrally
accurate for profiles that decay inside the window).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    GridMismatch,
    LengthMismatch,
    NonPositiveRange,
    SupportOverflowWarning,
    TooFewPoints,
    UnsupportedFamily,
)
from .settings import default_tol

MAX_GRID_POINTS = 4096
ENVELOPE_LEAK_LIMIT = 1e-6
STATE_NORM_TOL = 1e-10

KERNEL_FAMILIES = ("gaussian_band", "lorentz_band", "rect_band", "random_bandlimited")
_RANDOM_MODES = 6
# Edge of the square tiles by which every pass reads an n x n kernel and random_bandlimited makes
# its mixture: a 128 x 128 complex tile is 256 KB, so a pass's few buffers fit a 2-MB L2 cache.
_TILE = 128


def _row_blocks(n: int):
    """Slices of _TILE consecutive indices covering 0 .. n - 1, in order."""
    return (slice(i, min(i + _TILE, n)) for i in range(0, n, _TILE))


def _tiles(n: int):
    """The (I, J) slice pairs of the tiles of an n x n array, row of tiles by row."""
    return ((rows, cols) for rows in _row_blocks(n) for cols in _row_blocks(n))


def _upper_tiles(n: int):
    """(I, J, times) of the tiles J >= I, in _tiles order; 2 times a strict one, for its mirror."""
    return ((i, j, 1 + (j.start > i.start)) for i, j in _tiles(n) if j.start >= i.start)


def _frozen_array(values, dtype, shape, copy=True) -> np.ndarray:
    out = np.array(values, dtype=dtype, copy=True if copy else None, order="C")
    if out.shape != shape:
        raise LengthMismatch(f"expected shape {shape}, got {out.shape}")
    _finite(out).setflags(write=False)
    return out


def _finite(values: np.ndarray) -> np.ndarray:
    """values, once every sample is found finite (a 2-d array tile by tile); else ValueError."""
    tiles = _tiles(max(values.shape)) if values.ndim == 2 else [()]
    if not all(np.isfinite(values[ij]).all() for ij in tiles):
        raise ValueError("samples must be finite")
    return values


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform midpoint discretization of the frequency window [0, omega_max]."""

    omega_max: float
    n_points: int

    def __post_init__(self):
        if not (math.isfinite(self.omega_max) and self.omega_max > 0.0):
            raise NonPositiveRange(f"omega_max must be positive, got {self.omega_max}")
        if self.n_points < 2:
            raise TooFewPoints(f"need at least 2 points, got {self.n_points}")
        if self.spacing == 0.0:
            raise NonPositiveRange(f"spacing {self.omega_max} / {self.n_points} underflows to 0")
        if not math.isfinite(self.recurrence_time):
            raise NonPositiveRange(f"spacing {self.spacing} makes 2*pi/spacing overflow")

    @property
    def spacing(self) -> float:
        return self.omega_max / self.n_points

    @cached_property
    def nodes(self) -> np.ndarray:
        """Midpoint nodes (k + 1/2) * spacing, k = 0 .. n_points - 1."""
        nodes = (np.arange(self.n_points) + 0.5) * self.spacing
        nodes.setflags(write=False)
        return nodes

    @property
    def recurrence_time(self) -> float:
        """Quasi-period 2*pi/spacing the uniform discretization imposes."""
        return 2.0 * math.pi / self.spacing


def make_grid(omega_max: float, n_points: int,
              max_points: int = MAX_GRID_POINTS) -> FrequencyGrid:
    """Build a midpoint frequency grid, capped at desk scale by default."""
    if n_points > max_points:
        raise ValueError(f"n_points={n_points} exceeds the grid cap {max_points}")
    return FrequencyGrid(float(omega_max), int(n_points))


@dataclass(frozen=True, eq=False)
class DiagonalPart:
    """Real samples f(omega_k) of a singular diagonal profile."""

    grid: FrequencyGrid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "values",
            _frozen_array(self.values, np.float64, (self.grid.n_points,)))

    @classmethod
    def zeros(cls, grid: FrequencyGrid) -> "DiagonalPart":
        return cls(grid, np.zeros(grid.n_points))


class _Tiles(NamedTuple):
    """Tiles made on demand: make(I, J, out=None) is K[I, J], fresh or in out; bound >= max |K|;
    exact iff the maker proves K = K^H bit for bit."""

    make: Callable
    dtype: np.dtype
    bound: float = math.inf
    exact: bool = False


class RegularKernel:
    """Real or complex samples K(omega_k, omega_l) of a regular two-frequency kernel.

    Each kernel is read by square tiles through ``tile``. ``values=None`` is the absent kernel K = 0
    (``absent``): a read-only float zero-stride view that is never scanned. A made kernel
    (``_Tiles``: every built kernel, and D = -i [O1, O2], of two kernels over half of M^H - M) makes
    tiles on demand; ``values`` is built once, when first asked, and from then on serves the tiles
    while the maker is dropped. ``bound`` >= max |K| is fixed here: the maker's, inf for stored
    samples, 0.0 for the absent kernel. Other samples, float64 if real and complex128 if complex,
    are copied unless ``_adopt`` is true, which the library passes for arrays it has just built:
    those are frozen in place. Shape and finiteness are checked either way, so an explicit zero
    array (``zeros``) is a present kernel like any other. ``hermitian_residual``, max |K - K^H|, is
    0.0 for the absent kernel and an exact maker's (``_Tiles.exact``); any other kernel is scanned
    once, when first read. hs_norm reads a kernel of residual 0.0 by its tiles I <= J alone.
    """

    def __init__(self, grid: FrequencyGrid, values, _adopt: bool = False):
        n = grid.n_points
        self.grid = grid
        self.present = values is not None
        self._maker = values if isinstance(values, _Tiles) else None
        self.bound = self._maker.bound if self._maker else math.inf if self.present else 0.0
        if not self.present or (self._maker and self._maker.exact):
            self.hermitian_residual = 0.0  # shadows the scan, as values does for a stored array
        if values is None:
            self.values = np.broadcast_to(np.float64(0.0), (n, n))
        elif self._maker is None:
            dtype = np.complex128 if np.iscomplexobj(values) else np.float64
            self.values = _frozen_array(values, dtype, (n, n), copy=not _adopt)
        self.dtype = self.values.dtype if self._maker is None else self._maker.dtype

    @classmethod
    def absent(cls, grid: FrequencyGrid) -> "RegularKernel":
        return cls(grid, None)

    @classmethod
    def zeros(cls, grid: FrequencyGrid) -> "RegularKernel":
        n = grid.n_points
        return cls(grid, np.zeros((n, n), dtype=np.complex128), _adopt=True)

    @cached_property
    def values(self) -> np.ndarray:
        """The n x n samples of a made kernel, made by tiles and kept read-only."""
        values = self.dense()
        values.setflags(write=False)
        self._maker = None  # the tiles are read from values from now on; bound stays
        return values

    @cached_property
    def hermitian_residual(self) -> float:
        """max |K(w, w') - conj(K(w', w))|, scanned by tiles on the first read."""
        return _hermitian_residual(self.values)

    @cached_property
    def is_zero(self) -> bool:
        """True iff every sample is 0: absent, or read up to the first tile that is not."""
        tiles = (self.tile(*ij) for ij in _tiles(self.grid.n_points))
        return not (self.present and any(map(np.any, tiles)))

    def dense(self) -> np.ndarray:
        """A fresh n x n array of the samples, written tile by tile."""
        out = np.empty((self.grid.n_points,) * 2, self.dtype)
        for ij in _tiles(len(out)):
            self.tile(*ij, out[ij])
        return out

    def tile(self, rows: slice, cols: slice, out: Optional[np.ndarray] = None) -> np.ndarray:
        """K[rows, cols] for slices of _row_blocks, into out or fresh (or a read-only view);
        random_bandlimited tiles of other slices may differ in the last bits."""
        if self._maker is None:
            view = self.values[rows, cols]
            return view if out is None else np.positive(view, out=out)
        return self._maker.make(rows, cols, out)


def _require_same_grid(*grids: FrequencyGrid) -> FrequencyGrid:
    first = grids[0]
    for g in grids[1:]:
        if g != first:
            raise GridMismatch(f"grids differ: {first} vs {g}")
    return first


@dataclass(frozen=True, eq=False)
class VanHoveObservable:
    """Observable with a singular diagonal part plus a regular kernel.

    The kernel must be Hermitian within the default tolerance and the
    diagonal profile real, so the whole operator is self-adjoint; the check
    reads the kernel's own ``hermitian_residual``.
    """

    diag: DiagonalPart
    kernel: RegularKernel

    def __post_init__(self):
        _require_same_grid(self.diag.grid, self.kernel.grid)
        if self.kernel.hermitian_residual > default_tol():
            raise ValueError("observable kernel is not Hermitian within tolerance")

    @property
    def grid(self) -> FrequencyGrid:
        return self.diag.grid

    @classmethod
    def diag_only(cls, diag: DiagonalPart) -> "VanHoveObservable":
        return cls(diag, RegularKernel.absent(diag.grid))

    @classmethod
    def kernel_only(cls, kernel: RegularKernel) -> "VanHoveObservable":
        return cls(DiagonalPart.zeros(kernel.grid), kernel)


@dataclass(frozen=True, eq=False)
class VanHoveState:
    """State functional: nonnegative normalized diagonal plus Hermitian kernel."""

    diag: DiagonalPart
    kernel: RegularKernel

    def __post_init__(self):
        _require_same_grid(self.diag.grid, self.kernel.grid)
        if np.any(self.diag.values < 0.0):
            raise ValueError("state diagonal must be nonnegative")
        total = self.diag.grid.spacing * float(np.sum(self.diag.values))
        if abs(total - 1.0) > STATE_NORM_TOL:
            raise ValueError(f"state diagonal quadrature is {total}, expected 1")
        if self.kernel.hermitian_residual > default_tol():
            raise ValueError("state kernel is not Hermitian within tolerance")

    @property
    def grid(self) -> FrequencyGrid:
        return self.diag.grid

    @classmethod
    def normalized(cls, diag: DiagonalPart, kernel: RegularKernel) -> "VanHoveState":
        """Rescale a nonnegative diagonal profile to unit quadrature."""
        total = diag.grid.spacing * float(np.sum(diag.values))
        if total <= 0.0:
            raise ValueError("state diagonal must have positive quadrature")
        return cls(DiagonalPart(diag.grid, diag.values / total), kernel)


@dataclass(frozen=True)
class KernelFamilySpec:
    """Parameters of a closed-form kernel family.

    ``sigma`` is the anti-diagonal (nu = omega - omega') width for the
    Gaussian and rect families, ``gamma`` the Lorentzian half width; ``mu``
    and ``Sigma`` locate the envelope along the mean frequency
    s = (omega + omega')/2. ``seed`` makes random_bandlimited reproducible.
    """

    family: str
    amplitude: float = 1.0
    sigma: Optional[float] = None
    gamma: Optional[float] = None
    mu: Optional[float] = None
    Sigma: Optional[float] = None
    seed: Optional[int] = None

    def __post_init__(self):
        if self.family not in KERNEL_FAMILIES:
            raise UnsupportedFamily(
                f"unknown family {self.family!r}, expected one of {KERNEL_FAMILIES}")
        if not math.isfinite(self.amplitude):
            raise ValueError("amplitude must be finite")
        if self.family in ("gaussian_band", "rect_band", "random_bandlimited"):
            self._require_positive("sigma", self.sigma)
        if self.family == "lorentz_band":
            self._require_positive("gamma", self.gamma)
            # the band table divides by nu^2 + gamma^2
            if not math.isfinite(self.gamma * self.gamma):
                raise ValueError(f"width gamma={self.gamma} overflows gamma^2")
        self._require_positive("Sigma", self.Sigma)
        if self.mu is None or not math.isfinite(self.mu):
            raise ValueError(f"{self.family} needs a finite envelope center mu")
        if self.family == "random_bandlimited" and self.seed is None:
            raise ValueError("random_bandlimited needs a seed")
        if self.seed is not None and not (
                isinstance(self.seed, int) and not isinstance(self.seed, bool)
                and self.seed >= 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")

    @staticmethod
    def _require_positive(name: str, value):
        if value is None or math.isnan(value) or value <= 0.0:
            raise ValueError(f"width {name} must be strictly positive, got {value}")

    @classmethod
    def from_json(cls, doc: dict) -> "KernelFamilySpec":
        known = {"family", "amplitude", "sigma", "gamma", "mu", "Sigma", "seed"}
        extra = set(doc) - known
        if extra:
            raise ValueError(f"unknown kernel spec keys: {sorted(extra)}")
        if "family" not in doc:
            raise ValueError("kernel spec needs a 'family' tag")
        return cls(**doc)

    def to_json(self) -> dict:
        doc = {"family": self.family, "amplitude": self.amplitude}
        for key in ("sigma", "gamma", "mu", "Sigma", "seed"):
            value = getattr(self, key)
            if value is not None:
                doc[key] = value
        return doc


def _warn_on_envelope_leak(grid: FrequencyGrid, spec: KernelFamilySpec) -> None:
    omega_max = grid.omega_max
    if spec.family == "rect_band":
        lo, hi = spec.mu - spec.Sigma, spec.mu + spec.Sigma
        inside = max(0.0, min(hi, omega_max) - max(lo, 0.0))
        leak = 1.0 - inside / (hi - lo)
    else:
        scale = spec.Sigma * math.sqrt(2.0)
        leak = 0.5 * (math.erfc(spec.mu / scale) + math.erfc((omega_max - spec.mu) / scale))
    if leak > ENVELOPE_LEAK_LIMIT:
        warnings.warn(
            f"{spec.family} envelope leaks {leak:.3e} of its mass outside "
            f"[0, {omega_max}]",
            SupportOverflowWarning,
            stacklevel=3,
        )


def _tabulated(n: int, band, envelope, bound, mixed=None, phases_h=None) -> _Tiles:
    """Tiles of K[k, l] = band[k - l + n - 1] * envelope[k + l], times random_bandlimited's mode
    mixture B = mixed @ phases_h / 6 as build_kernel says; exact for a bitwise symmetric band."""
    scratch = None if mixed is None else np.empty((2, _TILE, _TILE), np.complex128)
    nu_factor, s_factor = sliding_window_view(band, n)[:, ::-1], sliding_window_view(envelope, n)

    def make(rows, cols, out=None):
        toeplitz, hankel = nu_factor[rows, cols], s_factor[rows, cols]
        if mixed is None:
            return np.multiply(toeplitz, hankel, out=out)
        # H * toeplitz * hankel, in this order, in the maker's own two buffers
        if cols.start < rows.start:  # a lower tile: its upper mirror's conjugate transpose
            mirror = _mixture_tile(mixed, phases_h, cols, rows, scratch[1])
            tile = np.conjugate(mirror.T, out=scratch[0][:mirror.shape[1], :mirror.shape[0]])
        else:
            tile = _mixture_tile(mixed, phases_h, rows, cols, scratch[0])
        if cols == rows:  # a diagonal tile: its own Hermitian part 0.5 (B + B^H)
            np.add(tile, np.conjugate(tile.T, out=scratch[1][:len(tile), :len(tile)]), out=tile)
            tile *= 0.5
        tile *= toeplitz
        return np.multiply(tile, hankel, out=out)

    return _Tiles(make, np.dtype(np.float64 if mixed is None else np.complex128), bound,
                  np.array_equal(band, band[::-1]))


def _mixture_tile(mixed: np.ndarray, phases_h: np.ndarray, rows: slice,
                  cols: slice, out: np.ndarray) -> np.ndarray:
    """B[rows, cols] for slices of _row_blocks, made in out: the whole product's bits.

    A slab one row or column wide (a last block) is widened by the one before
    and trimmed: numpy would take a matrix-vector product, which rounds differently.
    Its parts times 1 / 6 are numpy's complex / 6 (Smith's rule), bit for bit up to a 0's sign.
    """
    r, c = int(rows.stop - rows.start == 1), int(cols.stop - cols.start == 1)
    left, right = mixed[rows.start - r:rows.stop], phases_h[:, cols.start - c:cols.stop]
    tile = np.matmul(left, right, out=out[:len(left), :right.shape[1]])[r:, c:]
    parts = tile.view(np.float64)  # re, im
    parts *= 1.0 / _RANDOM_MODES
    return tile


def build_kernel(grid: FrequencyGrid, spec: KernelFamilySpec) -> RegularKernel:
    """Sample a closed-form kernel family on the grid.

    gaussian_band is A * exp(-nu^2 / (2 sigma^2)) * exp(-(s - mu)^2 / (2 Sigma^2))
    with nu = omega - omega' and s = (omega + omega')/2; lorentz_band swaps the
    nu factor for gamma^2 / (nu^2 + gamma^2), rect_band for sharp indicator
    windows, and random_bandlimited modulates a seeded Hermitian mode mixture
    by the same envelopes. A SupportOverflowWarning is raised (not an error)
    when the s-envelope leaks more than 1e-6 of its mass outside the window.

    On the midpoint grid nu = h (k - l) and s = h (k + l + 1) / 2 for nodes
    k, l, so each factor is tabulated once on 2n - 1 points. The kernel keeps
    these tables (and random_bandlimited its n x 6 mode factors), no n x n
    array, and makes each tile on demand as a Toeplitz (nu) view times a
    Hankel (s) view of them. The real families are float64;
    random_bandlimited, complex, takes its mode mixture B, one matrix product
    a tile, times both views: B right of the diagonal tiles, mirrored (B^H)
    left of them, and each diagonal tile's own Hermitian part 0.5 (B + B^H).

    The envelope is at most 1, so |K| <= max |band|, times sum |coeff| for
    the mixture; the maker keeps that bound. Only when it is not finite are
    the tiles scanned here, and a sample that is not finite raises ValueError.

    With a bitwise symmetric band table the maker is exact, so the kernel's
    residual is 0.0 unscanned: entries (k, l) and (l, k) are then products of
    the same IEEE factors, a lower tile conjugates its mirror's B, and a
    diagonal tile's Hermitian part is sign-symmetric entry by entry.
    """
    _warn_on_envelope_leak(grid, spec)
    n = grid.n_points
    h = grid.spacing
    # a huge amplitude overflows to inf or nan here; the bound below catches those
    with np.errstate(over="ignore", invalid="ignore"):
        steps = np.arange(2 * n - 1, dtype=np.float64)
        nu = h * (steps - (n - 1))
        s = 0.5 * h * (steps + 1.0)
        envelope = np.exp(-0.5 * ((s - spec.mu) / spec.Sigma) ** 2) \
            if spec.family != "rect_band" else (np.abs(s - spec.mu) <= spec.Sigma)

        if spec.family in ("gaussian_band", "random_bandlimited"):
            band = np.exp(-0.5 * (nu / spec.sigma) ** 2)
        elif spec.family == "lorentz_band":
            band = spec.gamma**2 / (nu**2 + spec.gamma**2)
        elif spec.family == "rect_band":
            band = (np.abs(nu) <= spec.sigma).astype(np.float64)
        else:  # pragma: no cover - rejected at spec construction
            raise UnsupportedFamily(spec.family)
        band *= spec.amplitude
        bound = float(np.max(np.abs(band)))
        modes = ()
        if spec.family == "random_bandlimited":
            rng = np.random.default_rng(spec.seed)
            phases = np.exp(2j * math.pi * np.outer(grid.nodes / grid.omega_max,
                                                    np.arange(_RANDOM_MODES)))
            coeff = rng.standard_normal((_RANDOM_MODES, _RANDOM_MODES)) \
                + 1j * rng.standard_normal((_RANDOM_MODES, _RANDOM_MODES))
            coeff = 0.5 * (coeff + coeff.conj().T)
            modes = (phases @ coeff, phases.conj().T)
            bound *= float(np.sum(np.abs(coeff)))
        kernel = RegularKernel(grid, _tabulated(n, band, envelope, bound, *modes))
        if not math.isfinite(bound):
            for ij in _tiles(n):
                _finite(kernel.tile(*ij))
    return kernel


def quad1(grid: FrequencyGrid, samples) -> complex:
    """Midpoint quadrature of samples over the frequency window."""
    samples = np.asarray(samples)
    if samples.shape != (grid.n_points,):
        raise LengthMismatch(
            f"expected {grid.n_points} samples, got shape {samples.shape}")
    return complex(grid.spacing * np.sum(samples))


def kernel_compose(k1: RegularKernel, k2: RegularKernel) -> RegularKernel:
    """Kernel of the operator product: midpoint integral over the shared leg, of dense copies."""
    grid = _require_same_grid(k1.grid, k2.grid)
    return RegularKernel(grid, grid.spacing * (k1.dense() @ k2.dense()), _adopt=True)


_BIG = 2.0**600  # parts divided by it square to a finite sum in any n x n kernel
_SMALL = 2.0**-960  # a block's plain sum of squares below it may have lost bits to underflow


class _SumOfSquares:
    """sum |K|^2 over blocks of K, each counted times times (2 for a tile and its mirror, exact),
    held as scale^2 * total: scale is 1 until the plain sum overflows, then _BIG, by which each
    block is divided before it is squared; a nonzero block of plain sum below _SMALL is multiplied
    by _BIG instead and summed apart, counted beside a tiny total (Blue, ACM TOMS 4, 1978;
    Anderson, ACM TOMS 44, 2017)."""

    def __init__(self):
        self.total, self.scale, self.small = 0.0, 1.0, 0.0

    def add(self, block: np.ndarray, times: int = 1) -> None:
        parts = np.ascontiguousarray(block).reshape(-1).view(np.float64)  # re, im if complex
        if self.scale == 1.0:
            with np.errstate(over="ignore"):
                squares = float(parts @ parts)
            if squares < _SMALL and (squares or parts.any()):  # tiny, not all zero
                parts = parts * _BIG
                self.small += times * float(parts @ parts)
                return
            total = self.total + times * squares
            if math.isfinite(total):
                self.total = total
                return
            self.total, self.scale = self.total / _BIG / _BIG, _BIG
        parts = parts / _BIG
        self.total += times * float(parts @ parts)

    def norm(self, spacing: float) -> float:
        """spacing * sqrt(sum |K|^2), the Hilbert-Schmidt norm: inf only if it overflows."""
        if self.small and self.scale == 1.0 and self.total < _SMALL * _BIG:  # total * _BIG^2 finite
            return spacing * (math.sqrt(self.total * _BIG * _BIG + self.small) / _BIG)
        return spacing * math.sqrt(self.total) * self.scale


def hs_norm(kernel: RegularKernel) -> float:
    """Hilbert-Schmidt norm sqrt(spacing^2 * sum |K|^2), summed by tiles; 0 iff K = 0. An exact
    kernel (residual 0.0) is read by _upper_tiles, as the tile pass reads D: the same bits."""
    if not kernel.present:
        return 0.0
    squares, n, upper = _SumOfSquares(), kernel.grid.n_points, kernel.hermitian_residual == 0.0
    for rows, cols, times in _upper_tiles(n) if upper else ((*ij, 1) for ij in _tiles(n)):
        squares.add(kernel.tile(rows, cols), times)
    return squares.norm(kernel.grid.spacing)


def _hs_bound(kernel: RegularKernel) -> float:
    """hs_norm(kernel) or more: 2 n spacing max |K| (2 covers rounding), or hs_norm if unbounded."""
    bound = 2.0 * kernel.grid.omega_max * kernel.bound
    return bound if kernel.bound < math.inf else hs_norm(kernel)


def _hermitian_residual(values: np.ndarray) -> float:
    # Each tile on or right of the diagonal against its mirror's conjugate transpose covers
    # every pair once: exactly the dense max |v - v^H|, since |a - conj(b)| == |b - conj(a)|.
    return float(np.max([np.max(np.abs(values[rows, cols] - values[cols, rows].conj().T))
                         for rows, cols, _ in _upper_tiles(values.shape[0])]))


def check_hermitian(kernel: RegularKernel, tol: Optional[float] = None) -> bool:
    """True iff max |K(w, w') - conj(K(w', w))| <= tol; reads the kernel's residual."""
    tol = default_tol() if tol is None else tol
    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    return kernel.hermitian_residual <= tol
