"""Executable diagnostics for the quantum-to-Boolean transition.

Unitary Heisenberg evolution preserves operator norms exactly, so the
decay of an incompatibility observable is visible only through
expectation values. This module quantifies that: the norm-versus-angle
sweep for line pairs, the first time a series stays observationally
compatible, the Boolean pointer lattice generated by the phase-free
diagonal sector, and the end-to-end emergence report.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import ClassVar, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .engine import (
    DEFAULT_SUSTAIN,
    DEFAULT_THRESHOLD_RATIO,
    ExpectationSeries,
    decoherence_time,
    incompatibility_observable,
    phased_values,
    series_from_tiles,
)
from .errors import GridMismatch, LatticeTooLarge
from .lattice import (
    DEFAULT_MAX_ELEMENTS,
    distributivity_defect,
    from_vectors,
    incompatibility_norm,
    meet,
    ortho,
)
from .spectral import FrequencyGrid, VanHoveObservable, VanHoveState, _require_same_grid
from .spectral import RegularKernel, _TILE, _tiles, _SumOfSquares, hs_norm

HS_CONSTANCY_TOL = 1e-10
DEGENERACY_RTOL = 1e-10


class Verdict(str, enum.Enum):
    BOOLEANIZED = "BOOLEANIZED"
    NOT_REACHED = "NOT_REACHED"
    DEGENERATE = "DEGENERATE"


@dataclass(frozen=True)
class BinPartition:
    """Disjoint node-index bins covering a frequency grid.

    Edges are fence posts 0 = e_0 < e_1 < ... < e_B = n_points; bin i holds
    node indices [e_i, e_{i+1}).
    """

    grid: FrequencyGrid
    edges: tuple

    def __post_init__(self):
        edges = tuple(int(e) for e in self.edges)
        if len(edges) < 2 or edges[0] != 0 or edges[-1] != self.grid.n_points:
            raise ValueError(
                f"edges must run from 0 to {self.grid.n_points}, got {edges}")
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError(f"edges must be strictly increasing, got {edges}")
        object.__setattr__(self, "edges", edges)

    @property
    def n_bins(self) -> int:
        return len(self.edges) - 1

    @classmethod
    def equal_bins(cls, grid: FrequencyGrid, n_bins: int) -> "BinPartition":
        if not 1 <= n_bins <= grid.n_points:
            raise ValueError(f"n_bins must be in [1, {grid.n_points}], got {n_bins}")
        edges = [round(i * grid.n_points / n_bins) for i in range(n_bins + 1)]
        return cls(grid, tuple(edges))


class AngleSweepRow(NamedTuple):
    theta: float
    incompatibility: float
    meet_rank: int
    first_defect: float


def angle_sweep(thetas: Iterable[float]) -> list[AngleSweepRow]:
    """Incompatibility of the line pair span{e0}, span{cos t e0 + sin t e1}.

    Tabulates the projector-commutator norm (sin t cos t), the rank of the
    exact meet (1 only at t = 0), and the first distributivity defect of the
    triple (a, b, ortho(b)). The norm varies continuously with the angle
    while the meet and the defect jump, which is why the norm is the
    continuous incompatibility diagnostic.
    """
    rows = []
    a = from_vectors(2, [np.array([1.0, 0.0])])
    for theta in thetas:
        if not 0.0 <= theta <= 0.5 * math.pi + 1e-12:
            raise ValueError(f"theta must lie in [0, pi/2], got {theta}")
        b = from_vectors(2, [np.array([math.cos(theta), math.sin(theta)])])
        rows.append(AngleSweepRow(
            theta=float(theta),
            incompatibility=incompatibility_norm(a, b),
            meet_rank=meet(a, b).rank,
            first_defect=distributivity_defect(a, b, ortho(b))[0],
        ))
    return rows


def require_epsilon(epsilon: float) -> None:
    """Raise ValueError unless epsilon is positive and finite."""
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")


def effective_compatibility(series: ExpectationSeries,
                            epsilon: float) -> Optional[float]:
    """First sampled time after which |<D(t)>| stays at or below epsilon."""
    require_epsilon(epsilon)
    mags = np.abs(series.values)
    below = mags <= epsilon
    suffix_ok = np.logical_and.accumulate(below[::-1])[::-1]
    hits = np.flatnonzero(suffix_ok)
    if hits.size == 0:
        return None
    return float(series.times[hits[0]])


@dataclass(frozen=True)
class PointerAlgebra:
    """Power set of the partition bins, the Boolean algebra of their projectors.

    The bin projectors commute (Birkhoff and von Neumann, 1936). Elements
    are the bitmasks 0 .. full = 2**B - 1, bit i for bin i: meet is a & b,
    join is a | b, the orthocomplement is full ^ a, and a <= b is a & ~b == 0.
    """

    partition: BinPartition
    is_boolean: ClassVar[bool] = True

    @property
    def full(self) -> int:
        return (1 << self.partition.n_bins) - 1

    def __len__(self) -> int:
        return self.full + 1


def require_pointer_cap(partition: BinPartition,
                        max_elements: int = DEFAULT_MAX_ELEMENTS) -> None:
    """Raise LatticeTooLarge when the 2**B pointer elements exceed max_elements."""
    if 2**partition.n_bins > max_elements:
        raise LatticeTooLarge(
            f"pointer lattice closure exceeded max_elements={max_elements}")


def pointer_lattice(observables: Sequence[VanHoveObservable],
                    partition: BinPartition,
                    max_elements: int = DEFAULT_MAX_ELEMENTS) -> PointerAlgebra:
    """PointerAlgebra of the partition, on the grid of the observables.

    Raises LatticeTooLarge when its 2**B elements exceed max_elements.
    """
    for obs in observables:
        if obs.grid != partition.grid:
            raise GridMismatch("observable grid differs from the partition grid")
    require_pointer_cap(partition, max_elements)
    return PointerAlgebra(partition)


@dataclass(frozen=True, eq=False)
class EmergenceReport:
    """Outcome of one emergence run.

    The kernel norm of the incompatibility observable is conserved by the
    unitary evolution (checked at construction to 1e-10, relative once the
    norm passes 1, as roundoff in the phases is relative); only the
    expectation series decays, and the verdict is BOOLEANIZED exactly when
    both decay times were reached inside the window and the pointer lattice
    is Boolean. pointer_lattice_boolean is structural: the pointer lattice
    is the power set of the partition bins whatever the dynamics.
    """

    series: ExpectationSeries
    decoherence_time: Optional[float]
    effective_compatibility_time: Optional[float]
    hs_norm_initial: float
    hs_norm_final: float
    pointer_lattice_boolean: bool
    verdict: Verdict

    def __post_init__(self):
        if not (abs(self.hs_norm_initial - self.hs_norm_final)
                <= HS_CONSTANCY_TOL * max(1.0, self.hs_norm_initial)):
            raise ValueError(
                "evolution must conserve the kernel norm: "
                f"{self.hs_norm_initial} vs {self.hs_norm_final}")
        if self.verdict is Verdict.BOOLEANIZED:
            if (self.decoherence_time is None
                    or self.effective_compatibility_time is None
                    or not self.pointer_lattice_boolean):
                raise ValueError(
                    "BOOLEANIZED requires both times reached and a Boolean "
                    "pointer lattice")

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "decoherence_time": self.decoherence_time,
            "effective_compatibility_time": self.effective_compatibility_time,
            "hs_norm_initial": self.hs_norm_initial,
            "hs_norm_final": self.hs_norm_final,
            "pointer_lattice_boolean": self.pointer_lattice_boolean,
            "series": {
                "times": self.series.times.tolist(),
                "re": self.series.values.real.tolist(),
                "im": self.series.values.imag.tolist(),
                "abs": np.abs(self.series.values).tolist(),
                "initial_magnitude": self.series.initial_magnitude,
                "recurrence_time": self.series.recurrence_time,
            },
        }


def _degeneracy_scale(o1: VanHoveObservable, o2: VanHoveObservable, norm) -> float:
    k1, k2 = norm(o1.kernel), norm(o2.kernel)
    d1, d2 = float(np.ptp(o1.diag.values)), float(np.ptp(o2.diag.values))
    return k1 * k2 + d1 * k2 + d2 * k1


def _hs_bound(kernel: RegularKernel) -> float:
    """hs_norm(kernel) or more: 2 n spacing max |K| (2 covers rounding) from a maker's tables."""
    bound = kernel._maker.bound if kernel._maker else None
    return hs_norm(kernel) if bound is None else 2.0 * kernel.grid.omega_max * bound


def run_emergence(rho: VanHoveState,
                  o1: VanHoveObservable,
                  o2: VanHoveObservable,
                  partition: BinPartition,
                  t_max: float,
                  n_samples: int,
                  epsilon: float,
                  threshold_ratio: float = DEFAULT_THRESHOLD_RATIO,
                  sustain: int = DEFAULT_SUSTAIN) -> EmergenceReport:
    """Full pipeline: commutator, decay diagnostics, pointer lattice, verdict.

    Each tile of D (see incompatibility_observable) goes once into the
    series and into hs_norm_initial and hs_norm_final = spacing * ||D(t_max)||.

    DEGENERATE means the premise failed: the observables already commute
    (the incompatibility kernel vanishes relative to the operand scale), so
    there is nothing to decohere.
    """
    # first, so that a partition over the element cap fails before kernel work
    pointer = pointer_lattice([o1, o2], partition)
    grid = _require_same_grid(rho.grid, o1.grid, o2.grid)
    initial, final = _SumOfSquares(), _SumOfSquares()  # |D|^2 at t = 0 and at t_max

    def tallied(d):  # each tile of D made into one buffer, phased there once read
        phases = np.exp(1j * t_max * grid.nodes)
        buf = np.empty((_TILE, _TILE), np.complex128)
        for rows, cols in _tiles(grid.n_points):
            tile = d.tile(rows, cols, buf[:rows.stop - rows.start, :cols.stop - cols.start])
            initial.add(tile)
            yield tile
            final.add(phased_values(tile, phases, rows, cols, out=tile))

    series = series_from_tiles(rho, tallied(incompatibility_observable(o1, o2).kernel),
                               t_max, n_samples)
    hs_initial, hs_final = initial.norm(grid.spacing), final.norm(grid.spacing)
    t_dec = decoherence_time(series, threshold_ratio, sustain)
    t_eff = effective_compatibility(series, epsilon)

    # the exact scale only when the bound does not decide it, so no operand is made again
    if all(hs_initial <= DEGENERACY_RTOL * _degeneracy_scale(o1, o2, norm)
           for norm in (_hs_bound, hs_norm)):
        verdict = Verdict.DEGENERATE
    elif t_dec is not None and t_eff is not None and pointer.is_boolean:
        verdict = Verdict.BOOLEANIZED
    else:
        verdict = Verdict.NOT_REACHED
    return EmergenceReport(
        series=series,
        decoherence_time=t_dec,
        effective_compatibility_time=t_eff,
        hs_norm_initial=hs_initial,
        hs_norm_final=hs_final,
        pointer_lattice_boolean=pointer.is_boolean,
        verdict=verdict,
    )
