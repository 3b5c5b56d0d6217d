"""Orthocomplemented lattice of closed subspaces of C^d.

Subspaces carry orthonormal bases; lattice identities are realized as
projector comparisons at a configurable tolerance (spectral norm of the
projector difference). The meet is computed from the eigenvalue-2 space of
the summed projectors, the join by re-orthonormalizing stacked bases, and
the complement from the projector null space, so every operation is
deterministic and tolerance-controlled. The closure records which element
each operation result is, and the lattice-level checks read those tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, NotClosed
from .settings import default_tol

RANK_TOL = 1e-10
ORTHONORMAL_TOL = 1e-10
STATE_TOL = 1e-10
DEFAULT_MAX_ELEMENTS = 256


@dataclass(frozen=True, eq=False)
class Subspace:
    """Closed subspace of C^d given by orthonormal basis columns (rank 0 = zero)."""

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        d = self.ambient_dim
        if d < 1:
            raise ValueError(f"ambient dimension must be positive, got {d}")
        basis = np.array(self.basis, dtype=np.complex128, copy=True, order="C")
        if basis.ndim != 2 or basis.shape[0] != d:
            raise DimensionMismatch(
                f"basis must be {d} x r, got shape {basis.shape}")
        r = basis.shape[1]
        if r > d:
            raise ValueError(f"rank {r} exceeds ambient dimension {d}")
        if r > 0:
            gram = basis.conj().T @ basis
            if np.max(np.abs(gram - np.eye(r))) > ORTHONORMAL_TOL:
                raise ValueError("basis columns are not orthonormal to 1e-10")
        basis.setflags(write=False)
        object.__setattr__(self, "basis", basis)

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    @cached_property
    def projector(self) -> np.ndarray:
        proj = self.basis @ self.basis.conj().T
        proj.setflags(write=False)
        return proj

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, np.zeros((ambient_dim, 0), dtype=np.complex128))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, np.eye(ambient_dim, dtype=np.complex128))


def from_vectors(ambient_dim: int, vectors: Sequence) -> Subspace:
    """Orthonormalized span of possibly dependent vectors in C^d."""
    vectors = list(vectors)
    if not vectors:
        return Subspace.zero(ambient_dim)
    mat = np.array(vectors, dtype=np.complex128).T
    if mat.shape[0] != ambient_dim:
        raise DimensionMismatch(
            f"vectors live in dimension {mat.shape[0]}, expected {ambient_dim}")
    if not np.all(np.isfinite(mat)):
        raise ValueError("entries must be finite")
    u, svals, _ = np.linalg.svd(mat, full_matrices=False)
    if svals.size == 0 or svals[0] <= 0.0:
        return Subspace.zero(ambient_dim)
    keep = svals > RANK_TOL * svals[0]
    return Subspace(ambient_dim, u[:, keep])


def _require_same_dim(*spaces) -> int:
    d = spaces[0].ambient_dim
    for s in spaces[1:]:
        if s.ambient_dim != d:
            raise DimensionMismatch(
                f"ambient dimensions differ: {d} vs {s.ambient_dim}")
    return d


def projector_distance(a: Subspace, b: Subspace) -> float:
    """Spectral-norm distance between the projectors of two subspaces."""
    _require_same_dim(a, b)
    return float(np.linalg.norm(a.projector - b.projector, ord=2))


def subspace_equal(a: Subspace, b: Subspace, tol: Optional[float] = None) -> bool:
    return projector_distance(a, b) <= (default_tol() if tol is None else tol)


def leq(a: Subspace, b: Subspace, tol: Optional[float] = None) -> bool:
    """Partial order: every basis vector of a lies in b (within tol)."""
    _require_same_dim(a, b)
    tol = default_tol() if tol is None else tol
    if a.rank == 0:
        return True
    residual = a.basis - b.projector @ a.basis
    return float(np.max(np.abs(residual))) <= tol


def meet(a: Subspace, b: Subspace, tol: Optional[float] = None) -> Subspace:
    """Intersection: eigenvalue-2 space of the summed projectors."""
    d = _require_same_dim(a, b)
    tol = default_tol() if tol is None else tol
    eigvals, eigvecs = np.linalg.eigh(a.projector + b.projector)
    sel = eigvals > 2.0 - tol
    return Subspace(d, eigvecs[:, sel])


def join(a: Subspace, b: Subspace) -> Subspace:
    """Closed span of both subspaces."""
    d = _require_same_dim(a, b)
    stacked = np.hstack([a.basis, b.basis])
    if stacked.shape[1] == 0:
        return Subspace.zero(d)
    u, svals, _ = np.linalg.svd(stacked, full_matrices=False)
    keep = svals > RANK_TOL * svals[0]
    return Subspace(d, u[:, keep])


def ortho(a: Subspace) -> Subspace:
    """Orthogonal complement; rank d - rank(a)."""
    d = a.ambient_dim
    if a.rank == 0:
        return Subspace.full(d)
    if a.rank == d:
        return Subspace.zero(d)
    _, eigvecs = np.linalg.eigh(a.projector)
    return Subspace(d, eigvecs[:, : d - a.rank])


def incompatibility_norm(a: Subspace, b: Subspace) -> float:
    """Spectral norm of the projector commutator; in [0, 1/2], 0 iff commuting."""
    _require_same_dim(a, b)
    comm = a.projector @ b.projector - b.projector @ a.projector
    return float(np.linalg.norm(comm, ord=2))


def is_compatible(a: Subspace, b: Subspace, tol: Optional[float] = None) -> bool:
    """Both decompositions a = (a^b) v (a^b') and b = (b^a) v (b^a') hold."""
    tol = default_tol() if tol is None else tol
    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    left = subspace_equal(a, join(meet(a, b, tol), meet(a, ortho(b), tol)), tol)
    if not left:
        return False
    return subspace_equal(b, join(meet(b, a, tol), meet(b, ortho(a), tol)), tol)


def distributivity_defect(a: Subspace, b: Subspace, c: Subspace,
                          tol: Optional[float] = None) -> tuple[float, float]:
    """Projector distances between both sides of the two distributive equalities.

    Returns (|a^(bvc) - (a^b)v(a^c)|, |av(b^c) - (avb)^(avc)|); both vanish
    exactly when the triple is distributive. The inequality directions
    themselves always hold as inclusions and are checked via leq in tests.
    """
    _require_same_dim(a, b, c)
    first = projector_distance(meet(a, join(b, c), tol),
                               join(meet(a, b, tol), meet(a, c, tol)))
    second = projector_distance(join(a, meet(b, c, tol)),
                                meet(join(a, b), join(a, c), tol))
    return first, second


@dataclass(frozen=True, eq=False)
class PropertyLattice:
    """Finite set of subspaces containing 0 and 1; closed marks fixpoint closure.

    A closed lattice carries its operation tables as element indices:
    meet[i, j] and join[i, j] name the element that e_i ^ e_j and e_i v e_j
    match, and ortho[i] the one that e_i' matches. The law suite, the
    Boolean verdict, the compatibility matrix and the Kolmogorov residuals
    read these tables.
    """

    ambient_dim: int
    elements: tuple
    closed: bool
    meet: Optional[np.ndarray] = None
    join: Optional[np.ndarray] = None
    ortho: Optional[np.ndarray] = None

    def __post_init__(self):
        elements = tuple(self.elements)
        if not elements:
            raise ValueError("lattice needs at least the zero and full subspaces")
        for e in elements:
            if e.ambient_dim != self.ambient_dim:
                raise DimensionMismatch("lattice element in wrong ambient dimension")
        ranks = [e.rank for e in elements]
        if 0 not in ranks or self.ambient_dim not in ranks:
            raise ValueError("lattice must contain the zero and full subspaces")
        object.__setattr__(self, "elements", elements)
        if not self.closed:
            return
        n = len(elements)
        for name, shape in (("meet", (n, n)), ("join", (n, n)), ("ortho", (n,))):
            table = getattr(self, name)
            if table is None or np.shape(table) != shape:
                raise ValueError(
                    f"a closed lattice needs a {name} table of shape {shape}")
            table = np.array(table, dtype=np.intp)
            if np.any((table < 0) | (table >= n)):
                raise ValueError(f"{name} table entries must index elements")
            table.setflags(write=False)
            object.__setattr__(self, name, table)

    def __len__(self) -> int:
        return len(self.elements)

    def index_of(self, s: Subspace, tol: Optional[float] = None) -> Optional[int]:
        """Index of the element matching s within tol, or None."""
        return _first_match(self.elements, s, default_tol() if tol is None else tol)


def _first_match(elements: Sequence[Subspace], s: Subspace, tol: float) -> Optional[int]:
    """Index of the first element within tol of s (projector distance), or None."""
    # spectral <= Frobenius <= sqrt(d) spectral: the SVD only for a Frobenius distance
    # in (tol, tol sqrt(d)], once per element of s's rank
    gap = tol * math.sqrt(s.ambient_dim)
    for i, e in enumerate(elements):
        if e.rank != s.rank:
            continue
        fro = float(np.linalg.norm(e.projector - s.projector))
        if fro <= tol or (fro <= gap and projector_distance(e, s) <= tol):
            return i
    return None


def generate_lattice(seeds: Iterable[Subspace],
                     max_elements: int = DEFAULT_MAX_ELEMENTS,
                     tol: Optional[float] = None,
                     ambient_dim: Optional[int] = None) -> PropertyLattice:
    """Close a generating set under meet, join, and complement.

    Deduplicates at the comparison tolerance and records, for every unordered
    pair it visits (once), the index each result matched or became; a closed
    result carries these as its operation tables. The closure stops at
    max_elements; a capped closure is returned with closed=False rather than
    raised, so the caller can inspect the partial set.
    """
    seeds = list(seeds)
    tol = default_tol() if tol is None else tol
    if max_elements < 2:
        raise ValueError(f"max_elements must be at least 2, got {max_elements}")
    if ambient_dim is None:
        if not seeds:
            raise ValueError("need seeds or an explicit ambient_dim")
        ambient_dim = seeds[0].ambient_dim
    for s in seeds:
        if s.ambient_dim != ambient_dim:
            raise DimensionMismatch("seed in wrong ambient dimension")

    elements: list[Subspace] = [Subspace.zero(ambient_dim), Subspace.full(ambient_dim)]
    # filled as the closure visits pairs; sized by the result, not by max_elements
    meets: dict[tuple[int, int], int] = {}
    joins: dict[tuple[int, int], int] = {}
    orthos: list[int] = []

    def add(candidate: Subspace) -> Optional[int]:
        """Index the candidate matched or became; None past max_elements."""
        k = _first_match(elements, candidate, tol)
        if k is None and len(elements) < max_elements:
            elements.append(candidate)
            k = len(elements) - 1
        return k

    def capped() -> PropertyLattice:
        return PropertyLattice(ambient_dim, tuple(elements), closed=False)

    for s in seeds:
        if add(s) is None:
            return capped()

    processed = 0
    while processed < len(elements):
        batch_end = len(elements)
        for i in range(processed, batch_end):
            o = add(ortho(elements[i]))
            if o is None:
                return capped()
            orthos.append(o)
            # a batch partner j < i was paired with i when j was processed
            for j in (*range(processed), *range(i, batch_end)):
                m = add(meet(elements[i], elements[j], tol))
                v = add(join(elements[i], elements[j]))
                if m is None or v is None:
                    return capped()
                meets[i, j] = meets[j, i] = m
                joins[i, j] = joins[j, i] = v
        processed = batch_end

    idx = range(len(elements))
    return PropertyLattice(
        ambient_dim, tuple(elements), closed=True,
        meet=np.array([[meets[i, j] for j in idx] for i in idx]),
        join=np.array([[joins[i, j] for j in idx] for i in idx]),
        ortho=np.array(orthos))


def _distributive_sides(lat: PropertyLattice):
    """Per element a, the (b, c) tables of (a^b)v(a^c) <= a^(bvc) and av(b^c) <= (avb)^(avc)."""
    m, j = lat.meet, lat.join
    for a in range(len(lat)):
        yield (j[np.ix_(m[a], m[a])], m[a, j]), (j[a, m], m[np.ix_(j[a], j[a])])


def is_boolean(lat: PropertyLattice) -> bool:
    """Every pair compatible and every triple distributive.

    Requires a closed lattice; the check runs on its operation tables, which
    is exact finite algebra for closures produced by generate_lattice.
    """
    if not lat.closed:
        raise NotClosed("is_boolean needs a closed lattice")
    return bool(compatibility_matrix(lat).all()) and all(
        np.array_equal(low, high) for sides in _distributive_sides(lat) for low, high in sides)


@dataclass(frozen=True, eq=False)
class DensityState:
    """Density matrix on C^d: Hermitian, positive semidefinite, unit trace."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=np.complex128, copy=True, order="C")
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionMismatch(f"density matrix must be square, got {mat.shape}")
        # the range guards below are false for NaN, so finiteness comes first
        if not np.all(np.isfinite(mat)):
            raise ValueError("density matrix entries must be finite")
        with np.errstate(over="ignore"):  # an inf residual or trace fails its check
            if np.max(np.abs(mat - mat.conj().T)) > STATE_TOL:
                raise ValueError("density matrix is not Hermitian to 1e-10")
            eigvals = np.linalg.eigvalsh(mat)
            if eigvals.min() < -STATE_TOL:
                raise ValueError("density matrix is not positive semidefinite")
            if abs(np.trace(mat).real - 1.0) > STATE_TOL:
                raise ValueError("density matrix trace must be 1")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def pure(cls, vector) -> "DensityState":
        v = np.asarray(vector, dtype=np.complex128)
        v = v / np.linalg.norm(v)
        return cls(np.outer(v, v.conj()))


def probability(state: DensityState, a: Subspace) -> float:
    """Born probability trace(rho P_a), clamped to [0, 1]."""
    if state.dim != a.ambient_dim:
        raise DimensionMismatch(
            f"state dimension {state.dim} vs subspace dimension {a.ambient_dim}")
    p = float(np.trace(state.matrix @ a.projector).real)
    return min(1.0, max(0.0, p))


@dataclass(frozen=True)
class KolmogorovReport:
    """Additivity residuals |P(avb) + P(a^b) - P(a) - P(b)| over element pairs."""

    max_residual: float
    violations: tuple
    pairs_checked: int


def kolmogorov_check(state: DensityState, lat: PropertyLattice,
                     tol: Optional[float] = None) -> KolmogorovReport:
    """Additivity residual for every element pair; lists pairs above tol.

    P(a v b) and P(a ^ b) are the probabilities of the elements the
    lattice's join and meet tables name.
    """
    if not lat.closed:
        raise NotClosed("kolmogorov_check needs a closed lattice")
    tol = default_tol() if tol is None else tol
    probs = np.array([probability(state, e) for e in lat.elements])
    rows, cols = np.triu_indices(len(lat))
    residuals = np.abs(probs[lat.join[rows, cols]] + probs[lat.meet[rows, cols]]
                       - probs[rows] - probs[cols])
    over = residuals > tol
    violations = zip(rows[over].tolist(), cols[over].tolist(), residuals[over].tolist())
    return KolmogorovReport(float(residuals.max()), tuple(violations), len(residuals))


def check_lattice_laws(lat: PropertyLattice) -> dict:
    """Always-valid law suite on a closed lattice, as a JSON-ready dict.

    Covers the order axioms, GLB/LUB characterizations, the
    orthocomplementation axioms, De Morgan, orthomodularity, and both
    distributive inclusions. Distributive equality failures are lawful for
    non-Boolean lattices and are reported separately via is_boolean.
    """
    if not lat.closed:
        raise NotClosed("law suite needs a closed lattice")
    m, j, o = lat.meet, lat.join, lat.ortho
    n = len(lat)
    idx = np.arange(n)
    zero_idx = next(i for i, e in enumerate(lat.elements) if e.rank == 0)
    full_idx = next(i for i, e in enumerate(lat.elements) if e.rank == lat.ambient_dim)
    # a <= b iff a ^ b = a
    lq = m == idx[:, None]

    laws: dict[str, dict] = {}

    def record(name: str, ok_mask) -> None:
        ok_mask = np.asarray(ok_mask)
        laws[name] = {"pass": bool(ok_mask.all()),
                      "violations": int(ok_mask.size - int(ok_mask.sum()))}

    record("reflexive", lq.diagonal())
    record("antisymmetric", ~(lq & lq.T & ~np.eye(n, dtype=bool)))
    reach = lq.astype(np.int64)
    record("transitive", ~(((reach @ reach) > 0) & ~lq))

    record("meet_is_glb", lq[m, idx[:, None]] & lq[m, idx[None, :]]
           & _bound_maximality(lq, m, lower=True))
    record("join_is_lub", lq[idx[:, None], j] & lq[idx[None, :], j]
           & _bound_maximality(lq, j, lower=False))

    record("involution", o[o] == idx)
    record("order_reversal", ~lq | lq[o][:, o].T)
    record("complement_meet_zero", m[idx, o] == zero_idx)
    record("complement_join_full", j[idx, o] == full_idx)
    record("de_morgan", o[j] == m[o[idx][:, None], o[idx][None, :]])
    record("orthomodular", ~lq | (j[idx[:, None], m[idx[None, :], o[idx][:, None]]]
                                  == idx[None, :]))

    inclusions = np.empty((2, n, n, n), dtype=bool)
    for a, sides in enumerate(_distributive_sides(lat)):
        inclusions[:, a] = [lq[low, high] for low, high in sides]
    record("distributive_inclusion_meet", inclusions[0])
    record("distributive_inclusion_join", inclusions[1])

    laws["all_pass"] = all(v["pass"] for k, v in laws.items() if k != "all_pass")
    return laws


def _bound_maximality(lq: np.ndarray, table: np.ndarray, lower: bool) -> np.ndarray:
    """For each pair (i, j): every common bound c is beaten by table[i, j]."""
    n = lq.shape[0]
    ok = np.ones((n, n), dtype=bool)
    for c in range(n):
        if lower:
            premise = lq[c][:, None] & lq[c][None, :]
            ok &= ~premise | lq[c, table]
        else:
            premise = lq[:, c][:, None] & lq[:, c][None, :]
            ok &= ~premise | lq[table, c]
    return ok


def compatibility_matrix(lat: PropertyLattice) -> np.ndarray:
    """Pairwise is_compatible verdicts of a closed lattice, read from its tables."""
    if not lat.closed:
        raise NotClosed("compatibility matrix needs a closed lattice")
    m, j, o = lat.meet, lat.join, lat.ortho
    idx = np.arange(len(lat))
    # a == (a ^ b) v (a ^ b'), then symmetrically for b
    left = j[m, m[:, o]] == idx[:, None]
    return left & left.T
