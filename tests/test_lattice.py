import itertools
import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from conftest import haar_unitary, line, random_density, random_subspace, traced_peak
from sidlattice import lattice
from sidlattice import (
    DensityState,
    DimensionMismatch,
    LatticeTooLarge,
    PropertyLattice,
    Subspace,
    check_lattice_laws,
    compatibility_matrix,
    distributivity_defect,
    from_vectors,
    generate_lattice,
    incompatibility_norm,
    is_boolean,
    is_compatible,
    join,
    kolmogorov_check,
    leq,
    meet,
    ortho,
    probability,
    projector_distance,
    subspace_equal,
)
from sidlattice.settings import default_tol

E0 = np.array([1.0, 0.0])
E1 = np.array([0.0, 1.0])
DIAG2 = np.array([1.0, 1.0]) / math.sqrt(2.0)


def _row_reduce_rank(vectors, tol=1e-10):
    """Independent rank oracle: Gaussian elimination with partial pivoting."""
    mat = np.array(vectors, dtype=complex)
    rank = 0
    for col in range(mat.shape[1]):
        if rank == mat.shape[0]:
            break
        pivot = rank + np.argmax(np.abs(mat[rank:, col]))
        if abs(mat[pivot, col]) <= tol:
            continue
        mat[[rank, pivot]] = mat[[pivot, rank]]
        mat[rank] /= mat[rank, col]
        for r in range(mat.shape[0]):
            if r != rank:
                mat[r] -= mat[r, col] * mat[rank]
        rank += 1
    return rank


class TestFromVectors:
    def test_single_line(self):
        s = from_vectors(2, [E0])
        assert s.rank == 1
        assert projector_distance(s, line(1.0, 0.0)) < 1e-12

    def test_dependent_vectors_collapse(self):
        s = from_vectors(2, [E0, 2.0 * E0])
        assert s.rank == 1

    def test_rank_matches_row_reduction_oracle(self):
        vectors = [np.array([1.0, 1.0, 0.0]), np.array([0.0, 1.0, 1.0]),
                   np.array([1.0, 0.0, -1.0])]
        s = from_vectors(3, vectors)
        assert s.rank == 2
        assert s.rank == _row_reduce_rank(vectors)
        rng = np.random.default_rng(5)
        for _ in range(25):
            d = int(rng.integers(2, 7))
            m = int(rng.integers(1, d + 2))
            vecs = [rng.standard_normal(d) + 1j * rng.standard_normal(d)
                    for _ in range(m)]
            if rng.random() < 0.5 and m > 1:
                vecs[-1] = vecs[0] * (1.3 - 0.2j)  # force a dependency
            assert from_vectors(d, vecs).rank == _row_reduce_rank(vecs)

    def test_empty_is_zero(self):
        assert from_vectors(3, []).rank == 0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            from_vectors(3, [E0])

    @pytest.mark.parametrize("entry", [math.inf, -math.inf, math.nan])
    def test_non_finite_entry_raises_value_error(self, entry):
        with pytest.raises(ValueError, match="^entries must be finite$"):
            from_vectors(2, [[entry, 1.0]])


class TestOrder:
    def test_reflexive(self):
        s = line(1.0, 2.0, 0.5)
        assert leq(s, s)

    def test_zero_is_least(self):
        rng = np.random.default_rng(7)
        for d in (2, 3, 5):
            assert leq(Subspace.zero(d), random_subspace(rng, d))

    def test_containment(self):
        plane = from_vectors(2, [E0, E1])
        assert leq(line(1.0, 0.0), plane)
        assert not leq(from_vectors(2, [E0 + E1]), line(1.0, 0.0))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            leq(line(1.0, 0.0), line(1.0, 0.0, 0.0))


class TestMeetJoinOrtho:
    def test_meet_idempotent(self):
        s = from_vectors(3, [np.array([1.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0])])
        assert subspace_equal(meet(s, s), s, 1e-10)

    def test_distinct_lines_meet_zero(self):
        assert meet(line(1.0, 0.0), from_vectors(2, [DIAG2])).rank == 0

    def test_shared_axis(self):
        a = from_vectors(3, [np.eye(3)[0], np.eye(3)[1]])
        b = from_vectors(3, [np.eye(3)[1], np.eye(3)[2]])
        assert subspace_equal(meet(a, b), line(0.0, 1.0, 0.0), 1e-10)

    def test_join_with_zero(self):
        a = line(1.0, 2.0)
        assert subspace_equal(join(a, Subspace.zero(2)), a, 1e-12)

    def test_join_orthogonal_lines(self):
        assert subspace_equal(join(line(1.0, 0.0), line(0.0, 1.0)),
                              Subspace.full(2), 1e-12)

    def test_join_two_distinct_lines_spans_plane(self):
        assert join(line(1.0, 0.0), from_vectors(2, [DIAG2])).rank == 2

    def test_ortho_examples(self):
        assert ortho(Subspace.zero(3)).rank == 3
        assert subspace_equal(ortho(line(1.0, 0.0, 0.0)),
                              from_vectors(3, [np.eye(3)[1], np.eye(3)[2]]), 1e-12)

    def test_ortho_involution_random(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            d = int(rng.integers(2, 9))
            s = random_subspace(rng, d)
            assert projector_distance(ortho(ortho(s)), s) < 1e-10


class TestIncompatibility:
    def test_orthogonal_lines_commute(self):
        assert incompatibility_norm(line(1.0, 0.0), line(0.0, 1.0)) < 1e-14

    def test_equal_subspaces_commute(self):
        s = from_vectors(2, [DIAG2])
        assert incompatibility_norm(s, s) < 1e-14

    def test_angle_formula(self):
        for theta in (0.3, math.pi / 4, 1.2):
            b = from_vectors(2, [np.array([math.cos(theta), math.sin(theta)])])
            got = incompatibility_norm(line(1.0, 0.0), b)
            assert got == pytest.approx(math.sin(theta) * math.cos(theta), abs=1e-12)

    def test_range_bound(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            d = int(rng.integers(2, 7))
            norm = incompatibility_norm(random_subspace(rng, d),
                                        random_subspace(rng, d))
            assert -1e-12 <= norm <= 0.5 + 1e-12


class TestCompatibility:
    def test_comparable_elements_compatible(self):
        a = line(1.0, 0.0, 0.0)
        b = from_vectors(3, [np.eye(3)[0], np.eye(3)[1]])
        assert is_compatible(a, b, 1e-8)

    def test_tilted_lines_incompatible(self):
        assert not is_compatible(line(1.0, 0.0), from_vectors(2, [DIAG2]), 1e-8)

    def test_complement_compatible(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            d = int(rng.integers(2, 7))
            s = random_subspace(rng, d)
            assert is_compatible(s, ortho(s), 1e-8)

    def test_matches_commutation_criterion(self):
        rng = np.random.default_rng(19)
        d = 5
        for _ in range(40):
            u = haar_unitary(rng, d)
            cols_a = rng.random(d) < 0.5
            cols_b = rng.random(d) < 0.5
            a = Subspace(d, u[:, cols_a])
            b = Subspace(d, u[:, cols_b])
            assert incompatibility_norm(a, b) <= 1e-8
            assert is_compatible(a, b, 1e-8)
        for _ in range(40):
            a = random_subspace(rng, d, rank=int(rng.integers(1, d)))
            b = random_subspace(rng, d, rank=int(rng.integers(1, d)))
            if incompatibility_norm(a, b) > 1e-3:
                assert not is_compatible(a, b, 1e-8)


class TestDistributivity:
    def test_commuting_diagonal_triple(self):
        eye = np.eye(4)
        a = from_vectors(4, [eye[0], eye[1]])
        b = from_vectors(4, [eye[1], eye[2]])
        c = from_vectors(4, [eye[2], eye[3]])
        assert distributivity_defect(a, b, c) == pytest.approx((0.0, 0.0), abs=1e-10)

    def test_line_geometry_forces_defect(self):
        a, b = line(1.0, 0.0), line(0.0, 1.0)
        c = from_vectors(2, [DIAG2])
        first, _ = distributivity_defect(a, b, c)
        assert first == pytest.approx(1.0, abs=1e-12)

    def test_shared_eigenbasis_matches_subset_algebra(self):
        rng = np.random.default_rng(23)
        d = 6
        u = haar_unitary(rng, d)
        for _ in range(20):
            sets = [frozenset(np.flatnonzero(rng.random(d) < 0.5))
                    for _ in range(3)]
            a, b, c = (Subspace(d, u[:, sorted(s)]) for s in sets)
            assert distributivity_defect(a, b, c) == pytest.approx(
                (0.0, 0.0), abs=1e-10)
            # subset-algebra oracle: meet/join are set intersection/union
            sa, sb = sets[0], sets[1]
            inter = Subspace(d, u[:, sorted(sa & sb)])
            union = Subspace(d, u[:, sorted(sa | sb)])
            assert projector_distance(meet(a, b), inter) < 1e-8
            assert projector_distance(join(a, b), union) < 1e-8

    def test_inclusions_always_hold(self):
        rng = np.random.default_rng(29)
        for _ in range(60):
            d = int(rng.integers(2, 6))
            a, b, c = (random_subspace(rng, d) for _ in range(3))
            lhs = join(meet(a, b), meet(a, c))
            rhs = meet(a, join(b, c))
            assert leq(lhs, rhs, 1e-8)
            assert leq(join(a, meet(b, c)), meet(join(a, b), join(a, c)), 1e-8)


class TestGenerateLattice:
    def test_two_tilted_lines_close_to_six(self):
        a = line(1.0, 0.0)
        b = from_vectors(2, [DIAG2])
        lat = generate_lattice([a, b])
        assert len(lat) == 6
        expected = [Subspace.zero(2), Subspace.full(2), a, b, ortho(a), ortho(b)]
        for want in expected:
            assert lat.index_of(want) is not None

    def test_three_atoms_boolean_algebra(self):
        eye = np.eye(3)
        lat = generate_lattice([line(*eye[i]) for i in range(3)])
        assert len(lat) == 8
        # subset-algebra oracle: every subset of atoms appears
        for subset in itertools.chain.from_iterable(
                itertools.combinations(range(3), k) for k in range(4)):
            want = from_vectors(3, [eye[i] for i in subset])
            assert lat.index_of(want) is not None

    def test_empty_seeds(self):
        lat = generate_lattice([], ambient_dim=2)
        assert len(lat) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_lattice([], ambient_dim=2, max_elements=1)
        with pytest.raises(ValueError):
            generate_lattice([])
        with pytest.raises(DimensionMismatch):
            generate_lattice([line(1.0, 0.0), line(1.0, 0.0, 0.0)])

    def test_lattice_needs_tables(self):
        ends = (Subspace.zero(2), Subspace.full(2))
        square, row = np.zeros((2, 2), dtype=int), np.array([1, 0])
        with pytest.raises(ValueError):
            PropertyLattice(2, ends, meet=square, join=square, ortho=None)
        with pytest.raises(ValueError):
            PropertyLattice(2, ends, meet=square[:1], join=square, ortho=row)
        with pytest.raises(ValueError):
            PropertyLattice(2, ends, meet=square, join=square, ortho=square)
        with pytest.raises(ValueError):
            PropertyLattice(2, ends, meet=square, join=square, ortho=np.array([2, 0]))
        lat = PropertyLattice(2, ends, meet=np.array([[0, 0], [0, 1]]),
                              join=np.array([[0, 1], [1, 1]]), ortho=row)
        assert check_lattice_laws(lat)["all_pass"] and is_boolean(lat)


@st.composite
def generating_sets(draw):
    """1-3 lines or planes in C^d, d = 2-4: spans of columns of one unitary
    (commuting seeds) mixed with Haar-random ones."""
    d = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    basis = haar_unitary(rng, d)
    seeds = []
    for _ in range(draw(st.integers(1, 3))):
        rank = draw(st.integers(1, min(2, d - 1)))
        if draw(st.booleans()):
            cols = draw(st.lists(st.integers(0, d - 1), min_size=rank,
                                 max_size=rank, unique=True))
            seeds.append(Subspace(d, basis[:, cols]))
        else:
            seeds.append(random_subspace(rng, d, rank=rank))
    return seeds


class TestOperationTables:
    @settings(max_examples=40, deadline=None)
    @given(seeds=generating_sets())
    def test_tables_match_fresh_operations(self, seeds):
        try:
            lat = generate_lattice(seeds, max_elements=32)
        except LatticeTooLarge:
            reject()
        tol = default_tol()
        for i, a in enumerate(lat.elements):
            assert lat.ortho[i] == lat.index_of(ortho(a))
            for j, b in enumerate(lat.elements):
                assert lat.meet[i, j] == lat.index_of(meet(a, b))
                assert lat.join[i, j] == lat.index_of(join(a, b))
                assert leq(a, b, tol) == (lat.meet[i, j] == i)

    @settings(max_examples=40, deadline=None)
    @given(seeds=generating_sets(), data=st.data())
    def test_cap_raises_iff_below_the_closure_size(self, seeds, data):
        try:
            full = generate_lattice(seeds, max_elements=32)
        except LatticeTooLarge:
            reject()
        size = len(full)
        for k in (size - 1, size, data.draw(st.integers(2, 2 * size), label="k")):
            if k < size:
                with pytest.raises(LatticeTooLarge,
                                   match=f"^closure exceeded max_elements={k}$"):
                    generate_lattice(seeds, max_elements=k)
                continue
            lat = generate_lattice(seeds, max_elements=k)
            assert len(lat) == size
            assert all(np.array_equal(a.basis, b.basis)
                       for a, b in zip(lat.elements, full.elements))
            for name in ("meet", "join", "ortho"):
                assert np.array_equal(getattr(lat, name), getattr(full, name))


def _embed(spaces, v):
    """Images of subspaces of C^d under an isometry v of C^d into C^(d+m)."""
    return [Subspace(v.shape[0], v @ s.basis) for s in spaces]


class TestIsometricEmbedding:
    """Seeds carried into C^(d+m) by an isometry close to the original lattice when
    they span less than C^d, and to it times {0, (image of C^d)^perp} when they span C^d."""

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("case", ["two_tilted_lines", "three_atoms", "line_and_plane"])
    def test_seeds_spanning_c_d_double_the_closure(self, case, m):
        rng = np.random.default_rng(53)
        seeds, size = {
            "two_tilted_lines": ([line(1.0, 0.0), from_vectors(2, [DIAG2])], 6),
            "three_atoms": ([line(*row) for row in np.eye(3)], 8),
            "line_and_plane": ([random_subspace(rng, 3, rank=1),
                                random_subspace(rng, 3, rank=2)], 12),
        }[case]
        d = seeds[0].ambient_dim
        v = haar_unitary(rng, d + m)[:, :d]
        lat, big = generate_lattice(seeds), generate_lattice(_embed(seeds, v))
        assert len(lat) == size and len(big) == 2 * size
        pi = [big.index_of(x) for x in _embed(lat.elements, v)]
        assert None not in pi and len(set(pi)) == size
        pi = np.array(pi)
        assert np.array_equal(big.meet[np.ix_(pi, pi)], pi[lat.meet])
        assert np.array_equal(big.join[np.ix_(pi, pi)], pi[lat.join])
        # the complement in C^(d+m), cut back to the image of C^d (element pi[1]),
        # is the image of the complement in C^d
        assert np.array_equal(big.meet[big.ortho[pi], pi[1]], pi[lat.ortho])

    @pytest.mark.parametrize("m", [1, 3])
    def test_seeds_short_of_c_d_keep_their_tables(self, m):
        # two tilted lines span a plane of C^3: the closure is the same in C^(3+m)
        seeds = [line(1.0, 0.0, 0.0), from_vectors(3, [[1.0, 1.0, 0.0]])]
        v = haar_unitary(np.random.default_rng(59), 3 + m)[:, :3]
        lat, big = generate_lattice(seeds), generate_lattice(_embed(seeds, v))
        assert len(lat) == len(big) == 12
        for name in ("meet", "join", "ortho"):
            assert np.array_equal(getattr(big, name), getattr(lat, name))


class TestIsBoolean:
    def test_trivial_lattice(self):
        assert is_boolean(generate_lattice([], ambient_dim=2))

    def test_two_line_lattice_not_boolean(self):
        lat = generate_lattice([line(1.0, 0.0), from_vectors(2, [DIAG2])])
        assert not is_boolean(lat)

    def test_atom_lattice_boolean(self):
        eye = np.eye(3)
        lat = generate_lattice([line(*eye[i]) for i in range(3)])
        assert is_boolean(lat)

    def test_agrees_with_direct_defects(self):
        eye = np.eye(3)
        lat = generate_lattice([line(*eye[i]) for i in range(3)])
        worst = max(max(distributivity_defect(a, b, c))
                    for a in lat.elements for b in lat.elements
                    for c in lat.elements)
        assert worst < 1e-10
        two = generate_lattice([line(1.0, 0.0), from_vectors(2, [DIAG2])])
        worst_two = max(max(distributivity_defect(a, b, c))
                        for a in two.elements for b in two.elements
                        for c in two.elements)
        assert worst_two > 0.5


class TestProbability:
    def test_diagonal_state(self):
        rho = DensityState(np.diag([0.3, 0.7]).astype(complex))
        assert probability(rho, line(1.0, 0.0)) == pytest.approx(0.3, abs=1e-14)

    def test_full_space(self):
        rho = DensityState(np.diag([0.3, 0.7]).astype(complex))
        assert probability(rho, Subspace.full(2)) == pytest.approx(1.0, abs=1e-14)

    def test_superposition_line(self):
        rho = DensityState(np.diag([0.3, 0.7]).astype(complex))
        assert probability(rho, from_vectors(2, [DIAG2])) == pytest.approx(0.5, abs=1e-14)

    def test_monotone_and_orthogonally_additive(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            d = int(rng.integers(2, 7))
            rho = random_density(rng, d)
            a = random_subspace(rng, d)
            b = random_subspace(rng, d)
            big = join(a, b)
            assert probability(rho, a) <= probability(rho, big) + 1e-10
            sub = meet(a, ortho(b), 1e-8)  # sub is orthogonal to b
            assert abs(probability(rho, join(sub, b))
                       - probability(rho, sub) - probability(rho, b)) < 1e-10

    def test_dimension_mismatch(self):
        rho = DensityState(np.diag([0.3, 0.7]).astype(complex))
        with pytest.raises(DimensionMismatch):
            probability(rho, line(1.0, 0.0, 0.0))


class TestDensityState:
    def test_validation(self):
        with pytest.raises(ValueError):
            DensityState(np.diag([0.5, 0.6]).astype(complex))
        with pytest.raises(ValueError):
            DensityState(np.array([[1.2, 0.0], [0.0, -0.2]], dtype=complex))
        bad = np.zeros((2, 2), dtype=complex)
        bad[0, 1] = 1.0
        bad[0, 0] = 1.0
        with pytest.raises(ValueError):
            DensityState(bad)

    @pytest.mark.parametrize("imag", [1e308, -1e308])
    def test_overflowing_hermitian_residual_fails_without_a_runtime_warning(self, imag):
        mat = np.diag([0.5, 0.5]).astype(complex)
        mat[0, 0] += 1j * imag  # the residual 2 * 1e308 overflows to inf
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="not Hermitian"):
                DensityState(mat)

    def test_pure(self):
        rho = DensityState.pure([3.0, 4.0])
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-14)


class TestKolmogorov:
    def test_boolean_lattice_additive(self):
        eye = np.eye(3)
        lat = generate_lattice([line(*eye[i]) for i in range(3)])
        rng = np.random.default_rng(41)
        for _ in range(20):
            rep = kolmogorov_check(random_density(rng, 3), lat)
            assert rep.max_residual <= 1e-10
            assert not rep.violations

    def test_two_line_residual(self):
        a = line(1.0, 0.0)
        b = from_vectors(2, [DIAG2])
        lat = generate_lattice([a, b])
        rep = kolmogorov_check(DensityState.pure([1.0, 0.0]), lat)
        assert rep.max_residual == pytest.approx(0.5, abs=1e-10)
        ia, ib = lat.index_of(a), lat.index_of(b)
        assert any({i, j} == {ia, ib} and r == pytest.approx(0.5, abs=1e-10)
                   for i, j, r in rep.violations)

    def test_trivial_lattice(self):
        lat = generate_lattice([], ambient_dim=2)
        rep = kolmogorov_check(DensityState.pure([1.0, 0.0]), lat)
        assert rep.max_residual <= 1e-12

    @pytest.mark.parametrize("case", ["atoms", "two_lines", "mo2_bool_bool"])
    def test_tables_match_fresh_operations(self, case):
        rng = np.random.default_rng(47)
        if case == "atoms":
            eye = np.eye(3)
            lat = generate_lattice([line(*eye[i]) for i in range(3)])
            states = [random_density(rng, 3) for _ in range(5)]
        elif case == "two_lines":
            lat = generate_lattice([line(1.0, 0.0), from_vectors(2, [DIAG2])])
            states = [DensityState.pure([1.0, 0.0]), random_density(rng, 2)]
        else:
            # blocks on coordinates (0, 1), (2, 3), (4, 5): two tilted lines
            # (MO2) and two Boolean pairs, hidden by a Haar rotation
            eye, u = np.eye(6), haar_unitary(rng, 6)
            lines = [eye[0], math.cos(0.7) * eye[0] + math.sin(0.7) * eye[1]]
            lines += [eye[k] for k in range(2, 6)]
            lat = generate_lattice([from_vectors(6, [u @ v]) for v in lines])
            assert len(lat) == 96
            states = [random_density(rng, 6)]
        tol = default_tol()
        for state in states:
            rep = kolmogorov_check(state, lat)
            probs = [probability(state, e) for e in lat.elements]
            fresh = {
                (i, j): abs(probability(state, join(a, b))
                            + probability(state, meet(a, b, tol)) - probs[i] - probs[j])
                for i, a in enumerate(lat.elements)
                for j, b in enumerate(lat.elements) if i <= j}
            assert rep.pairs_checked == len(fresh)
            assert bool(rep.violations) == (case != "atoms")
            assert rep.max_residual == pytest.approx(max(fresh.values()), abs=1e-12)
            assert [(i, j) for i, j, _ in rep.violations] == [
                pair for pair, r in fresh.items() if r > tol]
            for i, j, r in rep.violations:
                assert r == pytest.approx(fresh[i, j], abs=1e-12)


class TestLawSuite:
    def test_passes_on_example_lattices(self):
        eye = np.eye(3)
        for lat in (generate_lattice([line(*eye[i]) for i in range(3)]),
                    generate_lattice([line(1.0, 0.0), from_vectors(2, [DIAG2])])):
            laws = check_lattice_laws(lat)
            assert laws["all_pass"]
            for name, entry in laws.items():
                if name != "all_pass":
                    assert entry["pass"], name

    def test_compatibility_matrix_shape(self):
        lat = generate_lattice([line(1.0, 0.0), from_vectors(2, [DIAG2])])
        mat = compatibility_matrix(lat)
        assert mat.shape == (6, 6)
        assert mat[0].all()  # zero subspace is compatible with everything
        ia = lat.index_of(line(1.0, 0.0))
        ib = lat.index_of(from_vectors(2, [DIAG2]))
        assert not mat[ia, ib]


def _tables(n):
    return {"meet": np.zeros((n, n), int), "join": np.zeros((n, n), int), "ortho": np.zeros(n, int)}


@pytest.mark.parametrize("call,error,message", [
    (lambda: Subspace(0, np.zeros((0, 0))), ValueError, "ambient dimension must be positive"),
    (lambda: Subspace(2, np.zeros(2)), DimensionMismatch, r"basis must be 2 x r, got shape \(2,\)"),
    (lambda: Subspace(1, np.ones((1, 2))), ValueError, "rank 2 exceeds ambient dimension 1"),
    (lambda: Subspace(2, np.ones((2, 1))), ValueError, "not orthonormal"),
    (lambda: is_compatible(line(1.0, 0.0), line(0.0, 1.0), tol=0.0), ValueError,
     "tolerance must be positive"),
    (lambda: PropertyLattice(2, (), **_tables(0)), ValueError, "must contain the zero and full"),
    (lambda: PropertyLattice(2, (Subspace.zero(3),), **_tables(1)), DimensionMismatch,
     "wrong ambient dimension"),
    (lambda: PropertyLattice(2, (Subspace.zero(2),), **_tables(1)), ValueError,
     "must contain the zero and full"),
    (lambda: DensityState(np.zeros(3)), DimensionMismatch, "density matrix must be square"),
], ids=["dim-0", "basis-not-2-d", "rank-past-dim", "not-orthonormal", "zero-tolerance",
        "no-elements", "element-in-wrong-dim", "no-full-element", "state-not-square"])
def test_lattice_guard_raises_its_error(call, error, message):
    with pytest.raises(error, match=message):
        call()


def _reference_laws(lat):
    """The law suite as formulated with the whole (2, N, N, N) array of distributive inclusions
    and a GLB/LUB maximality pass per bound: the N^3-memory reference for check_lattice_laws."""
    m, j, o = lat.meet, lat.join, lat.ortho
    n = len(lat)
    idx = np.arange(n)
    zero_idx = next(i for i, e in enumerate(lat.elements) if e.rank == 0)
    full_idx = next(i for i, e in enumerate(lat.elements) if e.rank == lat.ambient_dim)
    lq = m == idx[:, None]
    laws = {}

    def record(name, ok_mask):
        ok_mask = np.asarray(ok_mask)
        laws[name] = {"pass": bool(ok_mask.all()),
                      "violations": int(ok_mask.size - int(ok_mask.sum()))}

    def bound_maximality(table, lower):
        ok = np.ones((n, n), dtype=bool)
        for c in range(n):
            if lower:
                ok &= ~(lq[c][:, None] & lq[c][None, :]) | lq[c, table]
            else:
                ok &= ~(lq[:, c][:, None] & lq[:, c][None, :]) | lq[table, c]
        return ok

    record("reflexive", lq.diagonal())
    record("antisymmetric", ~(lq & lq.T & ~np.eye(n, dtype=bool)))
    reach = lq.astype(np.int64)
    record("transitive", ~(((reach @ reach) > 0) & ~lq))
    record("meet_is_glb", lq[m, idx[:, None]] & lq[m, idx[None, :]]
           & bound_maximality(m, lower=True))
    record("join_is_lub", lq[idx[:, None], j] & lq[idx[None, :], j]
           & bound_maximality(j, lower=False))
    record("involution", o[o] == idx)
    record("order_reversal", ~lq | lq[o][:, o].T)
    record("complement_meet_zero", m[idx, o] == zero_idx)
    record("complement_join_full", j[idx, o] == full_idx)
    record("de_morgan", o[j] == m[o[idx][:, None], o[idx][None, :]])
    record("orthomodular", ~lq | (j[idx[:, None], m[idx[None, :], o[idx][:, None]]]
                                  == idx[None, :]))
    inclusions = np.empty((2, n, n, n), dtype=bool)
    for a in range(n):  # [a, b, c]: (a^b)v(a^c) <= a^(bvc), av(b^c) <= (avb)^(avc)
        inclusions[0, a] = lq[j[np.ix_(m[a], m[a])], m[a, j]]
        inclusions[1, a] = lq[j[a, m], m[np.ix_(j[a], j[a])]]
    record("distributive_inclusion_meet", inclusions[0])
    record("distributive_inclusion_join", inclusions[1])
    laws["all_pass"] = all(v["pass"] for k, v in laws.items() if k != "all_pass")
    return laws


def _table_lattice(meet_table, join_table, ortho_table, full_idx):
    """A PropertyLattice over C^1 holding the given tables: element 0 is the zero subspace,
    full_idx the first full one, and only the tables carry structure."""
    n = len(ortho_table)
    elements = [Subspace.full(1) if i == full_idx else Subspace.zero(1) for i in range(n)]
    return PropertyLattice(1, elements, meet=meet_table, join=join_table, ortho=ortho_table)


@st.composite
def law_tables(draw):
    """Tables of a Boolean algebra of bitmasks (2-8 elements) with 0-3 entries rewritten, or
    drawn at random (2-7 elements): lattices, near-lattices and tables that are no lattice."""
    if draw(st.booleans()):
        bits = draw(st.integers(1, 3))
        full = 2**bits - 1
        masks = np.arange(full + 1)
        tables = [masks[:, None] & masks, masks[:, None] | masks, full ^ masks]
        for _ in range(draw(st.integers(0, 3))):
            table = tables[draw(st.integers(0, 2))]
            at = tuple(draw(st.integers(0, full)) for _ in range(table.ndim))
            table[at] = draw(st.integers(0, full))
        return _table_lattice(*tables, full_idx=full)
    n = draw(st.integers(2, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    meet_table, join_table = rng.integers(0, n, (2, n, n))
    return _table_lattice(meet_table, join_table, rng.integers(0, n, n), full_idx=1)


class TestLawSuiteReference:
    @settings(max_examples=300, deadline=None)
    @given(lat=law_tables())
    def test_one_sweep_equals_the_cubic_reference(self, lat):
        laws, reference = check_lattice_laws(lat), _reference_laws(lat)
        assert laws == reference
        # keys in order (the failing-law list), and JSON types: Python bools and ints
        assert json.dumps(laws) == json.dumps(reference)

    def test_reference_on_closures(self):
        eye = np.eye(3)
        for lat in (generate_lattice([line(*eye[i]) for i in range(3)]),
                    generate_lattice([line(1.0, 0.0), from_vectors(2, [DIAG2])])):
            assert json.dumps(check_lattice_laws(lat)) == json.dumps(_reference_laws(lat))

    def test_memory_is_quadratic_in_the_elements(self):
        """At N = 200 the whole inclusion array alone was 16 MB (18.2 MiB traced)."""
        rng = np.random.default_rng(5)
        lat = _table_lattice(rng.integers(0, 200, (200, 200)), rng.integers(0, 200, (200, 200)),
                             rng.integers(0, 200, 200), full_idx=1)
        laws, peak, _ = traced_peak(lambda: check_lattice_laws(lat))
        assert not laws["all_pass"]
        assert peak < 8 * 2**20


def _ix_distributive(lat):
    """Every triple distributive, by the per-element np.ix_ tables: for each a, both sides of
    (a^b)v(a^c) = a^(bvc) and av(b^c) = (avb)^(avc) as (b, c) tables."""
    m, j = lat.meet, lat.join
    return all(np.array_equal(j[np.ix_(m[a], m[a])], m[a, j])
               and np.array_equal(j[a, m], m[np.ix_(j[a], j[a])]) for a in range(len(lat)))


BLOCKS = {"mo2": (2, 6), "bool2": (2, 4), "bool3": (3, 8)}  # block -> (dimension, elements)


@st.composite
def block_lattices(draw):
    """(closure, blocks) of one or two orthogonal blocks, turned by a Haar unitary and with
    its elements in a drawn order: an "mo2" block is two lines at a drawn angle in C^2, the
    non-Boolean MO2; "bool2" and "bool3" are the axes of C^2 and C^3, Boolean."""
    blocks = draw(st.lists(st.sampled_from(sorted(BLOCKS)), min_size=1, max_size=2).filter(
        lambda b: math.prod(BLOCKS[k][1] for k in b) <= 36))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = sum(BLOCKS[k][0] for k in blocks)
    eye, lines, start = np.eye(d), [], 0
    for kind in blocks:
        axes = eye[start:start + BLOCKS[kind][0]]
        start += len(axes)
        theta = rng.uniform(0.2, 1.3)
        lines += [axes[0], math.cos(theta) * axes[0] + math.sin(theta) * axes[1]] \
            if kind == "mo2" else list(axes)
    u = haar_unitary(rng, d)
    lat = generate_lattice([from_vectors(d, [u @ v]) for v in lines], ambient_dim=d)
    assert len(lat) == math.prod(BLOCKS[k][1] for k in blocks)
    p = rng.permutation(len(lat))  # element i moves to p[i]
    meet_table, join_table, ortho_table = map(np.empty_like, (lat.meet, lat.join, lat.ortho))
    meet_table[np.ix_(p, p)], join_table[np.ix_(p, p)], ortho_table[p] = \
        p[lat.meet], p[lat.join], p[lat.ortho]
    elements = [lat.elements[i] for i in np.argsort(p)]
    return PropertyLattice(d, elements, meet=meet_table, join=join_table,
                           ortho=ortho_table), blocks


class TestIsBooleanReference:
    @settings(max_examples=30, deadline=None)
    @given(case=block_lattices())
    def test_flat_sweep_equals_the_ix_form_on_closures(self, case):
        """An MO2 block has incompatible pairs, which decide alone; with every pair taken as
        compatible the distributive sweep decides, and fails exactly with an MO2 block."""
        lat, blocks = case
        assert check_lattice_laws(lat)["all_pass"]
        reference = bool(compatibility_matrix(lat).all()) and _ix_distributive(lat)
        assert is_boolean(lat) == reference == ("mo2" not in blocks)
        with mock.patch.object(lattice, "compatibility_matrix",
                               lambda lat: np.ones(1, dtype=bool)):
            assert is_boolean(lat) == _ix_distributive(lat) == ("mo2" not in blocks)

    @settings(max_examples=300, deadline=None)
    @given(lat=law_tables())
    def test_flat_sweep_equals_the_ix_form_on_any_tables(self, lat):
        reference = bool(compatibility_matrix(lat).all()) and _ix_distributive(lat)
        assert is_boolean(lat) == reference


class TestRandomAxioms:
    def test_axiom_sweep(self):
        rng = np.random.default_rng(43)
        tol = 1e-8
        for d in range(2, 6):
            for _ in range(50):
                a = random_subspace(rng, d)
                b = random_subspace(rng, d)
                shared = random_subspace(rng, d, rank=int(rng.integers(0, d)))
                above = join(a, shared)
                # order reversal and orthomodularity on a comparable pair
                assert leq(a, above, tol)
                assert leq(ortho(above), ortho(a), tol)
                recon = join(a, meet(above, ortho(a), tol))
                assert projector_distance(recon, above) < tol
                # complement laws
                assert meet(a, ortho(a), tol).rank == 0
                assert join(a, ortho(a)).rank == d
                # De Morgan
                assert projector_distance(
                    ortho(join(a, b)), meet(ortho(a), ortho(b), tol)) < tol
                # GLB bounds
                m = meet(a, b, tol)
                assert leq(m, a, tol) and leq(m, b, tol)
                j = join(a, b)
                assert leq(a, j, tol) and leq(b, j, tol)


def _rotated_planes(d, r, angles):
    """Rank-r span of e_0 ... e_{r-1}, each e_k turned by angles[k] toward e_{r+k}."""
    basis = np.zeros((d, r), dtype=complex)
    for k in range(r):
        basis[k, k], basis[r + k, k] = math.cos(angles[k]), math.sin(angles[k])
    return Subspace(d, basis)


class TestFirstMatch:
    """One Frobenius distance per same-rank element; the SVD only in (tol, tol sqrt(d)]."""

    TOL = 1e-8

    def _match(self, monkeypatch, angles):
        d = 4
        lat = generate_lattice([_rotated_planes(d, 2, [0.0, 0.0])])  # 0, 1, base, base'
        calls = []
        spectral = lattice.projector_distance
        monkeypatch.setattr(lattice, "projector_distance",
                            lambda a, b: calls.append(1) or spectral(a, b))
        return lat.index_of(_rotated_planes(d, 2, angles), self.TOL), len(calls)

    def test_frobenius_within_tol_matches_without_svd(self, monkeypatch):
        # two planes turned by s: spectral s, Frobenius 2 s
        assert self._match(monkeypatch, [0.4 * self.TOL] * 2) == (2, 0)

    def test_frobenius_in_the_gap_is_decided_by_the_spectral_norm(self, monkeypatch):
        assert self._match(monkeypatch, [0.7 * self.TOL] * 2) == (2, 1)  # spectral 0.7 tol
        assert self._match(monkeypatch, [1.2 * self.TOL, 0.0]) == (None, 1)  # spectral 1.2 tol

    def test_frobenius_past_the_gap_is_skipped_without_svd(self, monkeypatch):
        assert self._match(monkeypatch, [1.5 * self.TOL] * 2) == (None, 0)  # Frobenius 3 tol

    def test_closure_of_separated_generators_takes_no_svd(self, monkeypatch):
        calls = []
        spectral = lattice.projector_distance
        monkeypatch.setattr(lattice, "projector_distance",
                            lambda a, b: calls.append(1) or spectral(a, b))
        lat = generate_lattice([line(1.0, 0.0, 0.0), from_vectors(3, [[1.0, 1.0, 0.0]]),
                                line(0.0, 0.0, 1.0)])
        assert len(lat) == 12 and calls == []
