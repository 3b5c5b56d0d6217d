"""Acceptance suite: one test per criterion, each at its stated tolerance.

The conftest terminal summary prints one pass/fail line per criterion.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sidlattice
from conftest import (
    brute_expectation,
    gaussian_scenario,
    haar_unitary,
    line,
    linear_vs_gaussian_pair,
    random_density,
    random_subspace,
)
from sidlattice import (
    DiagonalPart,
    DensityState,
    KernelFamilySpec,
    Subspace,
    VanHoveObservable,
    VanHoveState,
    WindowExceeded,
    build_kernel,
    commutator_kernel,
    decoherence_time,
    evolve,
    expectation,
    expectation_series,
    from_vectors,
    generate_lattice,
    hs_norm,
    incompatibility_norm,
    incompatibility_observable,
    is_boolean,
    is_compatible,
    join,
    kolmogorov_check,
    leq,
    make_grid,
    meet,
    ortho,
    projector_distance,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


def _run(recorder, num, desc, body):
    passed = False
    try:
        body()
        passed = True
    finally:
        recorder(num, desc, passed)


def test_criterion_1_gaussian_decay(acceptance_recorder):
    def body():
        start = time.perf_counter()
        grid, rho, incompat = gaussian_scenario(
            omega_max=20.0, n_points=2048, sigma=math.sqrt(2.0), mu=10.0, Sigma=2.0)
        series = expectation_series(rho, incompat, 5.0, 201)
        ratio = np.abs(series.values) / series.initial_magnitude
        expected = np.exp(-0.5 * series.times**2)
        assert np.max(np.abs(ratio - expected) / expected) < 1e-6
        t_d = decoherence_time(series, math.exp(-1.0), 10)
        step = float(series.times[1] - series.times[0])
        assert t_d is not None and abs(t_d - math.sqrt(2.0)) <= step
        assert time.perf_counter() - start < 30.0

    _run(acceptance_recorder, 1,
         "Gaussian decay matches exp(-t^2/2) to 1e-6 relative on grid(20, 2048); "
         "decoherence time sqrt(2) within one step; under 30 s",
         body)


def test_criterion_2_commutator_path(acceptance_recorder):
    def body():
        grid = make_grid(20.0, 256)
        o1, o2 = linear_vs_gaussian_pair(grid)
        ck = commutator_kernel(o1, o2)
        m1 = np.diag(o1.diag.values).astype(complex)
        m2 = grid.spacing * o2.kernel.values
        oracle_kernel = (m1 @ m2 - m2 @ m1) / grid.spacing
        assert np.max(np.abs(ck.values - oracle_kernel)) < 1e-10

        spec = KernelFamilySpec("gaussian_band", sigma=math.sqrt(2.0), mu=10.0,
                                Sigma=2.0)
        diag = DiagonalPart(grid, np.exp(-0.5 * ((grid.nodes - 10.0) / 3.0) ** 2))
        rho = VanHoveState.normalized(diag, build_kernel(grid, spec))
        incompat = incompatibility_observable(o1, o2)
        times = np.linspace(0.0, 5.0, 11)
        got = np.array([expectation(rho, incompat.to_observable(), float(t))
                        for t in times])

        fine = make_grid(20.0, 2560)
        f1, f2 = linear_vs_gaussian_pair(fine)
        fm1, fm2 = np.diag(f1.diag.values).astype(complex), \
            fine.spacing * f2.kernel.values
        fine_kernel = (fm1 @ fm2 - fm2 @ fm1) / fine.spacing
        fine_diag = DiagonalPart(fine, np.exp(-0.5 * ((fine.nodes - 10.0) / 3.0) ** 2))
        fine_rho = VanHoveState.normalized(fine_diag, build_kernel(fine, spec))
        fine_obs = VanHoveObservable(
            DiagonalPart.zeros(fine),
            type(fine_rho.kernel)(fine, -1j * fine_kernel))
        oracle = np.array([brute_expectation(fine_rho, fine_obs, float(t))
                           for t in times])
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(np.abs(got) - np.abs(oracle))) < 1e-6 * scale

    _run(acceptance_recorder, 2,
         "Commutator kernel matches the dense-matrix oracle to 1e-10 (n=256); "
         "|<D(t)>| matches the 10x-resolution quadrature oracle to 1e-6",
         body)


def test_criterion_3_weak_limit_fingerprint(acceptance_recorder):
    def body():
        grid, rho, incompat = gaussian_scenario(n_points=512)
        obs = incompat.to_observable()
        h0 = hs_norm(incompat.kernel)
        half_window = 0.5 * grid.recurrence_time
        for t in np.linspace(0.0, half_window, 25):
            h = hs_norm(evolve(obs, float(t)).kernel)
            assert abs(h - h0) <= 1e-12 * h0
        initial = abs(expectation(rho, obs, 0.0))
        decayed = np.array([abs(expectation(rho, obs, float(t)))
                            for t in np.linspace(5.0, half_window, 16)])
        assert np.max(decayed) <= 1e-3 * initial

    _run(acceptance_recorder, 3,
         "Kernel norm of the evolved observable constant to 1e-12 over the "
         "window while |<D(t)>| falls below 1e-3 of its initial value",
         body)


def test_criterion_4_discretization_honesty(acceptance_recorder):
    def body():
        grid, rho, incompat = gaussian_scenario(n_points=256)
        obs = incompat.to_observable()
        v0 = expectation(rho, obs, 0.0)
        v_rec = expectation(rho, obs, grid.recurrence_time)
        assert abs(v_rec - v0) <= 1e-10
        with pytest.raises(WindowExceeded):
            expectation_series(rho, incompat, 0.5001 * grid.recurrence_time, 4)

    _run(acceptance_recorder, 4,
         "Recurrence <D(2pi/spacing)> = <D(0)> to 1e-10; window guard rejects "
         "t_max past half the recurrence time",
         body)


def test_criterion_5_lattice_law_sweep(acceptance_recorder):
    def body():
        start = time.perf_counter()
        rng = np.random.default_rng(20260811)
        tol = 1e-8
        for d in range(2, 9):
            for _ in range(500):
                a = random_subspace(rng, d)
                b = random_subspace(rng, d)
                c = random_subspace(rng, d)

                # order axioms
                assert leq(a, a, tol)
                rotated = a if a.rank == 0 else Subspace(
                    d, a.basis @ haar_unitary(rng, a.rank))
                assert leq(a, rotated, tol) and leq(rotated, a, tol)
                assert projector_distance(a, rotated) <= tol
                chain_mid = join(a, random_subspace(rng, d))
                chain_top = join(chain_mid, random_subspace(rng, d))
                assert leq(a, chain_mid, tol) and leq(chain_mid, chain_top, tol)
                assert leq(a, chain_top, tol)

                # orthocomplement axioms
                assert projector_distance(ortho(ortho(a)), a) <= tol
                assert leq(ortho(chain_mid), ortho(a), tol)
                assert meet(a, ortho(a), tol).rank == 0
                assert join(a, ortho(a)).rank == d

                # De Morgan
                assert projector_distance(
                    ortho(join(a, b)), meet(ortho(a), ortho(b), tol)) <= tol

                # orthomodularity on the comparable pair a <= chain_mid
                recon = join(a, meet(chain_mid, ortho(a), tol))
                assert projector_distance(recon, chain_mid) <= tol

                # GLB/LUB characterizations
                shared = random_subspace(rng, d, rank=int(rng.integers(0, d + 1)))
                upper1 = join(shared, random_subspace(rng, d))
                upper2 = join(shared, random_subspace(rng, d))
                glb = meet(upper1, upper2, tol)
                assert leq(glb, upper1, tol) and leq(glb, upper2, tol)
                assert leq(shared, glb, tol)  # common lower bound beaten by meet
                lub = join(a, b)
                assert leq(a, lub, tol) and leq(b, lub, tol)
                common_upper = join(lub, c)
                assert leq(lub, common_upper, tol)

                # distributive inclusions
                assert leq(join(meet(a, b, tol), meet(a, c, tol)),
                           meet(a, join(b, c), tol), tol)
                assert leq(join(a, meet(b, c, tol)),
                           meet(join(a, b), join(a, c), tol), tol)
        assert time.perf_counter() - start < 60.0

    _run(acceptance_recorder, 5,
         "500 random subspace samples per dimension 2..8 satisfy every lattice "
         "axiom at tolerance 1e-8 in under 60 s",
         body)


@settings(max_examples=150, deadline=None)
@given(d=st.integers(2, 8), ranks=st.lists(st.integers(0, 8), min_size=6, max_size=6),
       seed=st.integers(0, 2**32 - 1))
def test_criterion_5_lattice_laws_as_a_property(d, ranks, seed):
    """Criterion 5's laws, drawn so that hypothesis shrinks a failure to its least d and ranks."""
    rng = np.random.default_rng(seed)
    a, b, c, s, x, y = (random_subspace(rng, d, rank=min(r, d)) for r in ranks)
    tol = 1e-8

    # order axioms
    assert leq(a, a, tol)
    rotated = a if a.rank == 0 else Subspace(d, a.basis @ haar_unitary(rng, a.rank))
    assert leq(a, rotated, tol) and leq(rotated, a, tol)
    assert projector_distance(a, rotated) <= tol
    chain_mid = join(a, x)
    chain_top = join(chain_mid, y)
    assert leq(a, chain_mid, tol) and leq(chain_mid, chain_top, tol)
    assert leq(a, chain_top, tol)

    # orthocomplement axioms
    assert projector_distance(ortho(ortho(a)), a) <= tol
    assert leq(ortho(chain_mid), ortho(a), tol)
    assert meet(a, ortho(a), tol).rank == 0
    assert join(a, ortho(a)).rank == d

    # De Morgan
    assert projector_distance(ortho(join(a, b)), meet(ortho(a), ortho(b), tol)) <= tol

    # orthomodularity on the comparable pair a <= chain_mid
    assert projector_distance(join(a, meet(chain_mid, ortho(a), tol)), chain_mid) <= tol

    # GLB/LUB characterizations
    upper1, upper2 = join(s, b), join(s, c)
    glb = meet(upper1, upper2, tol)
    assert leq(glb, upper1, tol) and leq(glb, upper2, tol)
    assert leq(s, glb, tol)
    lub = join(a, b)
    assert leq(a, lub, tol) and leq(b, lub, tol)
    assert leq(lub, join(lub, c), tol)

    # distributive inclusions
    assert leq(join(meet(a, b, tol), meet(a, c, tol)), meet(a, join(b, c), tol), tol)
    assert leq(join(a, meet(b, c, tol)), meet(join(a, b), join(a, c), tol), tol)


def test_criterion_6_compatibility_iff_commutation(acceptance_recorder):
    def body():
        rng = np.random.default_rng(60)
        d = 6
        built = 0
        while built < 200:
            u = haar_unitary(rng, d)
            a = Subspace(d, u[:, rng.random(d) < 0.5])
            b = Subspace(d, u[:, rng.random(d) < 0.5])
            assert incompatibility_norm(a, b) <= 1e-8
            assert is_compatible(a, b, 1e-8)
            built += 1
        found = 0
        while found < 200:
            dim = int(rng.integers(2, 7))
            a = random_subspace(rng, dim, rank=int(rng.integers(1, dim)))
            b = random_subspace(rng, dim, rank=int(rng.integers(1, dim)))
            if incompatibility_norm(a, b) <= 1e-3:
                continue
            assert not is_compatible(a, b, 1e-8)
            found += 1

    _run(acceptance_recorder, 6,
         "200 shared-eigenbasis pairs all compatible; 200 random pairs with "
         "commutator norm above 1e-3 all incompatible",
         body)


def test_criterion_7_kolmogorov(acceptance_recorder):
    def body():
        eye = np.eye(3)
        boolean_lat = generate_lattice([line(*eye[i]) for i in range(3)])
        rng = np.random.default_rng(70)
        for _ in range(100):
            rep = kolmogorov_check(random_density(rng, 3), boolean_lat)
            assert rep.max_residual <= 1e-10

        a = line(1.0, 0.0)
        b = from_vectors(2, [np.array([1.0, 1.0]) / math.sqrt(2.0)])
        two_line = generate_lattice([a, b])
        rep = kolmogorov_check(DensityState.pure([1.0, 0.0]), two_line)
        ia, ib = two_line.index_of(a), two_line.index_of(b)
        residual = next(r for i, j, r in rep.violations if {i, j} == {ia, ib})
        assert abs(residual - 0.5) <= 1e-10

    _run(acceptance_recorder, 7,
         "Boolean 8-element lattice additive to 1e-10 over 100 random states; "
         "two-line lattice (a, b) residual equals 0.5 for the pure state",
         body)


def test_criterion_8_lattice_closure(acceptance_recorder):
    def body():
        a = line(1.0, 0.0)
        b = from_vectors(2, [np.array([1.0, 1.0]) / math.sqrt(2.0)])
        two_line = generate_lattice([a, b])
        assert len(two_line) == 6
        assert not is_boolean(two_line)

        eye = np.eye(3)
        atoms = generate_lattice([line(*eye[i]) for i in range(3)])
        assert len(atoms) == 8
        assert is_boolean(atoms)

    _run(acceptance_recorder, 8,
         "Two tilted lines close to exactly 6 non-Boolean elements; three "
         "orthogonal lines to exactly 8 Boolean elements",
         body)


def test_criterion_9_end_to_end_emerge(acceptance_recorder, tmp_path):
    def body():
        config = REPO_ROOT / "configs" / "gaussian_emerge.json"
        # The child runs in tmp_path, where a relative PYTHONPATH (such as
        # PYTHONPATH=src) no longer resolves. Put the root of the package
        # this process imported first, and keep the caller's entries after it.
        package_root = str(Path(sidlattice.__file__).resolve().parents[1])
        env = os.environ.copy()
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [package_root, env.get("PYTHONPATH")]))
        outputs = []
        for tag in ("a", "b"):
            report_path = tmp_path / f"report_{tag}.json"
            series_path = tmp_path / f"series_{tag}.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "sidlattice.cli", "emerge",
                 "--config", str(config), "--report", str(report_path),
                 "--series", str(series_path)],
                capture_output=True, text=True, cwd=tmp_path, env=env)
            assert proc.returncode == 0, proc.stderr
            outputs.append((report_path.read_bytes(), series_path.read_bytes()))
        assert outputs[0] == outputs[1]
        report = json.loads(outputs[0][0])
        assert report["verdict"] == "BOOLEANIZED"
        assert report["pointer_lattice_boolean"] is True
        series_text = outputs[0][1].decode()
        assert series_text.startswith("t,re,im,abs\n")

    _run(acceptance_recorder, 9,
         "CLI emerge on the Gaussian scenario: BOOLEANIZED verdict, Boolean "
         "pointer lattice, bit-identical outputs across repeated runs",
         body)
