import math
import tracemalloc
from typing import Any, NamedTuple

import numpy as np
import pytest

from sidlattice import (
    DiagonalPart,
    IncompatibilityObservable,
    KernelFamilySpec,
    Subspace,
    VanHoveObservable,
    VanHoveState,
    build_kernel,
    from_vectors,
    make_grid,
    spectral,
)

_acceptance_lines = []


def tile_edge(k, d=0):
    """The grid size k T + d at the edge of the pass tile T = spectral._TILE; with d = 1 the
    last tile is one column wide."""
    return k * spectral._TILE + d


# either side of one and of two tiles: T - 1, T, T + 1, 2T - 1, 2T, 2T + 1
TILE_EDGES = [tile_edge(k, d) for k in (1, 2) for d in (-1, 0, 1)]
ONE_WIDE_LAST_TILE = [tile_edge(1, 1), tile_edge(2, 1)]


class Traced(NamedTuple):
    result: Any
    peak: int  # bytes tracemalloc traced at most during the call
    held: int  # bytes still traced when the call returned, its result alive


def traced_peak(fn):
    """Call fn() with tracemalloc on: its result and the traced peak and held bytes."""
    tracemalloc.start()
    try:
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return Traced(result, peak, held)


@pytest.fixture
def acceptance_recorder():
    """Record one pass/fail line per acceptance criterion for the summary."""

    def record(num, desc, passed):
        _acceptance_lines.append((num, desc, passed))

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_lines:
        return
    terminalreporter.section("acceptance criteria")
    for num, desc, passed in sorted(_acceptance_lines):
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"[criterion {num}] {status}: {desc}")


def haar_unitary(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_subspace(rng, d, rank=None):
    if rank is None:
        rank = int(rng.integers(0, d + 1))
    if rank == 0:
        return Subspace.zero(d)
    return Subspace(d, haar_unitary(rng, d)[:, :rank])


def random_density(rng, d):
    from sidlattice import DensityState

    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = a @ a.conj().T
    return DensityState(rho / np.trace(rho).real)


def line(*coords):
    return from_vectors(len(coords), [np.array(coords, dtype=complex)])


def obs_matrix(obs):
    """Dense sampled matrix of a van Hove observable on its grid."""
    return np.diag(obs.diag.values).astype(complex) \
        + obs.grid.spacing * obs.kernel.values


def brute_expectation(rho, obs, t):
    """Direct double-sum expectation oracle (no anti-diagonal regrouping)."""
    g = rho.grid
    phase = np.exp(1j * t * (g.nodes[:, None] - g.nodes[None, :]))
    kernel_term = g.spacing**2 * np.sum(
        np.conjugate(rho.kernel.values) * obs.kernel.values * phase)
    diag_term = g.spacing * np.sum(rho.diag.values * obs.diag.values)
    return diag_term + kernel_term


def direct_phase_series(grid, profile, times):
    """The phase series as written, one exp per time and offset: the oracle of the factored
    form in engine._phase_series."""
    n = grid.n_points
    nu = grid.spacing * np.arange(-(n - 1), n, dtype=np.float64)
    return np.exp(1j * np.multiply.outer(times, nu)) @ profile


def gaussian_scenario(omega_max=20.0, n_points=256, sigma=math.sqrt(2.0),
                      mu=10.0, Sigma=2.0):
    """State and incompatibility observable with exact decay exp(-t^2/2)."""
    grid = make_grid(omega_max, n_points)
    spec = KernelFamilySpec("gaussian_band", sigma=sigma, mu=mu, Sigma=Sigma)
    kernel = build_kernel(grid, spec)
    diag = DiagonalPart(grid, np.exp(-0.5 * ((grid.nodes - mu) / 3.0) ** 2))
    rho = VanHoveState.normalized(diag, kernel)
    return grid, rho, IncompatibilityObservable(kernel)


def linear_vs_gaussian_pair(grid, sigma=math.sqrt(2.0), mu=10.0, Sigma=2.0):
    """Diag-only linear observable against a gaussian-band kernel observable."""
    o1 = VanHoveObservable.diag_only(DiagonalPart(grid, grid.nodes))
    spec = KernelFamilySpec("gaussian_band", sigma=sigma, mu=mu, Sigma=Sigma)
    o2 = VanHoveObservable.kernel_only(build_kernel(grid, spec))
    return o1, o2


def near_the_evolved_norm(final, evolved):
    """The tile pass's norm of D(t_max) against hs_norm of evolve(D, t_max).kernel.

    The evolved kernel is a stored array, Hermitian only to rounding, so hs_norm reads it by
    every tile while the pass reads the tiles I <= J and counts a strict one twice: the same
    squares up to rounding, grouped otherwise, so the two agree to a few ulps, not bit for bit.
    """
    return abs(final - evolved) <= 4 * np.finfo(np.float64).eps * evolved
