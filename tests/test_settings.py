import numpy as np
import pytest

from sidlattice import RegularKernel, check_hermitian, is_compatible, make_grid
from sidlattice.settings import default_tol
from conftest import line


def test_default_tolerance():
    assert default_tol() == 1e-8


def test_env_override_changes_behavior(monkeypatch):
    grid = make_grid(10.0, 4)
    values = np.ones((4, 4), dtype=complex)
    values[0, 1] += 1e-6j  # Hermiticity residual 2e-6
    kernel = RegularKernel(grid, values)
    assert not check_hermitian(kernel)
    monkeypatch.setenv("SIDLATTICE_TOL", "1e-4")
    assert default_tol() == 1e-4
    assert check_hermitian(kernel)


@pytest.mark.parametrize("raw", ["zero", "-1e-8", "0", "nan", "inf", "-inf"])
def test_env_override_validation(monkeypatch, raw):
    monkeypatch.setenv("SIDLATTICE_TOL", raw)
    with pytest.raises(ValueError, match="SIDLATTICE_TOL"):
        default_tol()


def test_tolerance_threads_into_lattice_ops(monkeypatch):
    a = line(1.0, 0.0)
    b = line(0.9999999, 0.000447213)  # nearly the same line
    assert not is_compatible(a, b, 1e-12)
    assert is_compatible(a, b, 1e-2)
