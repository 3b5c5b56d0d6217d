"""Package-wide defaults, overridable through environment variables."""

import math
import os

ENV_TOL = "SIDLATTICE_TOL"

_DEFAULT_TOL = 1e-8


def default_tol() -> float:
    """Default comparison tolerance; override with ``SIDLATTICE_TOL``."""
    raw = os.environ.get(ENV_TOL)
    if raw is None:
        return _DEFAULT_TOL
    try:
        value = float(raw)
    except ValueError as exc:
        raise ValueError(f"{ENV_TOL} must parse as a float, got {raw!r}") from exc
    if not 0.0 < value < math.inf:
        raise ValueError(f"{ENV_TOL} must be positive and finite, got {value}")
    return value
