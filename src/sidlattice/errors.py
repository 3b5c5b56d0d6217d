"""Exception and warning types shared across the package."""


class SidLatticeError(Exception):
    """Base class for all package errors."""


class NonPositiveRange(SidLatticeError):
    """The frequency window upper edge must be positive."""


class TooFewPoints(SidLatticeError):
    """A frequency grid needs at least two nodes."""


class UnsupportedFamily(SidLatticeError):
    """Unknown kernel or profile family tag."""


class LengthMismatch(SidLatticeError):
    """Sample vector length does not match the grid."""


class GridMismatch(SidLatticeError):
    """Operands live on different frequency grids."""


class WindowExceeded(SidLatticeError):
    """Requested times reach beyond half the grid recurrence time."""


class DimensionMismatch(SidLatticeError):
    """Subspaces or states live in different ambient dimensions."""


class LatticeTooLarge(SidLatticeError):
    """Lattice closure exceeded the element cap."""


class ConfigError(SidLatticeError):
    """Scenario configuration is missing, malformed, or inconsistent."""


class SupportOverflowWarning(UserWarning):
    """Kernel envelope mass leaks outside the frequency window."""
