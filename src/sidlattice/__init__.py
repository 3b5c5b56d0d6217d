"""Commutator decay of van Hove observables and Boolean lattice emergence.

The package has four layers: :mod:`sidlattice.spectral` holds the
discretized continuous-spectrum objects, :mod:`sidlattice.engine` evolves
them in the Heisenberg picture and tracks expectation decay,
:mod:`sidlattice.lattice` provides the orthocomplemented subspace-lattice
calculus, and :mod:`sidlattice.emergence` ties decay to Booleanization.
:mod:`sidlattice.cli` exposes the ``sidlattice`` command.
"""

from .emergence import (
    AngleSweepRow,
    BinPartition,
    EmergenceReport,
    PointerAlgebra,
    Verdict,
    angle_sweep,
    effective_compatibility,
    pointer_lattice,
    run_emergence,
)
from .engine import (
    ExpectationSeries,
    IncompatibilityObservable,
    analytic_oracle,
    combined_decay_rate,
    commutator_kernel,
    decoherence_time,
    evolve,
    expectation,
    expectation_series,
    incompatibility_observable,
)
from .errors import (
    ConfigError,
    DimensionMismatch,
    GridMismatch,
    LatticeTooLarge,
    LengthMismatch,
    NonPositiveRange,
    SidLatticeError,
    SupportOverflowWarning,
    TooFewPoints,
    UnsupportedFamily,
    WindowExceeded,
)
from .lattice import (
    DensityState,
    KolmogorovReport,
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
from .spectral import (
    DiagonalPart,
    FrequencyGrid,
    KernelFamilySpec,
    RegularKernel,
    VanHoveObservable,
    VanHoveState,
    build_kernel,
    check_hermitian,
    hs_norm,
    kernel_compose,
    make_grid,
    quad1,
)

__version__ = "0.1.0"

__all__ = [
    "AngleSweepRow", "BinPartition", "ConfigError", "DensityState",
    "DiagonalPart", "DimensionMismatch", "EmergenceReport",
    "ExpectationSeries", "FrequencyGrid", "GridMismatch",
    "IncompatibilityObservable", "KernelFamilySpec", "KolmogorovReport",
    "LatticeTooLarge", "LengthMismatch", "NonPositiveRange",
    "PointerAlgebra", "PropertyLattice", "RegularKernel", "SidLatticeError", "Subspace",
    "SupportOverflowWarning", "TooFewPoints", "UnsupportedFamily",
    "VanHoveObservable", "VanHoveState", "Verdict", "WindowExceeded",
    "analytic_oracle", "angle_sweep", "build_kernel", "check_hermitian",
    "check_lattice_laws", "combined_decay_rate", "commutator_kernel",
    "compatibility_matrix", "decoherence_time", "distributivity_defect",
    "effective_compatibility", "evolve", "expectation", "expectation_series",
    "from_vectors", "generate_lattice", "hs_norm", "incompatibility_norm",
    "incompatibility_observable", "is_boolean", "is_compatible", "join",
    "kernel_compose", "kolmogorov_check", "leq", "make_grid", "meet",
    "ortho", "pointer_lattice", "probability", "projector_distance",
    "quad1", "run_emergence", "subspace_equal",
]
