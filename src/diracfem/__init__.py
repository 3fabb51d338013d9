"""Finite element solver for the radial Coulomb-Dirac eigenvalue problem.

Three discretizations of the coupled first-order system (continuous linear
Galerkin, cubic Hermite Galerkin, and a stabilized Petrov-Galerkin variant
with a mesh-derived stability parameter), a generalized eigensolver working
directly in binding energies (a band shift-invert solve certified complete
on a binding window), and a classifier that labels computed levels against
the exact relativistic reference spectrum.
"""

from .analysis import (
    ClassifiedLevel,
    ClassifiedSpectrum,
    CoincidenceReport,
    ConvergenceStudy,
    Label,
    classify,
    coincidence_report,
    convergence_study,
)
from .assembly import (
    SCHEME_HERMITE,
    SCHEME_LINEAR,
    SCHEME_SUPG,
    SCHEMES,
    AssembledSystem,
    assemble,
    compute_tau,
)
from .discretization import Mesh, build_exponential_mesh
from .eigensolver import Spectrum, bound_states, bound_window, solve
from .errors import (
    ComplexSpectrumError,
    ConfigError,
    InsufficientLevelsError,
    PhysicsError,
    SingularSystemError,
    SolverError,
)
from .physics import (
    SPEED_OF_LIGHT,
    OperatorParams,
    ReferenceLevel,
    reference_binding,
    reference_spectrum,
)

__version__ = "0.1.0"
