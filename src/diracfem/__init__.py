"""Finite element solver for the radial Coulomb-Dirac eigenvalue problem.

Three discretizations of the coupled first-order system (continuous linear
Galerkin, cubic Hermite Galerkin, and a stabilized Petrov-Galerkin variant
with a mesh-derived stability parameter), a generalized eigensolver working
directly in binding energies (dense full spectrum, or sparse shift-invert on
a binding window), and a classifier that labels computed levels against
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
    nodal_propagation,
    second_order_residual,
    supg_residuals,
    tau_limit_lambda,
    tau_rule_residual,
)
from .assembly import (
    SCHEME_HERMITE,
    SCHEME_LINEAR,
    SCHEME_SUPG,
    SCHEMES,
    AssembledSystem,
    BlockMatrixSpec,
    StabilizationProfile,
    assemble,
    assemble_hermite_galerkin,
    assemble_linear_galerkin,
    assemble_supg,
    closed_form_element_entries,
    compute_tau,
    element_integral,
)
from .discretization import (
    BasisFamily,
    BasisKind,
    Mesh,
    QuadratureRule,
    build_exponential_mesh,
    eval_hat,
    eval_hermite,
    hermite_interpolation_error_order,
    quadrature_for,
)
from .eigensolver import Spectrum, bound_states, bound_window, solve
from .errors import (
    ComplexSpectrumError,
    ConfigError,
    DegeneratePencilError,
    InsufficientLevelsError,
    PhysicsError,
    SingularSystemError,
    SolverError,
)
from .physics import (
    SPEED_OF_LIGHT,
    NucleusKind,
    OperatorParams,
    PotentialModel,
    ReferenceLevel,
    accumulation_point,
    extended_nucleus,
    point_nucleus,
    potential_value,
    potential_w,
    reference_binding,
    reference_spectrum,
)

__version__ = "0.1.0"
