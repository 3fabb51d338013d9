"""Finite element solver for the radial Coulomb-Dirac eigenvalue problem.

Three discretizations of the coupled first-order system (continuous linear
Galerkin, cubic Hermite Galerkin, and a stabilized Petrov-Galerkin variant
with a mesh-derived stability parameter), a generalized eigensolver working
directly in binding energies (a band shift-invert solve certified complete
on a binding window), and a classifier that labels computed levels against
the exact relativistic reference spectrum.

The package re-exports the names of the README's quick start and the error
types; everything else is imported from its module.
"""

from .analysis import classify
from .assembly import assemble
from .discretization import build_exponential_mesh
from .eigensolver import bound_window, solve
from .errors import (
    ComplexSpectrumError,
    ConfigError,
    InsufficientLevelsError,
    PhysicsError,
    SingularSystemError,
    SolverError,
)
from .physics import OperatorParams, reference_spectrum

__version__ = "0.1.0"
