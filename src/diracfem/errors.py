"""Exception types shared across the package.

Every bad argument raises one of the two ``ValueError`` types, by one rule:
PhysicsError for a real value that defines the operator or the domain (Z,
kappa, m, c, R, a, b, gamma) or an impossible combination of them, and
ConfigError for any other (counts, tolerances, windows, vectors, scheme
names, combinations of settings). The CLI maps them onto distinct exit
codes: config errors (2), physics errors (3), solver failures (4).
"""


class ConfigError(ValueError):
    """A bad argument that defines neither the operator nor the domain, or a bad run setting."""


class PhysicsError(ValueError):
    """A bad value of the operator or the domain, or an impossible combination of them."""


class SolverError(RuntimeError):
    """Numerical failure in assembly, eigensolution, or post-processing."""


class ComplexSpectrumError(SolverError):
    """An eigenvalue violated ``eigensolver.REALITY_TOL`` (stabilization too strong)."""


class SingularSystemError(SolverError):
    """Mass-type matrix numerically singular or not positive definite."""


class InsufficientLevelsError(SolverError):
    """Fewer bound states found than requested."""
