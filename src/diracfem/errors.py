"""Exception types shared across the package.

The CLI maps these onto distinct exit codes: config errors (2), physics
invariant violations (3), solver failures (4).
"""


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


class PhysicsError(ValueError):
    """Violated physical or geometric precondition (domain, quantum numbers, ...)."""


class SolverError(RuntimeError):
    """Numerical failure in assembly, eigensolution, or post-processing."""


class ComplexSpectrumError(SolverError):
    """An eigenvalue violated the reality tolerance (stabilization too strong)."""


class SingularSystemError(SolverError):
    """Mass-type matrix numerically singular or not positive definite."""


class InsufficientLevelsError(SolverError):
    """Fewer bound states found than requested."""


class DegeneratePencilError(SolverError):
    """The reduced 2x2 limit pencil is degenerate (rho^2 equals d_j^2)."""
