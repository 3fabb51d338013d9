"""Operator parameters, the nuclear potential, and the exact reference spectrum.

All energies are in Hartree atomic units, so the electron mass m is 1.
Bound states are reported as binding energies (eigenvalue minus the rest
energy m*c^2), which is the quantity the solver and classifier work with
throughout. The ``_check_*`` argument checks here are private: every
module of the package calls them on its own arguments.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, PhysicsError

#: Speed of light in atomic units (CODATA 2010 inverse fine-structure constant).
#: Chosen because it reproduces the tabulated point-nucleus reference energies
#: for Z = 1 and Z = 12 to the last printed digit; overridable through ``OperatorParams``.
SPEED_OF_LIGHT = 137.035999074


def _is_real(value) -> bool:
    """Whether ``value`` is a real number other than a bool: a check to make before comparing it."""
    return isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_))


def _is_real_array(values) -> bool:
    """``_is_real`` of every entry of ``values``: a string or bool in a list is not a number."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iuf":
        return True
    return all(map(_is_real, np.asarray(values, dtype=object).flat))


def _check_real(value, name: str) -> None:
    """Raise PhysicsError naming ``name`` unless ``value`` is a real number other than a bool."""
    if not _is_real(value):
        raise PhysicsError(f"parameter {name}={value!r} must be a real number, "
                           f"not {type(value).__name__}")


def _check_charge(Z: float) -> None:
    """Raise PhysicsError unless Z is a finite nuclear charge >= 1."""
    if not 1.0 <= Z < math.inf:
        raise PhysicsError(f"nuclear charge must be finite and >= 1, got Z={Z}")


def _check_type(value, name: str, *kinds: type) -> None:
    """Raise ConfigError naming ``name`` and the type it got unless ``value`` is one of ``kinds``."""
    if not isinstance(value, kinds):
        expected = " or ".join(kind.__name__ for kind in kinds)
        raise ConfigError(f"{name} must be a {expected}, got {type(value).__name__}")


def _check_count(value, name: str, least: int = 1) -> int:
    """``value`` as an int; ConfigError naming ``name`` unless it is a whole number >= ``least``.

    An integral float such as 3.0 is taken; a bool, a non-integral or
    non-finite float, or anything not a real number is refused.
    """
    if not _is_real(value) or not float(value).is_integer() or value < least:
        raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class OperatorParams:
    """Physical constants, quantum numbers and nucleus of the radial operator.

    R is the nuclear radius: None for a point charge, or for a uniformly
    charged sphere a finite R > 0 whose central potential -1.5*Z/R is
    finite. Each must be a real number, not a bool.
    """

    Z: float
    kappa: int
    c: float = SPEED_OF_LIGHT
    R: float | None = None

    def __post_init__(self):
        for name, value in vars(self).items():
            if name != "R" or value is not None:
                _check_real(value, name)
        if self.kappa == 0 or not float(self.kappa).is_integer():
            raise PhysicsError(f"kappa must be a nonzero integer, got {self.kappa}")
        _check_charge(self.Z)
        if not 0.0 < self.c < math.inf:
            raise PhysicsError(f"c must be finite and positive, got c={self.c}")
        if self.Z >= self.c * abs(self.kappa):
            raise PhysicsError(
                f"supercritical charge: Z={self.Z} >= c*|kappa|={self.c * abs(self.kappa)}"
            )
        if not math.isfinite(self.c * self.c):
            raise PhysicsError(f"rest energy c^2 overflows a float: c={self.c}")
        R = self.R  # -1.5*Z/R is the potential at the centre
        if R is not None and not (0.0 < R < math.inf and math.isfinite(3.0 * (0.5 * self.Z / R))):
            raise PhysicsError(f"nuclear radius needs finite R > 0 and 1.5*Z/R, got R={R}")

    @property
    def rest_energy(self) -> float:
        return self.c**2


def potential_value(params: OperatorParams, x):
    """V(x): -Z/x outside the nucleus, parabolic inside an extended one."""
    _check_type(params, "params", OperatorParams)
    if not _is_real_array(x):  # None read as NaN, a bool as 0 or 1
        raise ConfigError(f"x must be a real number or array, got {type(x).__name__}")
    x = np.asarray(x, dtype=float)
    if np.isnan(x).any():
        raise PhysicsError("potential requires x that is not NaN")
    Z, R = params.Z, params.R
    if R is None:
        if np.any(x <= 0.0):
            raise PhysicsError("point-nucleus potential is singular at x <= 0")
        out = -Z / x
    else:
        if np.any(x < 0.0):
            raise PhysicsError("potential requires x >= 0")
        # x^2/R^2 as (x*2^-e)^2/m^2, R = m*2^e with 0.5 <= m < 1: scaling by a
        # power of two leaves the rounded quotient as it was, and no square
        # leaves the double range at any R, since only x <= R is squared
        m, e = math.frexp(R)
        inside = -(0.5 * Z / R) * (3.0 - np.ldexp(np.minimum(x, R), -e) ** 2 / (m * m))
        out = np.where(x < R, inside, -Z / np.maximum(x, R))
    return out if out.shape else float(out)


@dataclass(frozen=True)
class ReferenceLevel:
    """One exact point-nucleus bound level identified by (kappa, n_r)."""

    kappa: int
    n_r: int
    binding: float


def reference_binding(params: OperatorParams, n_r: int) -> ReferenceLevel:
    """Exact point-nucleus binding energy for radial quantum number n_r.

    binding = m*c^2 * [ (1 + (Z/c)^2 / (n_r + sqrt(kappa^2 - (Z/c)^2))^2)^(-1/2) - 1 ]

    The kappa > 0 series has no n_r = 0 member; requesting it is the
    unphysical state behind the coincidence phenomenon and is rejected
    with PhysicsError, as is n_r < 0; an n_r that is not a whole number
    raises ConfigError. ``params.R`` is not read: an extended nucleus has
    no closed form.
    """
    _check_type(params, "params", OperatorParams)
    least = 1 if params.kappa > 0 else 0
    if _is_real(n_r) and n_r < least:
        raise PhysicsError(f"n_r must be >= {least} for kappa={params.kappa}, got n_r={n_r}")
    n_r = _check_count(n_r, "n_r", least=0)
    zc = params.Z / params.c
    gamma = math.sqrt(params.kappa**2 - zc**2)
    # expm1/log1p form of mc^2 [(1 + u)^(-1/2) - 1]: immune to the large-c
    # cancellation between the eigenvalue and the rest energy
    u = (zc / (n_r + gamma)) ** 2
    binding = params.rest_energy * math.expm1(-0.5 * math.log1p(u))
    return ReferenceLevel(kappa=params.kappa, n_r=n_r, binding=binding)


def reference_spectrum(params: OperatorParams, count: int) -> list[ReferenceLevel]:
    """First ``count`` bound levels of the kappa series, deepest first."""
    _check_type(params, "params", OperatorParams)
    count = _check_count(count, "count")
    start = 0 if params.kappa < 0 else 1
    return [reference_binding(params, n_r) for n_r in range(start, start + count)]
