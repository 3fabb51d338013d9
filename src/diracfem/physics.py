"""Operator parameters, nuclear potentials, and the exact reference spectrum.

All energies are in Hartree atomic units. Bound states are reported as
binding energies (eigenvalue minus the rest energy m*c^2), which is the
quantity the solver and classifier work with throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import PhysicsError

#: Speed of light in atomic units (CODATA 2010 inverse fine-structure constant).
#: Chosen because it reproduces the tabulated point-nucleus reference energies
#: for Z = 1 and Z = 12 to the last printed digit; overridable everywhere.
SPEED_OF_LIGHT = 137.035999074


def check_charge(Z: float) -> None:
    """Raise PhysicsError unless Z is a finite nuclear charge >= 1."""
    if not 1.0 <= Z < math.inf:
        raise PhysicsError(f"nuclear charge must be finite and >= 1, got Z={Z}")


@dataclass(frozen=True)
class OperatorParams:
    """Physical constants and quantum numbers of the radial operator."""

    Z: float
    kappa: int
    m: float = 1.0
    c: float = SPEED_OF_LIGHT

    def __post_init__(self):
        if self.kappa == 0 or not float(self.kappa).is_integer():
            raise PhysicsError(f"kappa must be a nonzero integer, got {self.kappa}")
        check_charge(self.Z)
        if not all(math.isfinite(v) for v in (self.m, self.c)):
            raise PhysicsError(f"m and c must be finite, got m={self.m} c={self.c}")
        if self.m <= 0 or self.c <= 0:
            raise PhysicsError("mass and speed of light must be positive")
        if self.Z >= self.c * abs(self.kappa):
            raise PhysicsError(
                f"supercritical charge: Z={self.Z} >= c*|kappa|={self.c * abs(self.kappa)}"
            )
        c2 = self.c * self.c
        if not (math.isfinite(c2) and math.isfinite(self.m * c2)):
            raise PhysicsError(f"rest energy m*c^2 overflows a float: m={self.m} c={self.c}")

    @property
    def rest_energy(self) -> float:
        return self.m * self.c**2


class NucleusKind(Enum):
    POINT = "point"
    EXTENDED_UNIFORM = "extended"


@dataclass(frozen=True)
class PotentialModel:
    """Coulomb potential of a point charge or a uniformly charged sphere."""

    kind: NucleusKind
    Z: float
    R: float | None = None

    def __post_init__(self):
        if self.kind is NucleusKind.EXTENDED_UNIFORM:
            if self.R is None or not 0.0 < self.R < math.inf:
                raise PhysicsError(f"extended nucleus needs a finite radius R > 0, got R={self.R}")


def point_nucleus(Z: float) -> PotentialModel:
    return PotentialModel(kind=NucleusKind.POINT, Z=Z)


def extended_nucleus(Z: float, R: float) -> PotentialModel:
    return PotentialModel(kind=NucleusKind.EXTENDED_UNIFORM, Z=Z, R=R)


def potential_value(model: PotentialModel, x):
    """V(x): -Z/x outside the nucleus, parabolic inside for the extended kind."""
    x = np.asarray(x, dtype=float)
    if model.kind is NucleusKind.POINT:
        if np.any(x <= 0.0):
            raise PhysicsError("point-nucleus potential is singular at x <= 0")
        out = -model.Z / x
    else:
        if np.any(x < 0.0):
            raise PhysicsError("potential requires x >= 0")
        R = model.R
        inside = -(model.Z / (2.0 * R)) * (3.0 - x**2 / R**2)
        out = np.where(x < R, inside, -model.Z / np.maximum(x, R))
    return out if out.shape else float(out)


def potential_derivative(model: PotentialModel, x):
    """V'(x), needed by the second-order-form coefficients."""
    x = np.asarray(x, dtype=float)
    if model.kind is NucleusKind.POINT:
        if np.any(x <= 0.0):
            raise PhysicsError("point-nucleus potential is singular at x <= 0")
        out = model.Z / x**2
    else:
        if np.any(x < 0.0):
            raise PhysicsError("potential requires x >= 0")
        R = model.R
        out = np.where(x < R, model.Z * x / R**3, model.Z / np.maximum(x, R)**2)
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
    unphysical state behind the coincidence phenomenon and is rejected.
    """
    if params.kappa > 0 and n_r < 1:
        raise PhysicsError(f"n_r must be >= 1 for kappa > 0, got n_r={n_r}")
    if params.kappa < 0 and n_r < 0:
        raise PhysicsError(f"n_r must be >= 0, got n_r={n_r}")
    zc = params.Z / params.c
    gamma = math.sqrt(params.kappa**2 - zc**2)
    # expm1/log1p form of mc^2 [(1 + u)^(-1/2) - 1]: immune to the large-c
    # cancellation between the eigenvalue and the rest energy
    u = (zc / (n_r + gamma)) ** 2
    binding = params.rest_energy * math.expm1(-0.5 * math.log1p(u))
    return ReferenceLevel(kappa=params.kappa, n_r=n_r, binding=binding)


def reference_spectrum(params: OperatorParams, count: int) -> list[ReferenceLevel]:
    """First ``count`` bound levels of the kappa series, deepest first."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    start = 0 if params.kappa < 0 else 1
    return [reference_binding(params, n_r) for n_r in range(start, start + count)]
