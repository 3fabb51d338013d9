"""One-dimensional discretization layer.

Provides the exponentially graded mesh, the element-local shape functions
of the two bases (continuous piecewise-linear hats and cubic Hermite) with
their derivatives, and the fixed 4-point Gauss-Legendre quadrature used
for all element integrals. A basis is a (``BasisKind``, mesh) pair.

A mesh is its node array alone (see ``Mesh``) and immutable after
construction; all evaluations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError, PhysicsError
from .physics import _check_count, _check_real, _check_type, _is_real_array

# 4-point Gauss-Legendre rule on [-1, 1]; exact for polynomials of degree <= 7.
_GAUSS_POINTS, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(4)


class BasisKind(Enum):
    """Linear hats carry one dof per interior node, cubic Hermite two (value, slope)."""

    LINEAR_HAT = "linear-hat"
    CUBIC_HERMITE = "cubic-hermite"


@dataclass(frozen=True)
class Mesh:
    """Partition a = x_0 < x_1 < ... < x_{n+1} = b of the radial domain, held as its nodes.

    ``nodes`` (shape (n+2,), both endpoints included) is the whole mesh:
    the endpoints, the interior count, the element sizes and the SUPG
    stabilization parameter (``assembly.compute_tau``) all derive from it.
    Construction copies ``nodes`` into a read-only float array and raises
    PhysicsError unless they are real numbers, at least two, strictly increasing.
    """

    nodes: np.ndarray

    def __post_init__(self):
        if not _is_real_array(self.nodes):
            raise PhysicsError(f"mesh nodes must be real numbers, not {type(self.nodes).__name__}")
        nodes = np.array(self.nodes, dtype=float)
        if nodes.ndim != 1 or len(nodes) < 2 or not np.all(np.diff(nodes) > 0):
            raise PhysicsError("mesh needs at least two strictly increasing nodes")
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)

    @property
    def h(self) -> np.ndarray:
        """Element sizes, ``h[e-1] = x_e - x_{e-1}`` for elements e = 1..n+1."""
        return np.diff(self.nodes)

    @property
    def interior_count(self) -> int:
        return len(self.nodes) - 2

    @property
    def element_count(self) -> int:
        return len(self.nodes) - 1


def build_exponential_mesh(a: float, b: float, n: int, gamma: float) -> Mesh:
    """Mesh with interior nodes clustered exponentially toward the lower endpoint.

    Node formula: ``x_i = a + (b - a) * (exp(gamma*i/(n+1)) - 1) / (exp(gamma) - 1)``
    for i = 0..n+1, so the endpoints are hit exactly and element sizes grow
    monotonically away from a. a, b and gamma must be finite real numbers,
    not bools, exp(gamma) must not overflow, and the computed nodes must
    strictly increase, or PhysicsError is raised; n must be a count
    (``_check_count``: an integral float such as 50.0 counts as 50), or
    ConfigError is raised.
    """
    for name, value in (("a", a), ("b", b), ("gamma", gamma)):
        _check_real(value, name)
        if not math.isfinite(value):
            raise PhysicsError(f"invalid mesh parameter {name}={value}: must be finite")
    if not (0.0 < a < b):
        raise PhysicsError(f"invalid domain: need 0 < a < b, got a={a}, b={b}")
    n = _check_count(n, "n")
    if gamma <= 0.0:
        raise PhysicsError(f"invalid mesh grading: need gamma > 0, got {gamma}")
    i = np.arange(n + 2, dtype=float)
    exponents = gamma * i / (n + 1)  # the last may round to just above gamma
    if max(gamma, exponents[-1]) > math.log(np.finfo(float).max):
        raise PhysicsError(f"invalid mesh parameter gamma={gamma}: exp(gamma) overflows")
    nodes = a + (b - a) * np.expm1(exponents) / np.expm1(gamma)
    nodes[0] = a
    nodes[-1] = b
    if not np.all(np.diff(nodes) > 0):
        raise PhysicsError(f"invalid mesh parameter gamma={gamma}: grading too strong "
                           f"for n={n} in double precision, the nodes near a={a} do not "
                           "strictly increase")
    return Mesh(nodes)


def gauss_rule(mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """4-point rule on every element: (points, weights), each of shape (n+1, 4).

    Row e-1 holds the rule on element ``[x_{e-1}, x_e]``.
    """
    _check_type(mesh, "mesh", Mesh)
    xl, xr = mesh.nodes[:-1, None], mesh.nodes[1:, None]
    mid, half = 0.5 * (xl + xr), 0.5 * (xr - xl)
    return mid + half * _GAUSS_POINTS, half * _GAUSS_WEIGHTS


# --- element-local shape functions ----------------------------------------
#
# On an element of size h with local coordinate s in [0, h] measured from the
# left node, the nonzero basis pieces are, in local order:
#   hats:     (left hat, right hat)
#   Hermite:  (left value, left slope, right value, right slope)
# The Hermite pieces match the per-node formulas used throughout: the "left"
# pair is the right-element branch of the functions at node x_{e-1}, the
# "right" pair the left-element branch at node x_e. The size h may be an
# array that broadcasts against s, so one call covers many elements.


def _hat_local(h: float, s, order: int):
    """Hat-function pieces on one element; returns (left, right) arrays."""
    s = np.asarray(s, dtype=float)
    if order == 0:
        return 1.0 - s / h, s / h
    if order == 1:
        shape = np.broadcast(s).shape
        return np.full(shape, -1.0 / h), np.full(shape, 1.0 / h)
    raise ConfigError(f"unsupported derivative order {order} for linear hats")


def _hermite_local(h: float, s, order: int):
    """Cubic Hermite pieces on one element.

    Returns (left value, left slope, right value, right slope) evaluated at
    local offsets s from the left node; ``order`` in {0, 1}.
    """
    s = np.asarray(s, dtype=float)
    if order == 0:
        lv = 1.0 - s**2 / h**2 + 2.0 * s**2 * (s - h) / h**3
        ls = s - s**2 / h + s**2 * (s - h) / h**2
        rv = s**2 / h**2 - 2.0 * s**2 * (s - h) / h**3
        rs = s**2 * (s - h) / h**2
    elif order == 1:
        lv = -2.0 * s / h**2 + (6.0 * s**2 - 4.0 * h * s) / h**3
        ls = 1.0 - 2.0 * s / h + (3.0 * s**2 - 2.0 * h * s) / h**2
        rv = 2.0 * s / h**2 - (6.0 * s**2 - 4.0 * h * s) / h**3
        rs = (3.0 * s**2 - 2.0 * h * s) / h**2
    else:
        raise ConfigError(f"unsupported derivative order {order} for cubic Hermite")
    return lv, ls, rv, rs
