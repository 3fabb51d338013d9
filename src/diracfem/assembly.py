"""Element integrals and assembly of the three generalized eigensystems.

All block matrices have entries of the form

    integral over the domain of  (trial)^(s) * (test)^(r) * x^(-t) * q(x) dx

with q either 1 or the nuclear potential V of the operator parameters
(a point or a uniformly charged nucleus), evaluated with the fixed
4-point Gauss rule at every (element, point) pair at once.
A scheme is a table of block terms: which pencil matrix and 2x2 block a
term goes to, its block integrand, its coefficient in (c, kappa, mc^2), and
whether the per-element stabilization parameter tau weights it. The
stabilized scheme also tests each radial equation with tau times the
derivative of the other component's test function: its table is the
Galerkin table plus each Galerkin term moved to the other component's row,
with test derivative order 1 and weighted by tau. With tau identically zero
it gives the Galerkin system by construction.

The coefficients are those of the binding-form pencil (A - mc^2 B, B) of
the Dirac pencil (A, B): the rest energy cancels term by term here, so no
bound level is ever computed as a small difference of energies near mc^2.

The pencil numbers its dofs (boundary dofs eliminated) node by node,
(f value, g value) for hats and (f value, f slope, g value, g slope) for
Hermite, so that each pencil matrix is a band matrix; the free lower slope
option puts (f slope, g slope) of node 0 first. The dense views and the
eigenvectors use the same node order, and ``part_dofs`` gives the dofs of
one part (f values, f slopes, g values or g slopes) in it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .discretization import BasisKind, Mesh, gauss_rule, _hat_local, _hermite_local
from .errors import ConfigError
from .physics import OperatorParams, _check_count, _check_type, potential_value

SCHEME_LINEAR = "linear-galerkin"
SCHEME_HERMITE = "hermite-galerkin"
SCHEME_SUPG = "hermite-supg"
SCHEMES = (SCHEME_LINEAR, SCHEME_HERMITE, SCHEME_SUPG)


@dataclass(frozen=True)
class _BlockMatrixSpec:
    """Indices (r, s, t, q) identifying one block-matrix integrand.

    r and s are the derivative orders on the test and trial function, t the
    power of 1/x, and q selects the extra weight ("one" or "V").
    """

    r: int
    s: int
    t: int
    q: str = "one"

    def __post_init__(self):
        if self.r not in (0, 1) or self.s not in (0, 1) or self.t not in (0, 1):
            raise ConfigError(f"r, s, t must be 0 or 1, got {(self.r, self.s, self.t)}")
        if self.q not in ("one", "V"):
            raise ConfigError(f"q must be 'one' or 'V', got {self.q!r}")


def _element_tau(h_j, h_j1):
    """tau_j = (9/35) * h_{j+1} * (h_{j+1} - h_j) / (h_{j+1} + h_j), for floats or arrays.

    The stabilization parameter of an element of size h_{j+1} whose left
    neighbour has size h_j.
    """
    return (9.0 / 35.0) * h_j1 * (h_j1 - h_j) / (h_j1 + h_j)


def compute_tau(mesh: Mesh) -> np.ndarray:
    """Per-element stabilization parameter, a read-only array of length n+1.

    Element e (1-based) carries tau[e-1] = ``_element_tau(h_{e-1}, h_e)``, and
    the first element, having no left neighbour, carries zero. Uniform
    neighbouring elements give tau = 0 and |tau| < h_e always (the 9/35
    factor times a ratio below 1).
    """
    _check_type(mesh, "mesh", Mesh)
    h = mesh.h
    tau = np.zeros(mesh.element_count)
    tau[1:] = _element_tau(h[:-1], h[1:])
    tau.setflags(write=False)
    return tau


@dataclass(frozen=True)
class AssembledSystem:
    """One generalized eigenproblem lhs*X = mu*rhs*X of one scheme.

    The pencil is in binding form: its eigenvalues are the bindings
    mu = lambda - m*c^2 of the Dirac energies lambda. It is held in LAPACK
    band storage over the node-order dofs, Fortran-ordered and read-only:
    ``lhs_band[hb + i - j, j]`` is entry (i, j) for |i - j| <= hb, the
    half-bandwidth, and likewise ``rhs_band``. ``lhs`` and ``rhs`` are
    dense C-ordered read-only copies in the same node order, made on each
    access; no solve reads them. They serve the tests' dense oracle and the
    benchmark's trace.
    """

    scheme: str
    lhs_band: np.ndarray
    rhs_band: np.ndarray
    params: OperatorParams

    def __post_init__(self):
        for array in (self.lhs_band, self.rhs_band):
            array.setflags(write=False)

    @property
    def lhs(self) -> np.ndarray:
        return _dense_view(self.lhs_band)

    @property
    def rhs(self) -> np.ndarray:
        return _dense_view(self.rhs_band)

    @property
    def size(self) -> int:
        return self.lhs_band.shape[1]


def _dense_view(band: np.ndarray) -> np.ndarray:
    hb, size = band.shape[0] // 2, band.shape[1]
    cols = np.broadcast_to(np.arange(size), band.shape)
    rows = cols + np.arange(-hb, hb + 1)[:, None]  # the entry each band slot holds
    inside = (rows >= 0) & (rows < size)
    dense = np.zeros((size, size))
    dense[rows[inside], cols[inside]] = band[inside]
    dense.setflags(write=False)
    return dense


# --- block kernel ------------------------------------------------------------


def _element_kernel(kind: BasisKind, mesh: Mesh, params: OperatorParams):
    """Function (spec, tau=None) -> (element, test a, trial b) integrals of one integrand.

    The Gauss rule, the shape tables of derivative orders 0 and 1 and V are
    evaluated once, here; V is the potential of ``params``' nucleus.
    """
    x, w = gauss_rule(mesh)
    h, s = mesh.h[:, None], x - mesh.nodes[:-1, None]
    local = _hermite_local if kind is BasisKind.CUBIC_HERMITE else _hat_local
    shapes = [np.stack(local(h, s, order), axis=1) for order in (0, 1)]
    v = potential_value(params, x)

    def integrals(spec: _BlockMatrixSpec, tau: np.ndarray | None = None) -> np.ndarray:
        weight = np.ones_like(x)
        if spec.t:
            weight = weight / x
        if spec.q == "V":
            weight = weight * v
        weight = w * weight
        if tau is not None:
            weight = weight * tau[:, None]
        # one batched matmul over the elements: (a, q) weighted times (q, b)
        return np.matmul(shapes[spec.r] * weight[:, None, :], shapes[spec.s].transpose(0, 2, 1))

    return integrals


def _pencil_dofs(n: int, hermite: bool, free_lower_slope: bool) -> np.ndarray:
    """Node-order dof of each (element, local dof) of the pencil, -1 if eliminated.

    Local dofs are the f dofs, then the g dofs, each (left value, right
    value) for hats and (left value, left slope, right value, right slope)
    for Hermite.
    """
    d = 2 if hermite else 1  # parts (value, slope) per node and component
    active = np.ones((n + 2, 2 * d), dtype=bool)  # per node 0..n+1: f parts, then g parts
    active[[0, -1]] = False
    active[0, 1::2] = free_lower_slope  # node 0's f and g slopes (Hermite only)
    node = np.full(active.shape, -1, dtype=np.int32)
    node[active] = np.arange(np.count_nonzero(active))  # counted node by node
    return np.concatenate([node[:-1, :d], node[1:, :d], node[:-1, d:], node[1:, d:]], axis=1)


@functools.lru_cache(maxsize=16)
def _band_slots(n: int, hermite: bool, free_lower_slope: bool) -> tuple[int, int, np.ndarray]:
    """(size, width, slots): the band slot of each local entry of the pencil's elements.

    An element couples the dofs of two neighbouring nodes, 2*width in all;
    entry (i, j) goes to slot (hb + i - j, j) of the Fortran-ordered band of
    half-bandwidth hb = 2*width - 1, an eliminated one to a spare last slot.
    They depend on the shape alone, so each shape's are built once;
    ``slots`` is read-only, and int32 to halve what a held shape keeps.
    """
    table = _pencil_dofs(n, hermite, free_lower_slope)
    size, width = int(table.max()) + 1, table.shape[1] // 2
    hb = 2 * width - 1
    rows, cols = table[:, :, None], table[:, None, :]
    slots = np.where((rows >= 0) & (cols >= 0), hb + rows + 2 * hb * cols,
                     (2 * hb + 1) * size).ravel()
    slots.setflags(write=False)
    return size, width, slots


# --- schemes as tables of block terms ----------------------------------------

#: (matrix, row block, col block, integrand, coefficient(c, kappa, mc2), tau-weighted)
#: of the pencil in binding form: lhs = A - mc2*B and rhs = B for the
#: Dirac pencil A*x = lambda*B*x, so its eigenvalues are mu = lambda - mc2.
_GALERKIN = (
    ("lhs", 0, 0, _BlockMatrixSpec(0, 0, 0, "V"), lambda c, k, mc2: 1.0, False),
    ("lhs", 0, 1, _BlockMatrixSpec(0, 1, 0), lambda c, k, mc2: -c, False),
    ("lhs", 0, 1, _BlockMatrixSpec(0, 0, 1), lambda c, k, mc2: c * k, False),
    ("lhs", 1, 0, _BlockMatrixSpec(0, 1, 0), lambda c, k, mc2: c, False),
    ("lhs", 1, 0, _BlockMatrixSpec(0, 0, 1), lambda c, k, mc2: c * k, False),
    ("lhs", 1, 1, _BlockMatrixSpec(0, 0, 0), lambda c, k, mc2: -2.0 * mc2, False),
    ("lhs", 1, 1, _BlockMatrixSpec(0, 0, 0, "V"), lambda c, k, mc2: 1.0, False),
    ("rhs", 0, 0, _BlockMatrixSpec(0, 0, 0), lambda c, k, mc2: 1.0, False),
    ("rhs", 1, 1, _BlockMatrixSpec(0, 0, 0), lambda c, k, mc2: 1.0, False),
)

#: The tau * v' part of the stabilized test space: the Galerkin terms, each
#: in the other component's row, on the test function's derivative.
_STABILIZED = tuple((matrix, 1 - row, col, replace(spec, r=1), coefficient, True)
                    for matrix, row, col, spec, coefficient, _ in _GALERKIN)

_SCHEME_TABLE = {
    SCHEME_LINEAR: (BasisKind.LINEAR_HAT, _GALERKIN),
    SCHEME_HERMITE: (BasisKind.CUBIC_HERMITE, _GALERKIN),
    SCHEME_SUPG: (BasisKind.CUBIC_HERMITE, _GALERKIN + _STABILIZED),
}


def _scheme_entry(scheme: str):
    """``scheme``'s (basis kind, terms) in the scheme table; ConfigError for any other value."""
    if not isinstance(scheme, str) or scheme not in _SCHEME_TABLE:
        raise ConfigError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    return _SCHEME_TABLE[scheme]


def is_galerkin(scheme: str) -> bool:
    """Whether ``scheme``'s table holds no tau-weighted term.

    Such a pencil is symmetric-definite: lhs symmetric, rhs the positive
    definite mass matrix.
    """
    return not any(weighted for *_, weighted in _scheme_entry(scheme)[1])


def assemble(scheme: str, params: OperatorParams, mesh: Mesh,
             free_lower_slope: bool = False) -> AssembledSystem:
    """Generalized eigensystem of one scheme (see SCHEMES), in binding form.

    linear-galerkin and hermite-galerkin give symmetric pencils (2n and 4n
    dofs); hermite-supg tests against v + tau * v' and gives a nonsymmetric
    one, with tau = ``compute_tau(mesh)``: the stabilization parameter is a
    function of the mesh nodes alone, so it is not an input. The potential
    is that of ``params``' nucleus: a point charge Z, or a uniformly charged
    sphere of radius ``params.R``. Boundary conditions eliminate the value
    and slope dofs at both endpoints; ``free_lower_slope`` keeps the Hermite
    slope dof at the lower endpoint instead (the physically correct choice
    for |kappa| = 1). The hat basis has no slope dof, so linear-galerkin
    rejects it. The Gauss rule, the shape tables and V are evaluated once
    per call, and each pencil matrix is summed element by element into band
    storage, through band slots built once per (n, basis, free slope) shape.
    """
    kind, terms = _scheme_entry(scheme)
    _check_type(params, "params", OperatorParams)
    _check_type(mesh, "mesh", Mesh)
    _check_type(free_lower_slope, "free_lower_slope", bool, np.bool_)
    if free_lower_slope and kind is BasisKind.LINEAR_HAT:
        raise ConfigError(f"free_lower_slope applies to the Hermite schemes only: "
                          f"{scheme} has no slope dof")
    size, width, slots = _band_slots(mesh.interior_count, kind is BasisKind.CUBIC_HERMITE,
                                     free_lower_slope)
    kernel = _element_kernel(kind, mesh, params)
    local = {name: np.zeros((mesh.element_count, 2 * width, 2 * width)) for name in ("lhs", "rhs")}
    integrals = {}  # (spec, tau-weighted) -> element integrals
    c, k, mc2 = params.c, params.kappa, params.rest_energy
    tau = None if is_galerkin(scheme) else compute_tau(mesh)
    for matrix, row, col, spec, coefficient, weighted in terms:
        if (spec, weighted) not in integrals:
            integrals[spec, weighted] = kernel(spec, tau if weighted else None)
        block = np.s_[:, row * width:(row + 1) * width, col * width:(col + 1) * width]
        local[matrix][block] += coefficient(c, k, mc2) * integrals[spec, weighted]
    # bincount sums each band slot's entries in element order
    hb = 2 * width - 1
    lhs, rhs = (np.bincount(slots, local[name].ravel(), (2 * hb + 1) * size + 1)[:-1]
                .reshape(size, 2 * hb + 1).T for name in ("lhs", "rhs"))
    return AssembledSystem(scheme=scheme, lhs_band=lhs, rhs_band=rhs, params=params)


def part_dofs(scheme: str, size: int, part: str) -> np.ndarray:
    """Node-order dofs of ``part`` of a ``size``-dof pencil of ``scheme``, node by node.

    The parts "zeta", "zeta_prime", "xi" and "xi_prime" are the f values, f
    slopes, g values and g slopes; a hat pencil has no slopes. A Hermite
    size of 4n+2 means a free lower slope: node 0's (f', g') come first.
    """
    parts = ("zeta", "zeta_prime", "xi", "xi_prime")
    if part not in parts:
        raise ConfigError(f"unknown part {part!r}; expected one of {parts}")
    k, size = parts.index(part), _check_count(size, "size", least=0)
    if _scheme_entry(scheme)[0] is BasisKind.LINEAR_HAT:
        return np.arange(k // 2, size, 2) if k % 2 == 0 else np.arange(0)
    free = size % 4  # node 0's two slopes
    dofs = np.arange(free + k, size, 4)
    return np.r_[k // 2, dofs] if free and k % 2 else dofs
