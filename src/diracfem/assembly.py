"""Element integrals and assembly of the three generalized eigensystems.

All block matrices have entries of the form

    integral over the domain of  (trial)^(s) * (test)^(r) * x^(-t) * q(x) dx

with q either 1 or the nuclear potential V, evaluated with the fixed
4-point Gauss rule at every (element, point) pair at once.
A scheme is a table of block terms: which pencil matrix and 2x2 block a
term goes to, its block integrand, its coefficient in (c, kappa, mc^2), and
whether the per-element stabilization parameter tau weights it. The
stabilized scheme is the Galerkin table plus the tau-weighted terms, so
with tau identically zero it gives the Galerkin system by construction.

Degree-of-freedom layout (boundary dofs eliminated):
  linear:   [f values at nodes 1..n | g values at nodes 1..n]
  Hermite:  [f values 1..n | f slopes 1..n | g values 1..n | g slopes 1..n]
With the free lower slope option the slope lists start at node 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretization import BasisFamily, BasisKind, Mesh, gauss_rule, hat_local, hermite_local
from .physics import OperatorParams, PotentialModel, potential_value

SCHEME_LINEAR = "linear-galerkin"
SCHEME_HERMITE = "hermite-galerkin"
SCHEME_SUPG = "hermite-supg"
SCHEMES = (SCHEME_LINEAR, SCHEME_HERMITE, SCHEME_SUPG)


@dataclass(frozen=True)
class BlockMatrixSpec:
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
            raise ValueError(f"r, s, t must be 0 or 1, got {(self.r, self.s, self.t)}")
        if self.q not in ("one", "V"):
            raise ValueError(f"q must be 'one' or 'V', got {self.q!r}")


@dataclass(frozen=True)
class StabilizationProfile:
    """Per-element stabilization parameter tau, length n+1.

    Element e (1-based) carries tau[e-1]; the first element, having no left
    neighbour, carries zero. Uniform neighbouring elements give tau = 0 and
    |tau| < h_e always (the 9/35 factor times a ratio below 1).
    """

    tau: np.ndarray

    def __post_init__(self):
        self.tau.setflags(write=False)


def compute_tau(mesh: Mesh) -> StabilizationProfile:
    """tau_j = (9/35) * h_{j+1} * (h_{j+1} - h_j) / (h_{j+1} + h_j) per element."""
    h = mesh.h
    tau = np.zeros(mesh.element_count)
    tau[1:] = (9.0 / 35.0) * h[1:] * (h[1:] - h[:-1]) / (h[1:] + h[:-1])
    return StabilizationProfile(tau=tau)


@dataclass(frozen=True)
class AssembledSystem:
    """One generalized eigenproblem lhs*X = lambda*rhs*X with its provenance."""

    scheme: str
    lhs: np.ndarray
    rhs: np.ndarray
    dof_blocks: tuple[tuple[str, int], ...]
    params: OperatorParams
    mesh: Mesh
    potential: PotentialModel
    tau: StabilizationProfile | None = None

    def __post_init__(self):
        self.lhs.setflags(write=False)
        self.rhs.setflags(write=False)

    @property
    def size(self) -> int:
        return self.lhs.shape[0]

    @property
    def dof_layout(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.dof_blocks)

    def block_slice(self, name: str) -> slice:
        start = 0
        for label, width in self.dof_blocks:
            if label == name:
                return slice(start, start + width)
            start += width
        raise KeyError(name)


# --- block kernel ------------------------------------------------------------


def _weight_at(spec: BlockMatrixSpec, potential: PotentialModel, x: np.ndarray) -> np.ndarray:
    w = np.ones_like(x)
    if spec.t:
        w = w / x
    if spec.q == "V":
        w = w * potential_value(potential, x)
    return w


def _dof_table(n: int, hermite: bool, free_lower_slope: bool) -> np.ndarray:
    """(element x local) dof indices of one component, -1 where the dof is eliminated.

    Local order per element is (left value, right value) for hats and
    (left value, left slope, right value, right slope) for Hermite.
    """
    value = np.r_[-1, np.arange(n), -1]  # per node 0..n+1
    if not hermite:
        return np.stack([value[:-1], value[1:]], axis=1)
    if free_lower_slope:
        slope = np.r_[n + np.arange(n + 1), -1]
    else:
        slope = np.where(value >= 0, n + value, -1)
    per_node = np.stack([value, slope], axis=1)
    return np.concatenate([per_node[:-1], per_node[1:]], axis=1)


def _assemble_block(spec: BlockMatrixSpec, basis: BasisFamily, potential: PotentialModel,
                    tau: StabilizationProfile | None = None,
                    free_lower_slope: bool = False) -> np.ndarray:
    """Dense block matrix over the active dofs of one spinor component."""
    mesh = basis.mesh
    hermite = basis.kind is BasisKind.CUBIC_HERMITE
    x, w = gauss_rule(mesh)
    w = w * _weight_at(spec, potential, x)
    if tau is not None:
        w = w * tau.tau[:, None]
    h, s = mesh.h[:, None], x - mesh.nodes[:-1, None]
    shapes = hermite_local if hermite else hat_local
    test = np.stack(shapes(h, s, spec.r), axis=1)
    trial = np.stack(shapes(h, s, spec.s), axis=1)
    local = np.einsum("eq,eaq,ebq->eab", w, test, trial)
    dofs = _dof_table(mesh.interior_count, hermite, free_lower_slope)
    size = dofs.max() + 1
    # eliminated dofs (-1) land in a padding row and column that is cut off;
    # unbuffered adds in element order sum each entry as an element loop would
    out = np.zeros((size + 1, size + 1))
    np.add.at(out, (dofs[:, :, None], dofs[:, None, :]), local)
    return out[:-1, :-1]


# --- schemes as tables of block terms ----------------------------------------

#: (matrix, row block, col block, integrand, coefficient(c, kappa, mc2), tau-weighted)
_GALERKIN = (
    ("lhs", 0, 0, BlockMatrixSpec(0, 0, 0), lambda c, k, mc2: mc2, False),
    ("lhs", 0, 0, BlockMatrixSpec(0, 0, 0, "V"), lambda c, k, mc2: 1.0, False),
    ("lhs", 0, 1, BlockMatrixSpec(0, 1, 0), lambda c, k, mc2: -c, False),
    ("lhs", 0, 1, BlockMatrixSpec(0, 0, 1), lambda c, k, mc2: c * k, False),
    ("lhs", 1, 0, BlockMatrixSpec(0, 1, 0), lambda c, k, mc2: c, False),
    ("lhs", 1, 0, BlockMatrixSpec(0, 0, 1), lambda c, k, mc2: c * k, False),
    ("lhs", 1, 1, BlockMatrixSpec(0, 0, 0), lambda c, k, mc2: -mc2, False),
    ("lhs", 1, 1, BlockMatrixSpec(0, 0, 0, "V"), lambda c, k, mc2: 1.0, False),
    ("rhs", 0, 0, BlockMatrixSpec(0, 0, 0), lambda c, k, mc2: 1.0, False),
    ("rhs", 1, 1, BlockMatrixSpec(0, 0, 0), lambda c, k, mc2: 1.0, False),
)

#: Couplings of the tau * v' part of the stabilized test space.
_STABILIZED = (
    ("lhs", 0, 0, BlockMatrixSpec(1, 1, 0), lambda c, k, mc2: c, True),
    ("lhs", 0, 0, BlockMatrixSpec(1, 0, 1), lambda c, k, mc2: c * k, True),
    ("lhs", 0, 1, BlockMatrixSpec(1, 0, 0), lambda c, k, mc2: -mc2, True),
    ("lhs", 0, 1, BlockMatrixSpec(1, 0, 0, "V"), lambda c, k, mc2: 1.0, True),
    ("lhs", 1, 0, BlockMatrixSpec(1, 0, 0), lambda c, k, mc2: mc2, True),
    ("lhs", 1, 0, BlockMatrixSpec(1, 0, 0, "V"), lambda c, k, mc2: 1.0, True),
    ("lhs", 1, 1, BlockMatrixSpec(1, 1, 0), lambda c, k, mc2: -c, True),
    ("lhs", 1, 1, BlockMatrixSpec(1, 0, 1), lambda c, k, mc2: c * k, True),
    ("rhs", 0, 1, BlockMatrixSpec(1, 0, 0), lambda c, k, mc2: 1.0, True),
    ("rhs", 1, 0, BlockMatrixSpec(1, 0, 0), lambda c, k, mc2: 1.0, True),
)

_SCHEME_TABLE = {
    SCHEME_LINEAR: (BasisKind.LINEAR_HAT, _GALERKIN),
    SCHEME_HERMITE: (BasisKind.CUBIC_HERMITE, _GALERKIN),
    SCHEME_SUPG: (BasisKind.CUBIC_HERMITE, _GALERKIN + _STABILIZED),
}


def assemble(scheme: str, params: OperatorParams, mesh: Mesh, potential: PotentialModel,
             free_lower_slope: bool = False,
             tau: StabilizationProfile | None = None) -> AssembledSystem:
    """Generalized eigensystem of one scheme (see SCHEMES).

    linear-galerkin and hermite-galerkin give symmetric pencils (2n and 4n
    dofs); hermite-supg tests against v + tau * v' and gives a nonsymmetric
    one, with ``tau`` defaulting to ``compute_tau(mesh)``; the Galerkin
    schemes take no ``tau``. Boundary conditions eliminate the value and
    slope dofs at both endpoints; ``free_lower_slope`` keeps the Hermite
    slope dof at the lower endpoint instead (the physically correct choice
    for |kappa| = 1).
    """
    if scheme not in _SCHEME_TABLE:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    kind, terms = _SCHEME_TABLE[scheme]
    if any(weighted for *_, weighted in terms):
        tau = compute_tau(mesh) if tau is None else tau
        if len(tau.tau) != mesh.element_count:
            raise ValueError("stabilization profile length does not match the mesh")
    elif tau is not None:
        raise ValueError(f"scheme {scheme!r} takes no stabilization profile")
    basis = BasisFamily(kind=kind, mesh=mesh)
    n = mesh.interior_count
    m = int(_dof_table(n, kind is BasisKind.CUBIC_HERMITE, free_lower_slope).max()) + 1
    pencil = {"lhs": np.zeros((2 * m, 2 * m)), "rhs": np.zeros((2 * m, 2 * m))}
    c, k, mc2 = params.c, params.kappa, params.rest_energy
    # each distinct block is built at its first term and dropped after its last
    last_use = {(spec, weighted): i for i, (*_, spec, _, weighted) in enumerate(terms)}
    blocks, started = {}, set()
    for i, (matrix, row, col, spec, coefficient, weighted) in enumerate(terms):
        key = (spec, weighted)
        if key not in blocks:
            blocks[key] = _assemble_block(spec, basis, potential, tau if weighted else None,
                                          free_lower_slope)
        block = blocks.pop(key) if last_use[key] == i else blocks[key]
        view = pencil[matrix][row * m:(row + 1) * m, col * m:(col + 1) * m]
        # a block's first term is stored, not added to zero, which would
        # turn its -0.0 entries into +0.0
        if (matrix, row, col) in started:
            view += coefficient(c, k, mc2) * block
        else:
            np.multiply(coefficient(c, k, mc2), block, out=view)
            started.add((matrix, row, col))
    if kind is BasisKind.LINEAR_HAT:
        dof_blocks = (("zeta", n), ("xi", n))
    else:
        dof_blocks = (("zeta", n), ("zeta_prime", m - n), ("xi", n), ("xi_prime", m - n))
    return AssembledSystem(scheme=scheme, lhs=pencil["lhs"], rhs=pencil["rhs"],
                           dof_blocks=dof_blocks, params=params, mesh=mesh,
                           potential=potential, tau=tau)
