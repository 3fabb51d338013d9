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

The coefficients are those of the binding-form pencil (A - mc^2 B, B) of
the Dirac pencil (A, B): the rest energy cancels term by term here, so no
bound level is ever computed as a small difference of energies near mc^2.

Degree-of-freedom layout (boundary dofs eliminated):
  linear:   [f values at nodes 1..n | g values at nodes 1..n]
  Hermite:  [f values 1..n | f slopes 1..n | g values 1..n | g slopes 1..n]
With the free lower slope option the slope lists start at node 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .discretization import BasisKind, Mesh, gauss_rule, hat_local, hermite_local
from .errors import PhysicsError
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


def compute_tau(mesh: Mesh) -> np.ndarray:
    """Per-element stabilization parameter, a read-only array of length n+1.

    tau_j = (9/35) * h_{j+1} * (h_{j+1} - h_j) / (h_{j+1} + h_j): element e
    (1-based) carries tau[e-1], and the first element, having no left
    neighbour, carries zero. Uniform neighbouring elements give tau = 0 and
    |tau| < h_e always (the 9/35 factor times a ratio below 1).
    """
    h = mesh.h
    tau = np.zeros(mesh.element_count)
    tau[1:] = (9.0 / 35.0) * h[1:] * (h[1:] - h[:-1]) / (h[1:] + h[:-1])
    tau.setflags(write=False)
    return tau


@dataclass(frozen=True)
class AssembledSystem:
    """One generalized eigenproblem lhs*X = mu*rhs*X of one scheme.

    The pencil is in binding form: its eigenvalues are the bindings
    mu = lambda - m*c^2 of the Dirac energies lambda. It is stored sparse
    (``lhs_csc``, ``rhs_csc``, read-only); ``lhs`` and ``rhs`` are dense
    C-ordered copies for the full-spectrum solve and for tests.
    """

    scheme: str
    lhs_csc: scipy.sparse.csc_array
    rhs_csc: scipy.sparse.csc_array
    dof_blocks: tuple[tuple[str, int], ...]
    params: OperatorParams

    def __post_init__(self):
        for matrix in (self.lhs_csc, self.rhs_csc):
            for part in (matrix.data, matrix.indices, matrix.indptr):
                part.setflags(write=False)

    @property
    def lhs(self) -> np.ndarray:
        return _dense_view(self.lhs_csc)

    @property
    def rhs(self) -> np.ndarray:
        return _dense_view(self.rhs_csc)

    @property
    def size(self) -> int:
        return self.lhs_csc.shape[0]


def _dense_view(matrix: scipy.sparse.csc_array) -> np.ndarray:
    dense = matrix.toarray(order="C")
    dense.setflags(write=False)
    return dense


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


def _element_integrals(spec: BlockMatrixSpec, kind: BasisKind, mesh: Mesh,
                       potential: PotentialModel, tau: np.ndarray | None = None) -> np.ndarray:
    """(element, test a, trial b) integrals of one block integrand."""
    x, w = gauss_rule(mesh)
    w = w * _weight_at(spec, potential, x)
    if tau is not None:
        w = w * tau[:, None]
    h, s = mesh.h[:, None], x - mesh.nodes[:-1, None]
    shapes = hermite_local if kind is BasisKind.CUBIC_HERMITE else hat_local
    test = np.stack(shapes(h, s, spec.r), axis=1)
    trial = np.stack(shapes(h, s, spec.s), axis=1)
    return np.einsum("eq,eaq,ebq->eab", w, test, trial)


def _scatter(dofs: np.ndarray, local: np.ndarray,
             coupled: np.ndarray | bool = True) -> scipy.sparse.csc_array:
    """CSC matrix summing each local entry (e, a, b) at (dofs[e, a], dofs[e, b]).

    The pattern holds the local entries where ``coupled`` (a local
    (a, b) mask) is true and neither dof is eliminated (-1). Unbuffered adds in element order sum
    each entry as an element loop would.
    """
    size = int(dofs.max()) + 1
    rows, cols = np.broadcast_arrays(dofs[:, :, None], dofs[:, None, :])
    active = (rows >= 0) & (cols >= 0) & coupled
    keys, slots = np.unique(cols[active] * size + rows[active], return_inverse=True)
    data = np.zeros(len(keys))
    np.add.at(data, slots, local[active])
    indptr = np.searchsorted(keys // size, np.arange(size + 1))
    return scipy.sparse.csc_array((data, keys % size, indptr), shape=(size, size))


def _assemble_block(spec: BlockMatrixSpec, kind: BasisKind, mesh: Mesh,
                    potential: PotentialModel, tau: np.ndarray | None = None,
                    free_lower_slope: bool = False) -> scipy.sparse.csc_array:
    """Sparse block matrix over the active dofs of one spinor component."""
    dofs = _dof_table(mesh.interior_count, kind is BasisKind.CUBIC_HERMITE, free_lower_slope)
    return _scatter(dofs, _element_integrals(spec, kind, mesh, potential, tau))


# --- schemes as tables of block terms ----------------------------------------

#: (matrix, row block, col block, integrand, coefficient(c, kappa, mc2), tau-weighted)
#: of the pencil in binding form: lhs = A - mc2*B and rhs = B for the
#: Dirac pencil A*x = lambda*B*x, so its eigenvalues are mu = lambda - mc2.
_GALERKIN = (
    ("lhs", 0, 0, BlockMatrixSpec(0, 0, 0, "V"), lambda c, k, mc2: 1.0, False),
    ("lhs", 0, 1, BlockMatrixSpec(0, 1, 0), lambda c, k, mc2: -c, False),
    ("lhs", 0, 1, BlockMatrixSpec(0, 0, 1), lambda c, k, mc2: c * k, False),
    ("lhs", 1, 0, BlockMatrixSpec(0, 1, 0), lambda c, k, mc2: c, False),
    ("lhs", 1, 0, BlockMatrixSpec(0, 0, 1), lambda c, k, mc2: c * k, False),
    ("lhs", 1, 1, BlockMatrixSpec(0, 0, 0), lambda c, k, mc2: -2.0 * mc2, False),
    ("lhs", 1, 1, BlockMatrixSpec(0, 0, 0, "V"), lambda c, k, mc2: 1.0, False),
    ("rhs", 0, 0, BlockMatrixSpec(0, 0, 0), lambda c, k, mc2: 1.0, False),
    ("rhs", 1, 1, BlockMatrixSpec(0, 0, 0), lambda c, k, mc2: 1.0, False),
)

#: Couplings of the tau * v' part of the stabilized test space.
_STABILIZED = (
    ("lhs", 0, 0, BlockMatrixSpec(1, 1, 0), lambda c, k, mc2: c, True),
    ("lhs", 0, 0, BlockMatrixSpec(1, 0, 1), lambda c, k, mc2: c * k, True),
    ("lhs", 0, 1, BlockMatrixSpec(1, 0, 0), lambda c, k, mc2: -2.0 * mc2, True),
    ("lhs", 0, 1, BlockMatrixSpec(1, 0, 0, "V"), lambda c, k, mc2: 1.0, True),
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
             tau: np.ndarray | None = None) -> AssembledSystem:
    """Generalized eigensystem of one scheme (see SCHEMES), in binding form.

    linear-galerkin and hermite-galerkin give symmetric pencils (2n and 4n
    dofs); hermite-supg tests against v + tau * v' and gives a nonsymmetric
    one, with the per-element ``tau`` array defaulting to
    ``compute_tau(mesh)`` (a given ``tau`` must be finite); the Galerkin
    schemes take no ``tau``. The
    potential's charge must be ``params.Z`` (PhysicsError otherwise).
    Boundary conditions eliminate the value and slope dofs at both
    endpoints; ``free_lower_slope`` keeps the Hermite slope dof at the lower
    endpoint instead (the physically correct choice for |kappa| = 1). The
    hat basis has no slope dof, so linear-galerkin rejects it. Each pencil
    matrix is summed element by element into one CSC pattern: the blocks
    its terms touch.
    """
    if scheme not in _SCHEME_TABLE:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    kind, terms = _SCHEME_TABLE[scheme]
    if any(weighted for *_, weighted in terms):
        tau = compute_tau(mesh) if tau is None else np.asarray(tau, dtype=float)
        if tau.shape != (mesh.element_count,):
            raise ValueError(f"tau needs one value per element ({mesh.element_count}), "
                             f"got shape {tau.shape}")
        if not np.isfinite(tau).all():
            raise ValueError("tau must be finite")
    elif tau is not None:
        raise ValueError(f"scheme {scheme!r} takes no stabilization parameter tau")
    if free_lower_slope and kind is BasisKind.LINEAR_HAT:
        raise ValueError(f"scheme {scheme!r} has no slope dof to free")
    if potential.Z != params.Z:
        raise PhysicsError(f"potential charge {potential.Z} does not match Z={params.Z}")
    n = mesh.interior_count
    dofs = _dof_table(n, kind is BasisKind.CUBIC_HERMITE, free_lower_slope)
    m, width = int(dofs.max()) + 1, dofs.shape[1]
    # pencil dofs per element: the f dofs, then the g dofs offset by m
    pencil_dofs = np.concatenate([dofs, np.where(dofs >= 0, dofs + m, -1)], axis=1)
    local = {name: np.zeros((mesh.element_count, 2 * width, 2 * width)) for name in ("lhs", "rhs")}
    coupled = {name: np.zeros((2, 2), dtype=bool) for name in ("lhs", "rhs")}
    integrals = {}  # (spec, tau-weighted) -> element integrals
    c, k, mc2 = params.c, params.kappa, params.rest_energy
    for matrix, row, col, spec, coefficient, weighted in terms:
        if (spec, weighted) not in integrals:
            integrals[spec, weighted] = _element_integrals(spec, kind, mesh, potential,
                                                           tau if weighted else None)
        block = np.s_[:, row * width:(row + 1) * width, col * width:(col + 1) * width]
        local[matrix][block] += coefficient(c, k, mc2) * integrals[spec, weighted]
        coupled[matrix][row, col] = True
    lhs, rhs = (_scatter(pencil_dofs, local[name],
                         coupled[name].repeat(width, axis=0).repeat(width, axis=1))
                for name in ("lhs", "rhs"))
    if kind is BasisKind.LINEAR_HAT:
        dof_blocks = (("zeta", n), ("xi", n))
    else:
        dof_blocks = (("zeta", n), ("zeta_prime", m - n), ("xi", n), ("xi_prime", m - n))
    return AssembledSystem(scheme=scheme, lhs_csc=lhs, rhs_csc=rhs,
                           dof_blocks=dof_blocks, params=params)
