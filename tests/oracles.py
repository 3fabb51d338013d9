"""Independent oracles the package is checked against.

``eval_hat`` and ``eval_hermite`` evaluate one global basis function of a
node; ``element_integral`` evaluates one block-matrix entry straight from
the basis functions of its two dofs; ``assemble_block`` sums the package's
element integrals of one integrand into a dense block matrix, and
``block_order`` permutes a node-order pencil into the same block layout;
``band_storage`` writes a dense matrix in LAPACK band storage;
``superlu_count`` counts a symmetric-definite pencil's eigenvalues below a
shift from SuperLU's unpivoted LDL^T, the inertia count's oracle;
``component_coefficients`` reads one spinor component of an eigenvector,
and ``eigenpair_component`` evaluates it with ``hermite_interpolate``;
``dense_bindings`` solves the whole pencil densely, the oracle of the
windowed solve, and ``dense_bindings_in_workers`` runs it on several
pencils side by side; ``rayleigh_quotients`` gives the extended-precision
Rayleigh quotients of eigenvectors, and ``dense_rayleigh_bindings`` those
of the dense solver's own eigenvectors; ``dense_two_sided_bindings`` gives
the two-sided quotients of the dense QZ right and left eigenvectors of the
stabilized pencil; ``closed_form_element_entries``
gives the exact polynomial integrals the 4-point rule must reproduce. The
Hermite interpolation-error helpers, ``potential_w``,
``accumulation_point`` and the first-order residual functionals and nodal
propagation of the radial system restate the model in its plainest form.
"""

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from unittest import mock

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from diracfem.assembly import (
    SCHEME_LINEAR,
    SCHEME_SUPG,
    AssembledSystem,
    BlockMatrixSpec,
    _element_kernel,
    part_dofs,
)
from diracfem.discretization import (
    BasisKind,
    Mesh,
    gauss_rule,
    hat_local,
    hermite_local,
)
from diracfem.eigensolver import DEFAULT_REALITY_TOL, PIVOT_TOL, Spectrum, _check_reality
from diracfem.errors import SingularSystemError, SolverError
from diracfem.physics import OperatorParams, potential_value


def _node_branches(mesh: Mesh, j: int, x):
    """Masks selecting the two support elements of node j.

    Points exactly on a node belong to the element on their left, so values
    at x_j come from I_j and at x_{j+1} from I_{j+1}; everything outside
    [x_{j-1}, x_{j+1}] evaluates to exactly zero.
    """
    nodes = mesh.nodes
    x = np.asarray(x, dtype=float)
    left = (x > nodes[j - 1]) & (x <= nodes[j]) if j >= 1 else np.zeros(x.shape, bool)
    if j + 1 <= mesh.interior_count + 1:
        right = (x > nodes[j]) & (x <= nodes[j + 1])
    else:
        right = np.zeros(x.shape, bool)
    return x, left, right


def eval_hat(mesh: Mesh, j: int, x, order: int = 0):
    """Evaluate hat function j (interior node index, 1..n) or its derivative."""
    if order not in (0, 1):
        raise ValueError(f"unsupported derivative order {order} for linear hats")
    _check_node(mesh, j)
    x, left, right = _node_branches(mesh, j, x)
    nodes, h = mesh.nodes, mesh.h
    out = np.zeros(x.shape, dtype=float)
    if left.any():
        out[left] = hat_local(h[j - 1], x[left] - nodes[j - 1], order)[1]
    if right.any():
        out[right] = hat_local(h[j], x[right] - nodes[j], order)[0]
    return out if out.shape else float(out)


def eval_hermite(mesh: Mesh, j: int, part: str, x, order: int = 0):
    """Evaluate Hermite function of node j or its first derivative.

    ``part`` selects the value-interpolating ("value") or the
    slope-interpolating ("slope") member of the pair at node j.
    """
    if order not in (0, 1):
        raise ValueError(f"unsupported derivative order {order} for eval_hermite")
    if part not in ("value", "slope"):
        raise ValueError(f"part must be 'value' or 'slope', got {part!r}")
    _check_node(mesh, j, allow_boundary=True)
    x, left, right = _node_branches(mesh, j, x)
    nodes, h = mesh.nodes, mesh.h
    sel = 2 if part == "value" else 3  # right-node pieces of the left element
    out = np.zeros(x.shape, dtype=float)
    if left.any():
        out[left] = hermite_local(h[j - 1], x[left] - nodes[j - 1], order)[sel]
    if right.any():
        out[right] = hermite_local(h[j], x[right] - nodes[j], order)[sel - 2]
    return out if out.shape else float(out)


def _check_node(mesh: Mesh, j: int, allow_boundary: bool = False):
    lo, hi = (0, mesh.interior_count + 1) if allow_boundary else (1, mesh.interior_count)
    if not (lo <= j <= hi):
        raise IndexError(f"node index {j} out of range {lo}..{hi}")


def _weight_at(spec: BlockMatrixSpec, params: OperatorParams, x: np.ndarray) -> np.ndarray:
    w = np.ones_like(x)
    if spec.t:
        w = w / x
    if spec.q == "V":
        w = w * potential_value(params, x)
    return w


def element_integral(spec: BlockMatrixSpec, kind: BasisKind, mesh: Mesh,
                     params: OperatorParams, test_dof: int, trial_dof: int) -> float:
    """Single block-matrix entry; 0 without quadrature when supports are disjoint.

    Dof indices follow the component layout: 0..n-1 are nodal values at
    interior nodes 1..n and, for Hermite, n..2n-1 the nodal slopes.
    """
    n = mesh.interior_count
    hermite = kind is BasisKind.CUBIC_HERMITE
    dof_count = 2 * n if hermite else n
    for dof in (test_dof, trial_dof):
        if not (0 <= dof < dof_count):
            raise IndexError(f"dof index {dof} out of range 0..{dof_count - 1}")

    def node_part(dof):
        if hermite and dof >= n:
            return dof - n + 1, 3  # slope piece index in hermite_local order
        return dof + 1, 2

    t_node, t_sel = node_part(test_dof)
    s_node, s_sel = node_part(trial_dof)
    if abs(t_node - s_node) >= 2:
        return 0.0
    elements = {e for e in (t_node, t_node + 1) if 1 <= e <= mesh.element_count}
    elements &= {e for e in (s_node, s_node + 1) if 1 <= e <= mesh.element_count}
    total = 0.0
    points, weights = gauss_rule(mesh)
    for e in sorted(elements):
        xq = points[e - 1]
        w = weights[e - 1] * _weight_at(spec, params, xq)
        h = mesh.h[e - 1]
        s = xq - mesh.nodes[e - 1]
        if hermite:
            test = hermite_local(h, s, spec.r)[t_sel if e == t_node else t_sel - 2]
            trial = hermite_local(h, s, spec.s)[s_sel if e == s_node else s_sel - 2]
        else:
            test = hat_local(h, s, spec.r)[1 if e == t_node else 0]
            trial = hat_local(h, s, spec.s)[1 if e == s_node else 0]
        total += float(np.dot(w, test * trial))
    return total


def assemble_block(spec: BlockMatrixSpec, kind: BasisKind, mesh: Mesh,
                   params: OperatorParams, tau: np.ndarray | None = None,
                   free_lower_slope: bool = False) -> np.ndarray:
    """Dense block matrix of one integrand over the active dofs of one spinor component.

    Dofs follow the layout of ``element_integral``: values at nodes 1..n,
    then for Hermite the slopes, which start at node 0 with
    ``free_lower_slope``. The package's element integrals are summed entry
    by entry in element order.
    """
    n = mesh.interior_count
    value = np.r_[-1, np.arange(n), -1]  # per node 0..n+1, -1 where eliminated
    if kind is BasisKind.LINEAR_HAT:
        dofs = np.stack([value[:-1], value[1:]], axis=1)
    else:
        if free_lower_slope:
            slope = np.r_[n + np.arange(n + 1), -1]
        else:
            slope = np.where(value >= 0, n + value, -1)
        per_node = np.stack([value, slope], axis=1)
        dofs = np.concatenate([per_node[:-1], per_node[1:]], axis=1)
    local = _element_kernel(kind, mesh, params)(spec, tau)
    rows, cols = np.broadcast_arrays(dofs[:, :, None], dofs[:, None, :])
    active = (rows >= 0) & (cols >= 0)
    block = np.zeros((dofs.max() + 1,) * 2)
    np.add.at(block, (rows[active], cols[active]), local[active])
    return block


def block_order(system: AssembledSystem) -> np.ndarray:
    """The node-order dofs of ``system`` in block layout.

    The layout is [f values | f slopes | g values | g slopes], each over the
    nodes in order, the dof order of ``assemble_block`` per component:
    ``system.lhs[np.ix_(order, order)]`` is lhs in block layout.
    """
    return np.concatenate([part_dofs(system.scheme, system.size, part)
                           for part in ("zeta", "zeta_prime", "xi", "xi_prime")])


def component_coefficients(spectrum: Spectrum, index: int, component: str):
    """Nodal (values, slopes) of spinor component 'f' or 'g' for bound state ``index``.

    For the linear scheme the slope array is None.
    """
    parts = {"f": ("zeta", "zeta_prime"), "g": ("xi", "xi_prime")}
    if component not in parts:
        raise ValueError(f"component must be 'f' or 'g', got {component!r}")
    vec = spectrum.eigenvectors[:, index]
    values, slopes = (vec[part_dofs(spectrum.scheme, len(vec), part)]
                      for part in parts[component])
    return values, None if spectrum.scheme == SCHEME_LINEAR else slopes


def eigenpair_component(spectrum: Spectrum, mesh: Mesh, index: int, component: str):
    """Hermite spinor component 'f' or 'g' of bound state ``index`` and its derivative, as callables.

    The boundary dofs are zero, the solver's convention with a fixed lower slope.
    """
    n = mesh.interior_count
    values, slopes = np.zeros(n + 2), np.zeros(n + 2)
    values[1:n + 1], slopes[1:n + 1] = component_coefficients(spectrum, index, component)
    return (lambda x: hermite_interpolate(mesh, values, slopes, x, 0),
            lambda x: hermite_interpolate(mesh, values, slopes, x, 1))


def band_storage(matrix, hb: int) -> np.ndarray:
    """LAPACK band storage of the entries of a square matrix within hb of its diagonal."""
    matrix = np.asarray(matrix, dtype=float)
    size = matrix.shape[0]
    band = np.zeros((2 * hb + 1, size), order="F")
    reach = min(hb, size - 1)
    for d in range(-reach, reach + 1):  # entry (i, i + d) sits in row hb - d, column i + d
        band[hb - d, max(d, 0):size + min(d, 0)] = np.diagonal(matrix, d)
    return band


def superlu_count(system: AssembledSystem, s: float) -> int:
    """The number of eigenvalues below s of a symmetric-definite band pencil, by SuperLU.

    SuperLU factors lhs - s*rhs in node order with no pivoting (natural
    orderings, no diagonal pivoting, symmetric mode), from a CSC copy of
    the band, and the count is the number of negative pivots of that
    LDL^T. A permuted factorization, an exactly zero pivot or a pivot at
    most PIVOT_TOL of its own row's largest entry raises SolverError.
    """
    hb, size = system.lhs_band.shape[0] // 2, system.size
    shifted = np.multiply(system.rhs_band, -s)
    shifted += system.lhs_band
    # band column j is CSC column j; its slot in band row r holds row j + r - hb
    rows = np.arange(size)[:, None] + np.arange(-hb, hb + 1)
    inside = (rows >= 0) & (rows < size)
    indptr = np.concatenate([[0], np.cumsum(inside.sum(axis=1))])
    matrix = scipy.sparse.csc_array((shifted.T[inside], rows[inside], indptr),
                                    shape=(size, size))
    try:
        lu = scipy.sparse.linalg.splu(matrix, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                                      options={"SymmetricMode": True, "Equil": False})
    except RuntimeError as exc:  # an exactly zero pivot
        raise SolverError(f"SuperLU count at {s!r} failed: {exc}") from exc
    natural = np.arange(size)
    if not (np.array_equal(lu.perm_r, natural) and np.array_equal(lu.perm_c, natural)):
        raise SolverError(f"SuperLU count at {s!r}: the LDL^T factorization was permuted")
    pivots = lu.U.diagonal()
    # lhs - s*rhs is symmetric: its row i holds the entries of CSC column i
    row_max = np.maximum.reduceat(np.abs(matrix.data), indptr[:-1])
    if not (np.abs(pivots) > PIVOT_TOL * row_max).all():
        raise SolverError(f"SuperLU count at {s!r}: a pivot is tiny against its row's entries")
    return int(np.count_nonzero(pivots < 0))


# --- dense full-spectrum solve (eigensolver oracle) --------------------------


@dataclass(frozen=True)
class DenseBindings:
    """Every finite eigenvalue of one pencil; it has no eigenvectors.

    ``bindings`` holds the bindings mu inside a window, ascending: the bound
    window (-2mc^2, 0) of ``dense_bindings``, or the window given to
    ``dense_two_sided_bindings``, as quotients. ``raw`` holds every finite
    eigenvalue lambda = mu + m*c^2, ascending.
    ``scheme``, ``bindings`` and ``params`` are what the pipeline reads of a
    Spectrum, so it can stand in for one.
    """

    scheme: str
    bindings: np.ndarray
    raw: np.ndarray
    max_imag: float
    params: OperatorParams


def dense_bindings(system: AssembledSystem,
                   reality_tol: float = DEFAULT_REALITY_TOL) -> DenseBindings:
    """All eigenvalues of the binding-form pencil, solved densely.

    Galerkin pencils go to the symmetric-definite driver (real by
    construction), the stabilized (nonsymmetric) pencil to the general QZ
    routine, where any finite eigenvalue whose imaginary part exceeds
    ``reality_tol`` relative to its magnitude raises ComplexSpectrumError.
    An rhs with no finite eigenvalue against it, or one the
    symmetric-definite driver cannot factor, raises SingularSystemError.
    """
    mc2 = system.params.rest_energy
    lhs, rhs = system.lhs, system.rhs
    if system.scheme == SCHEME_SUPG:
        mu = scipy.linalg.eigvals(lhs, rhs)
    else:
        try:
            mu = scipy.linalg.eigh(lhs, rhs, eigvals_only=True)
        except scipy.linalg.LinAlgError as exc:
            raise SingularSystemError(f"symmetric-definite solve failed: {exc}") from exc
    finite, max_imag = _finite_real(system, mu, reality_tol)
    mu = np.sort(mu[finite].real)
    bound = (mu > -2.0 * mc2) & (mu < 0.0)
    return DenseBindings(scheme=system.scheme, bindings=mu[bound], raw=mu + mc2,
                         max_imag=max_imag, params=system.params)


def _finite_real(system: AssembledSystem, mu: np.ndarray, reality_tol: float):
    """The finite mask of the dense eigenvalues ``mu``, and their largest |Im lambda|.

    Raises as ``dense_bindings`` does: SingularSystemError if no eigenvalue
    is finite, ComplexSpectrumError if a finite one is not real to
    ``reality_tol``.
    """
    if not 0.0 <= reality_tol < np.inf:
        raise ValueError(f"reality_tol must be finite and >= 0, got {reality_tol}")
    finite = np.isfinite(mu)
    if not finite.any():
        raise SingularSystemError("no finite eigenvalues: rhs numerically singular")
    return finite, _check_reality(mu[finite] + system.params.rest_energy, reality_tol)


def _quotients(system: AssembledSystem, right, left) -> np.ndarray:
    """y^H lhs x / y^H rhs x of each pair of node-order columns x, y, summed in extended precision.

    The sums run over the stored band entries, so they carry none of the
    rounding of a double-precision eigensolve.
    """
    precision = np.clongdouble if np.iscomplexobj(right) or np.iscomplexobj(left) else np.longdouble
    x = np.asarray(right).astype(precision)
    y = np.conj(np.asarray(left).astype(precision))
    hb, size = system.lhs_band.shape[0] // 2, system.size
    cols = np.broadcast_to(np.arange(size), system.lhs_band.shape)
    rows = cols + np.arange(-hb, hb + 1)[:, None]  # the entry each band slot holds
    inside = (rows >= 0) & (rows < size)
    products = y[rows[inside]] * x[cols[inside]]
    lhs, rhs = ((band[inside].astype(np.longdouble)[:, None] * products).sum(axis=0)
                for band in (system.lhs_band, system.rhs_band))
    return lhs / rhs


def rayleigh_quotients(system: AssembledSystem, vectors) -> np.ndarray:
    """v^T lhs v / v^T rhs v of each real node-order column v, summed in long double.

    The quotient of a vector with residual r misses its eigenvalue of a
    symmetric pencil by O(|r|^2) only.
    """
    return _quotients(system, vectors, vectors).astype(float)


def dense_rayleigh_bindings(system: AssembledSystem, lo: float, hi: float) -> np.ndarray:
    """``rayleigh_quotients`` of the dense eigh eigenvectors of a Galerkin pencil in (lo, hi).

    The dense symmetric-definite driver loses digits on levels near the
    accumulation point; the quotients of its eigenvectors do not.
    """
    mu, vecs = scipy.linalg.eigh(system.lhs, system.rhs)
    return rayleigh_quotients(system, vecs[:, (mu > lo) & (mu < hi)])


def dense_two_sided_bindings(system: AssembledSystem, lo: float, hi: float,
                             reality_tol: float = DEFAULT_REALITY_TOL) -> DenseBindings:
    """Two-sided quotients y^H lhs x / y^H rhs x of the dense QZ eigenpairs in (lo, hi).

    x and y are QZ's own right and left eigenvectors of the (nonsymmetric)
    stabilized pencil, the quotients are summed in long double and their
    real parts are the ``bindings``, ascending in QZ's eigenvalue. A
    two-sided quotient misses its eigenvalue by the product of the errors
    of x and y, so it carries little of the rounding of QZ's eigenvalues
    themselves. The same QZ solve gives ``raw``, and the reality check runs
    over all of it, as in ``dense_bindings``.
    """
    mu, left, right = scipy.linalg.eig(system.lhs, system.rhs, left=True, right=True)
    finite, max_imag = _finite_real(system, mu, reality_tol)
    keep = np.flatnonzero(finite & (mu.real > lo) & (mu.real < hi))
    keep = keep[np.argsort(mu.real[keep])]
    return DenseBindings(
        scheme=system.scheme,
        bindings=_quotients(system, right[:, keep], left[:, keep]).real.astype(float),
        raw=np.sort(mu[finite].real) + system.params.rest_energy, max_imag=max_imag,
        params=system.params)


#: Galerkin bindings against ``dense_rayleigh_bindings`` (measured: at most
#: 6.7e-16 relative on every test that reads it, with one BLAS thread or two)
GALERKIN_ORACLE_RTOL = 1e-13


#: Set to 1 in the workers' environment, so that each worker's BLAS runs one thread.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def dense_bindings_in_workers(systems, timeout: float) -> list[DenseBindings]:
    """``dense_bindings`` of each system, in one spawned worker process per system.

    BLAS threads do not overlap two QZ solves, processes do. Each worker
    runs one BLAS thread, so the workers do not compete for the cores. A
    result not back within ``timeout`` seconds raises TimeoutError, after
    the workers are killed.
    """
    with (mock.patch.dict(os.environ, dict.fromkeys(BLAS_THREAD_VARIABLES, "1")),
          ProcessPoolExecutor(len(systems),
                              mp_context=multiprocessing.get_context("spawn")) as pool):
        futures = [pool.submit(dense_bindings, system) for system in systems]
        try:
            return [future.result(timeout=timeout) for future in futures]
        except TimeoutError:
            for worker in multiprocessing.active_children():
                worker.kill()
            raise


# --- closed-form element integrals (assembly oracle) ------------------------


def closed_form_element_entries(mesh: Mesh, j: int) -> dict[str, np.ndarray]:
    """Exact rows j (values) and j+n (slopes) of the four polynomial blocks.

    Returns, per matrix, a (2, 6) array over the columns
    (j-1, j, j+1, j-1+n, j+n, j+1+n). The integrands are polynomial, so
    these are the exact integrals the 4-point rule must reproduce.
    """
    if not (1 <= j <= mesh.interior_count):
        raise IndexError(f"node index {j} out of range 1..{mesh.interior_count}")
    hj = mesh.h[j - 1]
    hj1 = mesh.h[j]
    mm000 = np.array([
        [9 / 70 * hj, 13 / 35 * (hj + hj1), 9 / 70 * hj1,
         13 / 420 * hj**2, 11 / 210 * (hj1**2 - hj**2), -13 / 420 * hj1**2],
        [-13 / 420 * hj**2, 11 / 210 * (hj1**2 - hj**2), 13 / 420 * hj1**2,
         -1 / 140 * hj**3, 1 / 105 * (hj**3 + hj1**3), -1 / 140 * hj1**3],
    ])
    mm100 = np.array([
        [0.5, 0.0, -0.5, hj / 10, -(hj + hj1) / 10, hj1 / 10],
        [-hj / 10, (hj + hj1) / 10, -hj1 / 10, -hj**2 / 60, 0.0, hj1**2 / 60],
    ])
    mm110 = np.array([
        [-6 / 5 / hj, 6 / 5 * (hj + hj1) / (hj * hj1), -6 / 5 / hj1, -0.1, 0.0, 0.1],
        [0.1, 0.0, -0.1, -hj / 30, 2 / 15 * (hj + hj1), -hj1 / 30],
    ])
    mm010 = -mm100  # transpose pair: same rows with opposite sign
    return {"MM000": mm000, "MM100": mm100, "MM010": mm010, "MM110": mm110}


# --- Hermite interpolation ---------------------------------------------------


def hermite_interpolate(mesh: Mesh, values, slopes, x, order: int = 0):
    """Evaluate the Hermite interpolant with given nodal values and slopes, or its derivative.

    ``values`` and ``slopes`` cover all nodes 0..n+1; ``order`` is 0 or 1.
    """
    values = np.asarray(values, dtype=float)
    slopes = np.asarray(slopes, dtype=float)
    x = np.asarray(x, dtype=float)
    nodes, h = mesh.nodes, mesh.h
    e = np.clip(np.searchsorted(nodes, x, side="right") - 1, 0, mesh.element_count - 1)
    lv, ls, rv, rs = hermite_local(h[e], x - nodes[e], order)
    out = values[e] * lv + slopes[e] * ls + values[e + 1] * rv + slopes[e + 1] * rs
    return out if out.shape else float(out)


def hermite_interpolation_max_error(f, df, a: float, b: float, n_elements: int,
                                    samples_per_element: int = 24) -> float:
    """Max-norm error of the Hermite interpolant of f on a uniform mesh."""
    nodes = np.linspace(a, b, n_elements + 1)
    mesh = Mesh(nodes)
    values = np.array([f(x) for x in nodes])
    slopes = np.array([df(x) for x in nodes])
    t = np.linspace(0.0, 1.0, samples_per_element, endpoint=False)[1:]
    xs = (nodes[:-1, None] + np.diff(nodes)[:, None] * t[None, :]).ravel()
    exact = np.array([f(x) for x in xs])
    return float(np.max(np.abs(hermite_interpolate(mesh, values, slopes, xs) - exact)))


def hermite_interpolation_error_order(f, df, a: float, b: float, mesh_sizes) -> float:
    """Observed convergence order of the max-norm Hermite interpolation error.

    Fits the slope of log(error) against log(h) over uniform meshes with the
    given target element sizes. Functions reproduced exactly (degree <= 3)
    yield errors at rounding level; the fit then returns ``inf``.
    """
    mesh_sizes = list(mesh_sizes)
    if len(mesh_sizes) < 3:
        raise ValueError("degenerate fit: need at least 3 mesh sizes")
    hs, errs = [], []
    for h in mesh_sizes:
        n_elem = max(1, round((b - a) / h))
        hs.append((b - a) / n_elem)
        errs.append(hermite_interpolation_max_error(f, df, a, b, n_elem))
    hs, errs = np.array(hs), np.array(errs)
    if np.all(errs < 1e-14):
        return float("inf")
    return float(np.polyfit(np.log(hs), np.log(errs), 1)[0])


# --- the radial system in first-order form ----------------------------------


def potential_w(params: OperatorParams, sign: int, x):
    """w_plusminus(x) = sign * m*c^2 + V(x) with sign = +1 or -1."""
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    return sign * params.rest_energy + potential_value(params, x)


def accumulation_point(params: OperatorParams) -> float:
    """Sole accumulation point of the eigenvalues: the rest energy m*c^2."""
    return params.rest_energy


def supg_residuals(params: OperatorParams, lam: float, f, df, g, dg):
    """Residual functionals of the two first-order equations, as callables.

    re1(x) = (w+ - lam) f - c g' + (c kappa / x) g
    re2(x) = (w- - lam) g + c f' + (c kappa / x) f
    Both vanish identically on an exact eigenpair.
    """
    mc2, c, k = params.rest_energy, params.c, params.kappa

    def re1(x):
        x = np.asarray(x, dtype=float)
        V = potential_value(params, x)
        return (mc2 + V - lam) * np.asarray(f(x)) - c * np.asarray(dg(x)) \
            + (c * k / x) * np.asarray(g(x))

    def re2(x):
        x = np.asarray(x, dtype=float)
        V = potential_value(params, x)
        return (-mc2 + V - lam) * np.asarray(g(x)) + c * np.asarray(df(x)) \
            + (c * k / x) * np.asarray(f(x))

    return re1, re2


def nodal_propagation(params: OperatorParams, x_j: float, h_j: float, h_j1: float,
                      zeta_j: float, xi_j: float, lam: float):
    """First-order nodal propagation to the two neighbouring nodes.

    Backward/forward difference approximations of the derivatives in the
    coupled first-order system give (zeta_{j-1}, xi_{j-1}, zeta_{j+1},
    xi_{j+1}) from the values at x_j, with O(h) accuracy.
    """
    if x_j <= 0:
        raise ValueError("x_j must be positive")
    c, k, mc2 = params.c, params.kappa, params.rest_energy
    V = potential_value(params, x_j)
    zeta_m = (1.0 + h_j * k / x_j) * zeta_j + (h_j / c) * (-mc2 + V - lam) * xi_j
    xi_m = (1.0 - h_j * k / x_j) * xi_j + (h_j / c) * (lam - mc2 - V) * zeta_j
    zeta_p = (1.0 - h_j1 * k / x_j) * zeta_j + (h_j1 / c) * (lam + mc2 - V) * xi_j
    xi_p = (1.0 + h_j1 * k / x_j) * xi_j + (h_j1 / c) * (mc2 + V - lam) * zeta_j
    return zeta_m, xi_m, zeta_p, xi_p
