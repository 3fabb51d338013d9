"""Windowed generalized eigensolve of the assembled pencil and bound-branch extraction.

The assembled pencil is in binding form, lhs*x = mu*rhs*x with
mu = lambda - m*c^2 (see ``assembly``), and is solved as it is: the
bindings never pass through the rest energy, so none of their digits are
lost to cancellation against it. Only ``Spectrum.raw`` adds m*c^2 back.

``solve(system, window=(lo, ..., hi))`` is the one solve path: one
shift-invert solve (Ericsson & Ruhe 1980; ARPACK) per slice of the window,
which computes only the eigenvalues nearest the slice midpoint, certifies
that every eigenvalue inside the slice was found, and returns their
eigenvectors in the node order in which ``assemble`` stores the pencil as
band matrices (see ``assembly``). Each slice factors its shifted pencil
once. The Galerkin pencils are symmetric-definite, so they go to ARPACK's
symmetric Lanczos driver on the shift-invert operator symmetrized by the
band Cholesky factor of rhs; the stabilized pencil is nonsymmetric and
goes to the Arnoldi driver. The dense full-spectrum solve the tests check
it against lives in the tests.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np
# scipy.linalg before scipy.sparse.linalg: the other order made a fresh
# ``import diracfem.cli`` about 5 % slower
from scipy.linalg.blas import dgbmv, dtbmv
from scipy.linalg.lapack import dgbtrf, dgbtrs, dpbtrf, dtbtrs
import scipy.sparse.linalg

from .assembly import AssembledSystem, is_galerkin, part_dofs
from .errors import (
    ComplexSpectrumError,
    InsufficientLevelsError,
    SingularSystemError,
    SolverError,
)
from .physics import OperatorParams, reference_binding

#: Default relative bound on acceptable imaginary parts of SUPG eigenvalues.
DEFAULT_REALITY_TOL = 1e-8

#: Eigenpairs asked of the last disk's first shift-invert round; doubled until certified.
WINDOW_FIRST_K = 16

#: Eigenpairs asked of a lower disk's first round: the two reference levels
#: it holds and the one eigenpair beyond its edge that certifies it.
SPLIT_FIRST_K = 3

#: ``bound_window`` splits windows of at least this many levels into two disks.
SPLIT_LEVELS = 10

_log = logging.getLogger("diracfem")


@dataclass(frozen=True)
class Spectrum:
    """The eigenpairs one windowed solve computed on the bound-state branch.

    ``bindings`` holds mu = lambda - m*c^2 restricted to the requested
    window and to the bound window (-2mc^2, 0), ascending (deepest level
    first). ``raw`` holds the eigenvalues lambda the solve computed, the
    certified neighbourhood of the window, ascending: every one of a
    one-disk solve; of a split window, each disk's own, i.e. those on its
    side of the cuts between disks, so no eigenvalue appears twice.
    ``eigenvectors`` holds one column per binding, in the pencil's node
    order (see ``assembly``), rhs-normalized with the largest f-value
    coefficient made positive.
    """

    scheme: str
    bindings: np.ndarray
    raw: np.ndarray
    max_imag: float
    params: OperatorParams
    eigenvectors: np.ndarray

    def __post_init__(self):
        for array in (self.bindings, self.raw, self.eigenvectors):
            array.setflags(write=False)


def bound_window(params: OperatorParams, levels: int) -> tuple[float, ...]:
    """Binding window edges holding the first ``levels`` levels of both kappa signs.

    ``lo`` is twice the kappa = -|kappa| ground binding, below every level of
    either sign including the kappa > 0 copy of that ground state. ``hi``
    lies halfway between the reference levels n_r = levels and
    n_r = levels + 1 (the binding depends on |kappa| and n_r only), past the
    last level either series needs. Below SPLIT_LEVELS levels the window is
    ``(lo, hi)``, one disk for ``solve``. From SPLIT_LEVELS on it is
    ``(lo, s, hi)``, with ``s`` halfway between the reference levels n_r = 1
    and n_r = 2: one shift placed at the midpoint of so wide a window sits
    far from its top edge in the Rydberg accumulation, where the last
    wanted level and the next one differ in distance from the shift by a
    fraction of a percent and ARPACK converges slowly (spectrum slicing,
    Grimes, Lewis & Simon 1994). Two disks each lie close to their edges.
    """
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    neg = replace(params, kappa=-abs(params.kappa))
    lo = 2.0 * reference_binding(neg, 0).binding
    hi = 0.5 * (reference_binding(neg, levels).binding
                + reference_binding(neg, levels + 1).binding)
    if levels < SPLIT_LEVELS:
        return lo, hi
    split = 0.5 * (reference_binding(neg, 1).binding + reference_binding(neg, 2).binding)
    return lo, split, hi


def _band_product(band: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A @ x for the square matrix A held in LAPACK band storage ``band``."""
    hb, size = band.shape[0] // 2, band.shape[1]
    # dgbmv's wrapper wants at least 2*hb + 1 rows; those past a small pencil are zero
    return dgbmv(max(size, 2 * hb + 1), size, hb, hb, 1.0, band, x)[:size]


def _normalize_vectors(vecs: np.ndarray, system: AssembledSystem) -> np.ndarray:
    """Node-order columns ``vecs`` made real and rhs-normalized.

    Each column is rotated so that its largest entry is real and signed so
    that its largest-|f value| entry is positive. A column whose rhs norm
    vanishes to rounding (possible for the nonsymmetric stabilized rhs)
    raises SolverError.
    """
    cols = np.arange(vecs.shape[1])
    phase = vecs[np.argmax(np.abs(vecs), axis=0), cols]
    # one real copy, then in place, so repeated solves do not grow peak RSS
    v = (vecs * np.conj(phase / np.abs(phase))).real.copy()
    vb = np.empty_like(v)
    for j in cols:
        vb[:, j] = _band_product(system.rhs_band, v[:, j])
    norms = np.einsum("ik,ik->k", vb, v)  # v^T rhs v
    eps = np.finfo(float).eps
    vanishing = ~(np.abs(norms) > eps * np.linalg.norm(vb, axis=0) * np.linalg.norm(v, axis=0))
    if vanishing.any():
        k = int(np.argmax(vanishing))
        raise SolverError(f"eigenvector {k} has vanishing rhs norm {norms[k]:.3g}")
    v /= np.sqrt(np.abs(norms))
    f_values = part_dofs(system.scheme, system.size, "zeta")
    v[:, v[f_values[np.argmax(np.abs(v[f_values]), axis=0)], cols] < 0] *= -1.0
    return v


def _check_reality(lam: np.ndarray, reality_tol: float) -> float:
    """Largest |Im lambda|; raises if any exceeds ``reality_tol`` relative to |lambda|."""
    max_imag = float(np.max(np.abs(lam.imag)))
    bad = np.abs(lam.imag) > reality_tol * np.abs(lam)
    if bad.any():
        worst = lam[np.argmax(np.abs(lam.imag) / np.maximum(np.abs(lam), 1e-300))]
        raise ComplexSpectrumError(
            f"{bad.sum()} eigenvalue(s) violate reality tolerance {reality_tol}"
            f" (worst: {worst})"
        )
    return max_imag


def _solve_disk(system: AssembledSystem, lo: float, hi: float, first_k: int,
                reality_tol: float):
    """One shift-invert disk certified complete on (lo, hi): (mu, vecs, radius, max_imag).

    ``mu`` holds the real parts of every computed binding, ascending,
    ``vecs`` their node-order eigenvectors, and ``radius`` the farthest
    |mu - sigma|: every eigenvalue closer than that to sigma = (lo + hi)/2
    is among ``mu``. The ARPACK driver and its operator follow the scheme
    (see ``solve``); everything else is shared.
    """
    size = system.size
    sigma, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    a, b = system.lhs_band, system.rhs_band
    hb = a.shape[0] // 2
    # the array to factor has hb more rows on top for the fill that row swaps bring
    shifted = np.zeros((3 * hb + 1, size), order="F")
    shifted[hb:] = a - sigma * b
    lu, pivots, info = dgbtrf(shifted, hb, hb, overwrite_ab=True)
    if info > 0:
        raise SingularSystemError(f"shifted pencil singular at sigma={sigma}: "
                                  f"zero pivot in column {info}")
    if not np.isfinite(lu).all():
        raise SingularSystemError(f"shifted pencil at sigma={sigma} has a non-finite factor")
    ops = 0

    def shift_invert(x):
        nonlocal ops
        ops += 1
        y, _ = dgbtrs(lu, hb, hb, x, pivots, overwrite_b=True)
        return y

    if is_galerkin(system.scheme):
        # rhs = C*C^T: the pencil's eigenvalues are those of the symmetric
        # C^T (lhs - sigma*rhs)^-1 C, whose eigenvectors y give x = C^-T y
        chol, info = dpbtrf(b[hb:], lower=1)
        if info > 0:
            raise SolverError(f"rhs of the {system.scheme} pencil is not positive definite "
                              f"(band Cholesky fails in column {info})")
        driver, arpack = "symmetric", scipy.sparse.linalg.eigsh

        def apply(y):
            return dtbmv(hb, chol, shift_invert(dtbmv(hb, chol, y, lower=1)), lower=1, trans=1)
    else:
        driver, arpack = "nonsymmetric", scipy.sparse.linalg.eigs

        def apply(x):
            return shift_invert(_band_product(b, x))

    op = scipy.sparse.linalg.LinearOperator((size, size), matvec=apply, dtype=float)
    v0 = np.ones(size)
    k, rounds = min(first_k, size - 2), 0
    while True:
        rounds += 1
        try:
            theta, vecs = arpack(op, k=k, which="LM", v0=v0)
        except scipy.sparse.linalg.ArpackError as exc:
            raise SolverError(f"shift-invert solve did not converge (k={k}): {exc}") from exc
        mu = sigma + 1.0 / theta
        radius = float(np.max(np.abs(mu - sigma)))
        if radius > half:
            break
        if k == size - 2:
            raise SolverError(f"window ({lo}, {hi}) not certified complete with k={k} "
                              f"of {size} eigenpairs")
        k = min(2 * k, size - 2)

    if driver == "symmetric":
        vecs, _ = dtbtrs(chol, vecs, uplo="L", trans="T")
    lam = mu + system.params.rest_energy
    max_imag = float(np.max(np.abs(lam.imag)))
    _log.debug("windowed solve: N=%d nnz=%d band=(%d, %d) window=(%r, %r) sigma=%r "
               "driver=%s k=%d rounds=%d ops=%d max_imag=%.3g", size, np.count_nonzero(a),
               hb, hb, lo, hi, sigma, driver, k, rounds, ops, max_imag)
    _check_reality(lam, reality_tol)
    order = np.argsort(mu.real)
    return mu.real[order], vecs[:, order], radius, max_imag


def _empty_gap_midpoint(mu: np.ndarray, lo: float, edge: float, rim: float) -> float:
    """Midpoint of the gap around ``edge`` that a disk certified free of eigenvalues.

    ``mu`` holds the disk's computed bindings, every eigenvalue in
    [lo, rim] among them. The gap runs from the last of them in [lo, edge]
    (or ``lo``) to the first above ``edge`` (or ``rim``).
    """
    below = mu[(mu >= lo) & (mu <= edge)]
    above = mu[mu > edge]
    return float(0.5 * ((below.max() if below.size else lo)
                        + (above.min() if above.size else rim)))


def solve(system: AssembledSystem, window: tuple[float, ...],
          reality_tol: float = DEFAULT_REALITY_TOL) -> Spectrum:
    """Solve lhs*X = mu*rhs*X on the binding window ``window=(lo, ..., hi)``.

    ``window`` holds ascending edges; each pair of consecutive edges is one
    shift-invert disk certified complete on its slice, for every scheme. A
    disk's shift sigma is its slice's midpoint. ``lhs - sigma*rhs`` is
    formed from the node-order band pencil (half-bandwidth 3 for the linear
    scheme, 7 for Hermite) and factored once in LAPACK band storage with
    partial pivoting, and ARPACK finds the k largest-magnitude eigenvalues
    theta of a shift-invert operator in node order, i.e. the k bindings
    mu = sigma + 1/theta nearest sigma. The scheme table decides the
    operator (``assembly.is_galerkin``). A Galerkin pencil is
    symmetric-definite: rhs is factored once more, as C*C^T by band
    Cholesky, and ARPACK's symmetric Lanczos driver (``eigsh``) runs on
    ``y -> C^T (lhs - sigma*rhs)^-1 C y``, whose eigenvectors give
    x = C^-T y; an rhs that is not positive definite raises SolverError.
    Symmetric Rayleigh-Ritz makes each binding's error quadratic in its
    residual. The stabilized pencil is nonsymmetric and goes to the Arnoldi
    driver (``eigs``) on ``x -> (lhs - sigma*rhs)^-1 rhs x``. k starts at
    SPLIT_FIRST_K for a lower disk and at WINDOW_FIRST_K for the last one,
    and doubles until the farthest returned |mu - sigma| exceeds the slice's
    half-width: every eigenvalue of the slice then lies inside the disk the
    solve exhausted. Each disk logs one DEBUG record. The disk above an
    interior edge starts at the midpoint of the gap around that edge that
    the disk below certified empty, so no eigenvalue is kept twice or
    dropped. The bindings of all disks are returned in one ascending array,
    with their node-order eigenvectors.

    A fixed start vector makes repeated solves bit-identical, and the number
    of operator applications (one band LU solve and one or two band
    matrix-vector products each) deterministic. Each disk's DEBUG record
    names its driver, ``driver=symmetric`` or ``driver=nonsymmetric``. A
    factor that is exactly singular or holds a non-finite entry raises
    SingularSystemError before ARPACK runs.

    Any computed eigenvalue whose imaginary part exceeds ``reality_tol``
    relative to its magnitude aborts the solve with ComplexSpectrumError.
    ``reality_tol`` must be finite and >= 0, and the edges at least two,
    finite and strictly ascending, or ValueError is raised before any work.
    """
    if not 0.0 <= reality_tol < np.inf:
        raise ValueError(f"reality_tol must be finite and >= 0, got {reality_tol}")
    edges = [float(edge) for edge in window]
    if (len(edges) < 2 or not np.isfinite(edges).all()
            or not all(x < y for x, y in zip(edges, edges[1:]))):
        raise ValueError(f"window must hold finite ascending edges lo < ... < hi, got {window}")
    mc2 = system.params.rest_energy
    if system.size < 3:
        raise SolverError(f"pencil of size {system.size} is too small for a windowed solve")
    bindings, raw, vectors, lo, max_imag = [], [], [], edges[0], 0.0
    for hi in edges[1:]:
        if lo >= hi:
            continue  # the disk below certified this whole slice empty
        last = hi == edges[-1]
        mu, vecs, radius, disk_imag = _solve_disk(
            system, lo, hi, WINDOW_FIRST_K if last else SPLIT_FIRST_K, reality_tol)
        cut = hi if last else min(edges[-1], _empty_gap_midpoint(
            mu, lo, hi, 0.5 * (lo + hi) + radius))
        keep = (mu > max(lo, -2.0 * mc2)) & (mu < min(cut, 0.0))
        # a disk's own eigenvalues lie between its cuts to the disks beside it
        own = np.ones(len(mu), dtype=bool)
        if lo > edges[0]:
            own &= mu > lo
        if cut < edges[-1]:
            own &= mu < cut
        bindings.append(mu[keep])
        raw.append(mu[own])
        vectors.append(vecs[:, keep])
        max_imag = max(max_imag, disk_imag)
        lo = cut
    return Spectrum(scheme=system.scheme, bindings=np.concatenate(bindings),
                    raw=np.concatenate(raw) + mc2, max_imag=max_imag, params=system.params,
                    eigenvectors=_normalize_vectors(np.hstack(vectors), system))


def bound_states(spectrum: Spectrum, count: int) -> np.ndarray:
    """First ``count`` bound bindings (deepest first): a checked slice of ``bindings``."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if len(spectrum.bindings) < count:
        raise InsufficientLevelsError(
            f"requested {count} bound states but only {len(spectrum.bindings)} found"
        )
    return spectrum.bindings[:count]


def eigenpair_residual(system: AssembledSystem, binding: float, vector: np.ndarray) -> float:
    """Relative residual of one eigenpair (binding, node-order vector) against the pencil."""
    v = np.asarray(vector, dtype=float)
    r = _band_product(system.lhs_band, v) - binding * _band_product(system.rhs_band, v)
    scale = np.linalg.norm(system.lhs_band) + abs(binding) * np.linalg.norm(system.rhs_band)
    return float(np.linalg.norm(r) / (scale * np.linalg.norm(v)))
