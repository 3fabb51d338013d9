"""Windowed generalized eigensolve of the assembled pencil and bound-branch extraction.

The assembled pencil is in binding form, lhs*x = mu*rhs*x with
mu = lambda - m*c^2 (see ``assembly``), and is solved as it is: the
bindings never pass through the rest energy, so none of their digits are
lost to cancellation against it. Only ``Spectrum.raw`` adds m*c^2 back.

``solve(system, window=(lo, hi))`` is the one solve path: a shift-invert
Arnoldi solve (Ericsson & Ruhe 1980; ARPACK) that computes only the
eigenvalues nearest the window midpoint, certifies that every eigenvalue
inside the window was found, and returns their eigenvectors. ``assemble``
stores the pencil in node order as band matrices (see ``assembly``): each
operator application is one band matrix-vector product and one band LU
solve. The dense full-spectrum solve the tests check it against lives in
the tests.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np
# scipy.linalg before scipy.sparse.linalg: the other order made a fresh
# ``import diracfem.cli`` about 5 % slower
from scipy.linalg.blas import dgbmv
from scipy.linalg.lapack import dgbtrf, dgbtrs
import scipy.sparse.linalg

from .assembly import AssembledSystem
from .errors import (
    ComplexSpectrumError,
    InsufficientLevelsError,
    SingularSystemError,
    SolverError,
)
from .physics import OperatorParams, reference_binding

#: Default relative bound on acceptable imaginary parts of SUPG eigenvalues.
DEFAULT_REALITY_TOL = 1e-8

#: Eigenpairs asked of the first shift-invert round; doubled until certified.
WINDOW_FIRST_K = 16

_log = logging.getLogger("diracfem")


@dataclass(frozen=True)
class Spectrum:
    """The eigenpairs one windowed solve computed on the bound-state branch.

    ``bindings`` holds mu = lambda - m*c^2 restricted to the requested
    window and to the bound window (-2mc^2, 0), ascending (deepest level
    first). ``raw`` holds every eigenvalue lambda the solve computed: the
    certified neighbourhood of the window. ``eigenvectors`` holds one
    column per binding, in block layout, rhs-normalized with the largest
    f-value coefficient made positive.
    """

    scheme: str
    bindings: np.ndarray
    raw: np.ndarray
    max_imag: float
    params: OperatorParams
    dof_blocks: tuple[tuple[str, int], ...]
    eigenvectors: np.ndarray

    def __post_init__(self):
        for array in (self.bindings, self.raw, self.eigenvectors):
            array.setflags(write=False)


def bound_window(params: OperatorParams, levels: int) -> tuple[float, float]:
    """Binding window (lo, hi) holding the first ``levels`` levels of both kappa signs.

    ``lo`` is twice the kappa = -|kappa| ground binding, below every level of
    either sign including the kappa > 0 copy of that ground state. ``hi``
    lies halfway between the reference levels n_r = levels and
    n_r = levels + 1 (the binding depends on |kappa| and n_r only), past the
    last level either series needs.
    """
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    neg = replace(params, kappa=-abs(params.kappa))
    lo = 2.0 * reference_binding(neg, 0).binding
    hi = 0.5 * (reference_binding(neg, levels).binding
                + reference_binding(neg, levels + 1).binding)
    return lo, hi


def _band_product(band: np.ndarray, x: np.ndarray, transpose: bool = False) -> np.ndarray:
    """A @ x, or A.T @ x, for the square matrix A held in LAPACK band storage ``band``."""
    hb, size = band.shape[0] // 2, band.shape[1]
    # dgbmv's wrapper wants at least 2*hb + 1 rows; those past a small pencil are zero
    rows = max(size, 2 * hb + 1)
    if transpose and rows > size:
        x = np.r_[x, np.zeros(rows - size)]
    return dgbmv(rows, size, hb, hb, 1.0, band, x, trans=int(transpose))[:size]


def _normalize_vectors(vecs: np.ndarray, system: AssembledSystem) -> np.ndarray:
    """Node-order columns ``vecs`` made real, rhs-normalized and block-layout.

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
        vb[:, j] = _band_product(system.rhs_band, v[:, j], transpose=True)
    norms = np.einsum("ik,ik->k", vb, v)
    eps = np.finfo(float).eps
    vanishing = ~(np.abs(norms) > eps * np.linalg.norm(vb, axis=0) * np.linalg.norm(v, axis=0))
    if vanishing.any():
        k = int(np.argmax(vanishing))
        raise SolverError(f"eigenvector {k} has vanishing rhs norm {norms[k]:.3g}")
    v /= np.sqrt(np.abs(norms))
    f_values = np.flatnonzero(system.block_index < dict(system.dof_blocks)["zeta"])
    v[:, v[f_values[np.argmax(np.abs(v[f_values]), axis=0)], cols] < 0] *= -1.0
    return v[np.argsort(system.block_index)]  # the inverse permutation


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


def solve(system: AssembledSystem, window: tuple[float, float],
          reality_tol: float = DEFAULT_REALITY_TOL) -> Spectrum:
    """Solve lhs*X = mu*rhs*X on the binding window ``window=(lo, hi)``.

    A shift-invert Arnoldi solve certified complete on the window, for
    every scheme. The shift sigma is the window midpoint. ``lhs - sigma*rhs``
    is formed from the node-order band pencil (half-bandwidth 3 for the
    linear scheme, 7 for Hermite) and factored once in LAPACK band storage
    with partial pivoting, and ARPACK finds the k largest-magnitude
    eigenvalues theta of ``x -> (lhs - sigma*rhs)^-1 rhs x`` in node order,
    i.e. the k bindings mu = sigma + 1/theta nearest sigma; their
    eigenvectors are returned in block layout. k starts at WINDOW_FIRST_K
    and doubles until the farthest returned |mu - sigma| exceeds the
    half-width: every eigenvalue of the window then lies inside the disk
    the solve exhausted. A fixed start vector makes repeated solves
    bit-identical, and the number of operator applications (one band
    matrix-vector product and one band LU solve each) deterministic. A
    factor that is exactly singular or holds a non-finite entry raises
    SingularSystemError before ARPACK runs.

    Any computed eigenvalue whose imaginary part exceeds ``reality_tol``
    relative to its magnitude aborts the solve with ComplexSpectrumError.
    ``reality_tol`` must be finite and >= 0, or ValueError is raised before
    any work.
    """
    if not 0.0 <= reality_tol < np.inf:
        raise ValueError(f"reality_tol must be finite and >= 0, got {reality_tol}")
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise ValueError(f"window must satisfy lo < hi, got {window}")
    mc2 = system.params.rest_energy
    size = system.size
    if size < 3:
        raise SolverError(f"pencil of size {size} is too small for a windowed solve")
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

    def apply(x):
        nonlocal ops
        ops += 1
        y, _ = dgbtrs(lu, hb, hb, _band_product(b, x), pivots, overwrite_b=True)
        return y

    op = scipy.sparse.linalg.LinearOperator((size, size), matvec=apply, dtype=float)
    v0 = np.ones(size)
    k, rounds = min(WINDOW_FIRST_K, size - 2), 0
    while True:
        rounds += 1
        try:
            theta, vecs = scipy.sparse.linalg.eigs(op, k=k, which="LM", v0=v0)
        except scipy.sparse.linalg.ArpackError as exc:
            raise SolverError(f"shift-invert solve did not converge (k={k}): {exc}") from exc
        mu = sigma + 1.0 / theta
        if np.max(np.abs(mu - sigma)) > half:
            break
        if k == size - 2:
            raise SolverError(f"window ({lo}, {hi}) not certified complete with k={k} "
                              f"of {size} eigenpairs")
        k = min(2 * k, size - 2)

    lam = mu + mc2
    max_imag = float(np.max(np.abs(lam.imag)))
    _log.debug("windowed solve: N=%d nnz=%d band=(%d, %d) window=(%r, %r) sigma=%r k=%d "
               "rounds=%d ops=%d max_imag=%.3g", size, np.count_nonzero(a), hb, hb, lo, hi,
               sigma, k, rounds, ops, max_imag)
    _check_reality(lam, reality_tol)
    order = np.argsort(mu.real)
    mu, vecs = mu.real[order], vecs[:, order]
    keep = (mu > max(lo, -2.0 * mc2)) & (mu < min(hi, 0.0))
    return Spectrum(scheme=system.scheme, bindings=mu[keep], raw=mu + mc2,
                    max_imag=max_imag, params=system.params, dof_blocks=system.dof_blocks,
                    eigenvectors=_normalize_vectors(vecs[:, keep], system))


def bound_states(spectrum: Spectrum, params: OperatorParams, count: int) -> np.ndarray:
    """First ``count`` bound bindings (deepest first): a checked slice of ``bindings``."""
    if params != spectrum.params:
        raise ValueError(f"params {params} do not match the spectrum's {spectrum.params}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if len(spectrum.bindings) < count:
        raise InsufficientLevelsError(
            f"requested {count} bound states but only {len(spectrum.bindings)} found"
        )
    return spectrum.bindings[:count]


def component_coefficients(spectrum: Spectrum, index: int, component: str):
    """Nodal (values, slopes) of spinor component 'f' or 'g' for bound state ``index``.

    For the linear scheme the slope array is None.
    """
    vec = spectrum.eigenvectors[:, index]
    blocks = {}
    start = 0
    for name, width in spectrum.dof_blocks:
        blocks[name] = vec[start:start + width]
        start += width
    if component == "f":
        return blocks["zeta"], blocks.get("zeta_prime")
    if component == "g":
        return blocks["xi"], blocks.get("xi_prime")
    raise ValueError(f"component must be 'f' or 'g', got {component!r}")


def eigenpair_residual(system: AssembledSystem, binding: float, vector: np.ndarray) -> float:
    """Relative residual of one eigenpair (binding, block-layout vector) against the pencil."""
    v = np.asarray(vector, dtype=float)[system.block_index]
    r = _band_product(system.lhs_band, v) - binding * _band_product(system.rhs_band, v)
    scale = np.linalg.norm(system.lhs_band) + abs(binding) * np.linalg.norm(system.rhs_band)
    return float(np.linalg.norm(r) / (scale * np.linalg.norm(v)))
