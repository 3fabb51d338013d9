"""Generalized eigensolves of the assembled pencil and bound-branch extraction.

The assembled pencil is in binding form, lhs*x = mu*rhs*x with
mu = lambda - m*c^2 (see ``assembly``), and is solved as it is: the
bindings never pass through the rest energy, so none of their digits are
lost to cancellation against it. Only ``Spectrum.raw`` adds m*c^2 back.

Two paths solve that pencil. ``solve(system)`` is the dense full-spectrum
solve (symmetric-definite ``eigh`` or general QZ), eigenvalues only; it is
the oracle. With ``window=(lo, hi)`` it is a sparse shift-invert Arnoldi
solve (Ericsson & Ruhe 1980; ARPACK) that computes only the eigenvalues
nearest the window midpoint, certifies that every eigenvalue inside the
window was found, and is the one source of eigenvectors.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .assembly import SCHEME_SUPG, AssembledSystem
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
    """The eigenvalues one solve computed plus the bound-state branch.

    ``bindings`` holds mu = lambda - m*c^2 restricted to the bound window
    (-2mc^2, 0), and to the requested window of a windowed solve, ascending
    (deepest level first). ``raw`` holds every eigenvalue lambda this solve
    computed: all finite ones for the dense solve, the certified
    neighbourhood of the window for a windowed one. Only a windowed solve
    returns eigenvectors: one column per binding, rhs-normalized with the
    largest f-value coefficient made positive. The dense solve leaves
    ``eigenvectors`` None.
    """

    scheme: str
    bindings: np.ndarray
    raw: np.ndarray
    max_imag: float
    params: OperatorParams
    dof_blocks: tuple[tuple[str, int], ...]
    eigenvectors: np.ndarray | None = None

    def __post_init__(self):
        self.bindings.setflags(write=False)
        self.raw.setflags(write=False)
        if self.eigenvectors is not None:
            self.eigenvectors.setflags(write=False)


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


def _normalize_vectors(vecs: np.ndarray, rhs, zeta_width: int) -> np.ndarray:
    """Real, rhs-normalized columns whose largest-|f value| entry is positive.

    Each column is first rotated so that its largest entry is real. A column
    whose rhs norm vanishes to rounding (possible for the nonsymmetric
    stabilized rhs) cannot be normalized and raises SolverError.
    """
    cols = np.arange(vecs.shape[1])
    phase = vecs[np.argmax(np.abs(vecs), axis=0), cols]
    # one real copy, then in place, so repeated solves do not grow peak RSS
    v = (vecs * np.conj(phase / np.abs(phase))).real.copy()
    vb = rhs.T @ v
    norms = np.einsum("ik,ik->k", vb, v)
    eps = np.finfo(float).eps
    vanishing = ~(np.abs(norms) > eps * np.linalg.norm(vb, axis=0) * np.linalg.norm(v, axis=0))
    if vanishing.any():
        k = int(np.argmax(vanishing))
        raise SolverError(f"eigenvector {k} has vanishing rhs norm {norms[k]:.3g}")
    v /= np.sqrt(np.abs(norms))
    v[:, v[np.argmax(np.abs(v[:zeta_width]), axis=0), cols] < 0] *= -1.0
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


def solve(system: AssembledSystem, reality_tol: float = DEFAULT_REALITY_TOL,
          window: tuple[float, float] | None = None) -> Spectrum:
    """Solve lhs*X = mu*rhs*X and return the spectrum (bindings mu, raw mu + m*c^2).

    Without ``window`` the eigenvalues of the whole pencil are computed
    densely, with no eigenvectors: Galerkin pencils with the
    symmetric-definite driver (real by construction), the stabilized
    (nonsymmetric) pencil with the general QZ routine, where any finite
    eigenvalue whose imaginary part exceeds ``reality_tol`` relative to its
    magnitude aborts the solve.

    ``window=(lo, hi)`` restricts the solve, for every scheme, to bindings
    inside (lo, hi): a sparse shift-invert solve (see ``_solve_window``)
    whose reality check covers the eigenvalues it computed, and which
    returns the eigenvectors of those bindings.

    ``reality_tol`` must be finite and >= 0, or ValueError is raised before
    any work.
    """
    if not 0.0 <= reality_tol < np.inf:
        raise ValueError(f"reality_tol must be finite and >= 0, got {reality_tol}")
    if window is not None:
        return _solve_window(system, window, reality_tol)

    mc2 = system.params.rest_energy
    lhs, rhs = system.lhs, system.rhs
    if system.scheme == SCHEME_SUPG:
        mu = scipy.linalg.eigvals(lhs, rhs)
        mu = mu[np.isfinite(mu)]
        if not len(mu):
            raise SingularSystemError("no finite eigenvalues: rhs numerically singular")
        max_imag = _check_reality(mu + mc2, reality_tol)
        mu = np.sort(mu.real)
    else:
        try:
            mu = scipy.linalg.eigh(lhs, rhs, eigvals_only=True)
        except scipy.linalg.LinAlgError as exc:
            raise SingularSystemError(f"symmetric-definite solve failed: {exc}") from exc
        max_imag = 0.0

    bound = (mu > -2.0 * mc2) & (mu < 0.0)
    return Spectrum(scheme=system.scheme, bindings=mu[bound], raw=mu + mc2,
                    max_imag=max_imag, params=system.params, dof_blocks=system.dof_blocks)


def _solve_window(system: AssembledSystem, window: tuple[float, float],
                  reality_tol: float) -> Spectrum:
    """Shift-invert Arnoldi solve certified complete on the binding window.

    The shift sigma is the window midpoint; the CSC matrix
    ``lhs - sigma*rhs`` is factored once with SuperLU, and ARPACK finds the
    k largest-magnitude eigenvalues theta of ``x -> (lhs - sigma*rhs)^-1 rhs x``,
    i.e. the k bindings mu = sigma + 1/theta nearest sigma. k starts at
    WINDOW_FIRST_K and doubles until the farthest returned |mu - sigma|
    exceeds the half-width: every eigenvalue of the window then lies
    inside the disk the solve exhausted. A fixed start vector makes
    repeated solves bit-identical, and the number of operator
    applications (one SuperLU solve each) deterministic.
    """
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise ValueError(f"window must satisfy lo < hi, got {window}")
    mc2 = system.params.rest_energy
    size = system.size
    if size < 3:
        raise SolverError(f"pencil of size {size} is too small for a windowed solve")
    sigma, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    a, b = system.lhs_csc, system.rhs_csc
    try:
        lu = scipy.sparse.linalg.splu(a - sigma * b)
    except RuntimeError as exc:
        raise SingularSystemError(f"shifted pencil singular at sigma={sigma}: {exc}") from exc
    ops = 0

    def apply(x):
        nonlocal ops
        ops += 1
        return lu.solve(b @ x)

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
    _log.debug("windowed solve: N=%d nnz=%d window=(%r, %r) sigma=%r k=%d rounds=%d ops=%d "
               "max_imag=%.3g", size, a.nnz, lo, hi, sigma, k, rounds, ops, max_imag)
    _check_reality(lam, reality_tol)
    order = np.argsort(mu.real)
    mu, vecs = mu.real[order], vecs[:, order]
    keep = (mu > max(lo, -2.0 * mc2)) & (mu < min(hi, 0.0))
    vectors = _normalize_vectors(vecs[:, keep], b, dict(system.dof_blocks)["zeta"])
    return Spectrum(scheme=system.scheme, bindings=mu[keep], raw=mu + mc2,
                    max_imag=max_imag, params=system.params,
                    dof_blocks=system.dof_blocks, eigenvectors=vectors)


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
    if spectrum.eigenvectors is None:
        raise ValueError("spectrum carries no eigenvectors: only a windowed solve computes them")
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
    """Relative residual of one eigenpair (binding, vector) against the assembled pencil."""
    lhs, rhs = system.lhs_csc, system.rhs_csc
    r = lhs @ vector - binding * (rhs @ vector)
    scale = scipy.sparse.linalg.norm(lhs) + abs(binding) * scipy.sparse.linalg.norm(rhs)
    return float(np.linalg.norm(r) / (scale * np.linalg.norm(vector)))
