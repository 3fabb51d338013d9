"""Generalized eigensolves of the assembled pencil and bound-branch extraction.

The pencil is solved in shifted form (lhs - m*c^2*rhs, rhs): working with
binding energies mu = lambda - m*c^2 directly avoids losing ~9 digits of the
bound-state energies to cancellation against the rest energy.

Two paths share that form. ``solve(system)`` is the dense full-spectrum
solve (symmetric-definite ``eigh`` or general QZ); it is the oracle. With
``window=(lo, hi)`` it is a sparse shift-invert Arnoldi solve (Ericsson &
Ruhe 1980; ARPACK) that computes only the eigenvalues nearest the window
midpoint and certifies that every eigenvalue inside the window was found.
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
    neighbourhood of the window for a windowed one. Eigenvectors are kept
    for the bound branch only, rhs-normalized with the largest f-value
    coefficient made positive.
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


def _fix_vector_signs(vectors: np.ndarray, rhs, zeta_width: int) -> np.ndarray:
    """rhs-normalize columns and make the largest-|f value| entry positive.

    A column whose rhs norm vanishes to rounding (possible for the
    nonsymmetric stabilized rhs) cannot be normalized and raises SolverError.
    """
    out = np.array(vectors, dtype=float)
    eps = np.finfo(float).eps
    for k in range(out.shape[1]):
        v = out[:, k]
        vb = v @ rhs
        norm = float(vb @ v)
        if not abs(norm) > eps * np.linalg.norm(vb) * np.linalg.norm(v):
            raise SolverError(f"eigenvector {k} has vanishing rhs norm {norm:.3g}")
        v /= np.sqrt(abs(norm))
        lead = np.argmax(np.abs(v[:zeta_width]))
        if v[lead] < 0:
            v *= -1.0
    return out


def _strip_phase(vecs: np.ndarray) -> np.ndarray:
    """Real vectors from complex ones, rotating each column's largest entry real."""
    real_vecs = np.empty(vecs.shape, dtype=float)
    for k in range(vecs.shape[1]):
        col = vecs[:, k]
        phase = col[np.argmax(np.abs(col))]
        real_vecs[:, k] = (col * np.conj(phase / abs(phase))).real
    return real_vecs


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
    """Solve lhs*X = lambda*rhs*X and return the spectrum in binding form.

    Without ``window`` the whole pencil is solved densely: Galerkin pencils
    with the symmetric-definite driver (real by construction), the
    stabilized (nonsymmetric) pencil with the general QZ routine, where any
    finite eigenvalue whose imaginary part exceeds ``reality_tol`` relative
    to its magnitude aborts the solve.

    ``window=(lo, hi)`` restricts the solve, for every scheme, to bindings
    inside (lo, hi): a sparse shift-invert solve (see ``_solve_window``)
    whose reality check covers the eigenvalues it computed.
    """
    mc2 = system.params.rest_energy
    shifted = system.lhs - mc2 * system.rhs
    zeta_width = dict(system.dof_blocks)["zeta"]
    if window is not None:
        return _solve_window(system, shifted, window, reality_tol, zeta_width)

    if system.scheme == SCHEME_SUPG:
        mu, vecs = scipy.linalg.eig(shifted, system.rhs, right=True)
        finite = np.isfinite(mu)
        if not finite.any():
            raise SingularSystemError("no finite eigenvalues: rhs numerically singular")
        mu, vecs = mu[finite], vecs[:, finite]
        max_imag = _check_reality(mu + mc2, reality_tol)
        order = np.argsort(mu.real)
        mu, vecs = mu.real[order], vecs[:, order]
        # strip the residual complex phase before normalizing
        bound = (mu > -2.0 * mc2) & (mu < 0.0)
        vectors = _fix_vector_signs(_strip_phase(vecs[:, bound]), system.rhs, zeta_width)
    else:
        try:
            mu, vecs = scipy.linalg.eigh(shifted, system.rhs)
        except scipy.linalg.LinAlgError as exc:
            raise SingularSystemError(f"symmetric-definite solve failed: {exc}") from exc
        max_imag = 0.0
        bound = (mu > -2.0 * mc2) & (mu < 0.0)
        vectors = _fix_vector_signs(vecs[:, bound], system.rhs, zeta_width)

    return Spectrum(scheme=system.scheme, bindings=mu[bound], raw=mu + mc2,
                    max_imag=max_imag, params=system.params,
                    dof_blocks=system.dof_blocks, eigenvectors=vectors)


def _solve_window(system: AssembledSystem, shifted: np.ndarray, window: tuple[float, float],
                  reality_tol: float, zeta_width: int) -> Spectrum:
    """Shift-invert Arnoldi solve certified complete on the binding window.

    The shift sigma is the window midpoint; ``(shifted - sigma*rhs)`` is
    factored once with SuperLU, and ARPACK finds the k largest-magnitude
    eigenvalues theta of ``x -> (shifted - sigma*rhs)^-1 rhs x``, i.e. the k
    bindings mu = sigma + 1/theta nearest sigma. k starts at
    WINDOW_FIRST_K and doubles until the farthest returned |mu - sigma|
    exceeds the half-width: every eigenvalue of the window then lies
    inside the disk the solve exhausted. A fixed start vector makes
    repeated solves bit-identical.
    """
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise ValueError(f"window must satisfy lo < hi, got {window}")
    mc2 = system.params.rest_energy
    size = system.size
    if size < 3:
        raise SolverError(f"pencil of size {size} is too small for a windowed solve")
    sigma, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    a = scipy.sparse.csc_array(shifted)
    b = scipy.sparse.csc_array(system.rhs)
    try:
        lu = scipy.sparse.linalg.splu(a - sigma * b)
    except RuntimeError as exc:
        raise SingularSystemError(f"shifted pencil singular at sigma={sigma}: {exc}") from exc
    op = scipy.sparse.linalg.LinearOperator((size, size), matvec=lambda x: lu.solve(b @ x),
                                            dtype=float)
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
    _log.debug("windowed solve: N=%d nnz=%d window=(%r, %r) sigma=%r k=%d rounds=%d "
               "max_imag=%.3g", size, a.nnz, lo, hi, sigma, k, rounds, max_imag)
    _check_reality(lam, reality_tol)
    order = np.argsort(mu.real)
    mu, vecs = mu.real[order], vecs[:, order]
    keep = (mu > max(lo, -2.0 * mc2)) & (mu < min(hi, 0.0))
    vectors = _fix_vector_signs(_strip_phase(vecs[:, keep]), b, zeta_width)
    return Spectrum(scheme=system.scheme, bindings=mu[keep], raw=mu + mc2,
                    max_imag=max_imag, params=system.params,
                    dof_blocks=system.dof_blocks, eigenvectors=vectors)


def bound_states(spectrum: Spectrum, params: OperatorParams, count: int) -> np.ndarray:
    """First ``count`` bound bindings (deepest first): a checked slice of ``bindings``."""
    if params != spectrum.params:
        raise ValueError(f"params {params} do not match the spectrum's {spectrum.params}")
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
        raise ValueError("spectrum carries no eigenvectors")
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
    """Relative residual of one eigenpair against the assembled pencil."""
    mc2 = system.params.rest_energy
    lam = binding + mc2
    r = (system.lhs - mc2 * system.rhs) @ vector - binding * (system.rhs @ vector)
    scale = (np.linalg.norm(system.lhs) + abs(lam) * np.linalg.norm(system.rhs))
    return float(np.linalg.norm(r) / (scale * np.linalg.norm(vector)))
