"""Windowed generalized eigensolve of the assembled pencil and bound-branch extraction.

The assembled pencil is in binding form, lhs*x = mu*rhs*x with
mu = lambda - m*c^2 (see ``assembly``), and is solved as it is: the
bindings never pass through the rest energy, so none of their digits are
lost to cancellation against it. Only ``Spectrum.raw`` adds m*c^2 back.

``solve(system, window=(lo, hi))`` is the one solve path. It returns
every eigenvalue of the window, certified complete, with its eigenvector
in the node order in which ``assemble`` stores the pencil as band matrices
(see ``assembly``). How a window is certified follows the scheme table:

- The Galerkin pencils are symmetric-definite, so Sylvester inertia counts
  their eigenvalues exactly (spectrum slicing; Grimes, Lewis & Simon 1994).
  One count at each edge of the window gives its number of levels m. A
  count is one partially pivoted band LU of the shifted pencil under a
  diagonal similarity by powers of two, which keeps the unpivoted pivots
  exact and leaves a row interchange only where a pivot is too small to
  count by. Inverse iteration from the exact point-nucleus levels finds
  them (Parlett, *The Symmetric Eigenvalue Problem*, ch. 3-4), and the
  solve returns exactly m levels or raises SolverError.
- The stabilized pencil is nonsymmetric and has no inertia. The solve
  cuts a window of many levels in two, and each slice is one shift-invert
  Arnoldi disk (Ericsson & Ruhe 1980; ARPACK) that certifies itself by its
  radius; the determinant signs beside the slice's edges check the parity
  of its number of real eigenvalues.

The dense full-spectrum solve the tests check it against lives in the tests.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.blas import dgbmv
from scipy.linalg.lapack import dgbtrf, dgbtrs, dpbtrf

from .assembly import AssembledSystem, is_galerkin, part_dofs
from .errors import (
    ComplexSpectrumError,
    ConfigError,
    SingularSystemError,
    SolverError,
)
from .physics import (OperatorParams, _check_count, _check_type, _is_real, _is_real_array,
                      reference_binding)

#: Relative bound on acceptable imaginary parts of SUPG eigenvalues.
REALITY_TOL = 1e-8

#: Eigenpairs asked of the last disk's first shift-invert round; doubled until certified.
WINDOW_FIRST_K = 16

#: Eigenpairs asked of a lower disk's first round: the two reference levels
#: it holds and the one eigenpair beyond its edge that certifies it.
SPLIT_FIRST_K = 3

#: The stabilized solve cuts a window of at least this many genuine levels into two disks.
SPLIT_LEVELS = 10

#: Plain inverse-iteration steps at one shift before Rayleigh-quotient iteration takes over.
INVERSE_STEPS = 4

#: Rayleigh-quotient iteration steps, one band LU each, before a search gives up.
RQI_STEPS = 6

#: A level has converged once one step moves its Rayleigh quotient by at most this, relative.
RQ_TOL = 1e-14

#: A converged level is kept if its normwise backward error is at most this.
BACKWARD_TOL = 1e-10

#: An inertia count refuses a pivot at most this fraction of its own row's largest entry.
#: Its band LU scales the pencil by powers of 2^-40, the first below this, so
#: that a row interchange, which it refuses too, marks a pivot smaller still.
PIVOT_TOL = 1e-12

#: A determinant sign gives no parity at a shift this close, relative, to a found level.
PARITY_FUZZ = 1e-11

_log = logging.getLogger("diracfem")


@dataclass(frozen=True)
class Spectrum:
    """The eigenpairs one windowed solve computed on the bound-state branch.

    ``bindings`` holds mu = lambda - m*c^2 restricted to the requested
    window and to the bound window (-2mc^2, 0), ascending (deepest level
    first), and ``raw`` the energies lambda = mu + m*c^2 of those levels.
    ``eigenvectors`` holds one column per binding, in the pencil's node
    order (see ``assembly``), rhs-normalized with the largest f-value
    coefficient made positive.
    """

    scheme: str
    bindings: np.ndarray
    max_imag: float
    params: OperatorParams
    eigenvectors: np.ndarray

    def __post_init__(self):
        for array in (self.bindings, self.eigenvectors):
            array.setflags(write=False)

    @property
    def raw(self) -> np.ndarray:
        return self.bindings + self.params.rest_energy


def bound_window(params: OperatorParams, levels: int) -> tuple[float, float]:
    """Binding window (lo, hi) holding the first ``levels`` levels of ``params``' kappa.

    ``lo`` is twice the kappa = -|kappa| ground binding, below every level of
    either sign including the kappa > 0 copy of that ground state. The
    binding depends on |kappa| and n_r only, and the genuine series run
    n_r = 0 ... levels - 1 for kappa < 0 and n_r = 1 ... levels for
    kappa > 0. So ``hi`` lies halfway between the reference levels
    n_r = levels - 1 and n_r = levels for kappa < 0, and between
    n_r = levels and n_r = levels + 1 for kappa > 0: past the last level the
    series needs, and short of the next one.
    """
    _check_type(params, "params", OperatorParams)
    levels = _check_count(levels, "levels")
    neg = replace(params, kappa=-abs(params.kappa))
    lo = 2.0 * reference_binding(neg, 0).binding
    last = levels if params.kappa > 0 else levels - 1
    hi = 0.5 * (reference_binding(neg, last).binding
                + reference_binding(neg, last + 1).binding)
    return lo, hi


@functools.lru_cache(maxsize=16)
def _start_vector(size: int) -> np.ndarray:
    """The read-only start vector of inverse iteration on a ``size``-dof pencil, held per size.

    Fixed, so repeated solves are bit-identical; not all ones, which a
    symmetric pencil can make orthogonal to a level it then never finds.
    """
    start = np.random.default_rng(0).uniform(0.5, 1.5, size)
    start.setflags(write=False)
    return start


def _count_scale(hb: int) -> np.ndarray:
    """One power of two per band row, 2^(-k*(i - j)) for the row of offset i - j.

    It scales the shifted pencil of an inertia count (see ``_inertia_counter``):
    2^-k just below PIVOT_TOL (k = 40), as far as the scales 2^(+-k*hb)
    leave entries from 2^-62 to 2^63 inside the normal double range.
    """
    k = min(math.ceil(-math.log2(PIVOT_TOL)), 960 // max(hb, 1))
    return np.ldexp(1.0, -k * np.arange(-hb, hb + 1))[:, None]


def _band_product(band: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A @ x for the square matrix A held in LAPACK band storage ``band``."""
    hb, size = band.shape[0] // 2, band.shape[1]
    # dgbmv's wrapper wants at least 2*hb + 1 rows; those past a small pencil are zero
    return dgbmv(max(size, 2 * hb + 1), size, hb, hb, 1.0, band, x)[:size]


def _shifted_pencil(lhs_band: np.ndarray, rhs_band: np.ndarray):
    """Function s -> lhs - s*rhs of two band matrices, Fortran-ordered in ``dgbtrf``'s layout.

    The bands are copied once, under hb rows for the fill that row swaps
    bring, so each shifted pencil is one contiguous multiply-add.
    """
    hb, size = lhs_band.shape[0] // 2, lhs_band.shape[1]
    lhs, rhs = (np.zeros((3 * hb + 1, size), order="F") for _ in range(2))
    lhs[hb:], rhs[hb:] = lhs_band, rhs_band

    def shifted(s: float) -> np.ndarray:
        pencil = np.multiply(rhs, -s)  # Fortran-ordered like rhs, so dgbtrf copies nothing
        pencil += lhs
        return pencil

    return shifted


def _shifted_lu(system: AssembledSystem):
    """Function sigma -> partially pivoted ``dgbtrf`` of lhs - sigma*rhs: (lu, pivots, det_sign).

    ``det_sign`` is the sign of det(lhs - sigma*rhs): the product of the
    signs of U's diagonal, times -1 for each row swap, and 0 when U is
    exactly singular. A factor holding a non-finite entry raises
    SingularSystemError.
    """
    hb = system.lhs_band.shape[0] // 2
    pencil = _shifted_pencil(system.lhs_band, system.rhs_band)

    def lu(sigma: float):
        factor, pivots, info = dgbtrf(pencil(sigma), hb, hb, overwrite_ab=True)
        if not np.isfinite(factor).all():
            raise SingularSystemError(f"shifted pencil at sigma={sigma} has a non-finite factor")
        if info > 0:
            return factor, pivots, 0
        flips = (np.count_nonzero(factor[2 * hb] < 0)
                 + np.count_nonzero(pivots != np.arange(system.size)))
        return factor, pivots, -1 if flips % 2 else 1

    return lu


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
    return _lead_positive(v, system)


def _lead_positive(v: np.ndarray, system: AssembledSystem) -> np.ndarray:
    """Node-order columns ``v``, each signed in place: its largest-|f value| entry positive."""
    f_values = part_dofs(system.scheme, system.size, "zeta")
    v[:, v[f_values[np.argmax(np.abs(v[f_values]), axis=0)], np.arange(v.shape[1])] < 0] *= -1.0
    return v


def _check_reality(lam: np.ndarray) -> None:
    """Raise ComplexSpectrumError if any |Im lambda| exceeds REALITY_TOL relative to |lambda|."""
    bad = np.abs(lam.imag) > REALITY_TOL * np.abs(lam)
    if bad.any():
        worst = lam[np.argmax(np.abs(lam.imag) / np.maximum(np.abs(lam), 1e-300))]
        raise ComplexSpectrumError(f"{bad.sum()} eigenvalue(s) violate reality tolerance "
                                   f"{REALITY_TOL} (worst: {worst})")


# --- Galerkin pencils: inertia counts and inverse iteration --------------------


def _inertia_counter(system: AssembledSystem):
    """count(s): the number of eigenvalues below s of a symmetric-definite band pencil.

    By Sylvester's law of inertia, with rhs positive definite, the number of
    negative pivots of an LDL^T factorization of A = lhs - s*rhs is the
    number of eigenvalues below s. Node order is a band ordering, so the
    unpivoted LU of A, whose pivots are that D, has no fill outside the
    band. ``dgbtrf`` computes it from the similar matrix D A D^-1,
    D = diag(2^(-k*i)): its entry at offset i - j is A's times
    2^(-k*(i - j)), one factor per band row (``_count_scale``). Powers
    of two scale without rounding, and D A D^-1 has A's unpivoted pivots,
    each bit for bit. Partial pivoting on it swaps rows only where an
    unpivoted pivot is below 2^-k times an entry under it, so with
    k = 40 (2^-40 is just below PIVOT_TOL) a factor without row
    interchanges holds exactly A's pivots on its diagonal. A row
    interchange, an exactly zero pivot, a non-finite factor or a pivot at
    most PIVOT_TOL times its own row's largest entry would void the count
    and raises SolverError naming the shift. (A guard on the ratio of the
    smallest to the largest pivot would not do: on the graded meshes that
    ratio is about 1e-15 in factorizations whose counts are right, because
    the mass entries scale with the element size.) A band too wide for
    k = 40 inside the double range takes a smaller k: its counts refuse
    more often, but never count otherwise.
    """
    hb = system.lhs_band.shape[0] // 2
    scale = _count_scale(hb)
    scaled = _shifted_pencil(system.lhs_band * scale, system.rhs_band * scale)
    # unscaled and C-ordered, where the reduction down each band column is fast
    lhs_rows, rhs_rows = (np.ascontiguousarray(band) for band in (system.lhs_band, system.rhs_band))

    def count(s: float) -> int:
        shifted = scaled(s)  # D (lhs - s*rhs) D^-1, exactly
        # lhs - s*rhs is symmetric: its row j holds the entries of band column j
        entries = np.multiply(rhs_rows, -s)
        entries += lhs_rows
        row_max = np.abs(entries, out=entries).max(axis=0)
        factor, swaps, info = dgbtrf(shifted, hb, hb, overwrite_ab=True)
        if not np.isfinite(factor).all():
            raise SolverError(f"inertia count at {s!r}: the factor holds a non-finite entry")
        pivots = factor[2 * hb]
        if (swapped := swaps != np.arange(system.size)).any():
            # the swap moved the unpivoted pivot under the new one, as its multiplier
            i = int(np.argmax(swapped))
            unpivoted = factor[2 * hb + swaps[i] - i, i] * pivots[i]
            raise SolverError(f"inertia count at {s!r}: pivot {i} is {unpivoted:.3g}, "
                              f"tiny against its row's entries")
        if info > 0:
            raise SolverError(f"inertia count at {s!r} failed: pivot {info - 1} is exactly zero")
        tiny = ~(np.abs(pivots) > PIVOT_TOL * row_max)
        if tiny.any():
            i = int(np.argmax(tiny))
            raise SolverError(f"inertia count at {s!r}: pivot {i} is {pivots[i]:.3g}, "
                              f"tiny against its row's entries")
        return int(np.count_nonzero(pivots < 0))

    return count


class _LevelSearch:
    """Deflated inverse iteration on a symmetric-definite band pencil, and the levels it found.

    ``mu`` holds the accepted levels in the order found and ``vectors``
    their rhs-normalized eigenvectors. Every iterate is made rhs-orthogonal
    to the vectors already found (a no-op before the first), so no level is
    found twice; |lhs| and |rhs| are formed only if an ``_accept`` needs them.
    """

    def __init__(self, system: AssembledSystem):
        self.system, self._lu = system, _shifted_lu(system)
        self.hb = system.lhs_band.shape[0] // 2
        self._abs_bands = None
        self._start = _start_vector(system.size)
        self._rhs_start = _band_product(system.rhs_band, self._start)
        self.mu: list[float] = []
        # the found vectors and rhs times each, one per row, with room for more
        self._basis, self._rhs_basis = np.zeros((2, 0, system.size))
        self.factorizations = self.steps = 0

    @property
    def vectors(self) -> np.ndarray:
        return self._basis[:len(self.mu)].T

    def _deflate(self, y: np.ndarray) -> np.ndarray:
        if k := len(self.mu):
            y -= (self._rhs_basis[:k] @ y) @ self._basis[:k]
        return y

    def factor(self, sigma: float):
        """``dgbtrf`` of lhs - sigma*rhs, made solvable: (lu, pivots, det_sign)."""
        self.factorizations += 1
        lu, pivots, det_sign = self._lu(sigma)
        if det_sign == 0:
            # sigma is an eigenvalue: a tiny pivot in place of the zero one
            # makes the solve return its eigenvector
            diagonal = lu[2 * self.hb]
            diagonal[diagonal == 0] = np.finfo(float).eps * max(np.abs(diagonal).max(), 1.0)
        return lu, pivots, det_sign

    def _step(self, lu, pivots, rhs_y):
        """One deflated inverse-iteration step: (mu, y, rhs*y, lhs*y), or None if it vanished."""
        hb, system = self.hb, self.system
        z, _ = dgbtrs(lu, hb, hb, rhs_y, pivots)
        z = self._deflate(z)
        rhs_z = _band_product(system.rhs_band, z)
        norm2 = z @ rhs_z
        if not 0.0 < norm2 < np.inf:
            return None
        scale = 1.0 / np.sqrt(norm2)
        z *= scale
        rhs_z *= scale
        lhs_z = _band_product(system.lhs_band, z)
        self.steps += 1
        return z @ lhs_z, z, rhs_z, lhs_z

    def _accept(self, mu: float, y: np.ndarray, rhs_y: np.ndarray, lhs_y: np.ndarray) -> bool:
        """Keep (mu, y) if its backward error is small; whether it was kept.

        The backward error ||lhs*y - mu*rhs*y|| / (|| |lhs| |y| || + |mu| || |rhs| |y| ||)
        is below 1e-12 for a converged level on every mesh tried, and 4e-8
        or more for an equal mix of two neighbouring levels of the
        pathology and Z=12 pencils. As |lhs*y| <= |lhs| |y| entrywise, the
        step's own products bound that scale from below by ||lhs*y|| +
        |mu| ||rhs*y||: a residual within BACKWARD_TOL of that bound is kept
        at once, and only one that is not forms |lhs| and |rhs| for the scale.
        """
        residual = np.linalg.norm(lhs_y - mu * rhs_y)
        if not residual <= BACKWARD_TOL * (np.linalg.norm(lhs_y) + abs(mu) * np.linalg.norm(rhs_y)):
            if self._abs_bands is None:
                self._abs_bands = np.abs(self.system.lhs_band), np.abs(self.system.rhs_band)
            abs_lhs, abs_rhs = self._abs_bands
            scale = (np.linalg.norm(_band_product(abs_lhs, np.abs(y)))
                     + abs(mu) * np.linalg.norm(_band_product(abs_rhs, np.abs(y))))
            if not residual <= BACKWARD_TOL * scale:
                return False
        k = len(self.mu)
        if k == len(self._basis):
            self._basis, self._rhs_basis = (np.vstack([rows, np.zeros((8, len(y)))])
                                            for rows in (self._basis, self._rhs_basis))
        self._basis[k] = y
        self._rhs_basis[k] = rhs_y
        self.mu.append(mu)
        return True

    def search(self, factor, lo: float, hi: float) -> float | None:
        """Inverse iteration on ``factor``, of lhs - sigma*rhs, sigma in (lo, hi): the new level.

        It starts from a fixed positive vector made rhs-orthogonal to the
        levels found, so it converges to the nearest level to sigma not yet
        found; a second search on the same factor finds the next one. Plain
        steps run until the Rayleigh quotient settles, at most
        INVERSE_STEPS. Where they stall, or settle on a vector whose
        residual is too large, Rayleigh-quotient iteration takes over, one
        factorization per step, but only from a Rayleigh quotient inside
        (lo, hi): from one outside, it would converge to a level the caller
        is not looking for. The new level is None if the search gave up.
        """
        lu, pivots, _ = factor
        # rhs times the deflated start, from rhs*start and the stored rhs
        # times each found vector, with no band product
        rhs_y = self._rhs_start
        if k := len(self.mu):
            rhs_y = rhs_y - (self._rhs_basis[:k] @ self._start) @ self._rhs_basis[:k]
        previous, plain, rqi = None, 0, 0
        while rqi <= RQI_STEPS:
            if rqi:
                lu, pivots, _ = self.factor(previous)
            step = self._step(lu, pivots, rhs_y)
            if step is None:
                return None
            mu, y, rhs_y, lhs_y = step
            plain += not rqi
            settled = previous is not None and abs(mu - previous) <= RQ_TOL * abs(mu)
            if settled and self._accept(mu, y, rhs_y, lhs_y):
                return mu
            if rqi or settled or plain >= INVERSE_STEPS:
                if not lo < mu < hi:
                    break
                rqi += 1
            previous = mu
        return None


def _reference_shifts(system: AssembledSystem, lo: float, hi: float, most: int) -> list[float]:
    """The kappa = -|kappa| reference bindings in (lo, hi), deepest first, at most ``most``.

    Every genuine level of either kappa sign, and the kappa > 0 copy of the
    ground state, lies within its discretization error of one of them.
    """
    neg = replace(system.params, kappa=-abs(system.params.kappa))
    shifts = []
    for n_r in range(system.size):
        binding = reference_binding(neg, n_r).binding
        if binding >= hi or len(shifts) == most:
            break
        if binding > lo:
            shifts.append(binding)
    return shifts


def _odd_interval(parity: dict[float, int], found: list[float], top: float):
    """The interval up to ``top`` from the probe below it, if its found levels miss its parity.

    ``parity`` maps probe points to the parity of the number of eigenvalues
    below them. A probe within PARITY_FUZZ of a found level is skipped: the
    rounding of its factorization may put that level on either side. None
    if ``top`` is no probe or is skipped, has none below it, or its interval is even.
    """
    def kept(p):
        return all(abs(f - p) > PARITY_FUZZ * abs(p) for f in found)

    if top in parity and kept(top):
        for p in sorted((p for p in parity if p < top), reverse=True):
            if kept(p):
                inside = sum(p < f < top for f in found)
                return (p, top) if (inside + parity[p] + parity[top]) % 2 else None
    return None


def _solve_galerkin(system: AssembledSystem, lo: float, hi: float):
    """Every eigenpair of a symmetric-definite pencil in (lo, hi), ascending: (mu, vectors).

    1. Count: the window holds m = count(hi) - count(lo) levels.
    2. Locate: one inverse-iteration search from each kappa = -|kappa|
       reference level in the window.
    3. Find the extras: each search's determinant sign is the parity of the
       count below its shift, so an interval between shifts whose found
       levels miss its parity holds a level not yet found (an instilled
       level, or the kappa > 0 copy of the ground state). Such a level
       sits beside a genuine one, so an odd interval just below a shift,
       and one above the last shift, is searched once more on that shift's
       factor before the next shift is factored. The parity at each edge
       is its count's.
    4. Certify: count bisection runs until every interval holds as many
       found levels as it counts, searching the middle of each interval
       that still misses some; with m levels found, it counts nothing
       more. A window that does not settle raises SolverError.

    rhs must be positive definite for the counts to mean "eigenvalues below
    s"; its band Cholesky factorization checks that.
    """
    hb = system.lhs_band.shape[0] // 2
    _, info = dpbtrf(system.rhs_band[hb:], lower=1)
    if info > 0:
        raise SolverError(f"rhs of the {system.scheme} pencil is not positive definite "
                          f"(band Cholesky fails in column {info})")
    count = _inertia_counter(system)
    below = {hi: count(hi), lo: count(lo)}  # the counts run
    m = below[hi] - below[lo]  # the window's number of levels
    search = _LevelSearch(system)
    shifts = _reference_shifts(system, lo, hi, m)
    parity = {edge: n % 2 for edge, n in below.items()}
    for sigma in shifts:
        factor = search.factor(sigma)
        if factor[2]:
            parity[sigma] = int(factor[2] < 0)
        search.search(factor, lo, hi)
        # the odd interval below this shift, and above the last one, searched on its factor
        for top in (sigma, hi) if sigma == shifts[-1] else (sigma,):
            interval = _odd_interval(parity, search.mu, top)
            if interval is not None:
                search.search(factor, *interval)
        del factor  # before the next shift is factored
    pending = [(lo, hi)]
    while pending:
        x, y = pending.pop()
        found = np.sort([mu for mu in search.mu if x < mu < y])
        missing = below[y] - below[x] - len(found)
        if missing == 0:
            continue
        if missing < 0:
            raise SolverError(f"{len(found)} levels found in ({x!r}, {y!r}), "
                              f"where the inertia counts {below[y] - below[x]}")
        if len(found) >= 2:  # cut between the two middle levels found
            left, right = found[len(found) // 2 - 1], found[len(found) // 2]
        else:
            left, right = x, y
            # every level not yet found lies farther from the middle than those inside
            level = search.search(search.factor(0.5 * (x + y)), x, y)
            if level is not None and x < level < y:
                pending.append((x, y))
                continue
        # a cut where the unpivoted count breaks down moves off the middle
        for t in (0.5, 0.375, 0.625):
            split = float(left + t * (right - left))
            if len(below) < 2 * m + 16 and x < split < y and split not in below:
                try:
                    below[split] = count(split)
                    break
                except SolverError:
                    pass
        else:
            raise SolverError(f"window ({lo!r}, {hi!r}) not certified: {missing} of the "
                              f"{below[y] - below[x]} levels in ({x!r}, {y!r}) not found")
        pending += [(x, split), (split, y)]

    mu = np.array(search.mu)
    order = np.argsort(mu)
    order = order[(mu[order] > lo) & (mu[order] < hi)]
    if len(order) != m:  # the certificate
        raise SolverError(f"window ({lo!r}, {hi!r}) holds {m} levels, {len(order)} found")
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("windowed solve: N=%d nnz=%d band=(%d, %d) window=(%r, %r) driver=inertia "
                   "m=%d shifts=[%s] factorizations=%d counts=%d steps=%d max_imag=0",
                   system.size, np.count_nonzero(system.lhs_band), hb, hb, lo, hi, m,
                   ", ".join(f"{s:.10g}" for s in shifts), search.factorizations, len(below),
                   search.steps)
    return mu[order], search.vectors[:, order]


# --- the stabilized pencil: shift-invert Arnoldi disks -------------------------


def _solve_disk(system: AssembledSystem, lo: float, hi: float, first_k: int):
    """One shift-invert disk certified complete on (lo, hi): (mu, vecs, radius, max_imag).

    ``mu`` holds the real parts of every computed binding, ascending,
    ``vecs`` their node-order eigenvectors, and ``radius`` the farthest
    |mu - sigma|: every eigenvalue closer than that to sigma = (lo + hi)/2
    is among ``mu``. The signs of det(lhs - p*rhs) and det(lhs - q*rhs)
    multiply to (-1) to the number of real eigenvalues in (p, q), because a
    complex pair contributes a positive factor. p and q are the midpoints
    of the gaps around lo and hi that the disk certified empty, so no
    eigenvalue lies near enough to either to blur its sign. A disk whose
    computed eigenvalues in (p, q) miss that parity raises SolverError.
    """
    # only this solve reads ARPACK, so the Galerkin path never loads scipy.sparse
    import scipy.sparse.linalg

    size = system.size
    sigma, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    hb = system.lhs_band.shape[0] // 2
    lu = _shifted_lu(system)
    factor, pivots, det_sign = lu(sigma)
    if det_sign == 0:
        raise SingularSystemError(f"shifted pencil singular at sigma={sigma}")
    ops = 0

    def apply(x):
        nonlocal ops
        ops += 1
        y, _ = dgbtrs(factor, hb, hb, _band_product(system.rhs_band, x), pivots,
                      overwrite_b=True)
        return y

    op = scipy.sparse.linalg.LinearOperator((size, size), matvec=apply, dtype=float)
    v0 = np.ones(size)
    k, rounds = min(first_k, size - 2), 0
    while True:
        rounds += 1
        try:
            theta, vecs = scipy.sparse.linalg.eigs(op, k=k, which="LM", v0=v0)
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

    lam = mu + system.params.rest_energy
    max_imag = float(np.max(np.abs(lam.imag)))
    rim = sigma - radius, sigma + radius
    probes = [_empty_gap_midpoint(mu.real, rim[0], edge, rim[1]) for edge in (lo, hi)]
    inside = int(np.count_nonzero((mu.real > probes[0]) & (mu.real < probes[1])))
    edge_signs = lu(probes[0])[2] * lu(probes[1])[2]
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("windowed solve: N=%d nnz=%d band=(%d, %d) window=(%r, %r) sigma=%r "
                   "driver=nonsymmetric k=%d rounds=%d ops=%d max_imag=%.3g parity=%d",
                   size, np.count_nonzero(system.lhs_band), hb, hb, lo, hi, sigma, k, rounds,
                   ops, max_imag, inside % 2)
    _check_reality(lam)
    if edge_signs != (-1) ** inside:
        raise SolverError(f"window ({lo}, {hi}): {inside} real eigenvalues found between "
                          f"{probes[0]!r} and {probes[1]!r}, but the determinant signs "
                          f"there multiply to {edge_signs}")
    order = np.argsort(mu.real)
    return mu.real[order], vecs[:, order], radius, max_imag


def _disk_edges(system: AssembledSystem, lo: float, hi: float) -> list[float]:
    """The edges of the stabilized solve's disks on (lo, hi): [lo, hi], or [lo, s, hi].

    One shift at the midpoint of a window of SPLIT_LEVELS genuine levels or
    more sits far from its top edge in the Rydberg accumulation, where
    ARPACK converges slowly: the last wanted level and the next one differ
    in distance from it by a fraction of a percent. Such a window is cut at
    s, halfway between the kappa = -|kappa| reference levels n_r = 1 and 2,
    if s lies inside it. Its reference shifts count its genuine levels,
    less one for kappa > 0, whose series has no n_r = 0 level.
    """
    params = system.params
    genuine = len(_reference_shifts(system, lo, hi, SPLIT_LEVELS + 1)) - (params.kappa > 0)
    neg = replace(params, kappa=-abs(params.kappa))
    split = 0.5 * (reference_binding(neg, 1).binding + reference_binding(neg, 2).binding)
    return [lo, split, hi] if genuine >= SPLIT_LEVELS and lo < split < hi else [lo, hi]


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


def solve(system: AssembledSystem, window: tuple[float, float]) -> Spectrum:
    """Solve lhs*X = mu*rhs*X on the binding window ``window=(lo, hi)``.

    The scheme table decides the path (``assembly.is_galerkin``); both
    factor shifted pencils ``lhs - s*rhs`` of the node-order band pencil
    (half-bandwidth 3 for the linear scheme, 7 for Hermite).

    A Galerkin pencil is symmetric-definite: ``_solve_galerkin`` finds
    exactly the m levels that inertia counts give in the window, each the
    Rayleigh quotient of its eigenvector, or raises SolverError. It logs one
    DEBUG record (``driver=inertia``) with N, the band, the window, m, the
    shifts and the numbers of factorizations, inertia counts run and
    iteration steps.

    The stabilized pencil is nonsymmetric. The solve cuts a window of many
    levels in two (``_disk_edges``), and each slice is one shift-invert disk
    at its midpoint sigma: ``lhs - sigma*rhs`` is factored once with partial
    pivoting, and ARPACK's Arnoldi driver (``eigs``) finds the k bindings mu
    nearest sigma, whose 1/(mu - sigma) are the largest-magnitude
    eigenvalues of ``x -> (lhs - sigma*rhs)^-1 rhs x``. k starts at
    SPLIT_FIRST_K for a lower disk and at WINDOW_FIRST_K for the last one,
    and doubles until the farthest |mu - sigma| exceeds the slice's
    half-width. The determinant signs at the slice's edges check the parity
    of its real eigenvalues. The upper disk starts at the midpoint of the
    gap around the cut that the lower one certified empty, so no eigenvalue
    is kept twice or dropped. A fixed start vector makes repeated solves
    bit-identical. Each disk logs one DEBUG record (``driver=nonsymmetric``)
    with its k, rounds, ``ops`` and parity. A midpoint shift that is exactly
    singular raises SingularSystemError.

    The bindings are returned in one ascending array, with their node-order
    eigenvectors. A pencil or factor holding a non-finite entry raises
    SingularSystemError. Any computed eigenvalue whose imaginary part
    exceeds REALITY_TOL relative to its magnitude aborts the solve with
    ComplexSpectrumError. ``system`` must be an AssembledSystem and ``window``
    (lo, hi) two finite reals, lo < hi, or ConfigError is raised first.
    """
    _check_type(system, "system", AssembledSystem)
    edges = [float(e) if _is_real(e) else math.nan for e in window] if np.iterable(window) else []
    if len(edges) != 2 or not -np.inf < edges[0] < edges[1] < np.inf:
        raise ConfigError(f"window must be (lo, hi), finite with lo < hi, got {window!r}")
    lo, hi = edges
    mc2 = system.params.rest_energy
    if system.size < 3:
        raise SolverError(f"pencil of size {system.size} is too small for a windowed solve")
    if not (np.isfinite(system.lhs_band).all() and np.isfinite(system.rhs_band).all()):
        raise SingularSystemError("the pencil holds a non-finite entry")
    if is_galerkin(system.scheme):
        mu, vecs = _solve_galerkin(system, lo, hi)
        keep = (mu > -2.0 * mc2) & (mu < 0.0)
        # the search returns real, rhs-normalized vectors
        return Spectrum(scheme=system.scheme, bindings=mu[keep], max_imag=0.0,
                        params=system.params, eigenvectors=_lead_positive(vecs[:, keep], system))
    bindings, vectors, max_imag = [], [], 0.0
    for top in _disk_edges(system, lo, hi)[1:]:
        if lo >= top:
            continue  # the disk below certified this whole slice empty
        mu, vecs, radius, disk_imag = _solve_disk(
            system, lo, top, WINDOW_FIRST_K if top == hi else SPLIT_FIRST_K)
        cut = hi if top == hi else min(hi, _empty_gap_midpoint(
            mu, lo, top, 0.5 * (lo + top) + radius))
        keep = (mu > max(lo, -2.0 * mc2)) & (mu < min(cut, 0.0))
        bindings.append(mu[keep])
        vectors.append(vecs[:, keep])
        max_imag = max(max_imag, disk_imag)
        lo = cut
    return Spectrum(scheme=system.scheme, bindings=np.concatenate(bindings), max_imag=max_imag,
                    params=system.params,
                    eigenvectors=_normalize_vectors(np.hstack(vectors), system))


def eigenpair_residual(system: AssembledSystem, binding: float, vector: np.ndarray) -> float:
    """Relative residual of one eigenpair (binding, node-order vector) against the pencil.

    A binding that is not a finite real number, or a vector that is not
    finite, nonzero and of the pencil's size, raises ConfigError.
    """
    _check_type(system, "system", AssembledSystem)
    if not (_is_real(binding) and np.isfinite(binding)):
        raise ConfigError(f"binding must be a finite real number, got {binding!r}")
    if not _is_real_array(vector):
        raise ConfigError(f"vector must be an array of real numbers, not {type(vector).__name__}")
    v = np.asarray(vector, dtype=float)
    if v.shape != (system.size,):
        raise ConfigError(f"vector must have shape ({system.size},), got {v.shape}")
    if not (np.isfinite(v).all() and v.any()):
        raise ConfigError("vector must be finite and nonzero")
    r = _band_product(system.lhs_band, v) - binding * _band_product(system.rhs_band, v)
    scale = np.linalg.norm(system.lhs_band) + abs(binding) * np.linalg.norm(system.rhs_band)
    return float(np.linalg.norm(r) / (scale * np.linalg.norm(v)))
