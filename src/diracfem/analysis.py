"""Spectrum classification and residual diagnostics.

Computed spectra are matched against the exact reference to label each
level genuine, instilled-spurious (the interleaved unphysical values), or
coincidence-spurious (a kappa > 0 copy of the opposite series' lowest
state).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .assembly import SCHEME_LINEAR, assemble
from .discretization import build_exponential_mesh
from .eigensolver import Spectrum, bound_window, solve
from .errors import ConfigError
from .physics import (
    OperatorParams,
    ReferenceLevel,
    _check_count,
    _check_type,
    _is_real,
    reference_spectrum,
)

#: Default relative matching tolerances: linear-basis genuine levels are only
#: ~1e-4 accurate, the Hermite schemes far better.
DEFAULT_MATCH_TOL = 1e-3
DEFAULT_MATCH_TOL_HERMITE = 1e-5
#: Exclusive upper bound on a matching tolerance.
MAX_MATCH_TOL = 0.1
#: Relative errors at or below 256 ulp are rounding, not discretization error:
#: the convergence study fits no order through them.
ORDER_FIT_FLOOR = 256 * np.finfo(float).eps


def _match_tol_for(scheme: str) -> float:
    return DEFAULT_MATCH_TOL if scheme == SCHEME_LINEAR else DEFAULT_MATCH_TOL_HERMITE


def check_match_tol(match_tol) -> float:
    """``match_tol`` if it is a real number in (0, MAX_MATCH_TOL), else ConfigError naming it."""
    if not (_is_real(match_tol) and 0.0 < match_tol < MAX_MATCH_TOL):
        raise ConfigError(f"match_tol must lie in (0, {MAX_MATCH_TOL}), got {match_tol!r}")
    return match_tol


class Label(Enum):
    GENUINE = "genuine"
    INSTILLED = "instilled-spurious"
    COINCIDENCE = "coincidence-spurious"


@dataclass(frozen=True)
class ClassifiedLevel:
    binding: float
    label: Label
    reference: ReferenceLevel | None = None
    rel_error: float | None = None


@dataclass(frozen=True)
class ClassifiedSpectrum:
    entries: tuple[ClassifiedLevel, ...]

    def count(self, label: Label) -> int:
        return sum(1 for e in self.entries if e.label is label)


def _rel(x: float, ref: float) -> float:
    return abs(x - ref) / abs(ref)


def classify(computed, reference: list[ReferenceLevel],
             opposite_kappa_ground: float | None = None, *,
             match_tol: float) -> ClassifiedSpectrum:
    """Label computed bindings against the reference spectrum.

    Matching is greedy and in order: each computed value either consumes the
    next unmatched reference level (within ``match_tol`` relative) or is
    spurious. Unmatched values close to ``opposite_kappa_ground`` (pass it
    for kappa > 0 runs only) are the coincidence phenomenon; every other
    unmatched value is an instilled spurious level. ``match_tol`` has no
    default because it follows the scheme (``_match_tol_for``): the linear
    scheme's 1e-3 swaps a Hermite level with its instilled neighbour.
    """
    check_match_tol(match_tol)
    _check_type(reference, "reference", list, tuple)
    for level in reference:
        _check_type(level, "reference level", ReferenceLevel)
    ground = opposite_kappa_ground
    if not (ground is None or _is_real(ground) and np.isfinite(ground) and ground != 0):
        raise ConfigError("opposite_kappa_ground must be a finite nonzero real number or None, "
                          f"got {type(ground).__name__} {ground!r}")
    _check_type(computed, "computed", list, tuple, np.ndarray)
    computed = list(computed)
    if not all(_is_real(x) and np.isfinite(x) for x in computed):
        raise ConfigError(f"computed bindings must be finite real numbers, got {computed!r}")
    computed = [float(x) for x in computed]
    if any(b < a for a, b in zip(computed, computed[1:])):
        raise ConfigError("computed bindings must be sorted ascending")
    ref_bindings = [r.binding for r in reference]
    if any(b < a for a, b in zip(ref_bindings, ref_bindings[1:])):
        raise ConfigError("reference levels must be sorted ascending")

    entries = []
    ri = 0
    for c in computed:
        # references strictly below c can no longer match anything later
        while ri < len(reference) and ref_bindings[ri] < c and _rel(c, ref_bindings[ri]) > match_tol:
            ri += 1
        if ri < len(reference) and _rel(c, ref_bindings[ri]) <= match_tol:
            entries.append(ClassifiedLevel(binding=c, label=Label.GENUINE,
                                           reference=reference[ri],
                                           rel_error=_rel(c, ref_bindings[ri])))
            ri += 1
        elif ground is not None and _rel(c, ground) <= match_tol:
            entries.append(ClassifiedLevel(c, Label.COINCIDENCE, rel_error=_rel(c, ground)))
        else:
            entries.append(ClassifiedLevel(binding=c, label=Label.INSTILLED))
    return ClassifiedSpectrum(entries=tuple(entries))


def truncate_to_genuine(classified: ClassifiedSpectrum, count: int) -> ClassifiedSpectrum:
    """Keep entries up to and including the count-th genuine level (count >= 1)."""
    _check_type(classified, "classified", ClassifiedSpectrum)
    count = _check_count(count, "count")
    genuine = 0
    for i, e in enumerate(classified.entries):
        genuine += e.label is Label.GENUINE
        if genuine == count:
            return ClassifiedSpectrum(entries=classified.entries[:i + 1])
    return classified


@dataclass(frozen=True)
class CoincidenceReport:
    """Pairing of the kappa > 0 spectrum against the kappa < 0 one."""

    present: bool
    first_pos: float
    first_neg: float
    first_rel_diff: float
    pairs: tuple[tuple[float, float, float], ...]


def coincidence_report(spec_pos: Spectrum, spec_neg: Spectrum, *,
                       match_tol: float) -> CoincidenceReport:
    """Check whether the lowest kappa > 0 level copies the kappa < 0 ground state.

    Higher levels coincide physically (same |kappa|, n_r >= 1), so the pairing
    table aligns index-by-index when the unphysical copy is present and with
    an offset of one when it has been removed. The copy is present when the
    two lowest levels agree within ``match_tol`` relative, checked as ``classify``'s.
    """
    _check_type(spec_pos, "spec_pos", Spectrum)
    _check_type(spec_neg, "spec_neg", Spectrum)
    check_match_tol(match_tol)
    if spec_pos.params.kappa <= 0 or spec_neg.params.kappa >= 0:
        raise ConfigError("expected spectra for kappa > 0 and kappa < 0, in that order")
    if (replace(spec_pos.params, kappa=-spec_pos.params.kappa) != spec_neg.params
            or spec_pos.scheme != spec_neg.scheme):
        raise ConfigError("coincidence report requires one operator up to the sign of kappa, "
                          "and one scheme")
    pos, neg = spec_pos.bindings, spec_neg.bindings
    if len(pos) == 0 or len(neg) == 0:
        raise ConfigError("empty bound spectrum")
    first_rel = _rel(pos[0], neg[0])
    present = first_rel <= match_tol
    start, offset = (1, 0) if present else (0, 1)
    pairs = tuple(
        (float(pos[i]), float(neg[i + offset]), _rel(pos[i], neg[i + offset]))
        for i in range(start, len(pos))
        if i + offset < len(neg)
    )
    return CoincidenceReport(present=present, first_pos=float(pos[0]),
                             first_neg=float(neg[0]), first_rel_diff=first_rel,
                             pairs=pairs)


# --- convergence study --------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceStudy:
    n_values: tuple[int, ...]
    errors: np.ndarray  # shape (len(n_values), levels); NaN where unmatched
    orders: np.ndarray  # per-level fitted order; NaN where not fittable

    def __post_init__(self):
        self.errors.setflags(write=False)
        self.orders.setflags(write=False)


def _genuine_errors(classified: ClassifiedSpectrum, reference: list[ReferenceLevel]) -> np.ndarray:
    """Relative error per reference level (NaN where no genuine match)."""
    out = np.full(len(reference), np.nan)
    for e in classified.entries:
        if e.label is Label.GENUINE:
            idx = next(i for i, r in enumerate(reference) if r.n_r == e.reference.n_r)
            out[idx] = e.rel_error
    return out


def convergence_study(scheme: str, params: OperatorParams, n_values, levels: int, *,
                      a: float, b: float, gamma: float,
                      match_tol: float,
                      free_lower_slope: bool = False) -> ConvergenceStudy:
    """Solve on a refinement sequence, classify, and fit per-level orders (``_fit_orders``).

    Each mesh is solved on ``bound_window(params, levels)`` only.
    """
    _check_type(n_values, "n_values", list, tuple)
    if not n_values:
        raise ConfigError("n_values must hold at least one size, got none")
    n_values = tuple(_check_count(n, "n") for n in n_values)
    if any(n2 <= n1 for n1, n2 in zip(n_values, n_values[1:])):
        raise ConfigError(f"n_values must be strictly increasing, got {n_values}")
    match_tol = check_match_tol(match_tol)
    levels = _check_count(levels, "levels")
    reference = reference_spectrum(params, levels)
    window = bound_window(params, levels)
    errors = np.full((len(n_values), levels), np.nan)
    for i, n in enumerate(n_values):
        mesh = build_exponential_mesh(a, b, n, gamma)
        system = assemble(scheme, params, mesh, free_lower_slope=free_lower_slope)
        spectrum = solve(system, window=window)
        classified = classify(spectrum.bindings, reference, match_tol=match_tol)
        errors[i] = _genuine_errors(classified, reference)
    return ConvergenceStudy(n_values=n_values, errors=errors, orders=_fit_orders(n_values, errors))


def _fit_orders(n_values, errors: np.ndarray) -> np.ndarray:
    """Per-level order p of error ~ h^p, h = 1/(n + 1), fitted in log-log.

    Only errors above ORDER_FIT_FLOOR enter a fit: below it an error is
    rounding, and a move of one ulp there would move the order. A level
    with fewer than two such errors gets NaN (not fittable).
    """
    log_h = np.log(1.0 / (np.array(n_values, dtype=float) + 1.0))
    orders = np.full(errors.shape[1], np.nan)
    for lvl, col in enumerate(errors.T):
        ok = np.isfinite(col) & (col > ORDER_FIT_FLOOR)
        if ok.sum() >= 2:
            orders[lvl] = np.polyfit(log_h[ok], np.log(col[ok]), 1)[0]
    return orders
