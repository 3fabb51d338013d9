"""Batch front end: argv parsing, pipeline orchestration, table/csv/json output.

The command line is the one input: every RunConfig field is one flag of the
same name. Exit codes: 0 success, 2 config error, 3 physics error, 4 solver
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import typing
from dataclasses import dataclass, replace

from . import analysis
from .analysis import Label, classify, coincidence_report, truncate_to_genuine
from .assembly import SCHEME_LINEAR, SCHEME_SUPG, SCHEMES, assemble
from .discretization import build_exponential_mesh
from .eigensolver import bound_window, solve
from .errors import ConfigError, InsufficientLevelsError, PhysicsError, SolverError
from .physics import (
    OperatorParams,
    check_charge,
    check_count,
    reference_binding,
    reference_spectrum,
)

FORMATS = ("table", "csv", "json")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PHYSICS = 3
EXIT_SOLVER = 4


@dataclass
class RunConfig:
    Z: float = 1.0
    kappa: int | None = None
    abs_kappa: int | None = None
    scheme: str = SCHEME_SUPG
    radius: float | None = None
    a: float = 1e-5
    b: float | None = None
    n: int = 100
    mesh_gamma: float = 6.0
    levels: int = 6
    match_tol: float | None = None
    free_lower_slope: bool = False
    mode: str = "solve"
    format: str = "table"
    out: str | None = None
    n_list: tuple[int, ...] | None = None

    def finalize(self) -> "RunConfig":
        """Fill derived defaults, checking only the keys the library never sees and b's inputs.

        Raises ConfigError, or PhysicsError for Z; the library checks the rest where it is read.
        """
        cfg = replace(self)
        if cfg.kappa is not None and cfg.abs_kappa is not None:
            raise ConfigError("give either kappa or abs_kappa, not both")
        if cfg.kappa is None and cfg.abs_kappa is None:
            cfg.abs_kappa = 1
        if cfg.abs_kappa is not None and cfg.abs_kappa < 1:
            raise ConfigError("abs_kappa must be >= 1")
        check_charge(cfg.Z)  # b defaults to a multiple of 1/Z
        check_count(cfg.levels, "levels")
        if cfg.b is None:
            cfg.b = cfg.default_b()
        if cfg.n_list is None:
            cfg.n_list = (cfg.n, 2 * cfg.n, 4 * cfg.n)
        return cfg

    def matching_tolerance(self) -> float:
        """Explicit match_tol, checked by ``analysis.check_match_tol``, or the scheme default."""
        if self.match_tol is not None:
            return analysis.check_match_tol(self.match_tol)
        return analysis.match_tol_for(self.scheme)

    def params(self, kappa: int) -> OperatorParams:
        """The operator of one kappa; a radius makes its nucleus extended."""
        return OperatorParams(Z=self.Z, kappa=kappa, R=self.radius)

    def default_b(self) -> float:
        """The derived b: the last level's n is at most levels + |kappa|, and <r> ~ n^2/Z."""
        return 3.0 * (self.levels + abs(self.kappas()[0]) + 1) ** 2 / self.Z

    def kappas(self) -> tuple[int, ...]:
        if self.kappa is not None:
            return (self.kappa,)
        return (self.abs_kappa, -self.abs_kappa)


def int_list(raw: str) -> tuple[int, ...]:
    """A comma-separated list of ints, as ``--n-list`` takes it."""
    return tuple(int(x) for x in raw.split(","))


#: Parser of a flag argument, per RunConfig field type; a bool field is an on/off flag.
_PARSERS = {int: int, float: float, str: str, tuple[int, ...]: int_list}


def _value_type(hint):
    """A field's value type, with the ``| None`` of an optional field dropped."""
    args = typing.get_args(hint)
    return args[0] if type(None) in args else hint


#: The flags: every RunConfig field, with its value type.
_KEY_TYPES = {name: _value_type(hint) for name, hint in typing.get_type_hints(RunConfig).items()}


# --- pipeline ----------------------------------------------------------------


def _solve_kappas(cfg: RunConfig, kappas, levels: int) -> dict:
    """Windowed spectrum per kappa, in the given order, on the configured mesh.

    Each kappa is solved on its own ``bound_window``.
    """
    mesh = build_exponential_mesh(cfg.a, cfg.b, cfg.n, cfg.mesh_gamma)
    spectra = {}
    for kappa in kappas:
        params = cfg.params(kappa)
        system = assemble(cfg.scheme, params, mesh, free_lower_slope=cfg.free_lower_slope)
        spectra[kappa] = solve(system, window=bound_window(params, levels))
    return spectra


def _solve_classified(cfg: RunConfig) -> dict:
    """Classified entries per configured kappa, in column order (negative kappa last)."""
    match_tol = cfg.matching_tolerance()  # checked before any solve
    spectra = _solve_kappas(cfg, sorted(cfg.kappas(), reverse=True), cfg.levels)
    out = {}
    for kappa, spectrum in spectra.items():
        reference = reference_spectrum(spectrum.params, cfg.levels)
        opposite = None
        if kappa > 0:
            neg = spectra.get(-kappa)
            if neg is not None and len(neg.bindings):
                opposite = float(neg.bindings[0])
            else:
                opposite = reference_binding(cfg.params(-kappa), 0).binding
        out[kappa] = classify(spectrum.bindings, reference,
                              opposite_kappa_ground=opposite, match_tol=match_tol)
    # Rows are anchored on the last column: it must supply the requested
    # genuine levels, and every column is cut to its row count so entries
    # pair index by index.
    anchor = min(out)
    classified = truncate_to_genuine(out[anchor], cfg.levels)
    if classified.count(Label.GENUINE) < cfg.levels:
        raise InsufficientLevelsError(
            f"kappa={anchor}: only {classified.count(Label.GENUINE)} of "
            f"{cfg.levels} genuine levels found"
            f"{_miss_hint(cfg, anchor, out[anchor].entries)}"
        )
    depth = len(classified.entries)
    return {kappa: other.entries[:depth] for kappa, other in out.items()}


#: Misses up to this many match tolerances can come from the fixed lower slope.
SLOPE_MISS_FACTOR = 100.0


def _miss_hint(cfg: RunConfig, kappa: int, entries) -> str:
    """Why the first ``cfg.levels`` levels missed: the domain, the nucleus, the slope or the mesh.

    A window holding fewer than ``cfg.levels`` computed levels points at a
    domain too short for the upper levels if b is below ``RunConfig.default_b``,
    else at a mesh too coarse for them. Otherwise each level's miss is its
    relative distance to the nearest reference level. A ``--radius`` run is
    labelled against the point-nucleus reference, so its misses are the
    finite nucleus's own shift of the levels.
    """
    if len(entries) < cfg.levels:
        cause = (f"the domain --b {cfg.b:g} is likely too short for the upper levels "
                 f"(try a larger --b)" if cfg.b < cfg.default_b() else
                 "the mesh is likely too coarse for the upper levels (try a larger --n)")
        return f"; the window held {len(entries)} computed level(s): {cause}"
    reference = reference_spectrum(cfg.params(kappa), cfg.levels)
    tol = cfg.matching_tolerance()
    worst = max(min(abs(e.binding - r.binding) / abs(r.binding) for r in reference)
                for e in entries[:cfg.levels])
    if cfg.radius is not None:
        return (f"; the computed levels miss the reference by up to {worst:.1e} relative, "
                f"against the match tolerance {tol:g}: a --radius run is labelled against "
                f"the point-nucleus reference, from which the finite nucleus moves the "
                f"levels (loosen --match-tol to label them)")
    if (worst <= SLOPE_MISS_FACTOR * tol and cfg.scheme != SCHEME_LINEAR
            and not cfg.free_lower_slope and abs(kappa) == 1):
        return ("; the computed levels miss the reference, likely because of the "
                "fixed lower slope (try --free-lower-slope)")
    return (f"; the computed levels miss the reference by up to {worst:.1e} relative, "
            f"against the match tolerance {tol:g}: the mesh is likely too coarse for "
            f"that tolerance (refine --n or loosen --match-tol)")


def _long_rows(columns: dict, scheme: str | None = None):
    """One row per classified entry, column by column: the csv/json schema."""
    rows = []
    for kappa, entries in columns.items():
        level = 0
        for e in entries:
            if e.label is Label.GENUINE:
                level += 1
            row = {
                "level": level if e.label is Label.GENUINE else None,
                "kappa": kappa,
                "binding": float(e.binding),
                "reference": None if e.reference is None else float(e.reference.binding),
                "rel_error": None if e.rel_error is None else float(e.rel_error),
                "label": e.label.value,
            }
            if scheme is not None:
                row["scheme"] = scheme
            rows.append(row)
    return rows


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _render_csv(rows) -> str:
    """The rows under a header of the first row's keys, which every row of a mode holds."""
    columns = list(rows[0])
    lines = [",".join(columns)] + [",".join(_fmt(row[c]) for c in columns) for row in rows]
    return "\n".join(lines) + "\n"


def _render_solve_table(rows, title: str) -> str:
    """One table column per kappa; the last column's row gives level and reference.

    A line's label is its worst row's: coincidence, then instilled, then genuine.
    """
    columns = {}
    for row in rows:
        columns.setdefault(row["kappa"], []).append(row)
    heads = ["level"] + [f"kappa={k:+d}" for k in columns] + ["reference", "label"]
    lines = [title, "  ".join(f"{h:>18}" for h in heads)]
    for i, anchor in enumerate(list(columns.values())[-1]):
        line = [col[i] if i < len(col) else None for col in columns.values()]
        held = {r["label"] for r in line if r is not None}
        label = next(worst.value for worst in (Label.COINCIDENCE, Label.INSTILLED, Label.GENUINE)
                     if worst.value in held)
        cells = [f"{'=>' if anchor['level'] is None else anchor['level']:>18}"]
        cells += [f"{_fmt(r['binding']) if r else '':>18}" for r in line]
        cells += [f"{_fmt(anchor['reference']):>18}", f"  {label}"]
        lines.append("  ".join(cells))
    return "\n".join(lines) + "\n"


def _mode_solve(cfg: RunConfig):
    rows = _long_rows(_solve_classified(cfg))
    return rows, lambda: _render_solve_table(
        rows, f"scheme={cfg.scheme} Z={_fmt(cfg.Z)} n={cfg.n} "
              f"a={_fmt(cfg.a)} b={_fmt(cfg.b)} gamma={_fmt(cfg.mesh_gamma)}")


def _mode_compare(cfg: RunConfig):
    rows = []
    for scheme in SCHEMES:
        sub = replace(cfg, scheme=scheme,
                      free_lower_slope=cfg.free_lower_slope and scheme != SCHEME_LINEAR)
        rows.extend(_long_rows(_solve_classified(sub), scheme=scheme))
    return rows, lambda: "\n".join(
        _render_solve_table([r for r in rows if r["scheme"] == s], f"--- {s} ---")
        for s in SCHEMES)


def _mode_convergence(cfg: RunConfig):
    kappa = cfg.kappas()[0]
    study = analysis.convergence_study(
        cfg.scheme, cfg.params(kappa), cfg.n_list, cfg.levels,
        a=cfg.a, b=cfg.b, gamma=cfg.mesh_gamma, match_tol=cfg.matching_tolerance(),
        free_lower_slope=cfg.free_lower_slope)

    def value(x):  # NaN marks an unmatched level, or an order not fittable above rounding
        return None if math.isnan(x) else float(x)

    rows = [{"n": n, "level": lvl + 1, "kappa": kappa, "rel_error": value(err), "order": None}
            for n, errors in zip(study.n_values, study.errors)
            for lvl, err in enumerate(errors)]
    rows += [{"n": None, "level": lvl + 1, "kappa": kappa, "rel_error": None, "order": value(o)}
             for lvl, o in enumerate(study.orders)]

    def table():
        lines = [f"convergence scheme={cfg.scheme} kappa={kappa:+d} Z={_fmt(cfg.Z)}",
                 "  ".join([f"{'n':>8}"] + [f"{f'lvl {l + 1}':>12}" for l in range(cfg.levels)])]
        for n in (*study.n_values, None):
            key = "rel_error" if n is not None else "order"
            cells = [f"{'order' if n is None else n:>8}"]
            cells += [f"{'-' if r[key] is None else _fmt(r[key]):>12}" for r in rows if r["n"] == n]
            lines.append("  ".join(cells))
        return "\n".join(lines) + "\n"

    return rows, table


def _mode_coincidence(cfg: RunConfig):
    if cfg.kappa is not None:
        raise ConfigError("coincidence mode requires abs_kappa (a +/- pair)")
    match_tol = cfg.matching_tolerance()  # checked before any solve
    # pairs 1..levels need levels + 1 bindings of each sign
    spectra = _solve_kappas(cfg, (cfg.abs_kappa, -cfg.abs_kappa), cfg.levels + 1)
    for kappa, spectrum in spectra.items():
        if not len(spectrum.bindings):
            raise InsufficientLevelsError(
                f"kappa={kappa}: no bound level found{_miss_hint(cfg, kappa, ())}")
    neg = spectra[-cfg.abs_kappa]
    report = coincidence_report(spectra[cfg.abs_kappa], neg, tol=match_tol)
    # a pair is a physical degeneracy only where its kappa < 0 level is genuine
    labels = {e.binding: e.label for e in classify(
        neg.bindings, reference_spectrum(neg.params, len(neg.bindings)),
        match_tol=match_tol).entries}
    rows = [{"pair": 0, "pos_binding": report.first_pos, "neg_binding": report.first_neg,
             "rel_diff": report.first_rel_diff,
             "note": "coincidence" if report.present else "distinct"}]
    for i, (p, m, r) in enumerate(report.pairs[:cfg.levels], start=1):
        rows.append({"pair": i, "pos_binding": p, "neg_binding": m, "rel_diff": r,
                     "note": "physical-degeneracy" if labels[m] is Label.GENUINE
                     else Label.INSTILLED.value})

    def table():
        lines = [f"coincidence scheme={cfg.scheme} Z={_fmt(cfg.Z)} |kappa|={cfg.abs_kappa}: "
                 f"{'PRESENT' if report.present else 'ABSENT'} "
                 f"(first pair rel diff {_fmt(report.first_rel_diff)})"]
        lines += [f"  pair {row['pair']:>2}: {_fmt(row['pos_binding']):>18} vs "
                  f"{_fmt(row['neg_binding']):>18}  rel={_fmt(row['rel_diff'])}  {row['note']}"
                  for row in rows]
        return "\n".join(lines) + "\n"

    return rows, table


#: Each mode returns (rows, a function rendering the table text); a mode has
#: at least one row, and each of its rows holds the csv columns as keys, in order.
_RUNNERS = {"solve": _mode_solve, "compare-schemes": _mode_compare,
            "convergence": _mode_convergence, "coincidence": _mode_coincidence}

#: The allowed values of each choice key, each taken from the table that owns it.
_CHOICES = {"mode": tuple(_RUNNERS), "scheme": SCHEMES, "format": FORMATS}


def run(config: RunConfig) -> int:
    """Execute one mode and emit the result; returns EXIT_OK, as every failure raises."""
    rows, table = _RUNNERS[config.mode](config)

    if config.format == "table":
        text = table()
    elif config.format == "csv":
        text = _render_csv(rows)
    else:
        text = json.dumps({"mode": config.mode, "scheme": config.scheme,
                           "rows": rows}, indent=2, sort_keys=True) + "\n"
    if config.out:
        try:
            with open(config.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write --out file {config.out}: {exc}") from exc
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="dirac-fem", allow_abbrev=False,
                                description="Radial Coulomb-Dirac finite element solver")
    for name, value_type in _KEY_TYPES.items():
        flag = "--" + name.replace("_", "-")
        if value_type is bool:
            p.add_argument(flag, dest=name, action=argparse.BooleanOptionalAction, default=None)
        else:
            p.add_argument(flag, dest=name, type=_PARSERS[value_type], choices=_CHOICES.get(name))
    return p


_PARSER = _make_parser()


def main(argv=None) -> int:
    flags = vars(_PARSER.parse_args(argv))
    try:
        return run(RunConfig(**{k: v for k, v in flags.items() if v is not None}).finalize())
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PhysicsError as exc:
        print(f"physics error: {exc}", file=sys.stderr)
        return EXIT_PHYSICS
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
