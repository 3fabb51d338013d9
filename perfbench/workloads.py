"""The benchmark workloads: their requests and the checks on each output.

A request is a list of CLI calls. Each call runs ``diracfem.cli.main(argv)``
in process with ``--format json`` and parses the rows it prints; the name is
looked up at call time, so the traced run sees the call. Every call has a
kind, and each kind has a recorded expectation in ``expected/<workload>.json``
that its output must match.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable

#: Sparse-vs-dense agreement the ROADMAP asks of bindings.
BINDING_RTOL = 1e-9
GENUINE = "genuine"
COINCIDENCE = "coincidence-spurious"


class CallFailed(Exception):
    """A call exited non-zero or printed no parsable result."""


@dataclass(frozen=True)
class Workload:
    name: str
    levels: int
    kinds: dict[str, list[str]]  # kind -> CLI arguments
    order: Callable[[random.Random], list[str]]  # one request's kinds, drawn from the seed
    exact: tuple[str, ...]  # row keys that must equal the expectation
    close: dict[str, tuple[float, float]]  # row key -> (rtol, atol)
    invariants: Callable[[list[dict]], list[str]]  # problems independent of the record


def call(argv: list[str]) -> list[dict]:
    """Run ``dirac-fem argv --format json`` in process; returns the output rows."""
    import diracfem.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = diracfem.cli.main(argv + ["--format", "json"])
    if code != 0:
        raise CallFailed(f"dirac-fem exited {code}")
    try:
        return json.loads(out.getvalue())["rows"]
    except (ValueError, KeyError) as exc:
        raise CallFailed(f"unparsable output: {exc}") from exc


def _genuine_count(rows: list[dict], levels: int, kappa: int) -> list[str]:
    found = sum(1 for r in rows if r["kappa"] == kappa and r["label"] == GENUINE)
    return [] if found == levels else [f"kappa={kappa}: {found} genuine rows, expected {levels}"]


# --- pathology-z1: README pathology table, linear and Hermite ----------------

PATHOLOGY = "--Z 1 --abs-kappa 1 --n 100 --a 1e-6 --b 150 --mesh-gamma 8 --levels 6".split()


def _pathology_invariants(rows: list[dict]) -> list[str]:
    problems = _genuine_count(rows, 6, -1)
    if not any(r["kappa"] > 0 and r["label"] == COINCIDENCE for r in rows):
        problems.append("no kappa=+1 coincidence row")
    return problems


# --- convergence-z12: Hermite refinement study ------------------------------

CONVERGENCE = ("--mode convergence --scheme hermite-galerkin --Z 12 --kappa -2 "
               "--n-list 100,200,400 --a 1e-6 --b 60 --mesh-gamma 8.5 --levels 12").split()


def _convergence_invariants(rows: list[dict]) -> list[str]:
    problems = []
    for n in (100, 200, 400):
        found = sum(1 for r in rows if r["n"] == n and r["rel_error"] is not None)
        if found != 12:
            problems.append(f"n={n}: {found} genuine levels, expected 12")
    return problems


WORKLOADS = {w.name: w for w in (
    Workload(
        name="pathology-z1", levels=6,
        kinds={scheme: PATHOLOGY + ["--scheme", scheme]
               for scheme in ("linear-galerkin", "hermite-galerkin")},
        order=lambda rng: rng.sample(["linear-galerkin", "hermite-galerkin"], 2),
        exact=("level", "kappa", "label"), close={"binding": (BINDING_RTOL, 0.0)},
        invariants=_pathology_invariants),
    Workload(
        name="convergence-z12", levels=12,
        kinds={"convergence": CONVERGENCE},
        order=lambda rng: ["convergence"],
        # rel_error = |binding - reference| / |reference|: a binding rtol is an atol here
        exact=("n", "level", "kappa"), close={"rel_error": (0.0, BINDING_RTOL)},
        invariants=_convergence_invariants),
)}


def check(workload: Workload, rows: list[dict], expected: list[dict]) -> list[str]:
    """Every way ``rows`` differs from the recorded ``expected`` rows or breaks an invariant."""
    problems = workload.invariants(rows)
    if len(rows) != len(expected):
        return problems + [f"{len(rows)} rows, expected {len(expected)}"]
    for i, (got, want) in enumerate(zip(rows, expected)):
        for key in workload.exact:
            if got.get(key) != want.get(key):
                problems.append(f"row {i}: {key}={got.get(key)!r}, expected {want.get(key)!r}")
        for key, (rtol, atol) in workload.close.items():
            g, w = got.get(key), want.get(key)
            if (g is None) != (w is None) or (
                    w is not None and not abs(g - w) <= atol + rtol * abs(w)):
                problems.append(f"row {i}: {key}={g!r}, expected {w!r}")
    return problems


def max_rel_error(rows: list[dict]) -> float:
    """Worst relative error of any genuine level against the exact reference."""
    return max((r["rel_error"] for r in rows
                if r.get("label", GENUINE) == GENUINE and r["rel_error"] is not None),
               default=0.0)
