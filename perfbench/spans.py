"""Span recorder for the traced benchmark run.

The recorder wraps each layer's entry points from outside the package: every
``diracfem`` module attribute that names an entry point is replaced, for the
duration of one request, by a wrapper that records a span. Callers resolve
those names at call time (``cli.solve``, ``analysis.classify``, and
``analysis.assemble`` inside ``analysis.convergence_study``), so nested calls
are caught wherever they are made. Only public names are wrapped; helpers
called inside an entry point count toward it.

Spans stay in memory until the benchmark ends. Counts (dofs, nnz, eigenvalues
used, backward errors) are computed from the recorded arguments and results
after the request has finished, outside every span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

import numpy as np
from diracfem.eigensolver import eigenpair_residual

#: Entry points per layer, keyed by the module that defines them.
ENTRY_POINTS = {
    "cli": ("main",),
    "discretization": ("build_exponential_mesh",),
    "physics": ("reference_spectrum", "reference_binding"),
    "assembly": ("assemble",),
    "eigensolver": ("solve",),
    "analysis": ("classify", "truncate_to_genuine", "coincidence_report", "convergence_study"),
}

#: Metric that receives each layer's self time. The discretization and physics
#: layers are traced only through the mesh and reference entry points.
LAYER_SELF = {"cli": "cli.self_s", "discretization": "discretization.mesh_s",
              "physics": "physics.reference_s", "assembly": "assembly.self_s",
              "eigensolver": "eigensolver.self_s", "analysis": "analysis.self_s"}
SPAN_SELF = {"analysis.classify": "analysis.classify_s",
             "analysis.convergence_study": "analysis.convergence_self_s"}
SPAN_CALLS = {"assembly.assemble": "assembly.calls", "eigensolver.solve": "eigensolver.calls"}

#: How many eigenvalues past the requested levels the CLI hands to classify.
CLASSIFY_MARGIN = 8


@dataclass
class Span:
    name: str
    request: int
    parent: int | None
    start: float
    end: float = float("nan")
    scheme: str = ""  # assemble and solve spans: the pencil's scheme and size
    dofs: int = 0


class Tracer:
    """Records spans and counts for the requests run inside ``request()``."""

    def __init__(self, levels: int):
        #: eigenpairs per solve whose backward error is checked: those classify may use
        self.backward_pairs = levels + CLASSIFY_MARGIN
        self.spans: list[Span] = []
        self.counts: list[dict] = []
        self._stack: list[int] = []
        self._observed: list[tuple[int, str, tuple, object]] = []

    def _wrap(self, layer: str, fn):
        name = f"{layer}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, len(self.counts), parent, time.perf_counter())
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            self._observed.append((index, name, args, result))
            return result

        return traced

    @contextlib.contextmanager
    def request(self):
        """Install the wrappers for one request, then count what it did."""
        wrappers = {}  # id of an entry point (alive in its module) -> its wrapper
        for layer, names in ENTRY_POINTS.items():
            home = importlib.import_module(f"diracfem.{layer}")
            for fname in names:
                fn = getattr(home, fname)
                wrappers[id(fn)] = self._wrap(layer, fn)
        patched = []
        for modname, module in list(sys.modules.items()):
            if modname == "diracfem" or modname.startswith("diracfem."):
                for attr, value in list(vars(module).items()):
                    if id(value) in wrappers:
                        patched.append((module, attr, value))
                        setattr(module, attr, wrappers[id(value)])
        try:
            yield
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)
            observed, self._observed = self._observed, []
            self.counts.append(self._count(observed))

    def _count(self, observed) -> dict:
        c = defaultdict(float)
        for index, name, args, result in observed:
            span = self.spans[index]
            if name == "assembly.assemble":
                span.scheme, span.dofs = result.scheme, result.size
                c["assembly.dofs"] += result.size
                c["assembly.nnz"] += np.count_nonzero(result.lhs) + np.count_nonzero(result.rhs)
                c["assembly.matrix_bytes"] += result.lhs.nbytes + result.rhs.nbytes
            elif name == "eigensolver.solve":
                system = args[0]
                span.scheme, span.dofs = system.scheme, system.size
                c["eigensolver.dofs"] += system.size
                c["eigensolver.eigenvalues_computed"] += len(result.raw)
                c["eigensolver.max_imag"] = max(c["eigensolver.max_imag"], result.max_imag)
                for k in range(min(self.backward_pairs, len(result.bindings))):
                    c["eigensolver.backward_error_max"] = max(
                        c["eigensolver.backward_error_max"],
                        eigenpair_residual(system, float(result.bindings[k]),
                                           result.eigenvectors[:, k]))
            elif name == "analysis.classify":
                computed, reference = args[0], args[1]
                c["eigensolver.eigenvalues_used"] += min(len(computed),
                                                         len(reference) + CLASSIFY_MARGIN)
        return c

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its direct children cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def _scaling_exponent(times: dict[tuple[str, str, int], list[float]], name: str) -> float:
    """Slope of log(self time) over log(dofs) of the ``name`` spans, fitted per scheme.

    The median slope over the schemes run at two or more sizes; 0.0 when
    the workload runs each scheme at one size only.
    """
    slopes = []
    for scheme in sorted({s for n, s, _ in times if n == name}):
        sizes = sorted(d for n, s, d in times if (n, s) == (name, scheme))
        if len(sizes) >= 2:
            t = [statistics.median(times[(name, scheme, d)]) for d in sizes]
            slopes.append(float(np.polyfit(np.log(sizes), np.log(t), 1)[0]))
    return statistics.median(slopes) if slopes else 0.0


def layer_metrics(tracer: Tracer, traced_s: list[float], untraced_s: list[float]) -> dict:
    """Per-layer metrics, as {name: (value, unit)}, over the traced requests.

    Times and counts are medians over requests; shares are totals over the
    traced request time, so the layer shares add up to ``trace.coverage``.
    """
    own = tracer.self_times()
    per_request = [defaultdict(float, c) for c in tracer.counts]
    sized = defaultdict(list)  # (span name, scheme, dofs) -> self times
    for i, s in enumerate(tracer.spans):
        m = per_request[s.request]
        m[LAYER_SELF[s.name.split(".", 1)[0]]] += own[i]
        if s.name in SPAN_SELF:
            m[SPAN_SELF[s.name]] += own[i]
        if s.name in SPAN_CALLS:
            m[SPAN_CALLS[s.name]] += 1
        if s.dofs:
            sized[(s.name, s.scheme, s.dofs)].append(own[i])

    def median(name):
        return statistics.median(m[name] for m in per_request)

    def total(name):
        return sum(m[name] for m in per_request)

    units = {"assembly.matrix_bytes": "bytes", "eigensolver.max_imag": "hartree",
             "eigensolver.backward_error_max": "ratio"}
    metrics = {}
    for name in ("cli.self_s", "discretization.mesh_s", "physics.reference_s",
                 "assembly.self_s", "assembly.calls", "assembly.dofs", "assembly.nnz",
                 "assembly.matrix_bytes", "eigensolver.self_s", "eigensolver.calls",
                 "eigensolver.dofs", "eigensolver.eigenvalues_computed",
                 "eigensolver.eigenvalues_used", "analysis.self_s", "analysis.classify_s",
                 "analysis.convergence_self_s"):
        metrics[name] = (median(name), units.get(name, "s" if name.endswith("_s") else "count"))
    for name in ("eigensolver.max_imag", "eigensolver.backward_error_max"):
        metrics[name] = (max(m[name] for m in per_request), units[name])
    metrics["eigensolver.useful_ratio"] = (
        total("eigensolver.eigenvalues_used") / total("eigensolver.eigenvalues_computed"),
        "ratio")
    metrics["assembly.scaling_exp"] = (_scaling_exponent(sized, "assembly.assemble"),
                                       "exponent")
    metrics["eigensolver.scaling_exp"] = (_scaling_exponent(sized, "eigensolver.solve"),
                                          "exponent")
    request_total = sum(traced_s)
    for layer, name in LAYER_SELF.items():
        metrics[f"{layer}.share"] = (total(name) / request_total, "ratio")
    metrics["trace.coverage"] = (sum(total(n) for n in LAYER_SELF.values()) / request_total,
                                 "ratio")
    metrics["trace.request_s"] = (statistics.median(traced_s), "s")
    metrics["trace.requests"] = (len(traced_s), "count")
    metrics["trace.overhead_ratio"] = (statistics.median(traced_s)
                                       / statistics.median(untraced_s), "ratio")
    return metrics
