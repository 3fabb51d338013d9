"""The benchmark's correctness gate and its trace hold on the current code.

Each kind of every ``perfbench`` workload runs once, in process, and its
rows must pass the check the benchmark applies to every timed call against
``perfbench/expected/<workload>.json``. Each kind also runs once traced, as
``perfbench/run.py --trace 1`` runs it, so a change to the package surface
the trace reads fails here. The files under ``perfbench/`` are read and
nothing there is written, bytecode included.
"""

import importlib.util
import json
import sys
import time
from pathlib import Path

import pytest

from diracfem.eigensolver import BACKWARD_TOL

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "dont_write_bytecode", True)
        patch.setitem(sys.modules, name, module)  # dataclasses look their module up
        spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


@pytest.fixture(scope="module")
def spans():
    return _load("spans")


def _kinds():
    """(workload, kind) for every kind the benchmark runs, read from the recorded files."""
    return [(path.stem, kind) for path in sorted((PERFBENCH / "expected").glob("*.json"))
            for kind in json.loads(path.read_text())["kinds"]]


def test_every_workload_kind_has_a_record(workloads):
    assert sorted(_kinds()) == sorted((name, kind) for name, w in workloads.WORKLOADS.items()
                                      for kind in w.kinds)


@pytest.mark.parametrize("name, kind", _kinds())
def test_workload_output_passes_its_check(workloads, name, kind):
    workload = workloads.WORKLOADS[name]
    expected = json.loads((PERFBENCH / "expected" / f"{name}.json").read_text())["kinds"][kind]
    rows = workloads.call(workload.kinds[kind])
    assert workloads.check(workload, rows, expected) == []


#: Eigenvalues each kind's solves compute, per request: the benchmark's
#: ``eigensolver.eigenvalues_computed``.
EIGENVALUES_COMPUTED = {("pathology-z1", "linear-galerkin"): 16,
                        ("pathology-z1", "hermite-galerkin"): 13,
                        ("convergence-z12", "convergence"): 39}


@pytest.mark.parametrize("name, kind", _kinds())
def test_traced_request_reads_the_package_surface(workloads, spans, name, kind):
    workload = workloads.WORKLOADS[name]
    tracer = spans.Tracer(workload.levels)
    start = time.perf_counter()
    with tracer.request():
        workloads.call(workload.kinds[kind])
    elapsed = time.perf_counter() - start
    entry_points = {f"{layer}.{fn}" for layer, fns in spans.ENTRY_POINTS.items() for fn in fns}
    names = {span.name for span in tracer.spans}
    assert names <= entry_points
    assert {"cli.main", "assembly.assemble", "eigensolver.solve"} <= names
    metrics = {key: value for key, (value, _) in
               spans.layer_metrics(tracer, [elapsed], [elapsed]).items()}
    assert metrics["eigensolver.eigenvalues_computed"] == EIGENVALUES_COMPUTED[name, kind]
    assert metrics["assembly.nnz"] > 0
    assert metrics["eigensolver.backward_error_max"] < BACKWARD_TOL
