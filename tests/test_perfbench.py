"""The benchmark's correctness gate holds on the current code.

Each kind of every ``perfbench`` workload runs once, in process, and its
rows must pass the check the benchmark applies to every timed call against
``perfbench/expected/<workload>.json``. The files under ``perfbench/`` are
read and nothing there is written, bytecode included.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "dont_write_bytecode", True)
        patch.setitem(sys.modules, "workloads", module)  # dataclasses look their module up
        spec.loader.exec_module(module)
    return module


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
