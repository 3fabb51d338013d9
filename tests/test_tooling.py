"""The suite's own settings keep a failing test reportable."""

import ast
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_property_test_is_reported(pytester):
    # on a failure hypothesis imports libcst to write its patch file, and
    # libcst warns that mypy_extensions.TypedDict is deprecated; with the
    # deprecation filter as an error that crashed pytest (INTERNALERROR),
    # losing the falsifying example and every later test
    options = tomllib.loads(PYPROJECT.read_text())["tool"]["pytest"]["ini_options"]
    pytester.makeini("[pytest]\nfilterwarnings =\n"
                     + "".join(f"    {line}\n" for line in options["filterwarnings"]))
    pytester.makepyfile(test_property="""
        from hypothesis import given, settings, strategies as st

        @settings(derandomize=True, database=None)
        @given(st.integers())
        def test_fails(x):
            assert x < 10

        def test_passes():
            pass
    """)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    result.stdout.fnmatch_lines(["*Falsifying example*"])


SRC = Path(__file__).resolve().parents[1] / "src" / "diracfem"
DENSE_EIGENSOLVERS = {"eig", "eigh", "eigvals", "eigvalsh", "qz"}
LINALG_MODULES = {"scipy.linalg", "numpy.linalg"}


def _dotted(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value)
        return None if head is None else f"{head}.{node.attr}"
    return None


def dense_eigensolves(source: str) -> list[str]:
    """Every import or use of a scipy.linalg or numpy.linalg dense eigensolver in ``source``."""
    tree = ast.parse(source)
    aliases = {"linalg"}  # names bound to a linalg module
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update(a.asname for a in node.names if a.asname and a.name in LINALG_MODULES)
        elif isinstance(node, ast.ImportFrom) and node.module in LINALG_MODULES:
            found += [f"from {node.module} import {a.name}" for a in node.names
                      if a.name in DENSE_EIGENSOLVERS]
        elif isinstance(node, ast.ImportFrom) and node.module in ("scipy", "numpy"):
            aliases.update(a.asname or a.name for a in node.names if a.name == "linalg")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in DENSE_EIGENSOLVERS:
            owner = _dotted(node.value)
            if owner is not None and (owner in aliases or owner.endswith(".linalg")) \
                    and not owner.endswith("sparse.linalg"):
                found.append(f"{owner}.{node.attr}")
    return found


@pytest.mark.parametrize("source", [
    "import scipy.linalg\nscipy.linalg.eigvals(a, b)",
    "import numpy as np\nnp.linalg.eigh(a)",
    "from scipy.linalg import qz",
    "from numpy.linalg import eigvalsh as ev",
    "import scipy.linalg as sl\nsl.eig(a, b)",
    "from scipy import linalg\nlinalg.eigh(a, b)",
])
def test_dense_eigensolve_detector_finds_each_form(source):
    assert dense_eigensolves(source)


def test_package_has_no_dense_eigensolve():
    # one solve path: the windowed band solve; the dense oracle lives in the tests
    assert dense_eigensolves("import scipy.sparse.linalg\nscipy.sparse.linalg.eigs(op)") == []
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 8
    for module in modules:
        assert dense_eigensolves(module.read_text()) == [], module.name
