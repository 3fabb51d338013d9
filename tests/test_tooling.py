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


ROOT = Path(__file__).resolve().parents[1]
READER_DIRS = ("src", "tests", "perfbench")


def _is_dataclass_decorator(node) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    return _dotted(target) in ("dataclass", "dataclasses.dataclass")


def dataclass_fields(source: str) -> list[tuple[str, str]]:
    """(class, field) for every annotated field of every ``@dataclass`` class in ``source``."""
    return [(node.name, item.target.id)
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef)
            and any(_is_dataclass_decorator(d) for d in node.decorator_list)
            for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]


def attributes_read(source: str) -> set[str]:
    """Every attribute name ``source`` reads (``obj.name`` in a load context)."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def unread_fields(package: list[str], readers: list[str]) -> list[tuple[str, str]]:
    """The dataclass fields of ``package`` whose name no source in ``readers`` reads."""
    read = set().union(*(attributes_read(source) for source in readers))
    return [field for source in package for field in dataclass_fields(source)
            if field[1] not in read]


def test_unread_field_detector():
    package = ["from dataclasses import dataclass\n"
               "@dataclass(frozen=True)\nclass P:\n    x: int\n    y: int\n"
               "    def f(self):\n        self.y = 1\n"]
    assert unread_fields(package, package + ["p.x"]) == [("P", "y")]
    assert unread_fields(package, package + ["p.x", "q.y"]) == []


def test_every_dataclass_field_is_read():
    """Each dataclass field of the package is read somewhere in src, tests or perfbench.

    A field nothing reads is state held for no one, or an input given twice.
    The check goes by attribute name, not by class, so it is only a floor: a
    field passes when any object's attribute of the same name is read (a
    ``Mesh.a`` field would pass because ``RunConfig.a`` is read).
    """
    package = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    readers = [path.read_text() for d in READER_DIRS for path in sorted((ROOT / d).rglob("*.py"))]
    assert unread_fields(package, readers) == []
