"""The suite's own settings keep a failing test reportable."""

import ast
from pathlib import Path

import pytest

from test_readme import README, python_blocks

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


def arpack_symmetric_uses(source: str) -> list[str]:
    """Every import, name or attribute ``eigsh`` (ARPACK's symmetric driver) in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.alias) and node.name.rsplit(".", 1)[-1] == "eigsh":
            found.append(f"import {node.name}")
        elif isinstance(node, ast.Name) and node.id == "eigsh":
            found.append(node.id)
        elif isinstance(node, ast.Attribute) and node.attr == "eigsh":
            found.append(f"{_dotted(node.value)}.eigsh")
    return found


@pytest.mark.parametrize("source", [
    "import scipy.sparse.linalg\nscipy.sparse.linalg.eigsh(op, k=3)",
    "from scipy.sparse.linalg import eigsh",
    "from scipy.sparse.linalg import eigsh as lanczos",
    "import scipy.sparse.linalg as sla\nsla.eigsh(op)",
    "from scipy.sparse import linalg\nsolver = linalg.eigsh",
    "from scipy.sparse.linalg._eigen.arpack import eigsh",
])
def test_arpack_symmetric_detector_finds_each_form(source):
    assert arpack_symmetric_uses(source)


def test_package_calls_no_arpack_symmetric_driver():
    # the Galerkin pencils are solved by inertia counts and inverse
    # iteration; only the stabilized pencil keeps ARPACK (its Arnoldi driver)
    assert arpack_symmetric_uses("import scipy.sparse.linalg\nscipy.sparse.linalg.eigs(op)") == []
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 8
    for module in modules:
        assert arpack_symmetric_uses(module.read_text()) == [], module.name


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


def module_functions(source: str) -> list[str]:
    """The names of the module-level functions ``source`` defines."""
    return [node.name for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)]


def names_used(source: str) -> set[str]:
    """Every name ``source`` refers to: a name, an attribute, an import or a string equal to it.

    A name bound by an assignment is not a use of it.
    """
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return used


def uncalled_functions(package: list[str], callers: list[str]) -> list[str]:
    """The module-level functions of ``package`` whose name no source in ``callers`` uses."""
    used = set().union(*(names_used(source) for source in callers))
    return [name for source in package for name in module_functions(source) if name not in used]


def test_uncalled_function_detector():
    package = ["def f():\n    return g()\n\ndef g():\n    pass\n\n"
               "def h():\n    '''the h function'''\n\n"
               "class C:\n    def method(self):\n        pass\n"]
    assert uncalled_functions(package, package) == ["f", "h"]
    assert uncalled_functions(package, package + ["from m import f\nWRAPPED = ('h',)"]) == []
    readme = "Use it:\n\n```python\nfrom m import h\n```\n\n```\nf()\n```\n"
    assert python_blocks(readme) == ["from m import h\n"]
    assert uncalled_functions(package, package + python_blocks(readme)) == ["f"]


def test_every_package_function_has_a_caller():
    """Each module-level function of the package is used in src, perfbench or the README example.

    A function only the tests call belongs with the tests. A re-export in
    ``__init__`` is no use; the README's one python block, the library's
    documented entry point, is. The check goes by name, not by module, so
    it is only a floor: a function passes when any name, attribute, import
    or string of the same name appears (a name in perfbench's table of
    traced entry points counts).
    """
    package = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    callers = [path.read_text() for d in ("src", "perfbench")
               for path in sorted((ROOT / d).rglob("*.py")) if path != SRC / "__init__.py"]
    (example,) = python_blocks(README.read_text())
    assert uncalled_functions(package, callers + [example]) == []


def private_definitions(source: str) -> list[str]:
    """The ``_``-prefixed (not dunder) functions, classes and constants ``source`` defines at top level."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [target.id for target in targets if isinstance(target, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def orphaned_private_names(package: list[str]) -> list[str]:
    """The private top-level definitions of ``package`` that no source in it uses."""
    used = set().union(*(names_used(source) for source in package))
    return [name for source in package for name in private_definitions(source)
            if name not in used]


def test_orphaned_private_name_detector():
    package = ["_LIMIT = 3\n_unused: int = 4\n__all__ = ['f']\n\n"
               "def f(x):\n    return _gap(x) < _LIMIT\n\n"
               "def _gap(x):\n    return x\n\n"
               "def _widest_gap_midpoint(x):\n    return x\n\n"
               "class _Shape:\n    pass\n"]
    assert orphaned_private_names(package) == ["_unused", "_widest_gap_midpoint", "_Shape"]
    assert orphaned_private_names(package + ["from m import _Shape\n_widest_gap_midpoint(1)\n"
                                             "print(_unused)"]) == []


def test_every_private_name_is_used_in_the_package():
    """Each private top-level function, class or constant of the package is used in src.

    A deletion that removes a helper's last caller must remove the helper
    too. The check goes by name, not by module, so it is only a floor: a
    helper passes when any name, attribute, import or string of the same
    name appears in src, its own body included.
    """
    package = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    assert sum(len(private_definitions(source)) for source in package) >= 10
    assert orphaned_private_names(package) == []


CACHE_DECORATORS = {"lru_cache", "cache"}
#: A cache may be keyed on these alone: on shapes, never on floats, arrays or params.
CACHE_KEY_TYPES = {"int", "str", "bool"}


def cached_parameters(source: str) -> dict[str, list[str]]:
    """Each ``functools.lru_cache``/``cache`` function of ``source``: its parameters' annotations.

    An unannotated parameter reads as "".
    """
    tree = ast.parse(source)
    decorators = {f"functools.{name}" for name in CACHE_DECORATORS}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            decorators.update(f"{a.asname}.{name}" for a in node.names
                              if a.name == "functools" and a.asname for name in CACHE_DECORATORS)
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            decorators.update(a.asname or a.name for a in node.names
                              if a.name in CACHE_DECORATORS)
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                _dotted(d.func if isinstance(d, ast.Call) else d) in decorators
                for d in node.decorator_list):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
            found[node.name] = ["" if p.annotation is None else ast.unparse(p.annotation)
                                for p in params]
    return found


@pytest.mark.parametrize("source, annotations", [
    ("import functools\n@functools.lru_cache(maxsize=4)\ndef f(x: float, n: int): pass",
     ["float", "int"]),
    ("from functools import cache\n@cache\ndef f(a: np.ndarray): pass", ["np.ndarray"]),
    ("from functools import lru_cache as memo\n@memo\ndef f(p: OperatorParams): pass",
     ["OperatorParams"]),
    ("import functools as ft\n@ft.cache\ndef f(x, *rest: int): pass", ["", "int"]),
    ("import functools\nclass C:\n    @functools.lru_cache\n    def f(self, n: int): pass",
     ["", "int"]),
    ("import functools\n@functools.lru_cache(maxsize=8)\ndef f(s: str, n: int, b: bool): pass",
     ["str", "int", "bool"]),
])
def test_cache_key_detector_reads_each_form(source, annotations):
    assert cached_parameters(source) == {"f": annotations}
    assert cached_parameters(source.replace("cache", "wraps")) == {}


def test_package_caches_are_keyed_on_structure():
    """Every cached function of the package takes only int, str and bool parameters.

    Such a cache holds index structure derived from a shape, never a result
    computed from floats, arrays or operator parameters.
    """
    cached = {}
    for module in sorted(SRC.glob("*.py")):
        cached.update(cached_parameters(module.read_text()))
    assert len(cached) >= 2
    for name, annotations in cached.items():
        assert set(annotations) <= CACHE_KEY_TYPES, (name, annotations)
