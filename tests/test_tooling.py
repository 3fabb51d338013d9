"""The suite's own settings keep a failing test reportable."""

import ast
from pathlib import Path

import pytest

from diracfem import errors

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


def _names_scipy_sparse(module: str) -> bool:
    return module == "scipy.sparse" or module.startswith("scipy.sparse.")


def _module_level(tree):
    """The nodes of ``tree`` that run when the module loads: everything outside a function body."""
    for node in ast.iter_child_nodes(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield node
            yield from _module_level(node)


def module_level_sparse_imports(source: str) -> list[str]:
    """Every import of scipy.sparse or a submodule of it in ``source`` outside a function body.

    That covers ``import``, ``from ... import`` (also ``from scipy import
    sparse`` and ``from scipy import *``, which loads every submodule) and a
    call of ``importlib.import_module`` or ``__import__`` on a string naming it.
    """
    found = []
    for node in _module_level(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [f"import {a.name}" for a in node.names if _names_scipy_sparse(a.name)]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names = [a.name for a in node.names]
            if _names_scipy_sparse(node.module) or (
                    node.module == "scipy" and ({"sparse", "*"} & set(names))):
                found.append(f"from {node.module} import {', '.join(names)}")
        elif (isinstance(node, ast.Call)
              and _dotted(node.func) in ("importlib.import_module", "import_module", "__import__")
              and node.args and isinstance(node.args[0], ast.Constant)
              and isinstance(node.args[0].value, str) and _names_scipy_sparse(node.args[0].value)):
            found.append(f"{_dotted(node.func)}({node.args[0].value!r})")
    return found


@pytest.mark.parametrize("source, found", [
    ("import scipy.sparse.linalg", True),
    ("import scipy.sparse", True),
    ("import numpy as np, scipy.sparse.linalg as sla", True),
    ("from scipy.sparse.linalg import eigs", True),
    ("from scipy.sparse import linalg", True),
    ("from scipy import sparse", True),
    ("from scipy import linalg, sparse as sp", True),
    ("from scipy import *", True),
    ("import importlib\nsla = importlib.import_module('scipy.sparse.linalg')", True),
    ("__import__('scipy.sparse')", True),
    ("try:\n    import scipy.sparse\nexcept ImportError:\n    pass", True),
    ("if True:\n    from scipy.sparse import csr_array", True),
    ("class C:\n    import scipy.sparse.linalg", True),
    ("def f():\n    import scipy.sparse.linalg\n    return scipy.sparse.linalg.eigs", False),
    ("async def f():\n    from scipy.sparse.linalg import eigs", False),
    ("class C:\n    def m(self):\n        from scipy import sparse", False),
    ("import scipy.linalg\nfrom scipy.linalg.lapack import dgbtrf", False),
    ("from scipy import linalg", False),
    ("import scipy_sparse\nfrom scipy.sparsetools import x", False),
    ("from .sparse import y\nimportlib.import_module('scipy.linalg')", False),
])
def test_sparse_import_detector_reads_each_form(source, found):
    assert bool(module_level_sparse_imports(source)) is found


def test_package_loads_no_scipy_sparse_at_import():
    """No module of the package imports scipy.sparse when it loads.

    The Galerkin solve needs only ``scipy.linalg``'s band LAPACK, so ARPACK
    is imported inside the one function that runs it (``_solve_disk``). At
    module level it cost a Galerkin benchmark worker 3.3 MB of peak
    resident memory.
    """
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 8
    for module in modules:
        assert module_level_sparse_imports(module.read_text()) == [], module.name


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


def top_level_definitions(source: str) -> list[tuple[str, bool]]:
    """(name, whether it is assigned) for each function, class and constant ``source`` defines at top level."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append((node.name, False))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [(target.id, True) for target in targets if isinstance(target, ast.Name)]
    return names


def private_definitions(source: str) -> list[str]:
    """The ``_``-prefixed (not dunder) functions, classes and constants ``source`` defines at top level."""
    return [name for name, _ in top_level_definitions(source)
            if name.startswith("_") and not name.startswith("__")]


def public_constants(source: str) -> list[str]:
    """The UPPER_CASE names ``source`` assigns at top level, not ``_``-prefixed."""
    return [name for name, assigned in top_level_definitions(source)
            if assigned and name.isupper() and not name.startswith("_")]


def orphaned_names(package: list[str], definitions=private_definitions) -> list[str]:
    """The names ``definitions`` finds in ``package`` (private ones by default) that no source in it uses."""
    used = set().union(*(names_used(source) for source in package))
    return [name for source in package for name in definitions(source) if name not in used]


def test_orphaned_private_name_detector():
    package = ["_LIMIT = 3\n_unused: int = 4\n__all__ = ['f']\n\n"
               "def f(x):\n    return _gap(x) < _LIMIT\n\n"
               "def _gap(x):\n    return x\n\n"
               "def _widest_gap_midpoint(x):\n    return x\n\n"
               "class _Shape:\n    pass\n"]
    assert orphaned_names(package) == ["_unused", "_widest_gap_midpoint", "_Shape"]
    assert orphaned_names(package + ["from m import _Shape\n_widest_gap_midpoint(1)\n"
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
    assert orphaned_names(package) == []


def test_orphaned_constant_detector():
    package = ["SPLIT_LEVELS = 10\nWINDOW_FIRST_K: int = 16\n_LIMIT = 3\nnot_a_constant = 4\n"
               "__all__ = ['f']\n\ndef f(k=WINDOW_FIRST_K):\n    return k < _LIMIT\n"]
    assert orphaned_names(package, public_constants) == ["SPLIT_LEVELS"]
    assert orphaned_names(package + ["from m import SPLIT_LEVELS"], public_constants) == []
    assert public_constants(package[0]) == ["SPLIT_LEVELS", "WINDOW_FIRST_K"]


def test_every_public_constant_is_read_in_the_package():
    """Each public UPPER_CASE module constant of the package is read somewhere in src.

    A constant nothing in src reads is a setting that sets nothing: a change
    that removes its last reader must remove it too. A re-export in
    ``__init__`` is no read. The check goes by name, like the private-name
    check, so it is only a floor.
    """
    package = [path.read_text() for path in sorted(SRC.glob("*.py"))
               if path != SRC / "__init__.py"]
    assert sum(len(public_constants(source)) for source in package) >= 20
    assert orphaned_names(package, public_constants) == []


def unread_imports(source: str) -> list[str]:
    """The names ``source``'s imports bind that no name in it reads, in import order.

    ``import a.b`` binds ``a``; ``from __future__`` imports bind nothing.
    A read is a name in load context, an annotation's included.
    """
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    bound = [(alias.asname or alias.name).split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, ast.Import)
             or isinstance(node, ast.ImportFrom) and node.module != "__future__"
             for alias in node.names]
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("source, unread", [
    ("from __future__ import annotations\nimport math\nfrom x import y, z as w\n"
     "def f(a: y) -> int:\n    return math.pi\n", ["w"]),
    ("import scipy.sparse.linalg\nimport numpy as np\n", ["scipy", "np"]),
    ("def f():\n    import scipy.sparse.linalg\n    return scipy.sparse.linalg.eigs\n", []),
    ("from .lapack import dpbtrf, dgbtrf\nx = 'dpbtrf'\ndgbtrf = 1\n", ["dpbtrf", "dgbtrf"]),
])
def test_unread_import_detector(source, unread):
    assert unread_imports(source) == unread


def test_every_package_import_is_read():
    """Each name a package module imports is read in that module.

    A deletion that removes an import's last reader must remove the import
    too. ``__init__``'s imports are its re-exports, and are exempt.
    """
    package = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))
               if path != SRC / "__init__.py"}
    assert {name: unread_imports(source) for name, source in package.items()} == \
        dict.fromkeys(package, [])


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


#: The package's cached functions: each one's per-shape cost was measured
#: against the cost of deriving it on every call.
PACKAGE_CACHES = {"assembly._band_slots", "eigensolver._start_vector"}


def test_package_caches_are_keyed_on_structure():
    """The package caches exactly PACKAGE_CACHES, each on int, str and bool parameters only.

    Such a cache holds structure derived from a shape, never a result
    computed from floats, arrays or operator parameters. Any other cache
    must come with a measurement of what it saves.
    """
    cached = {}
    for module in sorted(SRC.glob("*.py")):
        cached.update({f"{module.stem}.{name}": annotations
                       for name, annotations in cached_parameters(module.read_text()).items()})
    assert set(cached) == PACKAGE_CACHES
    for name, annotations in cached.items():
        assert set(annotations) <= CACHE_KEY_TYPES, (name, annotations)


def raised_types(source: str) -> list[tuple[str, str]]:
    """(enclosing function, what is raised) for every ``raise`` of ``source`` but a bare re-raise."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                found.append((function, ast.unparse(exc)))
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


def test_raise_detector_names_each_raise():
    source = ("def f(x):\n    if x:\n        raise ValueError(x)\n    try:\n        g()\n"
              "    except OSError as exc:\n        raise errors.ConfigError('y') from exc\n"
              "    raise\n\nclass C:\n    def m(self):\n        raise SolverError\n\n"
              "raise exc_of_module\n")
    assert raised_types(source) == [("f", "ValueError"), ("f", "errors.ConfigError"),
                                    ("m", "SolverError"), ("<module>", "exc_of_module")]


def test_package_raises_only_its_own_error_types():
    """Every ``raise`` of the package names a type of ``diracfem.errors``.

    So a bad argument fails with ConfigError or PhysicsError, never a bare
    ValueError. The one exception is ``cli._parse_bool``, whose ValueError
    ``cli._parse_value`` turns into a ConfigError naming the key.
    """
    own = {name for name, value in vars(errors).items()
           if isinstance(value, type) and issubclass(value, Exception)}
    raised = [(module.stem, function, name) for module in sorted(SRC.glob("*.py"))
              for function, name in raised_types(module.read_text())]
    assert len(raised) >= 50
    assert [r for r in raised if r[2] not in own] == [("cli", "_parse_bool", "ValueError")]
