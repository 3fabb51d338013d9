"""The suite's own settings keep a failing test reportable."""

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
