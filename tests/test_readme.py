"""The README's library example runs as documented, and its flags and modes exist."""

import re
from pathlib import Path

from diracfem import cli

README = Path(__file__).resolve().parents[1] / "README.md"
#: Flags the README passes to pip and pytest, not to dirac-fem.
OTHER_TOOLS_FLAGS = {"--no-build-isolation", "--durations"}


def python_blocks(markdown: str) -> list[str]:
    """The code of every ```python block of ``markdown``."""
    return re.findall(r"```python\n(.*?)```", markdown, re.DOTALL)


def test_readme_quick_start_runs(capsys):
    blocks = python_blocks(README.read_text())
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    # it prints the first 12 bindings, then their 12 genuine labels
    printed = capsys.readouterr().out
    assert printed.count("Label.GENUINE") == 12
    assert len(namespace["bound_states"](namespace["spectrum"], 12)) == 12


def readme_flags() -> set[str]:
    """Every ``--flag`` the README names."""
    return set(re.findall(r"(?<![\w-])--[a-zA-Z][a-zA-Z0-9-]*", README.read_text()))


def test_readme_flags_are_cli_options():
    unknown = readme_flags() - OTHER_TOOLS_FLAGS - set(cli._PARSER._option_string_actions)
    assert not unknown, f"README documents flags dirac-fem does not have: {sorted(unknown)}"


def test_cli_options_are_in_the_readme():
    # --help and argparse's --no-* negations of the bool flags are generated
    options = {o for o in cli._PARSER._option_string_actions
               if o.startswith("--") and o != "--help" and not o.startswith("--no-")}
    missing = options - readme_flags()
    assert not missing, f"dirac-fem has flags the README does not document: {sorted(missing)}"


def test_readme_modes_are_cli_modes():
    written = set(re.findall(r"--mode\s+([\w-]+)", README.read_text()))
    unknown = written - set(cli._CHOICES["mode"])
    assert not unknown, f"README runs modes dirac-fem does not have: {sorted(unknown)}"


def test_cli_modes_are_in_the_readme():
    text = README.read_text()
    missing = {mode for mode in cli._CHOICES["mode"] if f"`{mode}`" not in text}
    assert not missing, f"dirac-fem has modes the README does not name: {sorted(missing)}"
