"""The README's library example and commands run as documented, and its flags and modes exist."""

import ast
import json
import re
import shlex
import types
from pathlib import Path

import pytest

import diracfem
from diracfem import cli, errors

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
    assert len(namespace["spectrum"].bindings[:12]) == 12


def test_the_package_exports_the_quick_start_names_and_the_error_types():
    (block,) = python_blocks(README.read_text())
    quick_start = {alias.name for node in ast.walk(ast.parse(block))
                   if isinstance(node, ast.ImportFrom) and node.module == "diracfem"
                   for alias in node.names}
    error_types = {name for name, value in vars(errors).items()
                   if isinstance(value, type) and issubclass(value, Exception)}
    assert len(error_types) == 6
    exported = {name for name, value in vars(diracfem).items()
                if (not name.startswith("_") or name == "__version__")
                and not isinstance(value, types.ModuleType)}
    assert exported == quick_start | error_types | {"__version__"}


def readme_commands() -> list[str]:
    """Every fenced ``dirac-fem`` command of the README, its ``\\`` continuations joined."""
    blocks = re.findall(r"```\n(dirac-fem .*?)```", README.read_text(), re.DOTALL)
    return [re.sub(r"\\\n\s*", "", block).strip() for block in blocks]


@pytest.mark.parametrize("command", readme_commands())
def test_readme_command_runs_as_documented(command, capsys):
    program, *argv = shlex.split(command)
    assert program == "dirac-fem"
    flags = [arg for arg in argv if arg.startswith("--")]
    unknown = set(flags) - set(cli._PARSER._option_string_actions)
    assert not unknown, f"flags not spelled in full: {sorted(unknown)}"
    assert cli.main(argv) == 0
    assert capsys.readouterr().out


def test_the_pathology_command_prints_its_stated_table(capsys):
    # the README states 6 genuine rows, one spurious row and the kappa = +1
    # coincidence on row 1
    (command,) = [command for command in readme_commands() if "linear-galerkin" in command]
    assert cli.main(shlex.split(command)[1:] + ["--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    negative = [row["label"] for row in rows if row["kappa"] == -1]
    assert sorted(negative) == ["genuine"] * 6 + ["instilled-spurious"]
    positive = [row["label"] for row in rows if row["kappa"] == 1]
    assert positive[0] == "coincidence-spurious"


def test_the_readme_has_its_three_commands():
    assert len(readme_commands()) == 3


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
