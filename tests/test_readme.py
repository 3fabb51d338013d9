"""The README's library example runs as documented."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    # it prints the first 12 bindings, then their 12 genuine labels
    printed = capsys.readouterr().out
    assert printed.count("Label.GENUINE") == 12
    assert len(namespace["bound_states"](namespace["spectrum"], 12)) == 12
