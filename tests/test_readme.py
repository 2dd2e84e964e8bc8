"""The commands and the Python example in README.md run as documented."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from ndsys.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
COMMANDS = [line for line in README.splitlines() if line.startswith("ndsys ")]


def test_readme_has_commands():
    assert len(COMMANDS) == 5


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_exits_zero(line, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert main(shlex.split(line)[1:]) == 0


def test_readme_python_example_prints_its_comments():
    (block,) = re.findall(r"```python\n(.*?)```", README, re.S)
    expected = [line.split("# ", 1)[1] for line in block.splitlines()
                if "# " in line and not line.lstrip().startswith("#")]
    assert expected == ["['[t1^2 - 3*t1 + 1]']", "((1, 1), (0, 2))", "2"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == expected
