"""README.md runs as written: its command lines, its library example, its exports."""

from __future__ import annotations

import builtins
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import hexwalk
from hexwalk.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

COMPUTING = ("generate", "scan", "sweep", "variance")


def _command_lines() -> list[str]:
    """``hexwalk generate|scan|sweep|variance`` lines of the "Command line" section.

    ``analyze`` needs an image and a mask on disk; tests/test_cli.py runs it.
    """
    section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    lines = []
    for block in re.findall(r"```\n(.*?)```", section, flags=re.DOTALL):
        for line in block.splitlines():
            words = shlex.split(line, comments=True)
            if len(words) > 1 and words[0] == "hexwalk" and words[1] in COMPUTING:
                lines.append(shlex.join(words))
    return lines


def test_readme_shows_command_lines_for_every_computing_subcommand():
    shown = {line.split()[1] for line in _command_lines()}
    assert shown == set(COMPUTING)


@pytest.mark.parametrize("line", _command_lines())
def test_readme_command_line_runs(line, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(line)[1:]) == 0


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert len(blocks) == 1
    scope: dict = {}
    exec(compile(blocks[0], str(README), "exec"), scope)
    assert len(scope["rows"]) == 7
    assert abs(np.linalg.norm(scope["psi"]) - 1.0) < 1e-12
    assert abs(np.trace(scope["rho"]).real - 1.0) < 1e-9


def test_every_exported_name_resolves():
    assert len(hexwalk.__all__) == len(set(hexwalk.__all__))
    for name in hexwalk.__all__:
        getattr(hexwalk, name)


def test_every_name_the_library_section_calls_is_exported():
    section = README.read_text().split("## Library", 1)[1].split("\n## ", 1)[0]
    called = set(re.findall(r"`([A-Za-z_]\w*)\(", section)) - set(dir(builtins))
    assert "classical_hitting_curve" in called
    assert called - set(hexwalk.__all__) == set()
