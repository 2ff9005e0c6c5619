"""The library example in README.md runs as written, and every export resolves."""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

import hexwalk

README = Path(__file__).resolve().parent.parent / "README.md"


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
