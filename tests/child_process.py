"""Run test code in a child interpreter on the package the test session imported."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import hexwalk


def run_child(code, *argv, timeout=None):
    """Run ``code`` in a child interpreter on the package this session imported.

    With ``timeout`` (seconds) a child still running then is killed and the
    call raises ``subprocess.TimeoutExpired``, so a check of a refusal that
    should come at once fails in seconds where the refusal is lost, instead
    of running until the machine gives out.
    """
    package_root = str(Path(hexwalk.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=timeout,
    )
