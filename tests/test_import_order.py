"""Every ``repro`` subpackage imports cleanly as the first import.

A package that only imports after some other package has loaded hides an
import cycle (``repro.incident`` once failed this way, through
stream -> reporting -> experiments -> incident).  Each case starts a
fresh interpreter, so nothing imported by the test session helps.
"""

from __future__ import annotations

import pkgutil
import subprocess
import sys

import pytest

import repro

SUBPACKAGES = sorted(
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
)


def test_subpackages_found():
    assert {"repro.incident", "repro.stream", "repro.experiments"} <= set(SUBPACKAGES)


@pytest.mark.parametrize("package", SUBPACKAGES)
def test_imports_first_in_fresh_interpreter(package):
    completed = subprocess.run(
        [sys.executable, "-c", f"import {package}"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
