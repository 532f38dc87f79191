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


#: Imports the CLI (experiments, runner, stream, incident), then runs
#: Table 3 and post-hoc incident detection on a tiny fixed-seed run,
#: counting the volume tests they make.
_VOLUME_TESTS_SCRIPT = """
import sys

import repro.cli
import repro.stats.volume as volume
from repro.experiments import ALL_EXPERIMENTS, ExperimentConfig, get_context
from repro.incident.pipeline import detect_incidents

calls = []
mann_whitney_greater = volume.mann_whitney_greater
volume.mann_whitney_greater = lambda *args: calls.append(args) or mann_whitney_greater(*args)
context = get_context(ExperimentConfig(year=2021, scale=0.02, telescope_slash24s=4, seed=5))
ALL_EXPERIMENTS["T3"](context).render()
detect_incidents(context.dataset)
print(len(calls), "scipy.stats" in sys.modules)
"""


def test_volume_tests_run_without_scipy_stats():
    """Table 3 and the leak alarm take the in-repo MWU/KS kernels, so no
    process on the shipped path imports ``scipy.stats``."""
    completed = subprocess.run(
        [sys.executable, "-c", _VOLUME_TESTS_SCRIPT],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    calls, loaded = completed.stdout.split()[-2:]
    assert int(calls) > 0
    assert loaded == "False"
