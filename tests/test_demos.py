"""Every script in ``demos/`` runs to the end in a fresh interpreter on these sources."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import tqeuler

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_runs(demo):
    src = str(Path(tqeuler.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
