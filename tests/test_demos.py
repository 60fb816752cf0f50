"""Every narrative script in ``demos/`` runs cleanly against this checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import trajhedge

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs_cleanly(demo):
    src = str(Path(trajhedge.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, env=env, timeout=300
    )
    assert done.returncode == 0 and done.stderr == b"", done.stderr.decode()


def test_demos_are_found():
    # an empty parametrization would pass silently
    assert DEMOS
