"""Every demo script runs from a bare checkout and prints something."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_DEMOS = sorted((_ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(_DEMOS) >= 5


@pytest.mark.parametrize("demo", _DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    result = subprocess.run([sys.executable, str(demo)], env=env, cwd=_ROOT,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
