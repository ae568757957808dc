"""The mutation gate: every planted defect in ``mutants.MUTANTS`` makes
``qranks verify`` fail its suite, and every ``mutants.EQUIVALENT`` one
passes, each run on a mutated copy of the package in a fresh interpreter."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from mutants import EQUIVALENT, MUTANTS

SOURCE = Path(__file__).resolve().parents[1] / "src" / "qranks"


def _verify_mutated(tmp_path, file, old, new, suite):
    """Apply one mutant to a copy of src/qranks and run its suite there."""
    package = tmp_path / "qranks"
    shutil.copytree(SOURCE, package, ignore=shutil.ignore_patterns("__pycache__"))
    target = package / file
    text = target.read_text()
    found = text.count(old)
    assert found == 1, (f"mutant text {old!r} occurs {found} times in {file}, "
                        "not once; update this mutant in tests/mutants.py")
    target.write_text(text.replace(old, new))
    env = dict(os.environ, PYTHONPATH=str(tmp_path), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-m", "qranks.cli", "verify", "--suite", suite],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("file, old, new, suite, why", MUTANTS, ids=[m[4] for m in MUTANTS])
def test_mutant_is_killed(tmp_path, file, old, new, suite, why):
    result = _verify_mutated(tmp_path, file, old, new, suite)
    assert result.returncode == 1, result.stderr
    assert any(line.startswith(f"FAIL suite={suite} ")
               for line in result.stdout.splitlines()), result.stdout[-500:]


@pytest.mark.parametrize("file, old, new, suite, why", EQUIVALENT,
                         ids=[m[4] for m in EQUIVALENT])
def test_equivalent_mutant_passes(tmp_path, file, old, new, suite, why):
    result = _verify_mutated(tmp_path, file, old, new, suite)
    assert result.returncode == 0, result.stdout[-500:] + result.stderr
