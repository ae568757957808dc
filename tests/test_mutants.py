"""The mutation gate: every planted defect in ``mutants.MUTANTS`` makes
``qranks verify`` fail its suite, and every ``mutants.EQUIVALENT`` one
passes, each run on a mutated copy of the package in a fresh interpreter.
A check of the checker: with the census comparison made to find nothing,
a census mutant passes, so the kills come from the comparison."""

import ast
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from mutants import EQUIVALENT, MUTANTS

SOURCE = Path(__file__).resolve().parents[1] / "src" / "qranks"


def _verify_mutated(tmp_path, file, old, new, suite, checker=True):
    """Apply one mutant to a copy of src/qranks and run its suite there;
    without ``checker``, ``cli._first_census_mismatch`` returns None."""
    package = tmp_path / "qranks"
    shutil.copytree(SOURCE, package, ignore=shutil.ignore_patterns("__pycache__"))
    target = package / file
    text = target.read_text()
    found = text.count(old)
    assert found == 1, (f"mutant text {old!r} occurs {found} times in {file}, "
                        "not once; update this mutant in tests/mutants.py")
    target.write_text(text.replace(old, new))
    if not checker:
        cli = package / "cli.py"
        lines = cli.read_text().splitlines(keepends=True)
        compare = next(node for node in ast.parse("".join(lines)).body
                       if isinstance(node, ast.FunctionDef)
                       and node.name == "_first_census_mismatch")
        # the docstring stays; every statement after it becomes `return None`
        lines[compare.body[1].lineno - 1:compare.end_lineno] = ["    return None\n"]
        cli.write_text("".join(lines))
    env = dict(os.environ, PYTHONPATH=str(tmp_path), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-m", "qranks.cli", "verify", "--suite", suite],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("file, old, new, suite, why", MUTANTS, ids=[m[4] for m in MUTANTS])
def test_mutant_is_killed(tmp_path, file, old, new, suite, why):
    result = _verify_mutated(tmp_path, file, old, new, suite)
    lines = result.stdout.splitlines()
    # a verdict, not a crash: a FAIL line, the summary last, nothing on stderr
    assert result.returncode == 1 and result.stderr == "", result.stderr
    assert any(line.startswith(f"FAIL suite={suite} ") for line in lines), result.stdout[-500:]
    assert lines and lines[-1].startswith("summary: "), result.stdout[-500:]


@pytest.mark.parametrize("file, old, new, suite, why", EQUIVALENT,
                         ids=[m[4] for m in EQUIVALENT])
def test_equivalent_mutant_passes(tmp_path, file, old, new, suite, why):
    result = _verify_mutated(tmp_path, file, old, new, suite)
    assert result.returncode == 0, result.stdout[-500:] + result.stderr


# the census mutant that both walks reach, through `_moved`
OPENED_AT_ONE = next(m[:3] for m in MUTANTS if m[4] == "an opened mark starts at rank 1")


@pytest.mark.parametrize("suite, cells, failed", [("thm-1-1", 36, 17), ("thm-1-2", 66, 37)])
def test_census_mutant_survives_a_checker_that_finds_nothing(tmp_path, suite, cells, failed):
    caught = _verify_mutated(tmp_path / "caught", *OPENED_AT_ONE, suite)
    assert caught.returncode == 1, caught.stderr
    assert caught.stdout.splitlines()[-1] == (
        f"summary: {cells} cells, {cells - failed} passed, {failed} failed")
    missed = _verify_mutated(tmp_path / "missed", *OPENED_AT_ONE, suite, checker=False)
    assert missed.returncode == 0 and missed.stderr == "", missed.stdout[-500:] + missed.stderr
    assert missed.stdout.splitlines()[-1] == f"summary: {cells} cells, {cells} passed, 0 failed"
