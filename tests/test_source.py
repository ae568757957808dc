"""Checks on the package source itself."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "qranks").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_invariants_survive_optimized_mode(path):
    """`python -O` strips `assert` statements and `if __debug__:` blocks, so
    no invariant of the package may be guarded by either."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [f"line {node.lineno}: {type(node).__name__}"
             for node in ast.walk(tree)
             if isinstance(node, ast.Assert)
             or (isinstance(node, ast.Name) and node.id == "__debug__")]
    assert not found, f"{path.name}: {found}"


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"series.py", "genfun.py", "combinat.py"}
