"""Checks on the package source itself."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qranks

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "qranks").glob("*.py"))


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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_state_between_calls(path):
    """No module memoizes: `functools.lru_cache` and `functools.cache` are
    neither imported nor applied, so every call recomputes its answer."""
    tree = ast.parse(path.read_text(), filename=str(path))
    cached = {"lru_cache", "cache"}
    module_names = {alias.asname or alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.Import)
                    for alias in node.names if alias.name == "functools"}
    found = [f"line {node.lineno}: {ast.unparse(node)}"
             for node in ast.walk(tree)
             if (isinstance(node, ast.ImportFrom) and node.module == "functools"
                 and any(alias.name in cached for alias in node.names))
             or (isinstance(node, ast.Attribute) and node.attr in cached
                 and isinstance(node.value, ast.Name) and node.value.id in module_names)]
    assert not found, f"{path.name}: {found}"


def test_combinat_shares_no_code_with_the_series_side():
    """`combinat` is the census side of every verified identity and `genfun`
    with `series` the generating-function side, so `combinat` imports
    neither, by any form of import."""
    path = next(p for p in SOURCES if p.name == "combinat.py")
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.update(alias.name.split("."))
    assert not names & {"genfun", "series"}, sorted(names)


COUNTS = ("count_self_conjugate", "count_even_part_parity", "even_part_parity_counts",
          "rank_census_marked_unimodal",
          "rank_census_marked_durfee", "marked_unimodal_censuses", "marked_durfee_censuses",
          "marked_unimodal_counts")


@pytest.mark.parametrize("count", COUNTS)
def test_counts_build_no_marked_symbol(count):
    """The counts `verify` reads build no marked symbol and share no code
    with the listing they are tested against: neither they nor any
    `combinat` function they reach refers to the parts enumerator, the
    pool filler, a marked symbol class or a marked listing."""
    path = next(p for p in SOURCES if p.name == "combinat.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def names(name):
        return {node.id for stmt in functions[name].body for node in ast.walk(stmt)
                if isinstance(node, ast.Name)}

    def forbidden(name):
        return name in {"_parts", "_marked_rows", "KMarkedSUSymbol",
                        "KMarkedDurfeeSymbol"} \
            or name.startswith("enumerate_marked_")

    reached, pending = set(), [count]
    while pending:
        name = pending.pop()
        if name not in reached:
            reached.add(name)
            pending.extend(names(name) & functions.keys())
    found = {name: refs for name in sorted(reached)
             if (refs := sorted(filter(forbidden, names(name))))}
    assert not found, found


def test_one_loop_over_the_powers_of_q():
    """In `series`, the monomial loop `_shift_add` is referred to once, from
    `_convolve`, so every sum, product, quotient and Pochhammer factor walks
    the powers of q in that one kernel."""
    path = next(p for p in SOURCES if p.name == "series.py")
    tree = ast.parse(path.read_text(), filename=str(path))

    def refers(node):
        return isinstance(node, ast.Name) and node.id == "_shift_add"

    callers = sorted(func.name for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
                     for node in ast.walk(func) if refers(node))
    assert callers == ["_convolve"] and sum(map(refers, ast.walk(tree))) == 1, callers


def test_nested_sum_steps_name_no_series():
    """The Horner steps that `genfun._nested_sum` calls work on accumulators
    in place and read no accumulator layout: no step body names
    `TruncatedSeries`, calls `len` or subscripts anything."""
    path = next(p for p in SOURCES if p.name == "genfun.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    steps = [node for func in tree.body if isinstance(func, ast.FunctionDef)
             for node in ast.walk(func)
             if isinstance(node, ast.FunctionDef) and node.name.endswith("step")]
    found = {step.name: step.lineno for step in steps for node in ast.walk(step)
             if isinstance(node, ast.Name) and node.id == "TruncatedSeries"}
    assert len(steps) == 5 and not found, (len(steps), found)
    layout = {(step.name, node.lineno) for step in steps for node in ast.walk(step)
              if isinstance(node, ast.Subscript)
              or isinstance(node, ast.Name) and node.id == "len"}
    assert not layout, sorted(layout)


def test_genfun_leaves_the_accumulator_layout_to_series():
    """`genfun` builds, copies and adds accumulators only through `series`:
    it names neither the kernel loop `_convolve` nor the layout `Buckets`."""
    path = next(p for p in SOURCES if p.name == "genfun.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for alias in node.names}
    names |= {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(tree)}
    found = names & {"_convolve", "Buckets"}
    assert not found, sorted(found)


def _imports(path):
    """Every module name that ``path`` imports, by any form of import."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    """The value records are plain `__slots__` classes on `_record.Record`:
    `dataclasses`, and the `inspect` it loads, cost more to import than the
    records cost to write."""
    found = {name for name in _imports(path) if name.split(".")[0] == "dataclasses"}
    assert not found, f"{path.name}: {sorted(found)}"


def _modules_added_by(statement: str) -> set[str]:
    """The modules a fresh interpreter loads while it runs ``statement``."""
    code = ("import json, sys\n"
            "before = set(sys.modules)\n"
            f"{statement}\n"
            "print(json.dumps(sorted(set(sys.modules) - before)))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout))


def test_import_qranks_leaves_the_census_side_unloaded():
    added = _modules_added_by("import qranks")
    assert "qranks.genfun" in added and "qranks.specialize" in added
    assert not added & {"qranks.combinat", "qranks.cli", "dataclasses", "inspect"}, added


def test_import_cli_loads_neither_dataclasses_nor_inspect():
    added = _modules_added_by("import qranks.cli")
    assert "qranks.combinat" in added
    assert not added & {"dataclasses", "inspect"}, added


def test_every_public_name_resolves():
    from qranks import combinat
    assert len(qranks.__all__) == 51 and qranks.__all__ == sorted(set(qranks.__all__))
    assert all(getattr(qranks, name) is not None for name in qranks.__all__)
    assert qranks.Partition is combinat.Partition
    assert set(qranks.__all__) <= set(dir(qranks))
    namespace = {}
    exec("from qranks import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == qranks.__all__
    with pytest.raises(AttributeError, match="has no attribute 'combinatorics'"):
        qranks.combinatorics


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"series.py", "genfun.py", "combinat.py"}
