"""Tests of the benchmark itself: output gates, failure accounting and spans.

    python3 -m pytest -q bench

They run small inputs in child processes, so they take a few seconds.
"""

from __future__ import annotations

import cmath
import json
import math
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import spans
from workloads import (GRID_MODULUS, WORKLOADS, Workload, gate_grid, gate_table,
                       gate_verify, sha256)

HERE = Path(__file__).resolve().parent
TINY_UK = Workload("tiny-uk", "cli", gate_table,
                   (("--function", "uk"), ("--k", "2"), ("--n-max", "8")), ("series",))
TINY_GRID = Workload("tiny-grid", "grid", gate_grid,
                     tuple((f"{a},{b}",) for a in range(GRID_MODULUS) for b in range(GRID_MODULUS)),
                     ("2", "6", str(GRID_MODULUS)))


def _spawn(workload, mode, ref=None):
    args = workload.argv(random.Random(0))
    return run.spawn(workload, mode, args, time.perf_counter() + 60, ref)


def _flip(data: bytes) -> bytes:
    """The same output with one digit changed."""
    i = max(i for i, c in enumerate(data) if chr(c).isdigit())
    return data[:i] + str((int(chr(data[i])) + 1) % 10).encode() + data[i + 1:]


def test_corrupted_output_is_counted_in_failed_share():
    good = _spawn(TINY_UK, "run", {"stdout_sha256": "unknown", "ops": 1})
    ref = {"stdout_sha256": sha256(good.stdout), "ops": 1}
    sample = _spawn(TINY_UK, "run", ref)
    assert (sample.attempted, sample.failed) == (1, 0)

    corrupted = run.Sample(sample.setup_s, sample.run_s, attempted=1,
                           failed=gate_table(_flip(sample.stdout), 0, ref))
    assert corrupted.failed == 1
    metrics = run.end_to_end([sample, corrupted])
    assert metrics["ok_share"] == 0.5  # failed_share = 1 - ok_share = 1/2


def test_gate_table_fails_on_exit_code_or_timeout():
    ref = {"stdout_sha256": sha256(b"out\n"), "ops": 1}
    assert gate_table(b"out\n", 0, ref) == 0
    assert gate_table(b"out\n", 2, ref) == 1
    assert gate_table(b"out\n", None, ref) == 1


def _verify_output(statuses) -> bytes:
    lines = [json.dumps({"schema": "qranks.verify/1", "status": s, "detail": None, "n": n})
             for n, s in enumerate(statuses, 1)]
    return ("\n".join(lines) + "\n").encode()


def test_gate_verify_counts_failing_cells():
    good = _verify_output(["pass"] * 4)
    ref = {"stdout_sha256": sha256(good), "ops": 4}
    assert gate_verify(good, 0, ref) == 0
    assert gate_verify(_verify_output(["pass", "fail", "pass", "fail"]), 1, ref) == 2
    assert gate_verify(good[:-30], 0, ref) == 4  # truncated
    assert gate_verify(_flip(good), 0, ref) == 4  # differs, yet no cell reports it
    assert gate_verify(good, None, ref) == 4  # timed out
    assert gate_verify(b"\xff\n", 0, ref) == 4


def _grid_output(residues, error=1e-9):
    evaluations = {}
    for a in range(GRID_MODULUS):
        for b in range(GRID_MODULUS):
            rows = []
            for row in residues:
                z = sum(row[r1 * GRID_MODULUS + r2]
                        * cmath.exp(2j * math.pi * (a * r1 + b * r2) / GRID_MODULUS)
                        for r1 in range(GRID_MODULUS) for r2 in range(GRID_MODULUS))
                rows.append([z.real, z.imag, error])
            evaluations[f"{a},{b}"] = rows
    return evaluations


def test_gate_grid_recovers_residues_and_counts_failures():
    residues = [[(7 * n + 3 * i) % 11 for i in range(GRID_MODULUS ** 2)] for n in range(3)]
    ref = {"coefficients_sha256": "c0ffee", "ops": 26, "residues": residues}
    evaluations = _grid_output(residues)

    def gate(evals, sha="c0ffee", exit_code=0):
        out = json.dumps({"coefficients_sha256": sha, "evaluations": evals}).encode()
        return gate_grid(out, exit_code, ref)

    assert gate(evaluations) == 0
    assert gate(evaluations, sha="bad") == 1
    off = json.loads(json.dumps(evaluations))
    off["3,1"][2][0] += 1.0  # one evaluation off by one
    assert gate(off) == 25
    assert gate(_grid_output(residues, error=20.0)) == 25  # bound too loose to recover
    del off["3,1"]
    assert gate(off) == 25
    assert gate_grid(b"not json", 0, ref) == 26


def test_traced_child_patches_names_where_they_are_looked_up():
    sample = _spawn(TINY_UK, "trace")
    t = sample.trace
    # genfun binds pochhammer by name: only a patch there records these calls
    assert t["series.pochhammer.calls"] > 0
    assert t["genfun.marked_unimodal_rank_series.calls"] == 1
    assert t["cli.main.calls"] == 1
    assert t["series.mul.term_pairs"] > 0 and t["series.coeff_objects"] > 0
    for name in spans.SPAN_NAMES:
        assert 0 <= t[f"{name}.self_s"] <= t[f"{name}.total_s"] + 1e-9
    layer_self = sum(t[f"{name}.self_s"] for name in spans.SPAN_NAMES)
    assert layer_self <= t["cli.main.total_s"] + 1e-9
    assert t["combinat.census_objects"] == 0 and t["specialize.numeric.calls"] == 0


def test_traced_run_reports_exactly_the_declared_per_layer_metrics():
    names = [m["name"] for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]]
    sample = _spawn(TINY_UK, "trace")
    metrics = run.per_layer(TINY_UK, [sample], [sample], names)
    assert sorted(metrics) == sorted(names)
    assert metrics["series.self_s"] > 0 and metrics["cli.records"] > 0


def test_traced_grid_records_specializer_and_counts_repeat():
    first = _spawn(TINY_GRID, "trace").trace
    again = _spawn(TINY_GRID, "trace").trace
    assert first["specialize.numeric.calls"] == GRID_MODULUS ** 2
    assert first["specialize.terms"] > 0 and first["cli.main.calls"] == 0
    counts = [name for name in first if not name.endswith("_s")]
    assert {n: first[n] for n in counts} == {n: again[n] for n in counts}


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "build-uk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_seed_changes_presentation_not_work(seed):
    for workload in WORKLOADS.values():
        args = workload.argv(random.Random(seed))
        assert args[:len(workload.command)] == list(workload.command)
        assert sorted(args) == sorted(workload.argv(random.Random(seed + 100)))
