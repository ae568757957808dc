"""The four benchmark workloads: their inputs, output gates and predictions.

Every workload is fixed work: the seed only permutes how the inputs are
presented (the order of CLI options, the order of the evaluation grid), so
every seed does the same work and must give the same output.  Outputs are
gated against ``reference.json``, which ``make_reference.py`` generated from
the program before any optimisation.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Callable

_EPS = sys.float_info.epsilon

GRID_K, GRID_N_MAX, GRID_MODULUS = 2, 16, 5


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "cli": argv for qranks.cli.main; "grid": the library workload
    gate: Callable[[bytes, int | None, dict], int]  # failed operations of a sample
    options: tuple[tuple[str, ...], ...]  # shuffled by the seed, then flattened
    command: tuple[str, ...] = ()  # CLI subcommand, or grid k, n_max, modulus; kept first
    # spans that record calls here; every other span is predicted to stay at 0
    spans: frozenset[str] = field(default_factory=frozenset)
    # layer -> (lowest, highest) share of traced run time in layer self time
    shares: dict[str, tuple[float, float]] = field(default_factory=dict)

    def argv(self, rng) -> list[str]:
        options = list(self.options)
        rng.shuffle(options)
        return list(self.command) + [word for option in options for word in option]


# ----------------------------------------------------------------------
# output gates: each returns the number of failed operations of one sample
# ----------------------------------------------------------------------


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def coefficients_sha256(series) -> str:
    """Hash of every nonzero coefficient as 'n e_1 .. e_k value' lines."""
    h = hashlib.sha256()
    for n, c in enumerate(series.coeffs):
        for exps in sorted(c.terms):
            h.update(f"{n} {' '.join(map(str, exps))} {c.terms[exps]}\n".encode())
    return h.hexdigest()


def residue_counts(series, modulus: int) -> list[list[int]]:
    """counts[n][r1 * modulus + r2]: symbols of n with ranks = (r1, r2) mod modulus."""
    table = []
    for c in series.coeffs:
        row = [0] * modulus ** 2
        for (e1, e2), value in c.terms.items():
            row[(e1 % modulus) * modulus + e2 % modulus] += value
        table.append(row)
    return table


def gate_table(stdout: bytes, exit_code: int | None, ref: dict) -> int:
    """One coefficient-table check: exit 0 and the exact reference bytes."""
    return int(exit_code != 0 or sha256(stdout) != ref["stdout_sha256"])


def gate_verify(stdout: bytes, exit_code: int | None, ref: dict) -> int:
    """One operation per verify cell.  A cell that reports a mismatch fails;
    any other departure from the reference output fails every cell."""
    if exit_code == 0 and sha256(stdout) == ref["stdout_sha256"]:
        return 0
    try:
        records = [json.loads(line) for line in stdout.decode().splitlines()]
    except (UnicodeDecodeError, json.JSONDecodeError):
        return ref["ops"]
    cells = [r for r in records if "status" in r]
    failed = sum(r["status"] != "pass" for r in cells)
    if len(cells) == ref["ops"] and failed and exit_code == 1:
        return failed
    return ref["ops"]


def dft_errors(evaluations: dict[tuple[int, int], list], residues: list[list[int]],
               modulus: int) -> list[tuple[float, float]]:
    """Recover every residue-class count from the evaluations at
    (zeta^a, zeta^b) by an inverse DFT.  Returns, per (n, r1, r2), the error
    against the exact count and the propagated error bound: the mean of the
    recorded bounds plus the rounding of the transform itself."""
    size = modulus ** 2
    out = []
    for n, exact in enumerate(residues):
        for r1 in range(modulus):
            for r2 in range(modulus):
                total = 0j
                bound = 0.0
                for (a, b), rows in evaluations.items():
                    re, im, err = rows[n]
                    z = complex(re, im)
                    total += z * cmath.exp(-2j * math.pi * (a * r1 + b * r2) / modulus)
                    bound += err + 32 * _EPS * abs(z)
                out.append((abs(total / size - exact[r1 * modulus + r2]), bound / size))
    return out


def gate_grid(stdout: bytes, exit_code: int | None, ref: dict) -> int:
    """26 operations: the exact coefficient table, and the 25 evaluations,
    which pass together when their inverse DFT recovers every exact
    residue count within a propagated bound below 1/2."""
    try:
        out = json.loads(stdout)
        evaluations = {tuple(map(int, key.split(","))): rows
                       for key, rows in out["evaluations"].items()}
    except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError, ValueError):
        return ref["ops"]
    failed = int(exit_code != 0 or out.get("coefficients_sha256") != ref["coefficients_sha256"])
    pairs = {(a, b) for a in range(GRID_MODULUS) for b in range(GRID_MODULUS)}
    residues = ref["residues"]
    try:
        ok = set(evaluations) == pairs and all(
            len(rows) == len(residues) for rows in evaluations.values()) and all(
            error <= bound < 0.5
            for error, bound in dft_errors(evaluations, residues, GRID_MODULUS))
    except (TypeError, ValueError):
        ok = False
    return failed + (0 if ok else len(pairs))


_SERIES = frozenset({"series.mul", "series.add", "series.pochhammer"})

WORKLOADS = {w.name: w for w in (
    Workload(
        "build-uk",
        "cli",
        gate_table,
        (("--function", "uk"), ("--k", "3"), ("--n-max", "22"), ("--format", "json")),
        ("series",),
        spans=_SERIES | {"genfun.marked_unimodal_rank_series", "cli.main"},
        shares={"series": (0.80, 1.0), "combinat": (0.0, 0.0), "specialize": (0.0, 0.0)},
    ),
    Workload(
        "census-durfee",
        "cli",
        gate_verify,
        (("--suite", "thm-1-1"), ("--k-max", "2"), ("--n-max", "17"), ("--format", "json")),
        ("verify",),
        spans=_SERIES | {"series.inverse", "genfun.partition_rank_series",
                         "genfun.marked_durfee_rank_series",
                         "combinat.rank_census_marked_durfee",
                         "combinat.enumerate_marked_durfee", "combinat.enumerate_partitions",
                         "combinat.bijection", "cli.main"},
        shares={"series": (0.0, 0.10), "combinat": (0.80, 1.0), "specialize": (0.0, 0.0)},
    ),
    Workload(
        "verify-all",
        "cli",
        gate_verify,
        (("--suite", "all"), ("--n-max", "14"), ("--format", "json")),
        ("verify",),
        spans=_SERIES | {
            "series.inverse", "genfun.partition_rank_series",
            "genfun.marked_durfee_rank_series", "genfun.marked_unimodal_rank_series",
            "genfun.self_conjugate_series", "genfun.mock_theta_psi",
            "genfun.even_part_parity_series", "combinat.rank_census_marked_unimodal",
            "combinat.rank_census_marked_durfee", "combinat.count_self_conjugate",
            "combinat.count_complete_odd_partitions", "combinat.count_even_part_parity",
            "combinat.enumerate_marked_unimodal", "combinat.enumerate_marked_durfee",
            "combinat.enumerate_partitions", "combinat.enumerate_su_sequences",
            "combinat.enumerate_self_conjugate_symbols",
            "combinat.enumerate_complete_odd_partitions", "combinat.bijection",
            "cli.main"},
        shares={"specialize": (0.0, 0.0)},
    ),
    Workload(
        "rank-mod-grid",
        "grid",
        gate_grid,
        tuple((f"{a},{b}",) for a in range(GRID_MODULUS) for b in range(GRID_MODULUS)),
        (str(GRID_K), str(GRID_N_MAX), str(GRID_MODULUS)),
        spans=_SERIES | {"series.inverse", "genfun.marked_durfee_rank_series",
                         "specialize.numeric"},
        shares={"specialize": (0.70, 1.0), "combinat": (0.0, 0.0)},
    ),
)}
