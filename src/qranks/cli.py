"""Command-line front end: coefficient tables, object listings, verification.

Three subcommands:

``series``     emit the nonzero coefficients of a generating function as
               JSON lines or CSV, optionally evaluated at roots of unity.
``enumerate``  list combinatorial objects with their rank statistics.
``verify``     run identity suites cell by cell and exit 0 only if every
               checked identity holds exactly.

Output is deterministic for fixed inputs: records are ordered by q-order
and then by exponent vector (lexicographic), every JSON record carries a
schema version, and the CSV column orders are frozen (documented next to
each writer).  Exit codes: 0 success, 1 verification mismatch, 2 invalid
invocation or refused budget.

Verification cells are independent of each other, so their results do not
depend on evaluation order; this implementation runs them sequentially.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import combinat, genfun
from .series import TruncatedSeries
from .specialize import RootOfUnityVector, specialize_exact, specialize_numeric

_SERIES_SCHEMA = "qranks.series/1"
_SPECIALIZE_SCHEMA = "qranks.specialize/1"
_ENUMERATE_SCHEMA = "qranks.enumerate/1"
_VERIFY_SCHEMA = "qranks.verify/1"

_DEFAULT_BUDGET = 10 ** 8
_ESTIMATOR_CAP = 500  # beyond this the estimate is treated as infinite

# functions that need --k, and the arity of the resulting series
_NEEDS_K = {"rk", "uk", "scuk", "omega-eps"}
_FORMS = {
    "scuk": ("raw", "simplified"),
    "psi": ("theta", "pochhammer", "enumerative"),
}


class UsageError(Exception):
    """Invalid parameter combination; reported on stderr with exit code 2."""


def _build_series(function: str, k: int | None, n_max: int,
                  form: str | None) -> TruncatedSeries:
    if function in _NEEDS_K:
        if k is None:
            raise UsageError(f"--function {function} requires --k")
    elif k is not None:
        raise UsageError(f"--function {function} does not take --k")
    if form is not None:
        allowed = _FORMS.get(function)
        if allowed is None:
            raise UsageError(f"--function {function} does not take --form")
        if form not in allowed:
            raise UsageError(f"--form for {function} must be one of {allowed}")
    if n_max < 0:
        raise UsageError("--n-max must be >= 0")
    try:
        if function == "partition":
            return genfun.partition_series(n_max)
        if function == "r1":
            return genfun.partition_rank_series(n_max)
        if function == "rk":
            return genfun.marked_durfee_rank_series(k, n_max)
        if function == "u1":
            return genfun.unimodal_rank_series(n_max)
        if function == "uk":
            return genfun.marked_unimodal_rank_series(k, n_max)
        if function == "scuk":
            return genfun.self_conjugate_series(k, n_max, form or "raw")
        if function == "psi":
            return genfun.mock_theta_psi(n_max, form or "theta")
        if function == "omega-eps":
            return genfun.even_part_parity_series(k, n_max)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    raise UsageError(f"unknown function {function!r}")


def _emit_series(out, s: TruncatedSeries, function: str, k: int | None,
                 fmt: str) -> None:
    # CSV columns (frozen): n,exponents,value
    if fmt == "csv":
        out.write("n,exponents,value\n")
    for n, coeff in enumerate(s.coeffs):
        for exps in sorted(coeff.terms):
            value = coeff.terms[exps]
            if fmt == "json":
                record = {
                    "schema": _SERIES_SCHEMA,
                    "function": function,
                    "k": k,
                    "n": n,
                    "exponents": list(exps),
                    "value": value,
                }
                out.write(json.dumps(record) + "\n")
            else:
                bracketed = "[" + " ".join(str(e) for e in exps) + "]"
                out.write(f"{n},{bracketed},{value}\n")


def _emit_specialized(out, s: TruncatedSeries, v: RootOfUnityVector,
                      function: str, fmt: str) -> None:
    exact = all(4 % f.denominator == 0 for f in v.entries)
    # CSV columns (frozen): n,re,im for the exact path,
    # n,re,im,error_bound for the numeric path
    if exact:
        g = specialize_exact(s, v)
        if fmt == "csv":
            out.write("n,re,im\n")
        for n, (re, im) in enumerate(g.coeffs):
            if fmt == "json":
                record = {"schema": _SPECIALIZE_SCHEMA, "function": function,
                          "exact": True, "n": n, "re": re, "im": im}
                out.write(json.dumps(record) + "\n")
            else:
                out.write(f"{n},{re},{im}\n")
        return
    c = specialize_numeric(s, v)
    if fmt == "csv":
        out.write("n,re,im,error_bound\n")
    for n, z in enumerate(c.coeffs):
        bound = c.error_bounds[n]
        if fmt == "json":
            record = {"schema": _SPECIALIZE_SCHEMA, "function": function,
                      "exact": False, "n": n, "re": z.real, "im": z.imag,
                      "error_bound": bound}
            out.write(json.dumps(record) + "\n")
        else:
            out.write(f"{n},{z.real!r},{z.imag!r},{bound!r}\n")


def cmd_series(args, out) -> int:
    s = _build_series(args.function, args.k, args.n_max, args.form)
    if args.specialize is not None:
        specs = [a.strip() for a in args.specialize.split(",") if a.strip()]
        if s.var_count == 0:
            raise UsageError(f"--function {args.function} has no x variables")
        if len(specs) != s.var_count:
            raise UsageError(
                f"--specialize needs {s.var_count} angles, got {len(specs)}"
            )
        try:
            v = RootOfUnityVector.from_strings(specs)
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"bad angle list: {exc}") from exc
        _emit_specialized(out, s, v, args.function, args.format)
        return 0
    _emit_series(out, s, args.function, args.k, args.format)
    return 0


# ----------------------------------------------------------------------
# enumerate
# ----------------------------------------------------------------------


def _enumerate_records(obj: str, n: int, k: int | None):
    if obj == "partition":
        if n < 0:
            raise UsageError("--n must be >= 0 for partitions")
        if k is not None:
            raise UsageError("--object partition does not take --k")
        for p in combinat.enumerate_partitions(n):
            ranks = [combinat.dyson_rank(p)] if p.parts else None
            yield {"n": n, "k": None, "ranks": ranks, "render": p.render()}
        return
    if n < 1:
        raise UsageError("--n must be >= 1 for this object")
    if obj == "su-seq":
        if k is not None:
            raise UsageError("--object su-seq does not take --k")
        for seq in combinat.enumerate_su_sequences(n):
            yield {"n": n, "k": None, "ranks": [combinat.su_rank(seq)],
                   "render": seq.render()}
        return
    if k is None or k < 1:
        raise UsageError(f"--object {obj} requires --k >= 1")
    if obj == "kdurfee":
        for sym in combinat.enumerate_marked_durfee(n, k):
            yield {"n": n, "k": k, "ranks": list(combinat.durfee_ranks(sym)),
                   "render": sym.render()}
        return
    if obj == "ksu":
        for sym in combinat.enumerate_marked_unimodal(n, k):
            yield {"n": n, "k": k, "ranks": list(combinat.unimodal_ranks(sym)),
                   "render": sym.render()}
        return
    raise UsageError(f"unknown object {obj!r}")


def cmd_enumerate(args, out) -> int:
    estimate = _estimate_enumerate(args.object, args.n, args.k)
    if estimate > args.budget:
        raise UsageError(
            f"estimated {estimate:.3g} objects exceeds budget {args.budget}; "
            "raise --budget to force"
        )
    records = list(_enumerate_records(args.object, args.n, args.k))
    # CSV columns (frozen): index,n,k,ranks,render
    if args.format == "csv":
        out.write("index,n,k,ranks,render\n")
    for index, rec in enumerate(records):
        if args.format == "json":
            record = {"schema": _ENUMERATE_SCHEMA, "object": args.object,
                      "index": index, **rec}
            out.write(json.dumps(record) + "\n")
        else:
            ranks = rec["ranks"]
            bracketed = "[" + " ".join(str(r) for r in ranks) + "]" if ranks is not None else ""
            k_field = "" if rec["k"] is None else str(rec["k"])
            out.write(f"{index},{rec['n']},{k_field},{bracketed},{rec['render']}\n")
    return 0


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def _first_census_mismatch(series_terms, census) -> str | None:
    if series_terms == census:
        return None
    for key in sorted(set(series_terms) | set(census)):
        a = series_terms.get(key, 0)
        b = census.get(key, 0)
        if a != b:
            return f"ranks={key}: series {a} != census {b}"
    return "coefficient sets differ"


def _cells_census(build, census, n_max: int, k_max: int):
    """Each q^n coefficient of build(k, n_max) against census(n, k)."""
    for k in range(1, k_max + 1):
        series = build(k, n_max)
        for n in range(1, n_max + 1):
            detail = _first_census_mismatch(series.coeffs[n].terms, census(n, k))
            yield {"k": k, "n": n}, detail


def _cells_thm15(n_max: int, k_max: int):
    for k in range(2, k_max + 1):
        raw = genfun.self_conjugate_series(k, n_max, "raw").integer_coefficients()
        simplified = genfun.self_conjugate_series(
            k, n_max, "simplified").integer_coefficients()
        signed = genfun.even_part_parity_series(k, n_max).integer_coefficients()
        for n in range(1, n_max + 1):
            count = combinat.count_self_conjugate(n, k)
            values = {"self-conjugate count": count, "raw series": raw[n],
                      "simplified series": simplified[n],
                      "signed parity difference": signed[n]}
            if len(set(values.values())) == 1:
                yield {"k": k, "n": n}, None
            else:
                detail = "; ".join(f"{name}={v}" for name, v in values.items())
                yield {"k": k, "n": n}, detail


def _cells_psi(n_max: int):
    theta = genfun.mock_theta_psi(n_max, "theta").integer_coefficients()
    poch = genfun.mock_theta_psi(n_max, "pochhammer").integer_coefficients()
    enum = genfun.mock_theta_psi(n_max, "enumerative").integer_coefficients()
    for n in range(1, n_max + 1):
        odd = combinat.count_complete_odd_partitions(n)
        values = {"theta": theta[n], "pochhammer": poch[n],
                  "enumerative": enum[n], "complete-odd partitions": odd}
        if len(set(values.values())) == 1:
            yield {"n": n}, None
        else:
            yield {"n": n}, "; ".join(f"{name}={v}" for name, v in values.items())


def _cells_bijections(n_max: int):
    for n in range(1, n_max + 1):
        bad = None
        for p in combinat.enumerate_partitions(n):
            if combinat.durfee_recompose(combinat.durfee_decompose(p)) != p:
                bad = f"partition {p.render()}"
                break
        yield {"bijection": "durfee", "n": n}, bad

        bad = None
        for seq in combinat.enumerate_su_sequences(n):
            if combinat.su_sequence(combinat.su_symbol(seq)) != seq:
                bad = f"sequence {seq.render()}"
                break
        yield {"bijection": "su-symbol", "n": n}, bad

        bad = None
        for sym in combinat.enumerate_self_conjugate_symbols(n):
            p = combinat.self_conjugate_to_odd_parts(sym)
            if combinat.odd_parts_to_self_conjugate(p) != sym:
                bad = f"symbol {sym.render()}"
                break
        if bad is None:
            for p in combinat.enumerate_complete_odd_partitions(n):
                if combinat.self_conjugate_to_odd_parts(
                        combinat.odd_parts_to_self_conjugate(p)) != p:
                    bad = f"partition {p.render()}"
                    break
        yield {"bijection": "self-conjugate", "n": n}, bad


# suite: (cell generator, default n_max, default k_max), in `--suite all` order;
# the lambdas look up the genfun and combinat functions when a suite runs
_SUITES = {
    "thm-1-2": (lambda n_max, k_max: _cells_census(
        genfun.marked_unimodal_rank_series, combinat.rank_census_marked_unimodal,
        n_max, k_max), 22, 3),
    "thm-1-1": (lambda n_max, k_max: _cells_census(
        genfun.marked_durfee_rank_series, combinat.rank_census_marked_durfee,
        n_max, k_max), 18, 2),
    "thm-1-5": (_cells_thm15, 30, 3),
    "psi": (lambda n_max, k_max: _cells_psi(n_max), 50, None),
    "bijections": (lambda n_max, k_max: _cells_bijections(n_max), 20, None),
}


def _suite_cells(suite: str, n_max: int, k_max: int | None):
    cells = _SUITES[suite][0]
    for cell, detail in cells(n_max, k_max):
        yield {"suite": suite, **cell}, detail


def cmd_verify(args, out) -> int:
    suites = list(_SUITES) if args.suite == "all" else [args.suite]
    plan = []
    for suite in suites:
        _, default_n, default_k = _SUITES[suite]
        n_max = args.n_max if args.n_max is not None else default_n
        k_max = args.k_max if args.k_max is not None else default_k
        if n_max < 0:
            raise UsageError("--n-max must be >= 0")
        if default_k is not None and (k_max is None or k_max < 1):
            raise UsageError(f"--suite {suite} requires --k-max >= 1")
        plan.append((suite, n_max, k_max))

    estimate = sum(_estimate_suite(s, n, k) for s, n, k in plan)
    if estimate > args.budget:
        raise UsageError(
            f"estimated {estimate:.3g} objects exceeds budget {args.budget}; "
            "raise --budget to force"
        )

    cells = passed = 0
    failed = 0
    for suite, n_max, k_max in plan:
        for cell, detail in _suite_cells(suite, n_max, k_max):
            cells += 1
            status = "pass" if detail is None else "fail"
            if detail is None:
                passed += 1
            else:
                failed += 1
            if args.format == "json":
                record = {"schema": _VERIFY_SCHEMA, "status": status,
                          "detail": detail, **cell}
                out.write(json.dumps(record) + "\n")
            else:
                label = " ".join(f"{key}={value}" for key, value in cell.items())
                if detail is None:
                    out.write(f"ok   {label}\n")
                else:
                    out.write(f"FAIL {label}: {detail}\n")
    if args.format == "json":
        summary = {"schema": _VERIFY_SCHEMA, "summary": {
            "cells": cells, "passed": passed, "failed": failed}}
        out.write(json.dumps(summary) + "\n")
    else:
        out.write(f"summary: {cells} cells, {passed} passed, {failed} failed\n")
    return 0 if failed == 0 else 1


# ----------------------------------------------------------------------
# budget estimation (crude, documented upper-bound heuristics)
# ----------------------------------------------------------------------


def _distinct_count_table(n_max: int) -> list[list[int]]:
    """table[m][s] counts distinct-part partitions of s with parts <= m."""
    row = [1] + [0] * n_max
    table = [row[:]]
    for m in range(1, n_max + 1):
        new = row[:]
        for s in range(n_max, m - 1, -1):
            new[s] += row[s - m]
        table.append(new)
        row = new
    return table


def _partition_count_list(n_max: int) -> list[int]:
    counts = [1] + [0] * n_max
    for m in range(1, n_max + 1):
        for s in range(m, n_max + 1):
            counts[s] += counts[s - m]
    return counts


def _max_row_length(n: int) -> int:
    length = 0
    while (length + 1) * (length + 2) // 2 <= n:
        length += 1
    return length


def _su_symbol_counts(n_max: int) -> list[int]:
    table = _distinct_count_table(n_max)
    counts = [0] * (n_max + 1)
    for n in range(1, n_max + 1):
        total = 0
        for peak in range(1, n + 1):
            rest = n - peak
            row = table[min(peak - 1, n_max)]
            total += sum(row[s] * row[rest - s] for s in range(rest + 1))
        counts[n] = total
    return counts


def _symmetric_symbol_counts(n_max: int) -> list[int]:
    table = _distinct_count_table(n_max)
    counts = [0] * (n_max + 1)
    for n in range(1, n_max + 1):
        total = 0
        for peak in range(1, n + 1):
            if (n - peak) % 2 == 0:
                total += table[min(peak - 1, n_max)][(n - peak) // 2]
        counts[n] = total
    return counts


def _assignments(length: int, k: int) -> int:
    return math.comb(length + k - 1, k - 1)


def _estimate_enumerate(obj: str, n: int, k: int | None) -> float:
    if n > _ESTIMATOR_CAP:
        return math.inf
    if obj == "partition":
        return _partition_count_list(max(n, 0))[n] if n >= 0 else 0
    if n < 1:
        return 0
    if obj == "su-seq":
        return _su_symbol_counts(n)[n]
    kk = k if k is not None and k >= 1 else 1
    if obj == "ksu":
        factor = _assignments(_max_row_length(n), kk) ** 2
        return _su_symbol_counts(n)[n] * factor
    if obj == "kdurfee":
        factor = _assignments(n, kk) ** 2
        return _partition_count_list(n)[n] * factor
    return 0


def _estimate_suite(suite: str, n_max: int, k_max: int | None) -> float:
    if n_max > _ESTIMATOR_CAP:
        return math.inf
    if suite == "thm-1-2":
        counts = _su_symbol_counts(n_max)
        return sum(
            counts[n] * _assignments(_max_row_length(n), k) ** 2
            for k in range(1, (k_max or 1) + 1)
            for n in range(1, n_max + 1)
        )
    if suite == "thm-1-1":
        counts = _partition_count_list(n_max)
        return sum(
            counts[n] * _assignments(n, k) ** 2
            for k in range(1, (k_max or 1) + 1)
            for n in range(1, n_max + 1)
        )
    if suite == "thm-1-5":
        counts = _symmetric_symbol_counts(n_max)
        return sum(
            counts[n] * _assignments(_max_row_length(n), k)
            for k in range(2, (k_max or 2) + 1)
            for n in range(1, n_max + 1)
        )
    if suite == "psi":
        return sum(_partition_count_list(n_max))
    if suite == "bijections":
        partitions = _partition_count_list(n_max)
        symbols = _su_symbol_counts(n_max)
        return sum(partitions) + sum(symbols)
    return 0


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qranks",
        description="Exact rank generating functions and the enumerations "
                    "that verify them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("series", help="emit generating function coefficients")
    p.add_argument("--function", required=True,
                   choices=["partition", "r1", "rk", "u1", "uk", "scuk", "psi",
                            "omega-eps"])
    p.add_argument("--k", type=int, default=None, help="mark count (rk/uk/scuk/omega-eps)")
    p.add_argument("--n-max", type=int, required=True, help="truncation order")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--form", default=None,
                   help="scuk: raw|simplified; psi: theta|pochhammer|enumerative")
    p.add_argument("--specialize", default=None, metavar="ANGLES",
                   help="comma-separated angles a/b, one per x variable; "
                        "denominators dividing 4 evaluate exactly")
    p.set_defaults(handler=cmd_series)

    p = sub.add_parser("enumerate", help="list objects with rank statistics")
    p.add_argument("--object", required=True,
                   choices=["partition", "su-seq", "kdurfee", "ksu"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--budget", type=int, default=_DEFAULT_BUDGET,
                   help="refuse runs whose estimated object count exceeds this")
    p.set_defaults(handler=cmd_enumerate)

    p = sub.add_parser("verify", help="run identity verification suites")
    p.add_argument("--suite", required=True,
                   choices=[*_SUITES, "all"])
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--k-max", type=int, default=None)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--budget", type=int, default=_DEFAULT_BUDGET,
                   help="refuse runs whose estimated object count exceeds this")
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, sys.stdout)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
