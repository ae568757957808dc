"""Command-line front end: coefficient tables, object listings, verification.

Three subcommands:

``series``     emit the nonzero coefficients of a generating function as
               JSON lines or CSV, optionally evaluated at roots of unity.
``enumerate``  list combinatorial objects with their rank statistics.
``verify``     run identity suites cell by cell and exit 0 only if every
               checked identity holds exactly.

Each subcommand reads one table, and each function, object or suite is one
row of it: ``_FUNCTIONS`` (builder, whether it takes ``--k``, its forms),
``_OBJECTS`` (listing, budget count column, whether it takes ``--k``, least
``--n``) and ``_SUITES`` (cells, default ``--n-max`` and ``--k-max``, budget
estimate).  The argparse choices and help strings are derived from them.

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

from . import combinat, genfun
from .series import TruncatedSeries
from .specialize import RootOfUnityVector, specialize_exact, specialize_numeric

_SERIES_SCHEMA = "qranks.series/1"
_SPECIALIZE_SCHEMA = "qranks.specialize/1"
_ENUMERATE_SCHEMA = "qranks.enumerate/1"
_VERIFY_SCHEMA = "qranks.verify/1"

_DEFAULT_BUDGET = 10 ** 8
_ESTIMATOR_CAP = 500  # beyond this the estimate is treated as infinite

# The lambdas of every table look up the genfun and combinat functions when
# a row runs, not when the table is built, so wrappers installed on those
# module attributes (the benchmark's spans) still see every call.


class UsageError(Exception):
    """Invalid parameter combination; reported on stderr with exit code 2."""


def _write_records(out, fmt: str, schema: str, columns: tuple[str, ...],
                   records) -> None:
    """JSON lines with the schema first, or CSV of the named record fields."""
    if fmt == "csv":
        out.write(",".join(columns) + "\n")
    for record in records:
        if fmt == "json":
            out.write(json.dumps({"schema": schema, **record}) + "\n")
        else:
            out.write(",".join(_csv_field(record[c]) for c in columns) + "\n")


def _csv_field(value) -> str:
    # lists become signed bracketed lists, None an empty field; str() of a
    # float is its shortest round-trip repr, so no digit is lost
    if value is None:
        return ""
    if isinstance(value, list):
        return "[" + " ".join(str(v) for v in value) + "]"
    return str(value)


def _check_budget(budget: int, size: int, estimate) -> None:
    """Refuse the run when ``estimate()`` objects exceed the budget; past
    float range, or uncalled past ``_ESTIMATOR_CAP``, it shows as inf."""
    total = math.inf if size > _ESTIMATOR_CAP else estimate()
    if total > budget:
        raise UsageError(
            f"estimated {total if total <= sys.float_info.max else math.inf:.3g} "
            f"objects exceeds budget {budget}; " + (
                f"sizes above {_ESTIMATOR_CAP} are refused whatever the budget"
                if size > _ESTIMATOR_CAP else "raise --budget to force"))


# ----------------------------------------------------------------------
# series
# ----------------------------------------------------------------------

# function: (builder(k, n_max, form), takes --k, forms with the default first)
_FUNCTIONS = {
    "partition": (lambda k, n, form: genfun.partition_series(n), False, ()),
    "r1": (lambda k, n, form: genfun.partition_rank_series(n), False, ()),
    "rk": (lambda k, n, form: genfun.marked_durfee_rank_series(k, n), True, ()),
    "u1": (lambda k, n, form: genfun.unimodal_rank_series(n), False, ()),
    "uk": (lambda k, n, form: genfun.marked_unimodal_rank_series(k, n), True, ()),
    "scuk": (lambda k, n, form: genfun.self_conjugate_series(k, n, form), True,
             ("raw", "simplified")),
    "psi": (lambda k, n, form: genfun.mock_theta_psi(n, form), False,
            ("theta", "pochhammer", "enumerative")),
    "omega-eps": (lambda k, n, form: genfun.even_part_parity_series(k, n), True, ()),
}


def _build_series(function: str, k: int | None, n_max: int,
                  form: str | None) -> TruncatedSeries:
    build, takes_k, forms = _FUNCTIONS[function]
    if takes_k and k is None:
        raise UsageError(f"--function {function} requires --k")
    if not takes_k and k is not None:
        raise UsageError(f"--function {function} does not take --k")
    if form is not None and not forms:
        raise UsageError(f"--function {function} does not take --form")
    if form is not None and form not in forms:
        raise UsageError(f"--form for {function} must be one of {forms}")
    if n_max < 0:
        raise UsageError("--n-max must be >= 0")
    try:
        return build(k, n_max, form or next(iter(forms), None))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def cmd_series(args, out) -> int:
    s = _build_series(args.function, args.k, args.n_max, args.form)
    if args.specialize is None:
        records = ({"function": args.function, "k": args.k, "n": n,
                    "exponents": list(exps), "value": coeff.terms[exps]}
                   for n, coeff in enumerate(s.coeffs) for exps in sorted(coeff.terms))
        # CSV columns (frozen): n,exponents,value
        _write_records(out, args.format, _SERIES_SCHEMA, ("n", "exponents", "value"),
                       records)
        return 0
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
    # CSV columns (frozen): n,re,im for the exact path,
    # n,re,im,error_bound for the numeric path
    if all(4 % f.denominator == 0 for f in v.entries):
        g = specialize_exact(s, v)
        columns = ("n", "re", "im")
        records = ({"function": args.function, "exact": True, "n": n, "re": re, "im": im}
                   for n, (re, im) in enumerate(g.coeffs))
    else:
        c = specialize_numeric(s, v)
        columns = ("n", "re", "im", "error_bound")
        records = ({"function": args.function, "exact": False, "n": n, "re": z.real,
                    "im": z.imag, "error_bound": c.error_bounds[n]}
                   for n, z in enumerate(c.coeffs))
    _write_records(out, args.format, _SPECIALIZE_SCHEMA, columns, records)
    return 0


# ----------------------------------------------------------------------
# budget counts (partition and unimodal counts exact, the rest upper bounds)
# ----------------------------------------------------------------------


def _partition_count_list(n_max: int) -> list[int]:
    counts = [1] + [0] * n_max
    for m in range(1, n_max + 1):
        for s in range(m, n_max + 1):
            counts[s] += counts[s - m]
    return counts


def _durfee_bounds(n_max: int, k_max: int) -> list[list[int]]:
    """bounds[k - 1][n]: p(n) C(n+k-1, k-1)^2 (a partition, each row marked
    nonincreasingly) from size k on, the least size side^2 + k - 1 allows,
    else 0; rows stop at k = n_max + 1, all 0, which serves every larger k."""
    partitions, choices, bounds = _partition_count_list(n_max), [1] * (n_max + 1), []
    for k in range(1, min(k_max, n_max + 1) + 1):  # choices[n] = C(n+k-1, k-1)
        bounds.append([0] * k + [p * c * c for p, c in zip(partitions[k:], choices[k:])])
        choices = [c * (n + k) // k for n, c in enumerate(choices)]
    return bounds


# ----------------------------------------------------------------------
# enumerate
# ----------------------------------------------------------------------

# object: (listing(n, k) of (ranks, render) pairs,
#          budget count column(n_max, k) indexed by n, takes --k,
#          least --n and what its error calls the object)
_OBJECTS = {
    "partition": (
        lambda n, k: (([combinat.dyson_rank(p)] if p.parts else None, p.render())
                      for p in combinat.enumerate_partitions(n)),
        lambda n_max, k: _partition_count_list(n_max), False, 0, "partitions"),
    "su-seq": (
        lambda n, k: (([combinat.su_rank(seq)], seq.render())
                      for seq in combinat.enumerate_su_sequences(n)),
        lambda n_max, k: combinat.marked_unimodal_counts(n_max, 1)[0], False, 1,
        "this object"),
    "kdurfee": (
        lambda n, k: ((list(combinat.durfee_ranks(sym)), sym.render())
                      for sym in combinat.enumerate_marked_durfee(n, k)),
        lambda n_max, k: _durfee_bounds(n_max, k)[-1], True, 1, "this object"),
    "ksu": (
        lambda n, k: ((list(combinat.unimodal_ranks(sym)), sym.render())
                      for sym in combinat.enumerate_marked_unimodal(n, k)),
        lambda n_max, k: combinat.marked_unimodal_counts(n_max, k)[-1], True, 1,
        "this object"),
}


def cmd_enumerate(args, out) -> int:
    obj, n, k = args.object, args.n, args.k
    listing, count, takes_k, least, called = _OBJECTS[obj]
    # the budget check runs first, so it sees --n and --k unchecked
    _check_budget(args.budget, n,
                  lambda: count(n, max(k or 1, 1))[n] if n >= least else 0)
    if n < least:
        raise UsageError(f"--n must be >= {least} for {called}")
    if takes_k and (k is None or k < 1):
        raise UsageError(f"--object {obj} requires --k >= 1")
    if not takes_k and k is not None:
        raise UsageError(f"--object {obj} does not take --k")
    records = ({"object": obj, "index": index, "n": n, "k": k, "ranks": ranks,
                "render": render} for index, (ranks, render) in enumerate(listing(n, k)))
    # CSV columns (frozen): index,n,k,ranks,render
    _write_records(out, args.format, _ENUMERATE_SCHEMA,
                   ("index", "n", "k", "ranks", "render"), records)
    return 0


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def _first_census_mismatch(series_terms, census) -> str | None:
    if series_terms == census:
        return None
    for key in sorted(set(series_terms) | set(census)):
        a, b = series_terms.get(key, 0), census.get(key, 0)
        if a != b:
            return f"ranks={key}: series {a} != census {b}"
    return "coefficient sets differ"


def _disagreement(values: dict) -> str | None:
    """None when every route gives the same value, else each route's value."""
    if len(set(values.values())) == 1:
        return None
    return "; ".join(f"{name}={v}" for name, v in values.items())


def _first_broken(objects, round_trip, called: str) -> str | None:
    """The first object that ``round_trip`` does not give back, rendered."""
    for obj in objects:
        if round_trip(obj) != obj:
            return f"{called} {obj.render()}"
    return None


def _cells_census(build, censuses, n_max: int, k_max: int):
    """Each q^n coefficient of build(k, n_max) against censuses(n_max, k)[n]."""
    for k in range(1, k_max + 1):
        series, census = build(k, n_max), censuses(n_max, k)
        for n in range(1, n_max + 1):
            detail = _first_census_mismatch(series.coeffs[n].terms, census[n])
            yield {"k": k, "n": n}, detail


def _cells_thm15(n_max: int, k_max: int):
    # one symmetric table; its first all-zero row serves every larger k
    rows = combinat.marked_unimodal_counts(n_max, k_max, symmetric=True)
    for k in range(2, k_max + 1):
        raw = genfun.self_conjugate_series(k, n_max, "raw").integer_coefficients()
        simplified = genfun.self_conjugate_series(
            k, n_max, "simplified").integer_coefficients()
        signed = genfun.even_part_parity_series(k, n_max).integer_coefficients()
        for n in range(1, n_max + 1):
            yield {"k": k, "n": n}, _disagreement({
                "self-conjugate count": rows[min(k, len(rows)) - 1][n],
                "raw series": raw[n], "simplified series": simplified[n],
                "signed parity difference": signed[n]})


def _cells_psi(n_max: int):
    theta = genfun.mock_theta_psi(n_max, "theta").integer_coefficients()
    poch = genfun.mock_theta_psi(n_max, "pochhammer").integer_coefficients()
    enum = genfun.mock_theta_psi(n_max, "enumerative").integer_coefficients()
    for n in range(1, n_max + 1):
        yield {"n": n}, _disagreement({
            "theta": theta[n], "pochhammer": poch[n], "enumerative": enum[n],
            "complete-odd partitions": combinat.count_complete_odd_partitions(n)})


def _cells_bijections(n_max: int):
    for n in range(1, n_max + 1):
        yield {"bijection": "durfee", "n": n}, _first_broken(
            combinat.enumerate_partitions(n),
            lambda p: combinat.durfee_recompose(combinat.durfee_decompose(p)),
            "partition")
        yield {"bijection": "su-symbol", "n": n}, _first_broken(
            combinat.enumerate_su_sequences(n),
            lambda seq: combinat.su_sequence(combinat.su_symbol(seq)), "sequence")
        # the odd-part direction is checked only when the symbol direction holds
        yield {"bijection": "self-conjugate", "n": n}, (
            _first_broken(
                combinat.enumerate_self_conjugate_symbols(n),
                lambda sym: combinat.odd_parts_to_self_conjugate(
                    combinat.self_conjugate_to_odd_parts(sym)),
                "symbol")
            or _first_broken(
                combinat.enumerate_complete_odd_partitions(n),
                lambda p: combinat.self_conjugate_to_odd_parts(
                    combinat.odd_parts_to_self_conjugate(p)),
                "partition"))


def _thm15_estimate(n_max: int, k_max: int) -> int:
    """The marked symmetric symbols that `combinat.count_self_conjugate`
    counts for 2 <= k <= k_max, exactly, plus one partition of each size per
    k for the decorated odd-part configurations (odd parts and even
    decoration) that `combinat.even_part_parity_counts` counts."""
    marked = combinat.marked_unimodal_counts(n_max, k_max, symmetric=True)[1:]
    return sum(map(sum, marked)) + (k_max - 1) * sum(_partition_count_list(n_max)[1:])


# suite: (cells(n_max, k_max), default n_max, default k_max,
#         budget estimate(n_max, k_max)), in `--suite all` order
_SUITES = {
    "thm-1-2": (lambda n_max, k_max: _cells_census(
        genfun.marked_unimodal_rank_series, combinat.marked_unimodal_censuses,
        n_max, k_max), 22, 3, lambda n_max, k_max: sum(
            map(sum, combinat.marked_unimodal_counts(n_max, k_max)))),
    "thm-1-1": (lambda n_max, k_max: _cells_census(
        genfun.marked_durfee_rank_series, combinat.marked_durfee_censuses,
        n_max, k_max), 18, 2,
        lambda n_max, k_max: sum(map(sum, _durfee_bounds(n_max, k_max)))),
    "thm-1-5": (_cells_thm15, 30, 3, _thm15_estimate),
    "psi": (lambda n_max, k_max: _cells_psi(n_max), 50, None,
            lambda n_max, k_max: sum(_partition_count_list(n_max))),
    "bijections": (lambda n_max, k_max: _cells_bijections(n_max), 20, None,
                   lambda n_max, k_max: sum(_partition_count_list(n_max))
                   + sum(combinat.marked_unimodal_counts(n_max, 1)[0])),
}


def cmd_verify(args, out) -> int:
    suites = list(_SUITES) if args.suite == "all" else [args.suite]
    plan = []
    for suite in suites:
        _, default_n, default_k, _ = _SUITES[suite]
        n_max = args.n_max if args.n_max is not None else default_n
        k_max = args.k_max if args.k_max is not None else default_k
        if n_max < 0:
            raise UsageError("--n-max must be >= 0")
        if default_k is not None and (k_max is None or k_max < 1):
            raise UsageError(f"--suite {suite} requires --k-max >= 1")
        plan.append((suite, n_max, k_max))

    # every n_max is the given --n-max or a default below the cap
    _check_budget(args.budget, max(n for _, n, _ in plan),
                  lambda: sum(_SUITES[s][3](n, k) for s, n, k in plan))

    cells = failed = 0
    for suite, n_max, k_max in plan:
        for cell, detail in _SUITES[suite][0](n_max, k_max):
            cell = {"suite": suite, **cell}
            cells += 1
            failed += detail is not None
            if args.format == "json":
                record = {"schema": _VERIFY_SCHEMA,
                          "status": "pass" if detail is None else "fail",
                          "detail": detail, **cell}
                out.write(json.dumps(record) + "\n")
            else:
                label = " ".join(f"{key}={value}" for key, value in cell.items())
                if detail is None:
                    out.write(f"ok   {label}\n")
                else:
                    out.write(f"FAIL {label}: {detail}\n")
    passed = cells - failed
    if args.format == "json":
        summary = {"schema": _VERIFY_SCHEMA, "summary": {
            "cells": cells, "passed": passed, "failed": failed}}
        out.write(json.dumps(summary) + "\n")
    else:
        out.write(f"summary: {cells} cells, {passed} passed, {failed} failed\n")
    return 0 if failed == 0 else 1


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
    p.add_argument("--function", required=True, choices=list(_FUNCTIONS))
    takes_k = "/".join(f for f, (_, k, _) in _FUNCTIONS.items() if k)
    p.add_argument("--k", type=int, default=None, help=f"mark count ({takes_k})")
    p.add_argument("--n-max", type=int, required=True, help="truncation order")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--form", default=None, help="; ".join(
        f"{f}: {'|'.join(forms)}" for f, (_, _, forms) in _FUNCTIONS.items() if forms))
    p.add_argument("--specialize", default=None, metavar="ANGLES",
                   help="comma-separated angles a/b, one per x variable; "
                        "denominators dividing 4 evaluate exactly")
    p.set_defaults(handler=cmd_series)

    p = sub.add_parser("enumerate", help="list objects with rank statistics")
    p.add_argument("--object", required=True, choices=list(_OBJECTS))
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
