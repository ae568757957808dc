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
schema version, and the CSV column orders are frozen (documented at each
call of ``_write_records``, the one writer).  Exit codes: 0 success, 1
verification mismatch, 2 invalid invocation or refused budget.

Verification cells are independent of each other, so their results do not
depend on evaluation order; this implementation runs them sequentially.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from itertools import chain, islice, repeat

from . import combinat, genfun
from .series import TruncatedSeries

_SERIES_SCHEMA = "qranks.series/1"
_SPECIALIZE_SCHEMA = "qranks.specialize/1"
_ENUMERATE_SCHEMA = "qranks.enumerate/1"
_VERIFY_SCHEMA = "qranks.verify/1"

_DEFAULT_BUDGET = 10 ** 8
_ESTIMATOR_CAP = 500  # beyond this the estimate is treated as infinite
_CHUNK_ROWS = 4096  # records per write; the output is never joined whole

# The lambdas of every table look up the genfun and combinat functions when
# a row runs, not when the table is built, so wrappers installed on those
# module attributes (the benchmark's spans) still see every call.


class UsageError(Exception):
    """Invalid parameter combination; reported on stderr with exit code 2."""


def _write_records(out, fmt: str, schema: str, fixed: dict, columns: tuple[str, ...],
                   rows) -> None:
    """CSV of the named columns, or JSON lines of the schema, the call's
    ``fixed`` fields and the columns; ``rows`` are tuples in column order,
    written ``_CHUNK_ROWS`` at a time."""
    if fmt == "csv":
        out.write(",".join(columns) + "\n")
    rows = iter(rows)
    while chunk := list(islice(rows, _CHUNK_ROWS)):
        out.write(_lines(fmt, schema, fixed, columns, chunk))


def _lines(fmt: str, schema: str, fixed: dict, columns: tuple[str, ...], rows) -> str:
    """What json.dumps({"schema": schema, **fixed, **row}) writes for each
    row, or its CSV fields.  str writes the same text as json.dumps for exact
    ints and lists of exact ints, so only other columns go value by value."""
    if fmt == "json" and len(rows) == 1:  # one line: no column pass to share
        return json.dumps({"schema": schema, **fixed, **dict(zip(columns, rows[0]))}) + "\n"
    if fmt == "json":
        keys = [", " + json.dumps(c) + ": " for c in columns]
        keys[0] = json.dumps({"schema": schema, **fixed})[:-1] + keys[0]
        end = "}\n"
    else:
        keys, end = ["", *[","] * (len(columns) - 1)], "\n"
    parts = []
    for key, column in zip(keys, zip(*rows)):
        kinds = {*map(type, column)}
        if kinds <= {int} or (kinds == {list}
                              and {*map(type, chain.from_iterable(column))} <= {int}):
            texts = map(str, column)
            if fmt == "csv":  # "[1, -2]" as "[1 -2]"
                texts = map(str.replace, texts, repeat(","), repeat(""))
        else:
            texts = map(json.dumps if fmt == "json" else _csv_field, column)
        parts += repeat(key), texts
    return "".join(chain.from_iterable(zip(*parts, repeat(end))))


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
    if args.specialize is None:
        s = _build_series(args.function, args.k, args.n_max, args.form)
        # CSV columns (frozen): n,exponents,value
        rows = ((n, list(exps), coeff.terms[exps])
                for n, coeff in enumerate(s.coeffs) for exps in sorted(coeff.terms))
        fixed = {"function": args.function, "k": args.k}
        _write_records(out, args.format, _SERIES_SCHEMA, fixed, ("n", "exponents", "value"),
                       rows)
        return 0
    # loaded here only: no other command evaluates at roots of unity
    from .specialize import RootOfUnityVector, specialize_exact, specialize_numeric
    specs = [a.strip() for a in args.specialize.split(",") if a.strip()]
    # the angles are checked against the series at q^0 (a negative --n-max
    # still fails there first), so a bad list is refused before the build
    var_count = _build_series(args.function, args.k, min(args.n_max, 0), args.form).var_count
    if var_count == 0:
        raise UsageError(f"--function {args.function} has no x variables")
    if len(specs) != var_count:
        raise UsageError(f"--specialize needs {var_count} angles, got {len(specs)}")
    try:
        v = RootOfUnityVector.from_strings(specs)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad angle list: {exc}") from exc
    s = _build_series(args.function, args.k, args.n_max, args.form)
    # CSV columns (frozen): n,re,im for the exact path,
    # n,re,im,error_bound for the numeric path
    exact = all(4 % f.denominator == 0 for f in v.entries)
    if exact:
        columns = ("n", "re", "im")
        rows = ((n, re, im) for n, (re, im) in enumerate(specialize_exact(s, v).coeffs))
    else:
        c = specialize_numeric(s, v)
        columns = ("n", "re", "im", "error_bound")
        rows = ((n, z.real, z.imag, bound)
                for n, (z, bound) in enumerate(zip(c.coeffs, c.error_bounds)))
    _write_records(out, args.format, _SPECIALIZE_SCHEMA,
                   {"function": args.function, "exact": exact}, columns, rows)
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

def _ranked(ranks, symbols):
    """(rank vector, render) pairs; ``ranks`` is looked up once per listing."""
    return ((list(ranks(sym)), sym.render()) for sym in symbols)


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
        lambda n, k: _ranked(combinat.durfee_ranks, combinat.enumerate_marked_durfee(n, k)),
        lambda n_max, k: _durfee_bounds(n_max, k)[-1], True, 1, "this object"),
    "ksu": (
        lambda n, k: _ranked(combinat.unimodal_ranks,
                             combinat.enumerate_marked_unimodal(n, k)),
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
    # CSV columns (frozen): index,n,k,ranks,render
    _write_records(out, args.format, _ENUMERATE_SCHEMA, {"object": obj},
                   ("index", "n", "k", "ranks", "render"),
                   ((index, n, k, ranks, render)
                    for index, (ranks, render) in enumerate(listing(n, k))))
    return 0


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def _first_census_mismatch(series_terms, census, y_basis: bool = False) -> str | None:
    """None when the two coefficients agree, else the first differing rank
    vector; y-basis coefficients are compared in y and reported in x."""
    if series_terms == census:
        return None
    if y_basis:
        series_terms, census = combinat._x_form(series_terms), combinat._x_form(census)
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


def _cells_census(build, censuses, n_max: int, k_max: int, y_basis: bool = False):
    """Each q^n coefficient of build(k, n_max) against censuses(n_max, k)[n],
    both in y_j = x_j + 1/x_j with ``y_basis``."""
    basis = {"y_basis": True} if y_basis else {}
    for k in range(1, k_max + 1):
        series, census = build(k, n_max, **basis), censuses(n_max, k, **basis)
        for n in range(1, n_max + 1):
            detail = _first_census_mismatch(series.coeffs[n].terms, census[n], y_basis)
            yield {"k": k, "n": n}, detail


def _cells_thm15(n_max: int, k_max: int):
    # one symmetric table; its first all-zero row serves every larger k
    rows = combinat.marked_unimodal_counts(n_max, k_max, symmetric=True)
    for k in range(2, k_max + 1):
        forms = {f"{form} series": genfun.self_conjugate_series(
            k, n_max, form).integer_coefficients() for form in _FUNCTIONS["scuk"][2]}
        signed = genfun.even_part_parity_series(k, n_max).integer_coefficients()
        for n in range(1, n_max + 1):
            yield {"k": k, "n": n}, _disagreement({
                "self-conjugate count": rows[min(k, len(rows)) - 1][n],
                **{name: c[n] for name, c in forms.items()},
                "signed parity difference": signed[n]})


def _cells_psi(n_max: int):
    forms = {form: genfun.mock_theta_psi(n_max, form).integer_coefficients()
             for form in _FUNCTIONS["psi"][2]}
    for n in range(1, n_max + 1):
        yield {"n": n}, _disagreement({
            **{form: c[n] for form, c in forms.items()},
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
    """The marked symmetric symbols for 2 <= k <= k_max, counted exactly by
    the symmetric `combinat.marked_unimodal_counts` table that `thm-1-5`
    reads, plus one partition of each size per k for the decorated odd-part
    configurations (odd parts and even decoration) that
    `combinat.even_part_parity_counts` counts."""
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
        n_max, k_max, y_basis=True), 18, 2,
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
                out.write(_lines("json", _VERIFY_SCHEMA, {}, ("status", "detail", *cell), [
                    ("pass" if detail is None else "fail", detail, *cell.values())]))
            else:
                label = " ".join(f"{key}={value}" for key, value in cell.items())
                if detail is None:
                    out.write(f"ok   {label}\n")
                else:
                    out.write(f"FAIL {label}: {detail}\n")
    passed = cells - failed
    if args.format == "json":
        out.write(_lines("json", _VERIFY_SCHEMA, {}, ("summary",), [
            ({"cells": cells, "passed": passed, "failed": failed},)]))
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
