"""Spans and counters around the public functions of each qranks layer.

The wrappers are installed from outside the package: the program is not
changed.  A wrapped call records a span (calls, total time, self time) and,
where the layer has one, a work count computed outside the timed region.
Self time is the span's duration minus the time covered by wrapped calls made
inside it, including their bookkeeping, so the self times of all spans add up
to the work done in traced code and the bookkeeping belongs to no layer.

A function is patched under every name it is looked up by: ``genfun`` imports
``pochhammer`` by name and ``cli`` imports ``specialize_*`` by name, so each
``qranks`` module attribute that is the original function is replaced.
"""

from __future__ import annotations

import inspect
import sys
import time

_clock = time.perf_counter

# span name -> TruncatedSeries method
SERIES_METHODS = {
    "series.mul": "__mul__",
    "series.add": "__add__",
    "series.inverse": "inverse",
}
GENFUN = (
    "partition_rank_series",
    "marked_durfee_rank_series",
    "marked_unimodal_rank_series",
    "self_conjugate_series",
    "mock_theta_psi",
    "even_part_parity_series",
)
CENSUS = (
    "rank_census_marked_unimodal",
    "rank_census_marked_durfee",
    "count_self_conjugate",
    "count_complete_odd_partitions",
    "count_even_part_parity",
)
ENUMERATORS = (
    "enumerate_marked_unimodal",
    "enumerate_marked_durfee",
    "enumerate_partitions",
    "enumerate_su_sequences",
    "enumerate_self_conjugate_symbols",
    "enumerate_complete_odd_partitions",
)
# the bijection round trips of ``verify --suite bijections`` share one span
BIJECTIONS = (
    "durfee_decompose",
    "durfee_recompose",
    "su_symbol",
    "su_sequence",
    "self_conjugate_to_odd_parts",
    "odd_parts_to_self_conjugate",
)
COMBINAT = CENSUS + ENUMERATORS + ("bijection",)
SPECIALIZE = ("exact", "numeric")

SPAN_NAMES = (
    tuple(SERIES_METHODS) + ("series.pochhammer",)
    + tuple(f"genfun.{name}" for name in GENFUN)
    + tuple(f"combinat.{name}" for name in COMBINAT)
    + tuple(f"specialize.{name}" for name in SPECIALIZE)
    + ("cli.main",)
)
COUNTER_NAMES = (
    "series.mul.term_pairs",
    "series.pochhammer.factors",
    "series.coeff_objects",
    "combinat.census_objects",
    "specialize.terms",
)
COUNTER_NAMES += tuple(f"genfun.{name}.out_terms" for name in GENFUN)


class Tracer:
    """In-memory span statistics for one process."""

    def __init__(self):
        self.spans = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}  # calls, total, self
        self.counts = dict.fromkeys(COUNTER_NAMES, 0)
        self._stack: list[list[float]] = []  # per open span: time covered by children

    def _timed(self, stat, fn, args, kwargs, call):
        """Run fn as one span slice; ``call`` says whether it is a new call."""
        frame = [0.0]
        self._stack.append(frame)
        start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = _clock() - start
            self._stack.pop()
            stat[0] += call
            stat[1] += elapsed
            stat[2] += elapsed - frame[0]

    def wrap(self, name, fn, before=None, after=None):
        """Wrap fn in the span ``name``; before(args) and after(result) count work."""
        stat = self.spans[name]
        stack = self._stack

        if inspect.isgeneratorfunction(fn):
            # the work happens while the caller iterates: time every step
            def wrapper(*args, **kwargs):
                outer = _clock()
                it = fn(*args, **kwargs)
                stat[0] += 1
                if stack:
                    stack[-1][0] += _clock() - outer
                while True:
                    outer = _clock()
                    try:
                        item = self._timed(stat, next, (it,), {}, 0)
                    except StopIteration:
                        return
                    finally:
                        if stack:
                            stack[-1][0] += _clock() - outer
                    yield item
        else:
            def wrapper(*args, **kwargs):
                outer = _clock()
                try:
                    if before is not None:
                        before(args, kwargs)
                    result = self._timed(stat, fn, args, kwargs, 1)
                    if after is not None:
                        after(result)
                    return result
                finally:
                    if stack:
                        stack[-1][0] += _clock() - outer

        return wrapper

    def count(self, name):
        def add(value):
            self.counts[name] += value
        return add

    def metrics(self) -> dict:
        """Flat name -> value map of every span and counter."""
        out = {}
        for name, (calls, total, self_s) in self.spans.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.total_s"] = total
            out[f"{name}.self_s"] = self_s
        out.update(self.counts)
        return out


def _term_count(series) -> int:
    return sum(len(c.terms) for c in series.coeffs)


def _term_pairs(a, b) -> int:
    """Sum over i + j <= N of |a_i| * |b_j|: the monomial products a
    schoolbook multiplication of the operands forms."""
    n_max = min(a.truncation_order, b.truncation_order)
    prefix = [0]
    for c in b.coeffs[: n_max + 1]:
        prefix.append(prefix[-1] + len(c.terms))
    return sum(len(c.terms) * prefix[n_max + 1 - i]
               for i, c in enumerate(a.coeffs[: n_max + 1]))


def _factor_count(args, kwargs) -> int:
    """Factors that pochhammer(spec, count, n_max, var_count) multiplies in."""
    spec, count, n_max = args[0], args[1], args[2]
    if spec.q_offset > n_max:
        return 0
    nontrivial = (n_max - spec.q_offset) // spec.q_step + 1
    return nontrivial if count is None else min(count, nontrivial)


def _census_total(result) -> int:
    if isinstance(result, dict):
        return sum(result.values())
    if isinstance(result, tuple):
        return sum(result)
    return result


def _replace_everywhere(original, replacement) -> None:
    """Point every qranks module attribute bound to ``original`` at
    ``replacement``."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "qranks" or mod_name.startswith("qranks.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer of the imported qranks."""
    import qranks.cli
    from qranks import combinat, genfun, series, specialize

    ts = series.TruncatedSeries
    pairs = tracer.count("series.mul.term_pairs")
    for name, method in SERIES_METHODS.items():
        before = None
        if name == "series.mul":
            def before(args, kwargs):
                pairs(_term_pairs(args[0], args[1]))
        setattr(ts, method, tracer.wrap(name, vars(ts)[method], before))

    lc = series.LaurentCoefficient
    init = lc.__init__
    objects = tracer.counts

    def counting_init(self, *args, **kwargs):
        objects["series.coeff_objects"] += 1
        init(self, *args, **kwargs)

    lc.__init__ = counting_init

    factors = tracer.count("series.pochhammer.factors")
    _replace_everywhere(series.pochhammer, tracer.wrap(
        "series.pochhammer", series.pochhammer,
        before=lambda args, kwargs: factors(_factor_count(args, kwargs))))

    for name in GENFUN:
        out_terms = tracer.count(f"genfun.{name}.out_terms")
        fn = getattr(genfun, name)
        _replace_everywhere(fn, tracer.wrap(
            f"genfun.{name}", fn, after=lambda s, add=out_terms: add(_term_count(s))))

    census = tracer.count("combinat.census_objects")
    for name in CENSUS:
        fn = getattr(combinat, name)
        _replace_everywhere(fn, tracer.wrap(
            f"combinat.{name}", fn, after=lambda r: census(_census_total(r))))
    for name in ENUMERATORS:
        fn = getattr(combinat, name)
        _replace_everywhere(fn, tracer.wrap(f"combinat.{name}", fn))
    for name in BIJECTIONS:
        fn = getattr(combinat, name)
        _replace_everywhere(fn, tracer.wrap("combinat.bijection", fn))

    terms = tracer.count("specialize.terms")
    for name in SPECIALIZE:
        fn = getattr(specialize, f"specialize_{name}")
        _replace_everywhere(fn, tracer.wrap(
            f"specialize.{name}", fn, before=lambda args, kwargs: terms(_term_count(args[0]))))

    _replace_everywhere(qranks.cli.main, tracer.wrap("cli.main", qranks.cli.main))
