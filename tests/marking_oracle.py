"""The definitional filter, kept as the one reference oracle for the marked
symbol enumerators in :mod:`qranks.combinat`.

It marks every plain symbol in every nonincreasing way and keeps the
markings the frozen constructor accepts, then puts them in the documented
order: the plain order at k=1, else sorted by (side or peak, top, bottom).
It shares the plain enumerators and the validators with the library, but
not the profile-and-pool construction it checks.
"""

from itertools import combinations_with_replacement

from qranks.combinat import (
    KMarkedDurfeeSymbol,
    KMarkedSUSymbol,
    durfee_decompose,
    enumerate_partitions,
    enumerate_su_sequences,
    su_symbol,
)


def _accepted_markings(cls, plain_symbols, k):
    marks = range(k, 0, -1)  # nonincreasing mark sequences, largest first
    symbols = []
    for top, bottom, last in plain_symbols:
        bottoms = [tuple(zip(bottom, bottom_marks))
                   for bottom_marks in combinations_with_replacement(marks, len(bottom))]
        for top_marks in combinations_with_replacement(marks, len(top)):
            marked_top = tuple(zip(top, top_marks))
            for marked_bottom in bottoms:
                try:
                    symbols.append(cls(marked_top, marked_bottom, last, k))
                except ValueError:
                    pass
    return symbols


def durfee_by_filter(n, k):
    """k-marked Durfee symbols of n: partition order at k=1, else sorted by
    (side, top, bottom)."""
    plain = map(durfee_decompose, enumerate_partitions(n))
    symbols = _accepted_markings(
        KMarkedDurfeeSymbol,
        ((s.top.parts, s.bottom.parts, s.side) for s in plain), k)
    if k > 1:
        symbols.sort(key=lambda s: (s.side, s.top, s.bottom))
    return symbols


def unimodal_by_filter(n, k):
    """k-marked strongly unimodal symbols of n: plain order at k=1, else
    sorted by (peak, top, bottom)."""
    plain = map(su_symbol, enumerate_su_sequences(n))
    symbols = _accepted_markings(
        KMarkedSUSymbol,
        ((s.top.parts, s.bottom.parts, s.peak) for s in plain), k)
    if k > 1:
        symbols.sort(key=lambda s: (s.peak, s.top, s.bottom))
    return symbols


def self_conjugate_by_filter(n, k):
    """Number of k-marked unimodal symbols of n with identical rows."""
    return sum(1 for s in unimodal_by_filter(n, k) if s.top == s.bottom)
