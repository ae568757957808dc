"""Reference oracles for the marked objects of :mod:`qranks.combinat`.

The definitional filter is the one reference for the marked symbol
enumerators and for the self-conjugate count.  It marks every plain symbol
in every nonincreasing way and keeps the markings the frozen constructor
accepts, then puts them in the documented order: the plain order at k=1,
else sorted by (side or peak, top, bottom).  It shares the plain
enumerators and the validators with the library, but not the
profile-and-pool construction it checks.

The marking weight reaches larger n and k for the self-conjugate count:
it lists the plain symmetric symbols and weights each row of L parts by
its C(L, k-1) markings, where the library counts them with a knapsack
over the peaks.

The decoration recursion is the reference for
:func:`qranks.combinat.count_even_part_parity`: it lists every marked even
decoration of every complete odd partition one by one, where the library
counts them in one table grown per number of odd parts.
"""

from itertools import combinations_with_replacement
from math import comb

from qranks.combinat import (
    KMarkedDurfeeSymbol,
    KMarkedSUSymbol,
    durfee_decompose,
    enumerate_complete_odd_partitions,
    enumerate_partitions,
    enumerate_self_conjugate_symbols,
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


def self_conjugate_by_markings(n, k):
    """The same count, with each listed plain symmetric symbol weighted by
    its C(L, k-1) markings (L the parts of its row)."""
    return sum(comb(len(s.top), k - 1) for s in enumerate_self_conjugate_symbols(n))


def even_part_parity_by_recursion(n, k):
    """(odd-many, even-many) even parts over the decorated odd-part
    configurations of n, each decoration listed by :func:`_even_decorations`."""
    odd_total = even_total = 0
    for odd_sum in range(n + 1):
        for p in enumerate_complete_odd_partitions(odd_sum):
            if len(p) >= k:
                with_odd, with_even = _even_decorations(n - odd_sum, k - 1, 2 * len(p))
                odd_total += with_odd
                even_total += with_even
    return odd_total, even_total


def _even_decorations(total, slots, limit):
    """Count choices of ``slots`` distinct even values below ``limit`` with
    multiplicities >= 1 summing to ``total``, split by the parity of the
    number of parts: (odd-many parts, even-many parts)."""
    tallies = [0, 0]

    def rec(remaining, smallest, slots_left, part_count):
        if slots_left == 0:
            if remaining == 0:
                tallies[part_count % 2] += 1
            return
        value = smallest
        while value < limit:
            # the other slots take at least value+2, value+4, ... once each
            min_rest = (slots_left - 1) * (value + slots_left)
            if value + min_rest > remaining:
                break
            copies = 1
            while value * copies + min_rest <= remaining:
                rec(remaining - value * copies, value + 2, slots_left - 1,
                    part_count + copies)
                copies += 1
            value += 2

    rec(total, 2, slots, 0)
    return tallies[1], tallies[0]
