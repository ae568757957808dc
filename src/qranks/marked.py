"""The k-marked Durfee and strongly unimodal symbols, their rank vectors and
their listings: one validator, :func:`_marked_violation`, for both families,
and one pool filler, :func:`_marked_rows`, fed by :func:`_chains`, a walk
that enters only branches that fit.  :mod:`qranks.combinat` counts these
symbols without building any, and loads this module on first use.
"""

from __future__ import annotations

from math import isqrt
from typing import NamedTuple

from ._record import Record
from .combinat import RankVector, _check_marked, _integers, _parts, _recomposed


class MarkedPart(NamedTuple):
    value: int
    mark: int

    def render(self) -> str:
        return f"{self.value}_{self.mark}"


def _canonical_row(row) -> tuple[MarkedPart, ...]:
    return tuple(sorted((MarkedPart(*_integers((v, m))) for v, m in row), reverse=True))


def _render_marked_row(row: tuple[MarkedPart, ...]) -> str:
    return " ".join(p.render() for p in row) if row else "-"


def _row_shape_violation(row: tuple[MarkedPart, ...], k: int, *,
                         strict_values: bool) -> str | None:
    """Rule: values (strictly) decreasing and marks nonincreasing along a row,
    which `_canonical_row` has sorted by descending value."""
    prev: MarkedPart | None = None
    for part in row:
        if part.value < 1:
            return f"nonpositive part value {part.value}"
        if not 1 <= part.mark <= k:
            return f"mark {part.mark} outside 1..{k}"
        if prev is not None:
            if strict_values and part.value >= prev.value:
                return f"row values not strictly decreasing at {part}"
            if part.mark > prev.mark:
                return f"row marks not nonincreasing at {part}"
        prev = part
    return None


def _marked_violation(top, bottom, last: int, k: int, strict: bool) -> str | None:
    """Why these rows do not make a k-marked Durfee symbol of side ``last``
    (with ``strict``, a unimodal symbol of peak ``last``), or None.

    With M_j the largest top-row value of mark j (j < k), M_k = last and
    M_0 = 1 - strict, a part of mark j lies in [M_(j-1) + strict, M_j], or
    [M_(k-1) + 1, peak - 1] for a unimodal mark k.
    """
    if k < 1:
        return "mark count k must be >= 1"
    if last < 1:
        return f"{'peak' if strict else 'side'} must be >= 1"
    for row in (top, bottom):
        reason = _row_shape_violation(row, k, strict_values=strict)
        if reason:
            return reason
        for part in row:
            if part.value > last - strict:
                return f"part {part} " + (f"not below peak {last}" if strict
                                          else f"exceeds side {last}")
    top_marks = {p.mark for p in top}
    for j in range(1, k):
        if j not in top_marks:
            return f"mark {j} missing from the top row"
    largest = [1 - strict] + [max(p.value for p in top if p.mark == j)
                              for j in range(1, k)] + [last]

    def interval(j: int) -> tuple[int, int]:
        return largest[j - 1] + strict, largest[j] - (strict and j == k)

    for part in bottom:
        lo, hi = interval(part.mark)
        if not lo <= part.value <= hi:
            return f"bottom part {part} outside [{lo}, {hi}]"
    return None


class _MarkedSymbol(Record):
    """The construction both marked symbol classes share: the rows are put
    in canonical order, ``last`` (the side or the peak) and k are read as
    integers, and :func:`_marked_violation` refuses what is not a symbol.
    Each class names its fields (top, bottom, its ``_last`` field, k), its
    ``_strict`` flag and its noun."""

    __slots__ = ()

    def _build(self, top, bottom, last: int, k: int) -> None:
        top, bottom = _canonical_row(top), _canonical_row(bottom)
        last, k = _integers((last, k))
        reason = _marked_violation(top, bottom, last, k, strict=self._strict)
        if reason:
            raise ValueError(f"invalid {k}-marked {self._noun} symbol: {reason}")
        for name, value in zip(self.__slots__, (top, bottom, last, k)):
            object.__setattr__(self, name, value)

    def render(self) -> str:
        return (f"({_render_marked_row(self.top)} ; "
                f"{_render_marked_row(self.bottom)})_{getattr(self, self._last)}")


class KMarkedDurfeeSymbol(_MarkedSymbol):
    """Durfee symbol whose parts carry marks 1..k.

    For k >= 2: in each row values are weakly decreasing and marks are
    nonincreasing; every mark 1..k-1 occurs in the top row; and with M_j the
    largest top-row value of mark j (M_k = side), bottom values of mark 1
    lie in [1, M_1], of mark j in [M_(j-1), M_j], and of mark k in
    [M_(k-1), side].
    """

    __slots__ = ("top", "bottom", "side", "k")
    _last, _strict, _noun = "side", False, "Durfee"

    def __init__(self, top, bottom, side: int, k: int):
        self._build(top, bottom, side, k)

    @property
    def size(self) -> int:
        return self.side * self.side + sum(p.value for p in self.top + self.bottom)


class KMarkedSUSymbol(_MarkedSymbol):
    """Strongly unimodal symbol whose parts carry marks 1..k.

    For k >= 2: in each row values are strictly decreasing and marks are
    nonincreasing; every mark 1..k-1 occurs in the top row; and with M_j the
    largest top-row value of mark j (M_0 = 0, M_k = peak), bottom values of
    mark j < k lie in [M_(j-1)+1, M_j] while those of mark k lie in
    [M_(k-1)+1, peak-1].  The same intervals hold on the top row as a
    consequence of the ordering rules.
    """

    __slots__ = ("top", "bottom", "peak", "k")
    _last, _strict, _noun = "peak", True, "unimodal"

    def __init__(self, top, bottom, peak: int, k: int):
        self._build(top, bottom, peak, k)

    @property
    def size(self) -> int:
        return self.peak + sum(p.value for p in self.top + self.bottom)


def durfee_ranks(sym: _MarkedSymbol) -> RankVector:
    """The k rank statistics of a k-marked Durfee or unimodal symbol: the
    mark-j top length minus bottom length, minus 1 except for mark k.  The
    frozen symbol validated its rows when built."""
    k = sym.k
    lengths = [0] * (k + 1)
    for p in sym.top:
        lengths[p.mark] += 1
    for p in sym.bottom:
        lengths[p.mark] -= 1
    return tuple(lengths[j] - (j < k) for j in range(1, k + 1))


# both families read their ranks off their rows in the same way
unimodal_ranks = durfee_ranks


def _chains(count: int, below: int, room: int, strict: bool):
    """Ascending (with ``strict``, strictly) tuples of ``count`` values in
    [1, below] summing to at most ``room``; a value is tried only if the
    smaller ones still fit under it, so every branch ends in a tuple."""
    if count == 0:
        yield ()
        return
    rest = count - 1
    least = rest * (rest + 1) // 2 if strict else rest  # the rest's least sum
    for top in range(count if strict else 1, min(below, room - least) + 1):
        for chain in _chains(rest, top - strict, room - top, strict):
            yield chain + (top,)


def _marked_rows(n: int, k: int, strict: bool):
    """Yield (top, bottom, M_k) for every k-marked symbol of size n, rows of
    (value, mark) pairs that the caller's frozen class validates; the only
    code that assigns marks.

    A symbol is its profile M_1..M_k (M_j the largest mark-j top part for
    j < k, M_k the side or peak) plus free parts, which :func:`_parts` fills
    into (mark, lo, hi) pools, top row then bottom row.  Durfee symbols have
    M_1 <= ... <= side, cost side^2 plus their parts, and draw mark j from
    [M_(j-1), M_j] (M_0 = 1).  Unimodal ones (``strict``) have M_1 < ... <
    M_k = peak and draw top mark j from [M_(j-1)+1, M_j-1], bottom mark j
    from [M_(j-1)+1, M_j] or, for j = k, [M_(k-1)+1, peak-1] (M_0 = 0).
    The chain M_1..M_(k-1) is an ascending tuple from :func:`_chains`
    that fits in the room the side or peak leaves.
    """
    marks = range(1, k + 1)
    for last in range(1, (n if strict else isqrt(n)) + 1):
        room = n - (last if strict else last * last)
        for below in _chains(k - 1, last - strict, room, strict):
            budget = room - sum(below)
            profile = below + (last,)
            lows = (1,) + tuple(m + strict for m in below)
            pools = [(j, lo, hi - strict) for j, lo, hi in zip(marks, lows, profile)]
            pools += [(j, lo, hi - (strict and j == k))
                      for j, lo, hi in zip(marks, lows, profile)]
            forced = tuple(zip(below, range(1, k)))
            # list every pool but the last once, pruned to the budget; the
            # last pool takes exactly what is left
            *head, (mark, lo, hi) = pools
            partial = [((), budget)]
            for j, lo_j, hi_j in head:
                listed = [(s, tuple((v, j) for v in values))
                          for s in range(budget + 1)
                          for values in _parts(s, hi_j, lo_j, strict)]
                partial = [(chosen + (piece,), left - s)
                           for chosen, left in partial
                           for s, piece in listed if s <= left]
            for chosen, left in partial:
                for values in _parts(left, hi, lo, strict):
                    filled = chosen + (tuple((v, mark) for v in values),)
                    yield forced + sum(filled[:k], ()), sum(filled[k:], ()), last


def enumerate_marked_durfee(n: int, k: int) -> list[KMarkedDurfeeSymbol]:
    """All valid k-marked Durfee symbols of n, built by :func:`_marked_rows`.

    For k=1 the plain symbols appear in partition (descending lex) order
    with all marks 1; for k >= 2 the list is sorted by (side, top, bottom).
    """
    _check_marked(n, k)
    symbols = [KMarkedDurfeeSymbol(top, bottom, side, k)
               for top, bottom, side in _marked_rows(n, k, strict=False)]
    if k == 1:
        symbols.sort(key=lambda s: _recomposed(
            [p.value for p in s.top], [p.value for p in s.bottom], s.side), reverse=True)
    else:
        symbols.sort(key=lambda s: (s.side, s.top, s.bottom))
    return symbols


def enumerate_marked_unimodal(n: int, k: int) -> list[KMarkedSUSymbol]:
    """All valid k-marked strongly unimodal symbols of n, built by
    :func:`_marked_rows`.

    k=1 degenerates to the plain symbols (all marks 1) in the plain
    canonical order (peak descending, then rows ascending); for k >= 2 the
    list is sorted by (peak, top, bottom).  The smallest n with any symbol
    is k(k+1)/2.
    """
    _check_marked(n, k)
    symbols = [KMarkedSUSymbol(top, bottom, peak, k)
               for top, bottom, peak in _marked_rows(n, k, strict=True)]
    symbols.sort(key=lambda s: (s.peak if k > 1 else -s.peak, s.top, s.bottom))
    return symbols
