"""Partitions, unimodal sequences, their two-row symbols, and rank statistics.

The objects here come in unmarked and marked flavours.  An unmarked symbol
records what sits left/right of a peak (or above/below a Durfee square); a
k-marked symbol additionally tags every part with a mark from 1..k subject
to ordering and interval rules, which is what makes k independent rank
statistics possible.

All enumerations are exhaustive, duplicate-free and returned in a documented
canonical order so they can serve as oracles for the generating functions in
:mod:`qranks.genfun`.  Everything is exact integer combinatorics.

One parts enumerator, :func:`_parts`, lists every row and partition in one
mode (parts between two bounds, weak or strict), and one pool filler,
:func:`_marked_rows`, builds the marked symbols of both families, which
:func:`_marked_violation` validates; it takes each chain of largest marked
parts from :func:`_chains`, a walk that enters only branches that fit.  No
census or count builds one: two walks up the part values,
:func:`marked_durfee_censuses` and :func:`marked_unimodal_censuses`, count
them by size and rank vector (an open Durfee mark only at the sizes that
leave room for its forced parts) and share no code with the listing, one
knapsack over the peaks, :func:`marked_unimodal_counts`, counts the marked
unimodal and symmetric symbols, and two integer tables grown per number of
odd parts, :func:`even_part_parity_counts`, weigh each even part t = +1 or
t = -1 to count the decorated odd-part configurations by parity.  Nothing
is cached, and nothing is shared with :mod:`qranks.genfun`.
"""

from __future__ import annotations

import operator
from collections import Counter
from math import isqrt
from typing import Iterator, NamedTuple

from ._record import Record

RankVector = tuple[int, ...]


def _integers(*values) -> tuple[int, ...]:
    """``values`` as ints, read by :func:`operator.index`: the one integer
    check of every part, mark, side, peak and k.  Anything it refuses (a
    float, a string) is a ValueError that names the value."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        for value in values:
            if not hasattr(type(value), "__index__"):
                raise ValueError(f"not an integer: {value!r}") from None
        raise


# ----------------------------------------------------------------------
# partitions
# ----------------------------------------------------------------------


class Partition(Record):
    """Weakly decreasing positive parts; the empty tuple is the partition of 0."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[int, ...] = ()):
        parts = _integers(*parts)
        prev = None
        for p in parts:
            if p < 1:
                raise ValueError(f"nonpositive part {p}")
            if prev is not None and p > prev:
                raise ValueError(f"parts not weakly decreasing: {parts}")
            prev = p
        object.__setattr__(self, "parts", parts)

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def render(self) -> str:
        return "+".join(str(p) for p in self.parts) if self.parts else "(empty)"


def _parts(n: int, largest: int, smallest: int = 1,
           strict: bool = False) -> Iterator[tuple[int, ...]]:
    """Weakly (with ``strict``, strictly) decreasing tuples of parts in
    [smallest, largest] summing to n, in descending lexicographic order."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), smallest - 1, -1):
        for tail in _parts(n - first, first - strict, smallest, strict):
            yield (first,) + tail


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """All partitions of n, each once, in descending lexicographic order."""
    if n < 0:
        raise ValueError("n must be >= 0")
    for parts in _parts(n, n):
        yield Partition(parts)


def dyson_rank(p: Partition) -> int:
    """Largest part minus number of parts.  Undefined for the empty partition."""
    if not p.parts:
        raise ValueError("rank undefined for the empty partition")
    return p.parts[0] - len(p.parts)


def rank_census_partitions(n: int) -> dict[int, int]:
    """Map rank -> number of partitions of n with that rank (n >= 1)."""
    if n < 1:
        raise ValueError("census defined for n >= 1")
    return dict(Counter(map(dyson_rank, enumerate_partitions(n))))


# ----------------------------------------------------------------------
# Durfee symbols
# ----------------------------------------------------------------------


class DurfeeSymbol(Record):
    """Column lengths right of the Durfee square (top) and row lengths below
    it (bottom), subscripted by the square's side."""

    __slots__ = ("top", "bottom", "side")

    def __init__(self, top: Partition, bottom: Partition, side: int):
        side, = _integers(side)
        if side < 1:
            raise ValueError("side must be >= 1")
        for row in (top, bottom):
            for v in row.parts:
                if v > side:
                    raise ValueError(f"part {v} exceeds side {side}")
        object.__setattr__(self, "top", top)
        object.__setattr__(self, "bottom", bottom)
        object.__setattr__(self, "side", side)

    @property
    def size(self) -> int:
        return self.side * self.side + self.top.size + self.bottom.size

    def render(self) -> str:
        return f"({self.top.render()} ; {self.bottom.render()})_{self.side}"


def durfee_decompose(p: Partition) -> DurfeeSymbol:
    """Split a nonempty partition into its Durfee square side and symbol rows."""
    if not p.parts:
        raise ValueError("no Durfee square in the empty partition")
    parts = p.parts
    side = 0
    for i, v in enumerate(parts, start=1):
        if v >= i:
            side = i
        else:
            break
    top = tuple(
        sum(1 for i in range(side) if parts[i] >= c)
        for c in range(side + 1, parts[0] + 1)
    )
    bottom = parts[side:]
    return DurfeeSymbol(Partition(top), Partition(bottom), side)


def durfee_recompose(sym: DurfeeSymbol) -> Partition:
    """Inverse of :func:`durfee_decompose`."""
    return Partition(_recomposed(sym.top.parts, sym.bottom.parts, sym.side))


def _recomposed(top, bottom, side: int) -> tuple[int, ...]:
    rows = [side + sum(1 for a in top if a >= i) for i in range(1, side + 1)]
    return tuple(rows) + tuple(bottom)


# ----------------------------------------------------------------------
# strongly unimodal sequences and symbols
# ----------------------------------------------------------------------


class SUSequence(Record):
    """Positive parts strictly increasing to a unique maximum, then strictly
    decreasing."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[int, ...]):
        parts = _integers(*parts)
        if not parts:
            raise ValueError("sequence must be nonempty")
        if any(v < 1 for v in parts):
            raise ValueError("parts must be positive")
        peak = parts.index(max(parts))
        for i in range(peak):
            if parts[i] >= parts[i + 1]:
                raise ValueError(f"not strictly increasing before the peak: {parts}")
        for i in range(peak, len(parts) - 1):
            if parts[i] <= parts[i + 1]:
                raise ValueError(f"not strictly decreasing after the peak: {parts}")
        object.__setattr__(self, "parts", parts)

    @property
    def peak_index(self) -> int:
        return self.parts.index(max(self.parts))

    @property
    def size(self) -> int:
        return sum(self.parts)

    def render(self) -> str:
        return ",".join(str(p) for p in self.parts)


class SUSymbol(Record):
    """Parts right of the peak (top) and left of it (bottom), under the peak.

    Rows are strictly decreasing and every row part is smaller than the peak.
    """

    __slots__ = ("top", "bottom", "peak")

    def __init__(self, top: Partition, bottom: Partition, peak: int):
        peak, = _integers(peak)
        if peak < 1:
            raise ValueError("peak must be >= 1")
        for row in (top, bottom):
            prev = None
            for v in row.parts:
                if v >= peak:
                    raise ValueError(f"row part {v} not below peak {peak}")
                if prev is not None and v >= prev:
                    raise ValueError(f"row not strictly decreasing: {row.parts}")
                prev = v
        object.__setattr__(self, "top", top)
        object.__setattr__(self, "bottom", bottom)
        object.__setattr__(self, "peak", peak)

    @property
    def size(self) -> int:
        return self.peak + self.top.size + self.bottom.size

    def render(self) -> str:
        return f"({self.top.render()} ; {self.bottom.render()})_{self.peak}"


def su_symbol(seq: SUSequence) -> SUSymbol:
    """Record the parts after the peak (top row) and before it (bottom row)."""
    i = seq.peak_index
    top = seq.parts[i + 1:]
    bottom = tuple(reversed(seq.parts[:i]))
    return SUSymbol(Partition(top), Partition(bottom), seq.parts[i])


def su_sequence(sym: SUSymbol) -> SUSequence:
    """Inverse of :func:`su_symbol`: bottom ascending, peak, top descending."""
    parts = tuple(reversed(sym.bottom.parts)) + (sym.peak,) + sym.top.parts
    return SUSequence(parts)


def enumerate_su_sequences(n: int) -> Iterator[SUSequence]:
    """All strongly unimodal sequences of size n, in canonical symbol order
    (peak descending, then top and bottom rows ascending)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    # canonical order: peak descending, then rows ascending lexicographically
    rows = sorted((-peak, top, bottom) for peak in range(1, n + 1)
                  for top_size in range(n - peak + 1)
                  for top in _parts(top_size, peak - 1, strict=True)
                  for bottom in _parts(n - peak - top_size, peak - 1, strict=True))
    for minus_peak, top, bottom in rows:
        yield SUSequence(bottom[::-1] + (-minus_peak,) + top)


def su_rank(seq: SUSequence) -> int:
    """Number of terms right of the peak minus number of terms left of it."""
    i = seq.peak_index
    return (len(seq.parts) - 1 - i) - i


def rank_census_unimodal(n: int) -> dict[int, int]:
    """Map rank -> number of strongly unimodal sequences of size n."""
    return dict(Counter(map(su_rank, enumerate_su_sequences(n))))


# ----------------------------------------------------------------------
# marked parts and k-marked symbols
# ----------------------------------------------------------------------


class MarkedPart(NamedTuple):
    value: int
    mark: int

    def render(self) -> str:
        return f"{self.value}_{self.mark}"


def _canonical_row(row) -> tuple[MarkedPart, ...]:
    return tuple(sorted((MarkedPart(*_integers(v, m)) for v, m in row), reverse=True))


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
        last, k = _integers(last, k)
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



def _ranks_from_rows(top, bottom, k: int) -> RankVector:
    top_len = [0] * (k + 1)
    bottom_len = [0] * (k + 1)
    for p in top:
        top_len[p.mark] += 1
    for p in bottom:
        bottom_len[p.mark] += 1
    ranks = [top_len[j] - bottom_len[j] - 1 for j in range(1, k)]
    ranks.append(top_len[k] - bottom_len[k])
    return tuple(ranks)


def durfee_ranks(sym: KMarkedDurfeeSymbol) -> RankVector:
    """The k rank statistics (mark-j top length minus bottom length, minus 1
    except for mark k).  The frozen symbol validated its rows when built."""
    return _ranks_from_rows(sym.top, sym.bottom, sym.k)


def unimodal_ranks(sym: KMarkedSUSymbol) -> RankVector:
    """The k rank statistics of a k-marked unimodal symbol, read from rows
    the frozen symbol validated when built."""
    return _ranks_from_rows(sym.top, sym.bottom, sym.k)


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


def _moved(target: dict, tally: dict, step: int | None) -> None:
    """Add ``tally`` to ``target``, last rank moved by ``step`` (None: 0 appended)."""
    for ranks, count in tally.items():
        key = ranks + (0,) if step is None else ranks[:-1] + (ranks[-1] + step,)
        target[key] = target.get(key, 0) + count


def _walk_start(n_max: int, k: int, least: int):
    """Empty censuses and the blocks of a value walk: blocks[j - 1][s] maps
    ranks r_1..r_j to the count of symbols with mark j open and rows of size
    s.  Mark 1 opens on empty rows; None, with no row built, below least."""
    _check_marked(n_max, k, least=0, name="n_max")
    censuses = [Counter() for _ in range(n_max + 1)]
    if least > n_max:
        return censuses, None
    blocks = [[{} for _ in range(n_max + 1)] for _ in range(k)]
    blocks[0][0][(0,)] = 1
    return censuses, blocks


def marked_durfee_censuses(n_max: int, k: int) -> list[dict[RankVector, int]]:
    """censuses[n]: rank vector -> number of k-marked Durfee symbols of n,
    keys ascending, for every n <= n_max, from one walk up the part values v.

    At v, mark j takes any number of bottom parts v (- 1 to rank j) and of
    free top parts v (+ 1), then may close with its forced top part M_j = v,
    which adds no rank and opens mark j + 1 at the same v.  Mark k is
    emitted with side v.  Mark j at v still owes M_j..M_(k-1) >= v and the
    square v^2, so its block walks only the sizes that leave room for them.
    """
    censuses, blocks = _walk_start(n_max, k, least=k)
    for v in range(1, isqrt(n_max) + 1) if blocks else ():
        for j, block in enumerate(blocks, 1):
            room = n_max - v * v - (k - j) * v
            for step in (-1, 1):  # s ascending: v joins as often as it fits
                for s in range(v, room + 1):
                    _moved(block[s], block[s - v], step)
            if j < k:  # block j + 1 has v more room
                for s in range(room + 1):
                    _moved(blocks[j][s + v], block[s], None)
        for s in range(n_max - v * v + 1):
            censuses[s + v * v].update(blocks[-1][s])
    return [dict(sorted(census.items())) for census in censuses]


def marked_unimodal_censuses(n_max: int, k: int) -> list[dict[RankVector, int]]:
    """censuses[n]: rank vector -> number of k-marked strongly unimodal
    symbols of n, keys ascending, for every n <= n_max, from one walk up the
    part values v.

    At v, mark k is first emitted with peak v.  Then mark j = k, ..., 1
    takes at most one bottom part v (- 1 to rank j) and at most one top part
    v, free (+ 1) or its forced M_j (j < k), which opens mark j + 1 above v.
    """
    censuses, blocks = _walk_start(n_max, k, least=k * (k + 1) // 2)
    for v in range(1, n_max + 1) if blocks else ():
        for s in range(n_max - v + 1):
            censuses[s + v].update(blocks[-1][s])
        room = n_max - v - 1  # a larger peak is still to come
        for j in range(k, 0, -1):
            block = blocks[j - 1]
            for s in range(room - v, -1, -1):  # s descending: v joins at most once
                _moved(block[s + v], block[s], -1)
            for s in range(room - v, -1, -1):
                _moved(block[s + v], block[s], 1)
                if j < k:
                    _moved(blocks[j][s + v], block[s], None)
    return [dict(sorted(census.items())) for census in censuses]


def _check_marked(n: int, k: int, least: int = 1, name: str = "n") -> None:
    """The size and mark-count checks of every marked-symbol listing and count."""
    if n < least:
        raise ValueError(f"{name} must be >= {least}")
    if k < 1:
        raise ValueError("k must be >= 1")


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


def rank_census_marked_unimodal(n: int, k: int) -> dict[RankVector, int]:
    """Map rank vector -> number of k-marked unimodal symbols of n, in ascending
    key order: size n of the value walk :func:`marked_unimodal_censuses`."""
    _check_marked(n, k)
    return marked_unimodal_censuses(n, k)[n]


def marked_unimodal_counts(n_max: int, k_max: int,
                           symmetric: bool = False) -> list[list[int]]:
    """counts[k - 1][n]: the k-marked strongly unimodal symbols of size n,
    [z^(k-1) q^n] of the sum over peaks of q^peak prod_(p<peak)
    (1+q^p)(1+(1+z)q^p).  A value below the peak is in the bottom row or
    not (1+q^p), and in the top row, free or as one of the marked
    M_1 < ... < M_(k-1), or not (1+(1+z)q^p).  With ``symmetric``, the
    symbols whose two rows coincide, where the marks of the one row obey
    the interval rules on both: prod_(p<peak) (1+(1+z)q^(2p)).

    The rows stop at the first k whose counts are all 0, which then serves
    every larger k: a k-marked symbol has size at least 1+2+...+k."""
    _check_marked(n_max, k_max, least=0, name="n_max")
    marks = min(k_max, (isqrt(8 * n_max + 1) - 1) // 2 + 1)
    table = [[1] + [0] * n_max] + [[0] * (n_max + 1) for _ in range(marks - 1)]
    counts = [[0] * (n_max + 1) for _ in range(marks)]
    for peak in range(1, n_max + 1):
        for total, row in zip(counts, table):
            total[peak:] = map(operator.add, total[peak:], row)
        # 0/1 knapsack steps, c descending so that table[c - 1] is the old
        # row; sizes above `top` are left stale, as no larger peak reads them
        top = n_max - peak
        for value, marked in ((2 * peak, True),) if symmetric else (
                (peak, False), (peak, True)):
            for c in range(marks - 1, -1, -1):
                row, added = table[c], table[c][:top + 1 - value]
                if marked and c:
                    added = map(operator.add, added, table[c - 1])
                row[value:top + 1] = map(operator.add, row[value:top + 1], added)
    return counts


def rank_census_marked_durfee(n: int, k: int) -> dict[RankVector, int]:
    """Map rank vector -> number of k-marked Durfee symbols of n, in ascending
    key order: size n of the value walk :func:`marked_durfee_censuses`."""
    _check_marked(n, k)
    return marked_durfee_censuses(n, k)[n]


# ----------------------------------------------------------------------
# self-conjugate symbols and odd-part partitions
# ----------------------------------------------------------------------


def count_self_conjugate(n: int, k: int) -> int:
    """Number of k-marked unimodal symbols of n whose rows are identical:
    the symmetric table of :func:`marked_unimodal_counts`, in which a row of
    L parts takes C(L, k-1) markings.  No symbol is built."""
    _check_marked(n, k)
    return marked_unimodal_counts(n, k, symmetric=True)[-1][n]


def enumerate_self_conjugate_symbols(n: int) -> list[SUSymbol]:
    """Plain unimodal symbols of n whose two rows coincide, in the canonical
    plain-symbol order."""
    if n < 1:
        raise ValueError("n must be >= 1")
    symbols = []
    for peak in range(n, 0, -2):
        for values in _parts((n - peak) // 2, peak - 1, strict=True):
            row = Partition(values)
            symbols.append(SUSymbol(row, row, peak))
    symbols.sort(key=lambda s: (-s.peak, s.top.parts, s.bottom.parts))
    return symbols


def count_complete_odd_partitions(n: int) -> int:
    """Partitions of n into odd parts where every odd value below the largest
    part also occurs."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return sum(1 for _ in _complete_odd_partitions(n))


def enumerate_complete_odd_partitions(n: int) -> list[Partition]:
    """The partitions behind :func:`count_complete_odd_partitions`, in
    descending lexicographic order."""
    return [Partition(parts) for parts in _complete_odd_partitions(n)]


# kept off `_parts`, which the self-conjugate listing paired with it in `bijections` uses
def _complete_odd_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """Yield the parts of every complete odd partition of n in descending
    lexicographic order: largest value first, then the most copies of each
    value first.  The empty tuple covers n = 0."""
    if n == 0:
        yield ()
        return

    def rec(j: int, remaining: int) -> Iterator[tuple[int, ...]]:
        # take value 2j+1 count times; values 1, 3, .., 2j-1 still need one
        # copy each, which costs j*j, so the 1s take exactly what is left
        if j == 0:
            yield (1,) * remaining
            return
        value = 2 * j + 1
        for count in range((remaining - j * j) // value, 0, -1):
            for rest in rec(j - 1, remaining - value * count):
                yield (value,) * count + rest

    # at most isqrt(n) distinct odd values, as 1 + 3 + ... + (2v-1) = v^2
    for j in range(isqrt(n) - 1, -1, -1):
        yield from rec(j, n)


def self_conjugate_to_odd_parts(sym: SUSymbol) -> Partition:
    """Read the diagram of a symmetric symbol row by row into odd parts.

    Row r from the top has 2*(side columns of height >= peak-r+1) + 1 dots,
    so the image is a partition into exactly ``peak`` odd parts in which
    every odd value below the largest occurs.
    """
    if sym.top != sym.bottom:
        raise ValueError("top and bottom rows differ: symbol is not self-conjugate")
    heights = (sym.peak,) + sym.top.parts  # a_0 = peak, then a_1 > a_2 > ...
    parts: list[int] = []
    for j in range(len(sym.top.parts), -1, -1):
        value = 2 * j + 1
        below = heights[j + 1] if j + 1 < len(heights) else 0
        parts.extend([value] * (heights[j] - below))
    return Partition(tuple(parts))


def odd_parts_to_self_conjugate(p: Partition) -> SUSymbol:
    """Inverse of :func:`self_conjugate_to_odd_parts`."""
    if not p.parts:
        raise ValueError("empty partition has no symbol")
    mult: dict[int, int] = {}
    for v in p.parts:
        if v % 2 == 0:
            raise ValueError(f"even part {v} not allowed")
        mult[v] = mult.get(v, 0) + 1
    largest = p.parts[0]
    for v in range(1, largest, 2):
        if v not in mult:
            raise ValueError(f"odd value {v} below the largest part {largest} is missing")
    level = (largest - 1) // 2
    counts = [mult[2 * j + 1] for j in range(level + 1)]
    heights = [sum(counts[j:]) for j in range(level + 1)]  # heights[0] is the peak
    row = Partition(tuple(heights[1:]))
    return SUSymbol(row, row, heights[0])


# ----------------------------------------------------------------------
# odd/even split counts behind the self-conjugate identity
# ----------------------------------------------------------------------


def count_even_part_parity(n: int, k: int) -> tuple[int, int]:
    """Counts of decorated odd-part configurations, split by parity.

    A configuration of n is a partition into at least k odd parts where every
    odd value below the largest occurs, together with exactly k-1 distinct
    even values carrying marks 1..k-1 (mark j on the j-th smallest value),
    each value repeatable, every even part smaller than twice the number of
    odd parts.  Returns (count with an odd number of even parts, count with
    an even number of even parts): row n of :func:`even_part_parity_counts`.
    """
    if k >= 2 and n < 0:  # a k below 2 is refused first, by even_part_parity_counts
        raise ValueError("n must be >= 0")
    return even_part_parity_counts(n, k)[n]


def even_part_parity_counts(n_max: int, k: int) -> list[tuple[int, int]]:
    """counts[n]: :func:`count_even_part_parity` (n, k) for every n <= n_max.

    Each even part weighs t, and one integer table per t = +1, -1 is grown
    in place, one pass per number L of odd parts: table[c][s] sums the
    weights of the complete odd partitions into L parts of size L + 2m (a
    strict partition of m into parts below L says how many parts reach 3,
    5, ...), decorated with c distinct even values below 2L, each used at
    least once, where s = 2m plus the total of the even values.  Each L >= k
    adds row k - 1 into the tally at size L + s (at t = -1, even minus odd);
    then the pass admits the even value 2L and the strict part L.
    """
    if k < 2:
        raise ValueError("defined for k >= 2 only")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if n_max < k * k:  # the least configuration: k ones and the even values 2, .., 2k-2
        return [(0, 0)] * (n_max + 1)
    tallies = []
    for sign in (1, -1):
        table = [[1] + [0] * n_max] + [[0] * (n_max + 1) for _ in range(k - 1)]
        tally = [0] * (n_max + 1)
        for length in range(1, n_max + 1):
            value, top = 2 * length, n_max - length - 1  # no later pass reads past top
            if length >= k:
                tally[length:] = map(operator.add, tally[length:], table[-1])
            # c falls, so table[c - 1] does not hold the new value yet
            for c in range(k - 1, 0, -1) if value <= top else ():
                taken = [0] * (top + 1)  # the new value used >= 1 times
                for s in range(value, top + 1):
                    taken[s] = sign * (table[c - 1][s - value] + taken[s - value])
                table[c][value:top + 1] = map(operator.add, table[c][value:top + 1], taken[value:])
            # the strict part L, at most once, adds 2L to s
            for row in table:
                row[value:top + 1] = map(operator.add, row[value:top + 1], row[:top + 1 - value])
        tallies.append(tally)
    return [((total - signed) // 2, (total + signed) // 2) for total, signed in zip(*tallies)]
