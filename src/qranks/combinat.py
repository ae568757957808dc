"""Partitions, unimodal sequences, their two-row symbols, and rank statistics.

The objects here come in unmarked and marked flavours.  An unmarked symbol
records what sits left/right of a peak (or above/below a Durfee square); a
k-marked symbol additionally tags every part with a mark from 1..k subject
to ordering and interval rules, which is what makes k independent rank
statistics possible.

All enumerations are exhaustive, duplicate-free and returned in a documented
canonical order so they can serve as oracles for the generating functions in
:mod:`qranks.genfun`.  Everything is exact integer combinatorics.

One parts enumerator, :func:`_parts`, lists every row, partition and
largest-marked-part profile, and one marking loop, :func:`_markings`, marks
the plain symbols of both families.  Each family keeps its own validator.
None of this is shared with :mod:`qranks.genfun`, whose index enumerator is
the other side of every verified identity.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Iterator, NamedTuple

RankVector = tuple[int, ...]

# entries per census cache; `verify` asks for each (n, k) once, so the cache
# serves the repeated point queries of the count_* functions
_CENSUS_CACHE_SIZE = 128


# ----------------------------------------------------------------------
# partitions
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing positive parts; the empty tuple is the partition of 0."""

    parts: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        prev = None
        for p in self.parts:
            if p < 1:
                raise ValueError(f"nonpositive part {p}")
            if prev is not None and p > prev:
                raise ValueError(f"parts not weakly decreasing: {self.parts}")
            prev = p

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
        for rest in _parts(n - first, first - strict, smallest, strict):
            yield (first,) + rest


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


@lru_cache(maxsize=_CENSUS_CACHE_SIZE)
def _partition_rank_census(n: int) -> Counter[int]:
    return Counter(map(dyson_rank, enumerate_partitions(n)))


def rank_census_partitions(n: int) -> dict[int, int]:
    """Map rank -> number of partitions of n with that rank (n >= 1)."""
    if n < 1:
        raise ValueError("census defined for n >= 1; use count_partitions_by_rank for n=0")
    return dict(_partition_rank_census(n))


def count_partitions_by_rank(m: int, n: int) -> int:
    """Number of partitions of n with rank m; at n=0 the count is 1 iff m=0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 1 if m == 0 else 0
    return _partition_rank_census(n).get(m, 0)


# ----------------------------------------------------------------------
# Durfee symbols
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DurfeeSymbol:
    """Column lengths right of the Durfee square (top) and row lengths below
    it (bottom), subscripted by the square's side."""

    top: Partition
    bottom: Partition
    side: int

    def __post_init__(self):
        if self.side < 1:
            raise ValueError("side must be >= 1")
        for row in (self.top, self.bottom):
            for v in row.parts:
                if v > self.side:
                    raise ValueError(f"part {v} exceeds side {self.side}")

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
    d = sym.side
    alpha = sym.top.parts
    rows = [d + sum(1 for a in alpha if a >= i) for i in range(1, d + 1)]
    rows.extend(sym.bottom.parts)
    return Partition(tuple(rows))


# ----------------------------------------------------------------------
# strongly unimodal sequences and symbols
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SUSequence:
    """Positive parts strictly increasing to a unique maximum, then strictly
    decreasing."""

    parts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        parts = self.parts
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

    @property
    def peak_index(self) -> int:
        return self.parts.index(max(self.parts))

    @property
    def size(self) -> int:
        return sum(self.parts)

    def render(self) -> str:
        return ",".join(str(p) for p in self.parts)


@dataclass(frozen=True)
class SUSymbol:
    """Parts right of the peak (top) and left of it (bottom), under the peak.

    Rows are strictly decreasing and every row part is smaller than the peak.
    """

    top: Partition
    bottom: Partition
    peak: int

    def __post_init__(self):
        if self.peak < 1:
            raise ValueError("peak must be >= 1")
        for row in (self.top, self.bottom):
            prev = None
            for v in row.parts:
                if v >= self.peak:
                    raise ValueError(f"row part {v} not below peak {self.peak}")
                if prev is not None and v >= prev:
                    raise ValueError(f"row not strictly decreasing: {row.parts}")
                prev = v

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


def _su_symbols(n: int) -> list[SUSymbol]:
    symbols = []
    for peak in range(1, n + 1):
        rest = n - peak
        for top_size in range(rest + 1):
            for top in _parts(top_size, peak - 1, strict=True):
                for bottom in _parts(rest - top_size, peak - 1, strict=True):
                    symbols.append(SUSymbol(Partition(top), Partition(bottom), peak))
    # canonical order: peak descending, then rows ascending lexicographically
    symbols.sort(key=lambda s: (-s.peak, s.top.parts, s.bottom.parts))
    return symbols


def enumerate_su_sequences(n: int) -> Iterator[SUSequence]:
    """All strongly unimodal sequences of size n, in canonical symbol order
    (peak descending, then top and bottom rows ascending)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    for sym in _su_symbols(n):
        yield su_sequence(sym)


def su_rank(seq: SUSequence) -> int:
    """Number of terms right of the peak minus number of terms left of it."""
    i = seq.peak_index
    return (len(seq.parts) - 1 - i) - i


@lru_cache(maxsize=_CENSUS_CACHE_SIZE)
def _unimodal_rank_census(n: int) -> Counter[int]:
    return Counter(map(su_rank, enumerate_su_sequences(n)))


def rank_census_unimodal(n: int) -> dict[int, int]:
    """Map rank -> number of strongly unimodal sequences of size n."""
    return dict(_unimodal_rank_census(n))


def count_unimodal_by_rank(m: int, n: int) -> int:
    if n < 1:
        return 0
    return _unimodal_rank_census(n).get(m, 0)


def count_unimodal_total(n: int) -> int:
    if n < 1:
        return 0
    return sum(_unimodal_rank_census(n).values())


# ----------------------------------------------------------------------
# marked parts and k-marked symbols
# ----------------------------------------------------------------------


class MarkedPart(NamedTuple):
    value: int
    mark: int

    def render(self) -> str:
        return f"{self.value}_{self.mark}"


def _canonical_row(row) -> tuple[MarkedPart, ...]:
    parts = tuple(MarkedPart(int(v), int(m)) for v, m in row)
    return tuple(sorted(parts, key=lambda p: (-p.value, -p.mark)))


def _render_marked_row(row: tuple[MarkedPart, ...]) -> str:
    return " ".join(p.render() for p in row) if row else "-"


def _row_shape_violation(row: tuple[MarkedPart, ...], k: int, *,
                         strict_values: bool) -> str | None:
    """Rule: values (strictly) decreasing and marks nonincreasing along a row."""
    prev: MarkedPart | None = None
    for part in row:
        if part.value < 1:
            return f"nonpositive part value {part.value}"
        if not 1 <= part.mark <= k:
            return f"mark {part.mark} outside 1..{k}"
        if prev is not None:
            if strict_values and part.value >= prev.value:
                return f"row values not strictly decreasing at {part}"
            if not strict_values and part.value > prev.value:
                return f"row values not weakly decreasing at {part}"
            if part.mark > prev.mark:
                return f"row marks not nonincreasing at {part}"
        prev = part
    return None


def _marked_durfee_violation(top, bottom, side: int, k: int) -> str | None:
    if k < 1:
        return "mark count k must be >= 1"
    if side < 1:
        return "side must be >= 1"
    for row in (top, bottom):
        reason = _row_shape_violation(row, k, strict_values=False)
        if reason:
            return reason
        for part in row:
            if part.value > side:
                return f"part {part} exceeds side {side}"
    if k == 1:
        return None
    top_marks = {p.mark for p in top}
    for j in range(1, k):
        if j not in top_marks:
            return f"mark {j} missing from the top row"
    largest = [0] * (k + 1)
    for j in range(1, k):
        largest[j] = max(p.value for p in top if p.mark == j)
    largest[k] = side
    # bottom-row interval rule; mark-1 interval starts at 1 and consecutive
    # intervals share endpoints
    for part in bottom:
        j = part.mark
        lo = 1 if j == 1 else largest[j - 1]
        hi = largest[j]
        if not lo <= part.value <= hi:
            return f"bottom part {part} outside [{lo}, {hi}]"
    return None


def _marked_unimodal_violation(top, bottom, peak: int, k: int) -> str | None:
    if k < 1:
        return "mark count k must be >= 1"
    if peak < 1:
        return "peak must be >= 1"
    for row in (top, bottom):
        reason = _row_shape_violation(row, k, strict_values=True)
        if reason:
            return reason
        for part in row:
            if part.value >= peak:
                return f"part {part} not below peak {peak}"
    if k == 1:
        return None
    top_marks = {p.mark for p in top}
    for j in range(1, k):
        if j not in top_marks:
            return f"mark {j} missing from the top row"
    largest = [0] * (k + 1)
    for j in range(1, k):
        largest[j] = max(p.value for p in top if p.mark == j)
    largest[k] = peak
    # bottom-row interval rule: mark j < k inside (largest[j-1], largest[j]],
    # mark k strictly between largest[k-1] and the peak
    for part in bottom:
        j = part.mark
        lo = largest[j - 1] + 1
        hi = largest[j] if j < k else peak - 1
        if not lo <= part.value <= hi:
            return f"bottom part {part} outside [{lo}, {hi}]"
    # the ordering rules force the same intervals on the top row; a part
    # outside them means those rules are broken, not that the symbol is
    for part in top:
        j = part.mark
        lo = largest[j - 1] + 1
        hi = largest[j] if j < k else peak - 1
        if not lo <= part.value <= hi:
            raise RuntimeError(f"top part {part} escaped [{lo}, {hi}]")
    return None


@dataclass(frozen=True)
class KMarkedDurfeeSymbol:
    """Durfee symbol whose parts carry marks 1..k.

    For k >= 2: in each row values are weakly decreasing and marks are
    nonincreasing; every mark 1..k-1 occurs in the top row; and with M_j the
    largest top-row value of mark j (M_k = side), bottom values of mark 1
    lie in [1, M_1], of mark j in [M_(j-1), M_j], and of mark k in
    [M_(k-1), side].
    """

    top: tuple[MarkedPart, ...]
    bottom: tuple[MarkedPart, ...]
    side: int
    k: int

    def __post_init__(self):
        object.__setattr__(self, "top", _canonical_row(self.top))
        object.__setattr__(self, "bottom", _canonical_row(self.bottom))
        reason = _marked_durfee_violation(self.top, self.bottom, self.side, self.k)
        if reason:
            raise ValueError(f"invalid {self.k}-marked Durfee symbol: {reason}")

    @property
    def size(self) -> int:
        return self.side * self.side + sum(p.value for p in self.top + self.bottom)

    def render(self) -> str:
        return (f"({_render_marked_row(self.top)} ; "
                f"{_render_marked_row(self.bottom)})_{self.side}")


@dataclass(frozen=True)
class KMarkedSUSymbol:
    """Strongly unimodal symbol whose parts carry marks 1..k.

    For k >= 2: in each row values are strictly decreasing and marks are
    nonincreasing; every mark 1..k-1 occurs in the top row; and with M_j the
    largest top-row value of mark j (M_0 = 0, M_k = peak), bottom values of
    mark j < k lie in [M_(j-1)+1, M_j] while those of mark k lie in
    [M_(k-1)+1, peak-1].  The same intervals hold on the top row as a
    consequence of the ordering rules.
    """

    top: tuple[MarkedPart, ...]
    bottom: tuple[MarkedPart, ...]
    peak: int
    k: int

    def __post_init__(self):
        object.__setattr__(self, "top", _canonical_row(self.top))
        object.__setattr__(self, "bottom", _canonical_row(self.bottom))
        reason = _marked_unimodal_violation(self.top, self.bottom, self.peak, self.k)
        if reason:
            raise ValueError(f"invalid {self.k}-marked unimodal symbol: {reason}")

    @property
    def size(self) -> int:
        return self.peak + sum(p.value for p in self.top + self.bottom)

    def render(self) -> str:
        return (f"({_render_marked_row(self.top)} ; "
                f"{_render_marked_row(self.bottom)})_{self.peak}")


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


def _markings(top_values, bottom_values, k: int):
    """Every nonincreasing marking of both rows in which the top row carries
    each mark 1..k-1, as (top, bottom) rows; the caller's validator decides
    the interval rules, which differ between the two families."""
    marks = range(k, 0, -1)  # nonincreasing mark sequences, largest first
    needed = set(range(1, k))
    bottoms = [tuple(map(MarkedPart, bottom_values, bottom_marks))
               for bottom_marks in combinations_with_replacement(
                   marks, len(bottom_values))]
    for top_marks in combinations_with_replacement(marks, len(top_values)):
        if needed <= set(top_marks):
            top = tuple(map(MarkedPart, top_values, top_marks))
            for bottom in bottoms:
                yield top, bottom


def enumerate_marked_durfee(n: int, k: int) -> list[KMarkedDurfeeSymbol]:
    """All valid k-marked Durfee symbols of n.

    Every partition of n is decomposed at its Durfee square and every
    nonincreasing mark assignment passing the validity rules is kept.  For
    k=1 the plain symbols appear in partition (descending lex) order with
    all marks 1; for k >= 2 the list is sorted by (side, top, bottom).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    symbols = []
    for p in enumerate_partitions(n):
        plain = durfee_decompose(p)
        for top, bottom in _markings(plain.top.parts, plain.bottom.parts, k):
            if _marked_durfee_violation(top, bottom, plain.side, k) is None:
                symbols.append(KMarkedDurfeeSymbol(top, bottom, plain.side, k))
    if k > 1:
        symbols.sort(key=lambda s: (s.side, s.top, s.bottom))
    return symbols


def _marked_unimodal_filter(n: int, k: int) -> list[KMarkedSUSymbol]:
    symbols = []
    for plain in _su_symbols(n):
        for top, bottom in _markings(plain.top.parts, plain.bottom.parts, k):
            if _marked_unimodal_violation(top, bottom, plain.peak, k) is None:
                symbols.append(KMarkedSUSymbol(top, bottom, plain.peak, k))
    return symbols


def _marked_unimodal_constructive(n: int, k: int) -> list[KMarkedSUSymbol]:
    """Build symbols directly from their largest-marked-part profile.

    Choose M_1 < ... < M_k; the peak is M_k and M_j is forced to be the
    largest mark-j part of the top row.  The rest of the symbol is a free
    choice of distinct values inside the forced intervals: extra top and
    bottom mark-j values from [M_(j-1)+1, M_j - 1], plus optionally M_j
    itself in the bottom row (j < k), and mark-k values from
    [M_(k-1)+1, peak-1] in both rows.
    """
    symbols: list[KMarkedSUSymbol] = []

    def fill(big: tuple[int, ...]):
        forced = tuple(MarkedPart(v, j) for j, v in enumerate(big[:-1], start=1))
        lows = (1,) + tuple(v + 1 for v in big[:-1])  # M_(j-1) + 1
        marks = range(1, k + 1)
        # (mark, lo, hi) of the free values: k top-row pools, then k bottom-row
        pools = ([(j, lows[j - 1], big[j - 1] - 1) for j in marks]
                 + [(j, lows[j - 1], big[j - 1] - (j == k)) for j in marks])

        def assign(i: int, remaining: int, chosen: list[tuple[MarkedPart, ...]]):
            if i == len(pools):
                if not remaining:
                    # the symbol puts each row in canonical order itself
                    top = forced + sum(chosen[:k], ())
                    symbols.append(KMarkedSUSymbol(top, sum(chosen[k:], ()), big[-1], k))
                return
            mark, lo, hi = pools[i]
            for s in range(remaining + 1):
                for values in _parts(s, hi, lo, strict=True):
                    chosen.append(tuple(MarkedPart(v, mark) for v in values))
                    assign(i + 1, remaining - s, chosen)
                    chosen.pop()

        assign(0, n - sum(big), [])

    for size in range(n + 1):
        for profile in _parts(size, size, strict=True):
            if len(profile) == k:
                fill(profile[::-1])
    return symbols


def enumerate_marked_unimodal(n: int, k: int,
                              strategy: str = "filter") -> list[KMarkedSUSymbol]:
    """All valid k-marked strongly unimodal symbols of n.

    ``strategy="filter"`` marks every plain symbol in all nonincreasing ways
    and keeps the assignments the validator accepts; ``"constructive"``
    builds symbols from interval choices without a validator pass.  Both
    return the same set.  k=1 degenerates to the plain symbols (all marks 1)
    in the plain canonical order; for k >= 2 the list is sorted by
    (peak, top, bottom).  The smallest n with any symbol is k(k+1)/2.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    if strategy not in ("filter", "constructive"):
        raise ValueError(f"unknown strategy {strategy!r}")
    # at k=1 each plain symbol has one marking, already in the plain order
    if strategy == "filter" or k == 1:
        symbols = _marked_unimodal_filter(n, k)
    else:
        symbols = _marked_unimodal_constructive(n, k)
    if k > 1:
        symbols.sort(key=lambda s: (s.peak, s.top, s.bottom))
    return symbols


@lru_cache(maxsize=_CENSUS_CACHE_SIZE)
def _marked_unimodal_census(n: int, k: int) -> Counter[RankVector]:
    return Counter(map(unimodal_ranks, enumerate_marked_unimodal(n, k, "filter")))


def rank_census_marked_unimodal(n: int, k: int) -> dict[RankVector, int]:
    """Map rank vector -> number of k-marked unimodal symbols of n."""
    return dict(_marked_unimodal_census(n, k))


def count_marked_unimodal(ranks: RankVector, n: int, k: int) -> int:
    if len(ranks) != k:
        raise ValueError(f"rank vector {ranks!r} has length {len(ranks)}, expected {k}")
    if n < 1:
        return 0
    return _marked_unimodal_census(n, k).get(tuple(ranks), 0)


@lru_cache(maxsize=_CENSUS_CACHE_SIZE)
def _marked_durfee_census(n: int, k: int) -> Counter[RankVector]:
    return Counter(map(durfee_ranks, enumerate_marked_durfee(n, k)))


def rank_census_marked_durfee(n: int, k: int) -> dict[RankVector, int]:
    """Map rank vector -> number of k-marked Durfee symbols of n."""
    return dict(_marked_durfee_census(n, k))


def count_marked_durfee(ranks: RankVector, n: int, k: int) -> int:
    if len(ranks) != k:
        raise ValueError(f"rank vector {ranks!r} has length {len(ranks)}, expected {k}")
    if n < 1:
        return 0
    return _marked_durfee_census(n, k).get(tuple(ranks), 0)


# ----------------------------------------------------------------------
# self-conjugate symbols and odd-part partitions
# ----------------------------------------------------------------------


def count_self_conjugate(n: int, k: int) -> int:
    """Number of k-marked unimodal symbols of n whose rows are identical.

    A symmetric symbol is a peak M with one row repeated twice, so only
    peaks with n - M even contribute; the row is a distinct-part choice
    below the peak, marked in any nonincreasing way the interval rules
    accept (both rows carry the same marks).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    total = 0
    for peak in range(1, n + 1):
        if (n - peak) % 2:
            continue
        for values in _parts((n - peak) // 2, peak - 1, strict=True):
            for marks in combinations_with_replacement(range(k, 0, -1), len(values)):
                row = tuple(map(MarkedPart, values, marks))
                if _marked_unimodal_violation(row, row, peak, k) is None:
                    total += 1
    return total


def enumerate_self_conjugate_symbols(n: int) -> list[SUSymbol]:
    """Plain unimodal symbols of n whose two rows coincide, in the canonical
    plain-symbol order."""
    if n < 1:
        raise ValueError("n must be >= 1")
    symbols = []
    for peak in range(1, n + 1):
        if (n - peak) % 2:
            continue
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
    """The partitions behind :func:`count_complete_odd_partitions`, largest
    first."""
    result = []
    for mults in _complete_odd_partitions(n):
        parts: list[int] = []
        for j in range(len(mults) - 1, -1, -1):
            parts.extend([2 * j + 1] * mults[j])
        result.append(Partition(tuple(parts)))
    result.sort(key=lambda p: p.parts, reverse=True)
    return result


def _complete_odd_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """Yield multiplicity tuples (c_0, c_1, ..., c_L) with part 2j+1 taken
    c_j >= 1 times and total n; the empty tuple covers n = 0."""
    if n == 0:
        yield ()
        return

    def rec(j: int, remaining: int) -> Iterator[tuple[int, ...]]:
        # choose c_j for value 2j+1; values 1, 3, .., 2j-1 still need >= 1
        # copy each, which costs at least j*j
        if j < 0:
            if remaining == 0:
                yield ()
            return
        value = 2 * j + 1
        count = 1
        while value * count + j * j <= remaining:
            for rest in rec(j - 1, remaining - value * count):
                yield rest + (count,)
            count += 1

    largest_index = 0
    while (largest_index + 1) ** 2 <= n:  # 1 + 3 + ... + (2L+1) = (L+1)^2
        yield from rec(largest_index, n)
        largest_index += 1


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
    an even number of even parts).
    """
    if k < 2:
        raise ValueError("defined for k >= 2 only")
    if n < 0:
        raise ValueError("n must be >= 0")
    odd_total = 0
    even_total = 0
    for mults in _complete_odd_partitions_up_to(n):
        odd_parts = sum(mults)
        if odd_parts < k:
            continue
        odd_sum = sum(c * (2 * j + 1) for j, c in enumerate(mults))
        remaining = n - odd_sum
        limit = 2 * odd_parts  # even parts must be strictly below this
        with_odd, with_even = _even_decorations(remaining, k - 1, limit)
        odd_total += with_odd
        even_total += with_even
    return odd_total, even_total


def _complete_odd_partitions_up_to(n: int) -> Iterator[tuple[int, ...]]:
    for total in range(n + 1):
        yield from _complete_odd_partitions(total)


def _even_decorations(total: int, slots: int, limit: int) -> tuple[int, int]:
    """Count choices of ``slots`` distinct even values below ``limit`` with
    multiplicities >= 1 summing to ``total``, split by the parity of the
    number of parts: (odd-many parts, even-many parts)."""
    tallies = [0, 0]

    def rec(remaining: int, smallest: int, slots_left: int, part_count: int):
        if slots_left == 0:
            if remaining == 0:
                tallies[part_count % 2] += 1
            return
        value = smallest
        while value < limit:
            min_rest = sum(value + 2 * (i + 1) for i in range(slots_left - 1))
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
