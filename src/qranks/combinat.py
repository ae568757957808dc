"""Partitions, unimodal sequences, their two-row symbols, and rank statistics.

The objects here come in unmarked and marked flavours.  An unmarked symbol
records what sits left/right of a peak (or above/below a Durfee square); a
k-marked symbol additionally tags every part with a mark from 1..k subject
to ordering and interval rules, which is what makes k independent rank
statistics possible.  The k-marked symbols are listed in :mod:`qranks.marked`,
whose public names resolve here, loading it on first use.

All enumerations are exhaustive, duplicate-free and returned in a documented
canonical order so they can serve as oracles for the generating functions in
:mod:`qranks.genfun`.  Everything is exact integer combinatorics.

One parts enumerator, :func:`_parts`, lists every row and partition in one
mode (parts between two bounds, weak or strict) by one walk over an
explicit prefix; the marked listings of :mod:`qranks.marked` fill their
pools with it too.  The plain bijections cost about their parts: the
Durfee maps read each row as a conjugate, one square row at a time, the
rows that :func:`durfee_decompose` and :func:`su_symbol` slice from their
checked argument skip ``Partition``'s checks, and the unimodal listing
lists each peak's rows once and sorts only its tops.
No census or count builds a marked symbol: two walks up the part values,
:func:`marked_durfee_censuses` and :func:`marked_unimodal_censuses`, count
them by size and rank vector (an open Durfee mark only at the sizes that
leave room for its forced parts; the Durfee walk counts by exponent vector
of y_j = x_j + 1/x_j, with signed values, and :func:`_x_form` rewrites
that in x) and share no code with the listing, one knapsack over the
peaks, :func:`marked_unimodal_counts`, counts the marked unimodal and
symmetric symbols, and two integer tables grown per number of odd parts,
:func:`even_part_parity_counts`, weigh each even part t = +1 or t = -1 to
count the decorated odd-part configurations by parity.  Nothing is
cached, and nothing is shared with :mod:`qranks.genfun`.
"""

from __future__ import annotations

import operator
from collections import Counter
from math import comb, isqrt
from typing import Iterator

from ._record import Record

RankVector = tuple[int, ...]


def _integers(values) -> tuple[int, ...]:
    """The sequence ``values`` as a tuple of ints, read by
    :func:`operator.index`: the one integer check of every part, mark, side,
    peak and k.  Anything it refuses (a float, a string) is a ValueError
    that names the value, found by reading ``values`` (a tuple) twice."""
    if type(values) is not tuple:
        values = tuple(values)
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        for value in values:
            if not hasattr(type(value), "__index__"):
                raise ValueError(f"not an integer: {value!r}") from None
        raise


def _integer(value) -> int:
    """One side or peak read by :func:`operator.index`; what that refuses
    goes through :func:`_integers`, so it raises the same error."""
    try:
        return operator.index(value)
    except TypeError:
        return _integers((value,))[0]


# ----------------------------------------------------------------------
# partitions
# ----------------------------------------------------------------------


class Partition(Record):
    """Weakly decreasing positive parts; the empty tuple is the partition of 0."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[int, ...] = ()):
        parts = _integers(parts)
        prev = None
        for p in parts:
            if p < 1:
                raise ValueError(f"nonpositive part {p}")
            if prev is not None and p > prev:
                raise ValueError(f"parts not weakly decreasing: {parts}")
            prev = p
        object.__setattr__(self, "parts", parts)

    @classmethod
    def _unchecked(cls, parts: tuple[int, ...]) -> Partition:
        """The partition of ``parts`` without the checks of ``__init__``: only
        for a slice of a checked record's parts that is weakly decreasing by
        construction.  The three callers are in the two bijection maps."""
        self = object.__new__(cls)
        object.__setattr__(self, "parts", parts)
        return self

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
    [smallest, largest] summing to n, in descending lexicographic order.

    One walk over an explicit prefix: it fills the prefix greedily with the
    largest parts that fit, yields it when it sums to n, then takes parts
    off its end until one is above ``smallest`` and lowers that one by 1.
    """
    prefix, left, top = [], n, min(n, largest)  # top: the next part's bound
    while True:
        while left and top >= smallest:
            prefix.append(top)
            left -= top
            top = min(left, top - strict)
        if not left:
            yield tuple(prefix)
        while prefix:
            last = prefix.pop()
            left += last
            if last > smallest:
                top = last - 1
                break
        else:
            return


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
        side = _integer(side)
        if side < 1:
            raise ValueError("side must be >= 1")
        if not type(top) is type(bottom) is Partition:
            raise ValueError(f"rows must be Partitions: {top!r}, {bottom!r}")
        for row in (top, bottom):  # a Partition's first part is its largest
            if row.parts and row.parts[0] > side:
                raise ValueError(f"part {row.parts[0]} exceeds side {side}")
        object.__setattr__(self, "top", top)
        object.__setattr__(self, "bottom", bottom)
        object.__setattr__(self, "side", side)

    @property
    def size(self) -> int:
        return self.side * self.side + self.top.size + self.bottom.size

    def render(self) -> str:
        return f"({self.top.render()} ; {self.bottom.render()})_{self.side}"


def durfee_decompose(p: Partition) -> DurfeeSymbol:
    """Split a nonempty partition into its Durfee square side and symbol rows.

    ``p`` must be a ``Partition`` itself, so its bottom row, a suffix of its
    checked parts, is built unchecked."""
    if type(p) is not Partition:
        raise ValueError(f"argument must be a Partition: {p!r}")
    if not p.parts:
        raise ValueError("no Durfee square in the empty partition")
    parts = p.parts
    # parts[i - 1] - i falls as i grows, so the i with parts[i - 1] >= i
    # are 1..side
    side = sum(map(operator.ge, parts, range(1, len(parts) + 1)))
    # the top row is the conjugate of the overhang parts[:side] - side:
    # square row i (side down to 1) ends the columns of height i
    ends = parts[:side] + (side,)
    top = []
    for i in range(side, 0, -1):
        top += [i] * (ends[i - 1] - ends[i])
    return DurfeeSymbol(Partition(tuple(top)), Partition._unchecked(parts[side:]), side)


def durfee_recompose(sym: DurfeeSymbol) -> Partition:
    """Inverse of :func:`durfee_decompose`."""
    return Partition(_recomposed(sym.top.parts, sym.bottom.parts, sym.side))


def _recomposed(top, bottom, side: int) -> tuple[int, ...]:
    """The rows of the partition with Durfee side ``side``, columns ``top``
    (weakly decreasing, none above side) right of the square and rows
    ``bottom`` below it: square row i is side plus the top parts >= i."""
    rows, count = [], len(top)
    for i in range(1, side + 1):
        while count and top[count - 1] < i:
            count -= 1
        rows.append(side + count)
    return (*rows, *bottom)


# ----------------------------------------------------------------------
# strongly unimodal sequences and symbols
# ----------------------------------------------------------------------


class SUSequence(Record):
    """Positive parts strictly increasing to a unique maximum, then strictly
    decreasing."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[int, ...]):
        parts = _integers(parts)
        if not parts:
            raise ValueError("sequence must be nonempty")
        if min(parts) < 1:
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
        peak = _integer(peak)
        if peak < 1:
            raise ValueError("peak must be >= 1")
        if not type(top) is type(bottom) is Partition:
            raise ValueError(f"rows must be Partitions: {top!r}, {bottom!r}")
        for row in (top, bottom):  # the first part, a Partition's largest, meets peak
            prev = peak
            for v in row.parts:
                if v >= prev:
                    raise ValueError(f"row part {v} not below peak {peak}" if prev == peak
                                     else f"row not strictly decreasing: {row.parts}")
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
    """Record the parts after the peak (top row) and before it (bottom row).

    ``seq`` must be an ``SUSequence`` itself, so both rows, its checked
    strict runs on either side of the peak, are built unchecked."""
    if type(seq) is not SUSequence:
        raise ValueError(f"argument must be an SUSequence: {seq!r}")
    parts = seq.parts
    peak = max(parts)
    i = parts.index(peak)
    top, bottom = Partition._unchecked(parts[i + 1:]), Partition._unchecked(parts[:i][::-1])
    return SUSymbol(top, bottom, peak)


def su_sequence(sym: SUSymbol) -> SUSequence:
    """Inverse of :func:`su_symbol`: bottom ascending, peak, top descending."""
    return SUSequence(sym.bottom.parts[::-1] + (sym.peak,) + sym.top.parts)


def enumerate_su_sequences(n: int) -> Iterator[SUSequence]:
    """All strongly unimodal sequences of size n, in canonical symbol order
    (peak descending, then top and bottom rows ascending)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    for peak in range(n, 0, -1):
        rest = n - peak
        # rows[s]: the strict rows of size s below the peak; the rows of one
        # size share their sum, so none is a prefix of another and their
        # descending lexicographic order, reversed, ascends
        rows = [[*_parts(s, peak - 1, strict=True)][::-1] for s in range(rest + 1)]
        tops = sorted((top, s) for s in range(rest + 1) if rows[rest - s]
                      for top in rows[s])
        for top, s in tops:
            for bottom in rows[rest - s]:
                yield SUSequence(bottom[::-1] + (peak,) + top)


def su_rank(seq: SUSequence) -> int:
    """Number of terms right of the peak minus number of terms left of it."""
    i = seq.peak_index
    return (len(seq.parts) - 1 - i) - i


def rank_census_unimodal(n: int) -> dict[int, int]:
    """Map rank -> number of strongly unimodal sequences of size n."""
    return dict(Counter(map(su_rank, enumerate_su_sequences(n))))


# ----------------------------------------------------------------------
# k-marked symbols: listed in qranks.marked, counted here
# ----------------------------------------------------------------------

# the public names of qranks.marked, resolved by __getattr__ on first use
_MARKED = ("KMarkedDurfeeSymbol", "KMarkedSUSymbol", "MarkedPart", "durfee_ranks",
           "enumerate_marked_durfee", "enumerate_marked_unimodal", "unimodal_ranks")


def __getattr__(name):
    if name in _MARKED:
        from . import marked
        return getattr(marked, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_MARKED))


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


def marked_durfee_censuses(n_max: int, k: int,
                           y_basis: bool = False) -> list[dict[RankVector, int]]:
    """censuses[n]: rank vector -> number of k-marked Durfee symbols of n,
    keys ascending, for every n <= n_max, from one walk up the part values v.

    At v, mark j takes any number of bottom parts v (- 1 to rank j) and of
    free top parts v (+ 1), then may close with its forced top part M_j = v,
    which adds no rank and opens mark j + 1 at the same v.  Mark k is
    emitted with side v.  Mark j at v still owes M_j..M_(k-1) >= v and the
    square v^2, so its block walks only the sizes that leave room for them.

    Together those parts v multiply mark j's block by 1 / (1 - y_j q^v +
    q^(2v)), y_j = x_j + 1/x_j, which the walk absorbs in one pass, keying
    its censuses by exponent vectors of y, values signed: so ``y_basis``
    returns them, and otherwise each is rewritten in x by :func:`_x_form`.
    """
    censuses, blocks = _walk_start(n_max, k, least=k)
    for v in range(1, isqrt(n_max) + 1) if blocks else ():
        for j, block in enumerate(blocks, 1):
            room = n_max - v * v - (k - j) * v
            # s ascending: block[s] += y_j block[s - v] - block[s - 2v]
            for s in range(v, room + 1):
                _moved(block[s], block[s - v], 1)
                for ranks, count in block[s - 2 * v].items() if s >= 2 * v else ():
                    block[s][ranks] = block[s].get(ranks, 0) - count
            if j < k:  # block j + 1 has v more room
                for s in range(room + 1):
                    _moved(blocks[j][s + v], block[s], None)
        for s in range(n_max - v * v + 1):
            censuses[s + v * v].update(blocks[-1][s])
    return [dict(sorted(item for item in census.items() if item[1]))
            for census in (censuses if y_basis else map(_x_form, censuses))]


def _x_form(terms: dict) -> dict:
    """A coefficient in y_j = x_j + 1/x_j rewritten in x, one variable at a
    time, by y_j^a = sum_i C(a, i) x_j^(a - 2i); zero sums dropped."""
    for j in range(len(next(iter(terms), ()))):
        expanded: dict = {}
        for exps, value in terms.items():
            a = exps[j]
            for i in range(a + 1):
                key = exps[:j] + (a - 2 * i,) + exps[j + 1:]
                expanded[key] = expanded.get(key, 0) + comb(a, i) * value
        terms = expanded
    return {exps: value for exps, value in terms.items() if value}


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
    key order: size n of the y walk :func:`marked_durfee_censuses`, rewritten in x."""
    _check_marked(n, k)
    return dict(sorted(_x_form(marked_durfee_censuses(n, k, y_basis=True)[n]).items()))


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
        # the rows of one peak share their sum, so none is a prefix of
        # another and their descending lexicographic order, reversed, ascends
        for values in reversed([*_parts((n - peak) // 2, peak - 1, strict=True)]):
            row = Partition(values)
            symbols.append(SUSymbol(row, row, peak))
    return symbols


def count_complete_odd_partitions(n: int) -> int:
    """Partitions of n into odd parts where every odd value below the largest
    part also occurs."""
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
    if n < 0:
        raise ValueError("n must be >= 0")
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
