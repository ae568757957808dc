"""Tests for enumeration, validation, rank statistics, and bijections."""

import hashlib
import itertools
import operator
import re
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from marking_oracle import (
    durfee_by_filter,
    even_part_parity_by_recursion,
    self_conjugate_by_filter,
    self_conjugate_by_markings,
    unimodal_by_filter,
)

from qranks import combinat, marked
from qranks.combinat import (
    KMarkedDurfeeSymbol,
    KMarkedSUSymbol,
    MarkedPart,
    Partition,
    SUSequence,
    SUSymbol,
    count_complete_odd_partitions,
    count_even_part_parity,
    count_self_conjugate,
    durfee_decompose,
    durfee_ranks,
    durfee_recompose,
    dyson_rank,
    enumerate_complete_odd_partitions,
    enumerate_marked_durfee,
    enumerate_marked_unimodal,
    enumerate_partitions,
    enumerate_self_conjugate_symbols,
    enumerate_su_sequences,
    even_part_parity_counts,
    marked_durfee_censuses,
    marked_unimodal_censuses,
    marked_unimodal_counts,
    odd_parts_to_self_conjugate,
    rank_census_marked_durfee,
    rank_census_marked_unimodal,
    rank_census_partitions,
    rank_census_unimodal,
    self_conjugate_to_odd_parts,
    su_rank,
    su_sequence,
    su_symbol,
    unimodal_ranks,
)


class TestPartitions:
    def test_the_five_partitions_of_four(self):
        assert [p.parts for p in enumerate_partitions(4)] == [
            (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_zero_has_the_empty_partition(self):
        assert [p.parts for p in enumerate_partitions(0)] == [()]

    def test_count_at_six(self):
        assert len(list(enumerate_partitions(6))) == 11

    def test_invalid_parts_rejected(self):
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            Partition((2, 0))


class _BrokenIndex:
    def __index__(self):
        raise TypeError("broken __index__")


class _Index:
    """Not an int, but operator.index reads it as ``value``."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


# the argument errors of this module that no other test reaches, with their
# exact type and message; the first rows give each constructor a value that
# operator.index refuses
ERRORS = [
    pytest.param(lambda: Partition((2.5, 1)), ValueError,
                 "not an integer: 2.5", id="Partition-part"),
    pytest.param(lambda: SUSequence((1, 2.5, 1)), ValueError,
                 "not an integer: 2.5", id="SUSequence-part"),
    pytest.param(lambda: combinat.DurfeeSymbol(Partition(), Partition(), 1.5), ValueError,
                 "not an integer: 1.5", id="DurfeeSymbol-side"),
    pytest.param(lambda: SUSymbol(Partition(), Partition(), 2.5), ValueError,
                 "not an integer: 2.5", id="SUSymbol-peak"),
    pytest.param(lambda: KMarkedDurfeeSymbol((), (), 2.5, 1), ValueError,
                 "not an integer: 2.5", id="KMarkedDurfeeSymbol-side"),
    pytest.param(lambda: KMarkedDurfeeSymbol(((2.9, 1),), (), 3, 1), ValueError,
                 "not an integer: 2.9", id="KMarkedDurfeeSymbol-value"),
    pytest.param(lambda: KMarkedDurfeeSymbol(((2, 1),), (), 3, 2.0), ValueError,
                 "not an integer: 2.0", id="KMarkedDurfeeSymbol-k"),
    pytest.param(lambda: KMarkedSUSymbol((("2", 1),), (), 3, 1), ValueError,
                 "not an integer: '2'", id="KMarkedSUSymbol-value"),
    pytest.param(lambda: KMarkedSUSymbol(((1, 1.0),), (), 3, 1), ValueError,
                 "not an integer: 1.0", id="KMarkedSUSymbol-mark"),
    pytest.param(lambda: KMarkedSUSymbol((), (), 3.0, 1), ValueError,
                 "not an integer: 3.0", id="KMarkedSUSymbol-peak"),
    pytest.param(lambda: Partition((_BrokenIndex(),)), TypeError,
                 "broken __index__", id="Partition-broken-index"),
    pytest.param(lambda: combinat.DurfeeSymbol(Partition(), Partition(), 0), ValueError,
                 "side must be >= 1", id="DurfeeSymbol-side-below-one"),
    pytest.param(lambda: combinat.DurfeeSymbol(Partition((3,)), Partition(), 2), ValueError,
                 "part 3 exceeds side 2", id="DurfeeSymbol-part-beyond-side"),
    pytest.param(lambda: SUSequence((2, 0)), ValueError,
                 "parts must be positive", id="SUSequence-nonpositive"),
    pytest.param(lambda: SUSequence((2, 1, 3)), ValueError,
                 "not strictly increasing before the peak: (2, 1, 3)",
                 id="SUSequence-left-of-peak"),
    pytest.param(lambda: SUSymbol(Partition(), Partition(), 0), ValueError,
                 "peak must be >= 1", id="SUSymbol-peak-below-one"),
    pytest.param(lambda: SUSymbol(Partition((2, 2)), Partition(), 3), ValueError,
                 "row not strictly decreasing: (2, 2)", id="SUSymbol-repeated-part"),
    pytest.param(lambda: KMarkedDurfeeSymbol(((0, 1),), (), 2, 1), ValueError,
                 "invalid 1-marked Durfee symbol: nonpositive part value 0",
                 id="marked-nonpositive-value"),
    pytest.param(lambda: KMarkedSUSymbol(((2, 1), (2, 1)), (), 3, 1), ValueError,
                 "invalid 1-marked unimodal symbol: row values not strictly decreasing at "
                 "MarkedPart(value=2, mark=1)", id="marked-unimodal-repeated-value"),
    pytest.param(lambda: KMarkedDurfeeSymbol((), (), 2, 0), ValueError,
                 "invalid 0-marked Durfee symbol: mark count k must be >= 1",
                 id="marked-k-below-one"),
    pytest.param(lambda: KMarkedSUSymbol((), (), 0, 1), ValueError,
                 "invalid 1-marked unimodal symbol: peak must be >= 1",
                 id="marked-peak-below-one"),
    pytest.param(lambda: Partition((0,)), ValueError, "nonpositive part 0",
                 id="Partition-nonpositive"),
    pytest.param(lambda: Partition((1, 2)), ValueError, "parts not weakly decreasing: (1, 2)",
                 id="Partition-increasing"),
    pytest.param(lambda: SUSequence(()), ValueError, "sequence must be nonempty",
                 id="SUSequence-empty"),
    pytest.param(lambda: SUSequence((1, 3, 3)), ValueError,
                 "not strictly decreasing after the peak: (1, 3, 3)",
                 id="SUSequence-right-of-peak"),
    pytest.param(lambda: SUSymbol(Partition((3,)), Partition(), 3), ValueError,
                 "row part 3 not below peak 3", id="SUSymbol-part-at-peak"),
    pytest.param(lambda: KMarkedDurfeeSymbol(((1, 3),), (), 2, 2), ValueError,
                 "invalid 2-marked Durfee symbol: mark 3 outside 1..2", id="marked-mark-range"),
    pytest.param(lambda: KMarkedDurfeeSymbol(((2, 1), (1, 2)), (), 2, 2), ValueError,
                 "invalid 2-marked Durfee symbol: row marks not nonincreasing at "
                 "MarkedPart(value=1, mark=2)", id="marked-mark-order"),
    pytest.param(lambda: KMarkedDurfeeSymbol(((3, 1),), (), 2, 1), ValueError,
                 "invalid 1-marked Durfee symbol: part MarkedPart(value=3, mark=1) "
                 "exceeds side 2", id="marked-beyond-side"),
    pytest.param(lambda: KMarkedSUSymbol(((3, 1),), (), 3, 1), ValueError,
                 "invalid 1-marked unimodal symbol: part MarkedPart(value=3, mark=1) "
                 "not below peak 3", id="marked-at-peak"),
    pytest.param(lambda: KMarkedDurfeeSymbol(((1, 2),), (), 2, 2), ValueError,
                 "invalid 2-marked Durfee symbol: mark 1 missing from the top row",
                 id="marked-missing-mark"),
    pytest.param(lambda: KMarkedDurfeeSymbol(((1, 1),), ((2, 1),), 2, 2), ValueError,
                 "invalid 2-marked Durfee symbol: bottom part MarkedPart(value=2, mark=1) "
                 "outside [1, 1]", id="marked-bottom-interval"),
    pytest.param(lambda: KMarkedDurfeeSymbol((), (), 0, 1), ValueError,
                 "invalid 1-marked Durfee symbol: side must be >= 1",
                 id="marked-side-below-one"),
    pytest.param(lambda: list(enumerate_partitions(-1)), ValueError,
                 "n must be >= 0", id="enumerate_partitions"),
    pytest.param(lambda: rank_census_partitions(0), ValueError,
                 "census defined for n >= 1", id="rank_census_partitions"),
    pytest.param(lambda: list(enumerate_su_sequences(0)), ValueError,
                 "n must be >= 1", id="enumerate_su_sequences"),
    pytest.param(lambda: enumerate_self_conjugate_symbols(0), ValueError,
                 "n must be >= 1", id="enumerate_self_conjugate_symbols"),
    pytest.param(lambda: count_complete_odd_partitions(-1), ValueError,
                 "n must be >= 0", id="count_complete_odd_partitions"),
    pytest.param(lambda: enumerate_complete_odd_partitions(-1), ValueError,
                 "n must be >= 0", id="enumerate_complete_odd_partitions"),
    pytest.param(lambda: count_even_part_parity(-1, 2), ValueError,
                 "n must be >= 0", id="count_even_part_parity"),
    pytest.param(lambda: count_even_part_parity(-1, 1), ValueError,
                 "defined for k >= 2 only", id="count_even_part_parity-k-first"),
    pytest.param(lambda: even_part_parity_counts(-1, 2), ValueError,
                 "n_max must be >= 0", id="even_part_parity_counts"),
    pytest.param(lambda: even_part_parity_counts(-1, 1), ValueError,
                 "defined for k >= 2 only", id="even_part_parity_counts-k-first"),
    pytest.param(lambda: odd_parts_to_self_conjugate(Partition()), ValueError,
                 "empty partition has no symbol", id="odd_parts_to_self_conjugate"),
    # the two maps that slice rows from their argument take exactly its type
    pytest.param(lambda: durfee_decompose(SUSequence((1, 2))), ValueError,
                 "argument must be a Partition: SUSequence(parts=(1, 2))",
                 id="durfee_decompose-not-a-partition"),
    pytest.param(lambda: su_symbol(Partition((3, 1))), ValueError,
                 "argument must be an SUSequence: Partition(parts=(3, 1))",
                 id="su_symbol-not-a-sequence"),
    # inputs that break two rules at once: the rule reported first
    pytest.param(lambda: Partition((3, 5, 0)), ValueError,
                 "parts not weakly decreasing: (3, 5, 0)", id="Partition-order-before-sign"),
    pytest.param(lambda: Partition((0, 2)), ValueError,
                 "nonpositive part 0", id="Partition-sign-before-order"),
    pytest.param(lambda: Partition((0, 2.5)), ValueError,
                 "not an integer: 2.5", id="Partition-integers-before-sign"),
    pytest.param(lambda: SUSequence((0, 2, 1)), ValueError,
                 "parts must be positive", id="SUSequence-sign-before-shape"),
    pytest.param(lambda: SUSequence((0, 2.5)), ValueError,
                 "not an integer: 2.5", id="SUSequence-integers-before-sign"),
    pytest.param(lambda: SUSequence((1, 1, 3, 2, 2)), ValueError,
                 "not strictly increasing before the peak: (1, 1, 3, 2, 2)",
                 id="SUSequence-left-before-right"),
    pytest.param(lambda: combinat.DurfeeSymbol(Partition((3,)), Partition((4,)), 0),
                 ValueError, "side must be >= 1", id="DurfeeSymbol-side-before-parts"),
    pytest.param(lambda: combinat.DurfeeSymbol(Partition((3,)), Partition((4,)), 2),
                 ValueError, "part 3 exceeds side 2", id="DurfeeSymbol-top-before-bottom"),
    pytest.param(lambda: SUSymbol(Partition((2, 2)), Partition((5,)), 3), ValueError,
                 "row not strictly decreasing: (2, 2)", id="SUSymbol-top-before-bottom"),
    pytest.param(lambda: SUSymbol(Partition((3, 3)), Partition(), 3), ValueError,
                 "row part 3 not below peak 3", id="SUSymbol-peak-before-repeat"),
    pytest.param(lambda: SUSymbol(Partition((2, 2)), Partition(), 0), ValueError,
                 "peak must be >= 1", id="SUSymbol-peak-before-rows"),
    pytest.param(lambda: KMarkedDurfeeSymbol(((0, 3),), (), 2, 2), ValueError,
                 "invalid 2-marked Durfee symbol: nonpositive part value 0",
                 id="marked-value-before-mark"),
    pytest.param(lambda: KMarkedDurfeeSymbol(((3, 1),), (), 0, 1), ValueError,
                 "invalid 1-marked Durfee symbol: side must be >= 1",
                 id="marked-side-before-rows"),
    pytest.param(lambda: KMarkedSUSymbol(((2.5, 1),), (), 0.5, 1), ValueError,
                 "not an integer: 2.5", id="marked-rows-read-before-peak"),
    pytest.param(lambda: KMarkedSUSymbol((), (), 0.5, 2.5), ValueError,
                 "not an integer: 0.5", id="marked-peak-read-before-k"),
    pytest.param(lambda: KMarkedSUSymbol(((1, 2),), ((5, 1),), 6, 2), ValueError,
                 "invalid 2-marked unimodal symbol: mark 1 missing from the top row",
                 id="marked-top-marks-before-bottom-intervals"),
    # the bottom row meets the same checks as the top row
    pytest.param(lambda: combinat.DurfeeSymbol(Partition((1,)), Partition((3,)), 2),
                 ValueError, "part 3 exceeds side 2", id="DurfeeSymbol-bottom-beyond-side"),
    pytest.param(lambda: SUSymbol(Partition((1,)), Partition((3, 1)), 3), ValueError,
                 "row part 3 not below peak 3", id="SUSymbol-bottom-at-peak"),
    pytest.param(lambda: SUSymbol(Partition((2,)), Partition((4, 1, 1)), 5), ValueError,
                 "row not strictly decreasing: (4, 1, 1)", id="SUSymbol-bottom-repeated-part"),
    pytest.param(lambda: SUSequence((1, 2, 0)), ValueError,
                 "parts must be positive", id="SUSequence-nonpositive-after-peak"),
    # a symbol row must be a Partition, checked after the side or the peak
    pytest.param(lambda: combinat.DurfeeSymbol(SUSequence((1, 2, 1)), Partition(), 2),
                 ValueError, "rows must be Partitions: SUSequence(parts=(1, 2, 1)), "
                 "Partition(parts=())", id="DurfeeSymbol-row-not-a-partition"),
    pytest.param(lambda: SUSymbol(Partition(), (1,), 3), ValueError,
                 "rows must be Partitions: Partition(parts=()), (1,)",
                 id="SUSymbol-row-not-a-partition"),
    pytest.param(lambda: SUSymbol(SUSequence((1,)), Partition(), 0), ValueError,
                 "peak must be >= 1", id="SUSymbol-peak-before-row-type"),
    pytest.param(lambda: combinat.DurfeeSymbol((5,), Partition(), 0.5), ValueError,
                 "not an integer: 0.5", id="DurfeeSymbol-side-read-before-row-type"),
    # one-shot iterators name the value that is not an integer, as tuples do
    pytest.param(lambda: Partition(iter([3, "a"])), ValueError,
                 "not an integer: 'a'", id="Partition-iterator"),
    pytest.param(lambda: SUSequence(iter([1, 2.5, 1])), ValueError,
                 "not an integer: 2.5", id="SUSequence-iterator"),
    pytest.param(lambda: KMarkedSUSymbol(iter([iter((2, "a"))]), (), 3, 1), ValueError,
                 "not an integer: 'a'", id="marked-row-iterator"),
]


@pytest.mark.parametrize("call, error, message", ERRORS)
def test_argument_error(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


@given(st.one_of(st.integers(), st.booleans(), st.integers().map(_Index),
                 st.text(max_size=4), st.floats(), st.none(), st.just(_BrokenIndex())))
@settings(max_examples=200, deadline=None)
def test_one_integer_reads_as_a_tuple_of_one(value):
    """The reader of a side or peak gives the int that the parts reader
    gives, or raises its error type with its text."""
    if isinstance(value, (str, float, type(None), _BrokenIndex)):
        with pytest.raises((TypeError, ValueError)) as expected:
            combinat._integers((value,))
        with pytest.raises(expected.type, match=f"^{re.escape(str(expected.value))}$"):
            combinat._integer(value)
    else:
        read = combinat._integer(value)
        assert type(read) is int and read == combinat._integers((value,))[0]


def test_index_types_stored_as_int():
    assert Partition((_Index(3), True)).parts == (3, 1)
    sym = KMarkedSUSymbol(((True, True),), (), _Index(3), True)
    assert sym.size == 4 and sym.k == 1
    assert type(sym.peak) is int and type(sym.top[0].value) is int


class TestDurfee:
    def test_three_plus_one(self):
        sym = durfee_decompose(Partition((3, 1)))
        assert (sym.top.parts, sym.bottom.parts, sym.side) == ((1, 1), (1,), 1)

    def test_two_plus_two(self):
        sym = durfee_decompose(Partition((2, 2)))
        assert (sym.top.parts, sym.bottom.parts, sym.side) == ((), (), 2)

    def test_singleton(self):
        sym = durfee_decompose(Partition((1,)))
        assert (sym.top.parts, sym.bottom.parts, sym.side) == ((), (), 1)

    def test_empty_partition_rejected(self):
        with pytest.raises(ValueError, match="no Durfee square"):
            durfee_decompose(Partition(()))

    def test_all_five_symbols_of_four(self):
        symbols = [durfee_decompose(p) for p in enumerate_partitions(4)]
        assert [(s.top.parts, s.bottom.parts, s.side) for s in symbols] == [
            ((1, 1, 1), (), 1),
            ((1, 1), (1,), 1),
            ((), (), 2),
            ((1,), (1, 1), 1),
            ((), (1, 1, 1), 1),
        ]

    def test_render(self):
        assert durfee_decompose(Partition((3, 3, 2, 1))).render() == "(2 ; 2+1)_2"
        sym = combinat.DurfeeSymbol(Partition((2, 1)), Partition(()), 2)
        assert sym.render() == "(2+1 ; (empty))_2"

    def test_round_trip_up_to_twelve(self):
        for n in range(1, 13):
            for p in enumerate_partitions(n):
                sym = durfee_decompose(p)
                assert sym.size == n
                assert durfee_recompose(sym) == p

    @given(st.lists(st.integers(1, 9), min_size=1, max_size=9))
    @settings(max_examples=150, deadline=None)
    def test_round_trip_random(self, values):
        p = Partition(tuple(sorted(values, reverse=True)))
        assert durfee_recompose(durfee_decompose(p)) == p

    def test_matches_column_counts_to_24(self):
        # the conjugates read one square row at a time against a count of
        # each column and of each square row on its own
        def by_column_counts(parts):
            side = 0
            for i, v in enumerate(parts, start=1):
                if v >= i:
                    side = i
                else:
                    break
            top = tuple(sum(1 for i in range(side) if parts[i] >= c)
                        for c in range(side + 1, parts[0] + 1))
            return top, parts[side:], side

        def rows_by_counts(top, bottom, side):
            return tuple(side + sum(1 for a in top if a >= i)
                         for i in range(1, side + 1)) + tuple(bottom)

        for n in range(1, 25):
            for p in enumerate_partitions(n):
                sym = durfee_decompose(p)
                expected = by_column_counts(p.parts)
                assert (sym.top.parts, sym.bottom.parts, sym.side) == expected, p
                assert combinat._recomposed(*expected) == rows_by_counts(*expected), p
                assert combinat._recomposed(*expected) == p.parts


class TestDysonRank:
    def test_single_part(self):
        assert dyson_rank(Partition((4,))) == 3

    def test_empty_partition_rejected(self):
        with pytest.raises(ValueError):
            dyson_rank(Partition(()))

    def test_rank_zero_at_four(self):
        assert rank_census_partitions(4).get(0, 0) == 1  # only 2+2

    def test_census_totals_and_symmetry(self):
        for n in range(1, 21):
            census = rank_census_partitions(n)
            assert sum(census.values()) == len(list(enumerate_partitions(n)))
            assert all(census[m] == census.get(-m, 0) for m in census)


class TestUnimodalSequences:
    def test_the_four_sequences_of_four(self):
        assert [s.parts for s in enumerate_su_sequences(4)] == [
            (4,), (1, 3), (3, 1), (1, 2, 1)]

    def test_rank_examples(self):
        assert su_rank(SUSequence((1, 3))) == -1
        assert su_rank(SUSequence((3, 1))) == 1
        assert su_rank(SUSequence((1, 2, 1))) == 0

    def test_total_at_one(self):
        assert sum(rank_census_unimodal(1).values()) == 1

    def test_nothing_at_zero(self):
        assert marked_unimodal_counts(0, 1) == [[0]]
        assert marked_unimodal_censuses(0, 1) == [{}]

    def test_size(self):
        assert SUSequence((1, 3, 2)).size == 6

    def test_census_total(self):
        for n in range(1, 21):
            census = rank_census_unimodal(n)
            assert sum(census.values()) == len(list(enumerate_su_sequences(n)))

    def test_listing_matches_sorted_triples_to_24(self):
        # the listing of each peak's rows against one sort of every
        # (peak, top, bottom) triple, order included
        for n in range(1, 25):
            triples = sorted(
                (-peak, top, bottom) for peak in range(1, n + 1)
                for top_size in range(n - peak + 1)
                for top in combinat._parts(top_size, peak - 1, strict=True)
                for bottom in combinat._parts(n - peak - top_size, peak - 1, strict=True))
            expected = [bottom[::-1] + (-minus_peak,) + top
                        for minus_peak, top, bottom in triples]
            assert [s.parts for s in enumerate_su_sequences(n)] == expected, n

    def test_invalid_sequences_rejected(self):
        for bad in ((2, 2), (1, 3, 3, 1), (3, 1, 2), ()):
            with pytest.raises(ValueError):
                SUSequence(bad)


class TestUnimodalSymbols:
    def test_figure_symbols_of_four(self):
        symbols = [su_symbol(s) for s in enumerate_su_sequences(4)]
        assert [(s.top.parts, s.bottom.parts, s.peak) for s in symbols] == [
            ((), (), 4),
            ((), (1,), 3),
            ((1,), (), 3),
            ((1,), (1,), 2),
        ]

    def test_round_trip_up_to_twelve(self):
        for n in range(1, 13):
            for seq in enumerate_su_sequences(n):
                sym = su_symbol(seq)
                assert sym.size == n
                assert su_sequence(sym) == seq

    def test_row_below_peak_enforced(self):
        with pytest.raises(ValueError):
            SUSymbol(Partition((3,)), Partition(()), 3)


class TestUncheckedRows:
    """The bottom Durfee row and both unimodal rows are sliced from a checked
    argument and built by ``Partition._unchecked``; the symbols still check
    every row against the side or the peak."""

    @staticmethod
    def assert_as_checked(row):
        checked = Partition(row.parts)
        assert type(row) is Partition and type(row.parts) is tuple
        assert row == checked and hash(row) == hash(checked) and repr(row) == repr(checked)

    def test_durfee_rows_equal_checked_rows_to_20(self):
        for n in range(1, 21):
            for p in enumerate_partitions(n):
                sym = durfee_decompose(p)
                self.assert_as_checked(sym.top)
                self.assert_as_checked(sym.bottom)

    def test_unimodal_rows_equal_checked_rows_to_16(self):
        for n in range(1, 17):
            for seq in enumerate_su_sequences(n):
                sym = su_symbol(seq)
                self.assert_as_checked(sym.top)
                self.assert_as_checked(sym.bottom)

    def test_subclass_arguments_refused(self):
        class Sub(Partition):
            __slots__ = ()

        class SubSequence(SUSequence):
            __slots__ = ()

        for call, arg, kind in ((durfee_decompose, Sub((2, 1)), "a Partition"),
                                (su_symbol, SubSequence((1, 2)), "an SUSequence")):
            message = f"argument must be {kind}: {arg!r}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call(arg)

    @pytest.mark.parametrize("top, bottom, message", [
        ((1, 2), (), "row not strictly decreasing: (1, 2)"),
        ((), (2, 2), "row not strictly decreasing: (2, 2)"),
        ((3, 1), (), "row part 3 not below peak 3"),
    ])
    def test_unimodal_symbol_refuses_an_unchecked_row(self, top, bottom, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SUSymbol(Partition._unchecked(top), Partition._unchecked(bottom), 3)

    def test_durfee_symbol_refuses_an_unchecked_row_beyond_the_side(self):
        with pytest.raises(ValueError, match="^part 3 exceeds side 2$"):
            combinat.DurfeeSymbol(Partition(), Partition._unchecked((3, 1)), 2)


class TestMarkedDurfee:
    FIG_TOP = ((4, 3), (4, 3), (3, 2), (3, 2), (2, 2), (2, 1))
    FIG_BOTTOM = ((5, 3), (3, 2), (2, 2), (2, 1))

    def test_three_marked_symbol_of_55(self):
        sym = KMarkedDurfeeSymbol(self.FIG_TOP, self.FIG_BOTTOM, side=5, k=3)
        assert sym.size == 55
        assert durfee_ranks(sym) == (-1, 0, 1)

    def test_missing_top_mark_rejected(self):
        with pytest.raises(ValueError, match="missing from the top row"):
            KMarkedDurfeeSymbol(((2, 2),), (), side=3, k=3)

    def test_bottom_interval_rejected(self):
        # largest mark-1 top part is 1, so a bottom 3_1 is out of range
        with pytest.raises(ValueError, match="outside"):
            KMarkedDurfeeSymbol(((1, 1),), ((3, 1),), side=3, k=2)

    def test_increasing_marks_rejected(self):
        with pytest.raises(ValueError, match="marks not nonincreasing"):
            KMarkedDurfeeSymbol(((3, 1), (2, 2), (1, 1)), (), side=3, k=3)

    def test_ascending_row_is_stored_descending(self):
        # rows are sorted before they are checked, so no order is rejected
        sym = KMarkedDurfeeSymbol(((1, 1), (2, 1), (2, 2), (3, 2)), ((1, 1), (3, 2)),
                                  side=3, k=2)
        assert sym.top == (MarkedPart(3, 2), MarkedPart(2, 2), MarkedPart(2, 1),
                           MarkedPart(1, 1))
        assert sym.bottom == (MarkedPart(3, 2), MarkedPart(1, 1))

    def test_k1_census_totals_partition_count(self):
        census = rank_census_marked_durfee(5, 1)
        assert sum(census.values()) == 7

    def test_k1_ranks_match_dyson(self):
        for n in range(1, 13):
            expected = {(m,): c for m, c in rank_census_partitions(n).items()}
            assert rank_census_marked_durfee(n, 1) == expected

    def test_k1_listing_is_the_plain_symbols_marked_1(self):
        # at k=1 the row checks alone decide: every mark is 1 and M_1 is the side
        for n in range(1, 15):
            plain = [(tuple((v, 1) for v in s.top.parts), tuple((v, 1) for v in s.bottom.parts),
                      s.side) for s in map(durfee_decompose, enumerate_partitions(n))]
            assert [(s.top, s.bottom, s.side) for s in enumerate_marked_durfee(n, 1)] == plain

    def test_k1_rejections_come_from_the_rows(self):
        with pytest.raises(ValueError, match="exceeds side 1"):
            KMarkedDurfeeSymbol((), ((2, 1),), side=1, k=1)
        with pytest.raises(ValueError, match="mark 2 outside 1..1"):
            KMarkedDurfeeSymbol(((1, 2),), (), side=1, k=1)

    def test_sizes_and_validity(self):
        for n in range(1, 11):
            for sym in enumerate_marked_durfee(n, 2):
                assert sym.size == n

    def test_matches_marking_oracle(self):
        # k = 4 walks chains of three largest marked parts
        cells = [(n, k) for n in range(1, 15) for k in (1, 2, 3)]
        for n, k in cells + [(n, 4) for n in range(1, 11)]:
            constructed = enumerate_marked_durfee(n, k)
            assert constructed == durfee_by_filter(n, k), (n, k)
            assert len(set(constructed)) == len(constructed)  # duplicate-free

    def test_large_k_lists_only_chains_that_fit(self):
        # at n = k + 1 every symbol has side 1, chain 1..1 and one free part
        # 1 in one of 2k pools; a chain of k - 1 values up to side 7 does
        # not fit at k = 60, and listing it would take minutes
        for k in range(1, 7):
            assert len(enumerate_marked_durfee(k + 1, k)) == sum(
                marked_durfee_censuses(k + 1, k)[k + 1].values()) == 2 * k
        symbols = enumerate_marked_durfee(61, 60)
        assert len(symbols) == len(set(symbols)) == 120
        assert {s.side for s in symbols} == {1}


class TestMarkedUnimodal:
    def test_unique_symbol_of_three(self):
        symbols = enumerate_marked_unimodal(3, 2)
        assert len(symbols) == 1
        sym = symbols[0]
        assert sym.top == (MarkedPart(1, 1),)
        assert sym.bottom == ()
        assert sym.peak == 2
        assert unimodal_ranks(sym) == (0, 0)

    def test_nothing_below_three(self):
        assert enumerate_marked_unimodal(1, 2) == []
        assert enumerate_marked_unimodal(2, 2) == []

    def test_two_symbols_of_four(self):
        symbols = enumerate_marked_unimodal(4, 2)
        shapes = [(s.top, s.bottom, s.peak) for s in symbols]
        assert shapes == [
            ((MarkedPart(1, 1),), (MarkedPart(1, 1),), 2),
            ((MarkedPart(1, 1),), (), 3),
        ]
        assert [unimodal_ranks(s) for s in symbols] == [(-1, 0), (0, 0)]

    def test_smallest_size_is_triangular(self):
        for k in range(1, 5):
            first = k * (k + 1) // 2
            for n in range(1, first):
                assert enumerate_marked_unimodal(n, k) == []
            assert len(enumerate_marked_unimodal(first, k)) == 1

    def test_k1_matches_plain_symbols(self):
        for n in range(1, 13):
            expected = {(m,): c for m, c in rank_census_unimodal(n).items()}
            assert rank_census_marked_unimodal(n, 1) == expected

    def test_k1_listing_is_the_plain_symbols_marked_1(self):
        # at k=1 the row checks alone decide: every mark is 1 and M_1 is the peak
        for n in range(1, 15):
            plain = [(tuple((v, 1) for v in s.top.parts), tuple((v, 1) for v in s.bottom.parts),
                      s.peak) for s in map(su_symbol, enumerate_su_sequences(n))]
            assert [(s.top, s.bottom, s.peak) for s in enumerate_marked_unimodal(n, 1)] == plain

    def test_k1_rejections_come_from_the_rows(self):
        with pytest.raises(ValueError, match="not below peak 2"):
            KMarkedSUSymbol(((2, 1),), (), peak=2, k=1)
        with pytest.raises(ValueError, match="mark 2 outside 1..1"):
            KMarkedSUSymbol((), ((1, 2),), peak=2, k=1)

    def test_filter_and_constructive_agree(self):
        # k = 4 walks chains of three largest marked parts
        cells = [(n, k) for n in range(1, 15) for k in (1, 2, 3)]
        for n, k in cells + [(n, 4) for n in range(1, 16)]:
            constructed = enumerate_marked_unimodal(n, k)
            assert constructed == unimodal_by_filter(n, k), (n, k)
            assert len(set(constructed)) == len(constructed)  # duplicate-free

    def test_large_k_matches_counts(self):
        # chains of 11..14 largest marked parts below peaks up to n: only
        # the few that fit in the room the peak leaves may be walked
        for n, k in ((70, 12), (78, 12), (100, 14), (133, 15)):
            expected = marked_unimodal_counts(n, k)[-1][n]
            assert len(enumerate_marked_unimodal(n, k)) == expected, (n, k)

    def test_sizes_reconstruct(self):
        for n in range(1, 13):
            for sym in enumerate_marked_unimodal(n, 2):
                assert sym.peak + sum(p.value for p in sym.top + sym.bottom) == n

    def test_corrected_three_marked_rank_arithmetic(self):
        # bottom mark-3 values must lie strictly between M_2 and the peak
        sym = KMarkedSUSymbol(
            top=((4, 3), (3, 2), (2, 2), (1, 1)),
            bottom=((4, 3), (2, 2), (1, 1)),
            peak=5, k=3)
        assert sym.size == 22
        assert unimodal_ranks(sym) == (-1, 0, 0)

    def test_bottom_mark_k_at_interval_edge_rejected(self):
        # with M_2 = 3 and peak 5, a bottom 3_3 sits below the allowed window
        with pytest.raises(ValueError, match="outside"):
            KMarkedSUSymbol(
                top=((4, 3), (3, 2), (2, 2), (1, 1)),
                bottom=((3, 3), (2, 2), (1, 1)),
                peak=5, k=3)

    def test_bottom_may_reuse_top_interval_endpoint(self):
        # bottom mark-j values for j < k may equal M_j
        sym = KMarkedSUSymbol(
            top=((2, 1),), bottom=((2, 1),), peak=3, k=2)
        assert unimodal_ranks(sym) == (-1, 0)

    def test_count_by_rank_vector(self):
        assert marked_unimodal_censuses(3, 2)[3].get((0, 0), 0) == 1
        assert marked_unimodal_censuses(4, 2)[4].get((-1, 0), 0) == 1
        assert marked_unimodal_censuses(4, 2)[4].get((5, 5), 0) == 0
        assert marked_durfee_censuses(2, 2)[2].get((0, 0), 0) == 1

    def test_unimodal_census_by_rank(self):
        assert rank_census_unimodal(4).get(0, 0) == 2
        assert rank_census_unimodal(4).get(-1, 0) == 1
        assert rank_census_unimodal(4).get(7, 0) == 0


def _tally(ranks, symbols):
    return dict(Counter(map(ranks, symbols)))


# census, listing, rank statistic and marking oracle of each marked family
MARKED_FAMILIES = {
    "durfee": (rank_census_marked_durfee, enumerate_marked_durfee, durfee_ranks,
               durfee_by_filter),
    "unimodal": (rank_census_marked_unimodal, enumerate_marked_unimodal, unimodal_ranks,
                 unimodal_by_filter),
}


class TestMarkedCensus:
    """The counting census of each marked family against its listing tally."""

    @pytest.mark.parametrize("family", MARKED_FAMILIES)
    def test_equals_listing_and_oracle_tallies(self, family):
        census, listing, ranks, oracle = MARKED_FAMILIES[family]
        for k in (1, 2, 3):
            for n in range(1, 15):
                counted = census(n, k)
                assert counted == _tally(ranks, listing(n, k)), (n, k)
                assert counted == _tally(ranks, oracle(n, k)), (n, k)
                assert list(counted) == sorted(counted) and all(counted.values()), (n, k)

    # the Durfee listing grows fastest: at k=4, n=18 it builds 209,607 symbols
    # (about 15 s), so Durfee draws above k=2 stop at n=12
    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_equals_listing_tally_random(self, data):
        family = data.draw(st.sampled_from(sorted(MARKED_FAMILIES)))
        census, listing, ranks, _ = MARKED_FAMILIES[family]
        k = data.draw(st.integers(1, 4))
        n = data.draw(st.integers(1, 18 if family == "unimodal" or k <= 2 else 12))
        assert census(n, k) == _tally(ranks, listing(n, k))

    @pytest.mark.parametrize("family", MARKED_FAMILIES)
    def test_argument_errors_unchanged(self, family):
        census = MARKED_FAMILIES[family][0]
        for n, k, message in ((0, 2, "n must be >= 1"), (0, 0, "n must be >= 1"),
                              (3, 0, "k must be >= 1"), (-1, 1, "n must be >= 1")):
            with pytest.raises(ValueError, match=f"^{message}$"):
                census(n, k)


# the value walk of each marked family, counting every size up to n_max at once
WALKS = {"durfee": combinat.marked_durfee_censuses,
         "unimodal": combinat.marked_unimodal_censuses}
LEAST_SIZE = {"durfee": lambda k: k, "unimodal": lambda k: k * (k + 1) // 2}


class TestValueWalks:
    """Each walk against the listing tally and the marking oracle, which
    share no code with it (`tests/test_source.py` holds it to that)."""

    @pytest.mark.parametrize("family", WALKS)
    def test_one_call_equals_listing_and_oracle_tallies(self, family):
        _, listing, ranks, oracle = MARKED_FAMILIES[family]
        for k in (1, 2, 3):
            censuses = WALKS[family](14, k)
            assert len(censuses) == 15 and censuses[0] == {}, k
            for n in range(1, 15):
                counted = censuses[n]
                assert counted == _tally(ranks, listing(n, k)), (n, k)
                assert counted == _tally(ranks, oracle(n, k)), (n, k)
                assert list(counted) == sorted(counted) and all(counted.values()), (n, k)

    @pytest.mark.parametrize("family", WALKS)
    def test_edges(self, family):
        walk = WALKS[family]
        for k in (1, 2, 5):
            assert walk(0, k) == [{}]
        for k in range(1, 6):
            least = LEAST_SIZE[family](k)
            censuses = walk(least + 2, k)
            assert censuses[:least] == [{}] * least, k
            assert sum(censuses[least].values()) == 1, k
            # the census of a size does not depend on how far the walk goes
            assert walk(least - 1, k) == censuses[:least], k

    # draws as in TestMarkedCensus: the Durfee listing above k=2 stops at n=12
    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_equals_listing_tally_random(self, data):
        family = data.draw(st.sampled_from(sorted(WALKS)))
        _, listing, ranks, _ = MARKED_FAMILIES[family]
        k = data.draw(st.integers(1, 4))
        n_max = data.draw(st.integers(0, 18 if family == "unimodal" or k <= 2 else 12))
        n = data.draw(st.integers(0, n_max))
        censuses = WALKS[family](n_max, k)
        assert len(censuses) == n_max + 1
        for m in {n, n_max} - {0}:
            assert censuses[m] == _tally(ranks, listing(m, k)), (m, k)

    @pytest.mark.parametrize("family", WALKS)
    def test_argument_errors(self, family):
        for n_max, k, message in ((-1, 2, "n_max must be >= 0"), (-1, 0, "n_max must be >= 0"),
                                  (3, 0, "k must be >= 1"), (0, -2, "k must be >= 1")):
            with pytest.raises(ValueError, match=f"^{message}$"):
                WALKS[family](n_max, k)

    @pytest.mark.parametrize("function", [
        combinat.marked_durfee_censuses, combinat.marked_unimodal_censuses,
        rank_census_marked_durfee, rank_census_marked_unimodal])
    def test_huge_k_builds_no_rows(self, function):
        # k rows of n_max + 1 dicts would take gigabytes at k = 10**6
        started = time.perf_counter()
        result = function(5, 10 ** 6)
        assert time.perf_counter() - started < 0.1
        assert result in ({}, [{}] * 6)

    def test_large_k_walks_only_sizes_with_room(self):
        # each open mark walks only the sizes that leave room for its forced parts
        started = time.perf_counter()
        censuses = combinat.marked_durfee_censuses(16, 14)
        assert time.perf_counter() - started < 0.3
        for n in range(17):
            listed = enumerate_marked_durfee(n, 14) if n else []
            assert censuses[n] == _tally(durfee_ranks, listed), n
        assert sum(censuses[16].values()) == 406

    # recorded from the walk that absorbed each part value in x by two +-1
    # passes, before it walked in y_j = x_j + 1/x_j alone and rewrote in x:
    # the values and key order of every x census up to n_max, and of one size
    @pytest.mark.parametrize("n_max, k, digest", [
        (20, 3, "85d450870e460c6b08dd09e19942105194e0a31ffa8efa88528e53db448ac87a"),
        (16, 14, "712b2665efb476f15d9cd2d40d27b274f4ccdeb8b7dc255eb99f6f3dc73812c1"),
        (12, 4, "e269fec70f8e44e6b7974e4245e13bc8b2897cef141851001ab6d6f5b3802480")])
    def test_x_censuses_keep_their_digest(self, n_max, k, digest):
        censuses = combinat.marked_durfee_censuses(n_max, k)
        items = [list(census.items()) for census in censuses]
        assert hashlib.sha256(repr(items).encode()).hexdigest() == digest

    def test_x_census_of_one_size_keeps_its_digest(self):
        items = list(rank_census_marked_durfee(18, 4).items())
        assert hashlib.sha256(repr(items).encode()).hexdigest() == (
            "6b940b9f00777fd207ddbe5eed8183e53ed32c7234ae02787305d973679a0a52")


@pytest.mark.parametrize("symmetric", [False, True])
def test_marked_unimodal_counts_checks_arguments_like_the_walks(symmetric):
    # k_max = 0 gave [] (so `[-1]` raised IndexError) and n_max = -1 an isqrt error
    for n_max, k_max, message in ((5, 0, "k must be >= 1"), (-1, 1, "n_max must be >= 0"),
                                  (-1, 0, "n_max must be >= 0")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            combinat.marked_unimodal_counts(n_max, k_max, symmetric=symmetric)
    assert combinat.marked_unimodal_counts(0, 1, symmetric=symmetric) == [[0]]


class TestSelfConjugate:
    def test_counts_k1(self):
        assert count_self_conjugate(4, 1) == 2  # (4) and (1,2,1)

    def test_counts_k2(self):
        assert count_self_conjugate(4, 2) == 1
        for n in range(1, 4):
            assert count_self_conjugate(n, 2) == 0

    def test_against_filter_enumeration(self):
        for n in range(1, 15):
            for k in (1, 2, 3):
                assert count_self_conjugate(n, k) == self_conjugate_by_filter(n, k), (n, k)
        for n in range(1, 17):
            assert count_self_conjugate(n, 4) == self_conjugate_by_filter(n, 4), n

    def test_against_marking_weights(self):
        # k up to 10 covers the all-0 rows past the most marks n can hold
        for n in range(1, 31):
            for k in range(1, 11):
                assert count_self_conjugate(n, k) == self_conjugate_by_markings(n, k), (n, k)

    def test_matches_complete_odd_partitions(self):
        for n in range(1, 31):
            assert count_self_conjugate(n, 1) == count_complete_odd_partitions(n)

    def test_enumerator_matches_count(self):
        for n in range(1, 21):
            symbols = enumerate_self_conjugate_symbols(n)
            assert len(symbols) == count_self_conjugate(n, 1)
            assert all(s.top == s.bottom and s.size == n for s in symbols)

    def test_enumerator_order(self):
        # the docstring's order: peak descending, then rows ascending
        for n in range(1, 31):
            symbols = enumerate_self_conjugate_symbols(n)
            assert symbols == sorted(
                symbols, key=lambda s: (-s.peak, s.top.parts, s.bottom.parts)), n


class TestEvenPartParity:
    def test_at_four(self):
        assert count_even_part_parity(4, 2) == (1, 0)

    def test_empty_below_four(self):
        for n in range(4):
            assert count_even_part_parity(n, 2) == (0, 0)

    def test_identity_at_four(self):
        with_odd, with_even = count_even_part_parity(4, 2)
        assert (with_odd - with_even) == count_self_conjugate(4, 2)

    def test_identity_to_150(self):
        # Theorem 1.5 on the combinat side, past the decoration recursion's reach
        for k in range(2, 6):
            symmetric = combinat.marked_unimodal_counts(150, k, symmetric=True)[-1]
            for n, (with_odd, with_even) in enumerate(even_part_parity_counts(150, k)):
                assert symmetric[n] == (-1) ** k * (with_odd - with_even), (n, k)

    def test_against_decoration_recursion(self):
        for k in range(2, 6):
            for n in range(41):
                assert count_even_part_parity(n, k) == even_part_parity_by_recursion(n, k), (n, k)

    def test_pairs_to_200(self):
        # the pairs past the decoration recursion's reach (n <= 40)
        pairs = [even_part_parity_counts(200, k) for k in range(2, 7)]
        assert hashlib.sha256(repr(pairs).encode()).hexdigest() == (
            "ab083b87ef1702b62c5eefbcda5e7e2ff5f7a7842e3f2528108149908cc01c26")

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError, match="k >= 2"):
            count_even_part_parity(4, 1)

    def test_first_configuration_at_k_squared(self):
        # the least one is k ones and the even values 2, 4, .., 2k - 2
        for k in range(2, 8):
            for n in range(k * k + 1):
                expected = even_part_parity_by_recursion(n, k)
                assert count_even_part_parity(n, k) == expected, (n, k)
                assert (expected == (0, 0)) == (n < k * k), (n, k)

    def test_huge_k_builds_no_tables(self):
        # filling k tables of n + 1 rows takes seconds at k = 10**4
        started = time.perf_counter()
        assert count_even_part_parity(30, 10 ** 4) == (0, 0)
        assert time.perf_counter() - started < 0.1
        assert even_part_parity_counts(30, 10 ** 4) == [(0, 0)] * 31
        assert time.perf_counter() - started < 0.1

    def test_all_sizes_match_each_size(self):
        for k in range(2, 8):
            each = [count_even_part_parity(n, k) for n in range(41)]
            for n_max in range(41):
                assert even_part_parity_counts(n_max, k) == each[: n_max + 1], (n_max, k)

class TestSelfConjugateBijection:
    def test_one_two_one(self):
        p = self_conjugate_to_odd_parts(su_symbol(SUSequence((1, 2, 1))))
        assert p.parts == (3, 1)

    def test_single_column(self):
        p = self_conjugate_to_odd_parts(su_symbol(SUSequence((4,))))
        assert p.parts == (1, 1, 1, 1)

    def test_round_trip_both_ways_up_to_twenty(self):
        for n in range(1, 21):
            for sym in enumerate_self_conjugate_symbols(n):
                p = self_conjugate_to_odd_parts(sym)
                assert p.size == n
                assert len(p.parts) == sym.peak
                assert odd_parts_to_self_conjugate(p) == sym
            for p in enumerate_complete_odd_partitions(n):
                sym = odd_parts_to_self_conjugate(p)
                assert self_conjugate_to_odd_parts(sym) == p

    def test_not_self_conjugate_rejected(self):
        with pytest.raises(ValueError, match="not self-conjugate"):
            self_conjugate_to_odd_parts(su_symbol(SUSequence((1, 3))))

    def test_even_part_rejected(self):
        with pytest.raises(ValueError, match="even part"):
            odd_parts_to_self_conjugate(Partition((2, 1)))

    def test_missing_odd_value_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            odd_parts_to_self_conjugate(Partition((5, 3)))  # no 1

    def test_complete_odd_counts(self):
        assert count_complete_odd_partitions(4) == 2  # 3+1 and 1+1+1+1
        assert count_complete_odd_partitions(7) == 3

    def test_complete_odd_partitions_filter_all_partitions_in_order(self):
        for n in range(31):
            expected = [p for p in enumerate_partitions(n)
                        if set(p.parts) == set(range(1, max(p.parts, default=0) + 1, 2))]
            assert enumerate_complete_odd_partitions(n) == expected, n


def _decreasing_compositions(n):
    """Weakly decreasing compositions of n, read off every set of cut points
    between n dots in a row."""
    if n == 0:
        return [()]
    found = []
    for cuts in itertools.product((False, True), repeat=n - 1):
        ends = [0, *itertools.compress(range(1, n), cuts), n]
        parts = tuple(map(operator.sub, ends[1:], ends))
        if all(map(operator.ge, parts, parts[1:])):
            found.append(parts)
    return found


class TestParts:
    """The one parts enumerator against a brute-force filter of compositions."""

    def test_matches_filtered_compositions(self):
        for n in range(21):
            candidates = [(p, set(p), len(set(p)) == len(p))
                          for p in sorted(_decreasing_compositions(n), reverse=True)]
            for largest in range(n + 1):
                for smallest in range(1, n + 2):
                    allowed = set(range(smallest, largest + 1))
                    for strict in (False, True):
                        expected = [p for p, values, distinct in candidates
                                    if values <= allowed and (distinct or not strict)]
                        got = list(combinat._parts(n, largest, smallest, strict))
                        assert got == expected, (n, largest, smallest, strict)

    def test_chains_match_filtered_combinations(self):
        for strict in (False, True):
            pick = itertools.combinations if strict else itertools.combinations_with_replacement
            for count in range(6):
                for below in range(9):
                    chains = list(pick(range(1, below + 1), count))
                    for room in range(31):
                        expected = sorted(c for c in chains if sum(c) <= room)
                        got = list(marked._chains(count, below, room, strict))
                        assert sorted(got) == expected, (count, below, room, strict)
                        assert len(set(got)) == len(got)
