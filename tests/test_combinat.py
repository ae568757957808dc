"""Tests for enumeration, validation, rank statistics, and bijections."""

import itertools
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qranks import combinat
from qranks.combinat import (
    KMarkedDurfeeSymbol,
    KMarkedSUSymbol,
    MarkedPart,
    Partition,
    SUSequence,
    SUSymbol,
    count_complete_odd_partitions,
    count_even_part_parity,
    count_partitions_by_rank,
    count_self_conjugate,
    count_unimodal_by_rank,
    count_unimodal_total,
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


class TestDysonRank:
    def test_single_part(self):
        assert dyson_rank(Partition((4,))) == 3

    def test_empty_partition_rejected(self):
        with pytest.raises(ValueError):
            dyson_rank(Partition(()))

    def test_delta_convention_at_zero(self):
        assert count_partitions_by_rank(0, 0) == 1
        assert count_partitions_by_rank(3, 0) == 0
        assert count_partitions_by_rank(-1, 0) == 0

    def test_rank_zero_at_four(self):
        assert count_partitions_by_rank(0, 4) == 1  # only 2+2

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
        assert count_unimodal_total(1) == 1

    def test_census_total(self):
        for n in range(1, 21):
            census = rank_census_unimodal(n)
            assert sum(census.values()) == count_unimodal_total(n)

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

    def test_k1_census_totals_partition_count(self):
        census = rank_census_marked_durfee(5, 1)
        assert sum(census.values()) == 7

    def test_k1_ranks_match_dyson(self):
        for n in range(1, 13):
            expected = {(m,): c for m, c in rank_census_partitions(n).items()}
            assert rank_census_marked_durfee(n, 1) == expected

    def test_sizes_and_validity(self):
        for n in range(1, 11):
            for sym in enumerate_marked_durfee(n, 2):
                assert sym.size == n


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

    def test_filter_and_constructive_agree(self):
        for n in range(1, 15):
            for k in (2, 3):
                filtered = enumerate_marked_unimodal(n, k, "filter")
                constructed = enumerate_marked_unimodal(n, k, "constructive")
                assert filtered == constructed
                assert len(set(filtered)) == len(filtered)  # duplicate-free

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

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="strategy"):
            enumerate_marked_unimodal(4, 2, "guess")

    def test_count_by_rank_vector(self):
        assert combinat.count_marked_unimodal((0, 0), 3, 2) == 1
        assert combinat.count_marked_unimodal((-1, 0), 4, 2) == 1
        assert combinat.count_marked_unimodal((5, 5), 4, 2) == 0
        assert combinat.count_marked_durfee((0, 0), 2, 2) == 1
        with pytest.raises(ValueError, match="length"):
            combinat.count_marked_unimodal((0,), 4, 2)

    def test_count_unimodal_by_rank(self):
        assert count_unimodal_by_rank(0, 4) == 2
        assert count_unimodal_by_rank(-1, 4) == 1
        assert count_unimodal_by_rank(7, 4) == 0


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
                direct = count_self_conjugate(n, k)
                filtered = sum(
                    1 for sym in enumerate_marked_unimodal(n, k, "filter")
                    if sym.top == sym.bottom)
                assert direct == filtered, (n, k)

    def test_matches_complete_odd_partitions(self):
        for n in range(1, 31):
            assert count_self_conjugate(n, 1) == count_complete_odd_partitions(n)

    def test_enumerator_matches_count(self):
        for n in range(1, 21):
            symbols = enumerate_self_conjugate_symbols(n)
            assert len(symbols) == count_self_conjugate(n, 1)
            assert all(s.top == s.bottom and s.size == n for s in symbols)


class TestEvenPartParity:
    def test_at_four(self):
        assert count_even_part_parity(4, 2) == (1, 0)

    def test_empty_below_four(self):
        for n in range(4):
            assert count_even_part_parity(n, 2) == (0, 0)

    def test_identity_at_four(self):
        with_odd, with_even = count_even_part_parity(4, 2)
        assert (with_odd - with_even) == count_self_conjugate(4, 2)

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError, match="k >= 2"):
            count_even_part_parity(4, 1)


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
