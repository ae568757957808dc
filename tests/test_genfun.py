"""Generating-function builders against their enumeration oracles."""

import hashlib
import itertools
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
import series_oracle
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qranks import combinat, genfun
from qranks.series import LaurentCoefficient, TruncatedSeries


def census_as_terms(census):
    return dict(census)


class TestPartitionSeries:
    def test_first_values(self):
        s = genfun.partition_series(10)
        assert s.integer_coefficients() == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]

    def test_matches_enumeration(self):
        s = genfun.partition_series(12)
        for n in range(13):
            assert s.integer_coefficients()[n] == len(list(combinat.enumerate_partitions(n)))


class TestPartitionRankSeries:
    def test_constant_term_is_delta(self):
        s = genfun.partition_rank_series(8)
        assert s.coefficient(0).terms == {(0,): 1}

    def test_rank_zero_of_four(self):
        s = genfun.partition_rank_series(8)
        assert s.coefficient(4, (0,)) == 1

    def test_census_oracle(self):
        s = genfun.partition_rank_series(14)
        for n in range(1, 15):
            census = {(m,): c for m, c in combinat.rank_census_partitions(n).items()}
            assert s.coefficient(n).terms == census


class TestMarkedDurfeeSeries:
    def test_k1_routes_to_partition_ranks(self):
        assert genfun.marked_durfee_rank_series(1, 10) == genfun.partition_rank_series(10)

    def test_k2_empty_at_one(self):
        s = genfun.marked_durfee_rank_series(2, 6)
        assert s.coefficient(1).is_zero()
        assert combinat.rank_census_marked_durfee(1, 2) == {}

    def test_k2_census_oracle(self):
        s = genfun.marked_durfee_rank_series(2, 12)
        for n in range(1, 13):
            assert s.coefficient(n).terms == combinat.rank_census_marked_durfee(n, 2)

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            genfun.marked_durfee_rank_series(0, 5)

    def test_large_k_keeps_only_the_room_outer_indices_leave(self):
        # level j keeps the powers of q up to n_max - (j - 1); a level that
        # keeps fewer drops terms the censuses count
        for k in range(11, 15):
            s = genfun.marked_durfee_rank_series(k, 16)
            censuses = combinat.marked_durfee_censuses(16, k)
            for n in range(17):
                assert s.coeffs[n].terms == censuses[n], (k, n)


def in_x(terms):
    """A coefficient in y_j = x_j + 1/x_j rewritten in x, y_j^a built as
    (x_j + 1/x_j) y_j^(a-1), one variable at a time."""
    for j in range(len(next(iter(terms), ()))):
        top = max(exps[j] for exps in terms)
        powers = [{0: 1}]  # powers[a]: x_j exponent -> coefficient of y_j^a
        for _ in range(top):
            power = {}
            for e, c in powers[-1].items():
                for shifted in (e - 1, e + 1):
                    power[shifted] = power.get(shifted, 0) + c
            powers.append(power)
        expanded = {}
        for exps, value in terms.items():
            for e, c in powers[exps[j]].items():
                key = exps[:j] + (e,) + exps[j + 1:]
                expanded[key] = expanded.get(key, 0) + c * value
        terms = expanded
    return {exps: value for exps, value in terms.items() if value}


class TestSymmetricBasis:
    """R_k and its census in y_j = x_j + 1/x_j, tied to the x basis."""

    @staticmethod
    def check(k, n_max):
        y_series = genfun.marked_durfee_rank_series(k, n_max, y_basis=True)
        y_censuses = combinat.marked_durfee_censuses(n_max, k, y_basis=True)
        x_series = genfun.marked_durfee_rank_series(k, n_max)
        x_censuses = combinat.marked_durfee_censuses(n_max, k)
        for n in range(n_max + 1):
            y_census = y_censuses[n]
            assert in_x(y_series.coeffs[n].terms) == x_series.coeffs[n].terms, (k, n)
            assert in_x(y_census) == x_censuses[n], (k, n)
            assert y_census == (y_series.coeffs[n].terms if n else {}), (k, n)
            assert all(y_census.values()) and list(y_census) == sorted(y_census), (k, n)
            assert all(min(exps) >= 0 for exps in y_census), (k, n)

    @given(st.integers(1, 4), st.integers(0, 12))
    @settings(max_examples=25, deadline=None)
    def test_y_basis_converts_to_x(self, k, n_max):
        self.check(k, n_max)

    @pytest.mark.parametrize("k,n_max", [(2, 30), (3, 25)])
    def test_y_basis_converts_to_x_at_size(self, k, n_max):
        self.check(k, n_max)

    def test_in_x_expands_powers_of_y(self):
        # y^2 = x^2 + 2 + x^-2, and y_1 y_2 - 3 y_2^0 cancels nothing
        assert in_x({(2,): 1}) == {(2,): 1, (0,): 2, (-2,): 1}
        assert in_x({(1, 1): 1, (0, 0): -3}) == {
            (1, 1): 1, (1, -1): 1, (-1, 1): 1, (-1, -1): 1, (0, 0): -3}
        assert in_x({(2,): 1, (0,): -2}) == {(2,): 1, (-2,): 1}

    # signed y coefficients in up to 4 variables, zero values and cancelling
    # terms included: y_1^2 - 2 has no x_1^0 term
    @given(st.integers(1, 4).flatmap(lambda k: st.dictionaries(
        st.tuples(*[st.integers(0, 6)] * k), st.integers(-3, 3), max_size=8)))
    @example({(2,): 1, (0,): -2})
    @example({(2, 1): 2, (0, 1): -4, (4, 0): 1, (2, 0): -4, (0, 0): 2})
    @settings(max_examples=200, deadline=None)
    def test_one_y_to_x_rewrite_equals_in_x(self, terms):
        # the rewrite every x census is read through, and thm-1-1 reports in
        assert combinat._x_form(terms) == in_x(terms)


class TestUnimodalRankSeries:
    def test_first_coefficient(self):
        s = genfun.unimodal_rank_series(6)
        assert s.coefficient(1).terms == {(0,): 1}

    def test_rank_spread_of_four(self):
        s = genfun.unimodal_rank_series(6)
        assert s.coefficient(4).terms == {(0,): 2, (1,): 1, (-1,): 1}

    def test_totals_give_u(self):
        s = genfun.unimodal_rank_series(12)
        for n in range(1, 13):
            total = sum(s.coefficient(n).terms.values())
            assert total == sum(combinat.rank_census_unimodal(n).values())


class TestMarkedUnimodalSeries:
    def test_k2_first_terms(self):
        s = genfun.marked_unimodal_rank_series(2, 5)
        assert s.coefficient(3).terms == {(0, 0): 1}
        assert s.coefficient(3, (0, 0)) == 1
        assert s.coefficient(4).terms == {(0, 0): 1, (-1, 0): 1}
        assert s.coefficient(0).is_zero()
        assert s.coefficient(1).is_zero()
        assert s.coefficient(2).is_zero()

    def test_k1_equals_plain(self):
        assert genfun.marked_unimodal_rank_series(1, 18) == genfun.unimodal_rank_series(18)

    def test_census_oracle_small(self):
        for k in (2, 3):
            s = genfun.marked_unimodal_rank_series(k, 14)
            for n in range(1, 15):
                assert s.coefficient(n).terms == combinat.rank_census_marked_unimodal(n, k)

    @pytest.mark.parametrize("k,n_max", [(5, 24), (6, 30)])
    def test_census_oracle_near_the_least_size(self, k, n_max):
        # a k-marked symbol has size at least k(k+1)/2, so each level has
        # little room left
        s = genfun.marked_unimodal_rank_series(k, n_max)
        censuses = combinat.marked_unimodal_censuses(n_max, k)
        for n in range(n_max + 1):
            assert s.coeffs[n].terms == censuses[n], n


class TestSelfConjugateSeries:
    def test_k1_coefficient_of_four(self):
        s = genfun.self_conjugate_series(1, 8, "raw")
        assert s.integer_coefficients()[4] == 2

    def test_k2_first_values(self):
        s = genfun.self_conjugate_series(2, 8, "raw")
        values = s.integer_coefficients()
        assert values[4] == 1
        assert values[:4] == [0, 0, 0, 0]

    def test_forms_agree_to_forty(self):
        for k in (1, 2, 3):
            raw = genfun.self_conjugate_series(k, 40, "raw")
            simplified = genfun.self_conjugate_series(k, 40, "simplified")
            assert raw == simplified

    def test_counts_oracle(self):
        for k in (1, 2, 3):
            s = genfun.self_conjugate_series(k, 18, "raw")
            for n in range(1, 19):
                assert s.integer_coefficients()[n] == combinat.count_self_conjugate(n, k)

    def test_unknown_form_rejected(self):
        with pytest.raises(ValueError, match="form"):
            genfun.self_conjugate_series(2, 5, "fancy")

    def test_huge_k_stops_at_the_first_empty_level(self):
        # the outer indices leave no room after about sqrt(2 n_max) levels;
        # walking the other 10**6 would take seconds
        started = time.perf_counter()
        for form in ("raw", "simplified"):
            assert genfun.self_conjugate_series(10 ** 6, 30, form) == TruncatedSeries.zero(30, 0)
        assert time.perf_counter() - started < 0.5


class TestPsi:
    def test_coefficient_of_one(self):
        for form in ("theta", "pochhammer", "enumerative"):
            assert genfun.mock_theta_psi(3, form).integer_coefficients()[1] == 1

    def test_coefficient_of_four(self):
        for form in ("theta", "pochhammer", "enumerative"):
            assert genfun.mock_theta_psi(6, form).integer_coefficients()[4] == 2

    def test_forms_agree_to_thirty(self):
        a = genfun.mock_theta_psi(30, "theta")
        b = genfun.mock_theta_psi(30, "pochhammer")
        c = genfun.mock_theta_psi(30, "enumerative")
        assert a == b == c

    def test_complete_odd_partition_interpretation(self):
        s = genfun.mock_theta_psi(30, "theta")
        for n in range(1, 31):
            assert s.integer_coefficients()[n] == combinat.count_complete_odd_partitions(n)


class TestEvenPartParitySeries:
    def test_k2_coefficient_of_four(self):
        s = genfun.even_part_parity_series(2, 6)
        assert s.integer_coefficients()[4] == 1
        assert s.integer_coefficients()[:4] == [0, 0, 0, 0]

    def test_matches_self_conjugate_series(self):
        for k in (2, 3):
            assert genfun.even_part_parity_series(k, 30) == genfun.self_conjugate_series(
                k, 30, "raw")

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError, match="^defined for k >= 2 only$"):
            genfun.even_part_parity_series(1, 5)


# every builder, with the exact message; psi's pochhammer form comes last so
# that the earlier ids stay as they were
@pytest.mark.parametrize("build", [
    lambda n: genfun.partition_series(n),
    lambda n: genfun.partition_rank_series(n),
    lambda n: genfun.marked_durfee_rank_series(2, n),
    lambda n: genfun.unimodal_rank_series(n),
    lambda n: genfun.marked_unimodal_rank_series(2, n),
    lambda n: genfun.self_conjugate_series(2, n, "raw"),
    lambda n: genfun.self_conjugate_series(2, n, "simplified"),
    lambda n: genfun.mock_theta_psi(n, "theta"),
    lambda n: genfun.mock_theta_psi(n, "enumerative"),
    lambda n: genfun.even_part_parity_series(2, n),
    lambda n: genfun.mock_theta_psi(n, "pochhammer"),
])
def test_negative_truncation_rejected(build):
    with pytest.raises(ValueError, match="^n_max must be >= 0$"):
        build(-1)


# the other argument errors of this module, with their exact type and message
ERRORS = [
    pytest.param(lambda: genfun.marked_durfee_rank_series(0, 5), ValueError,
                 "k must be >= 1", id="marked_durfee_rank_series-k"),
    pytest.param(lambda: genfun.marked_unimodal_rank_series(0, 5), ValueError,
                 "k must be >= 1", id="marked_unimodal_rank_series-k"),
    pytest.param(lambda: genfun.self_conjugate_series(0, 5), ValueError,
                 "k must be >= 1", id="self_conjugate_series-k"),
    pytest.param(lambda: genfun.self_conjugate_series(0, 5, "simplified"), ValueError,
                 "k must be >= 1", id="self_conjugate_series-simplified-k"),
    pytest.param(lambda: genfun.mock_theta_psi(5, "fancy"), ValueError,
                 "unknown form 'fancy'", id="mock_theta_psi-form"),
]


@pytest.mark.parametrize("call, error, message", ERRORS)
def test_argument_error(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


class TestChecked:
    """`genfun._checked`, which every multivariate builder returns through."""

    MESSAGE = "rank exponent beyond size: n=1, exponents=(2,)"

    def test_exponent_beyond_size_raises(self):
        with pytest.raises(ArithmeticError, match=f"^{re.escape(self.MESSAGE)}$"):
            genfun._checked(TruncatedSeries.monomial(1, (2,), 1, 3))

    def test_names_the_first_offending_key(self):
        # x^(0, 2) q^1 is beyond its size; x^(1, -1) q^1 and everything at q^3 are not
        coeffs = [LaurentCoefficient(2), LaurentCoefficient(2, {(1, -1): 4, (0, 2): 1}),
                  LaurentCoefficient(2), LaurentCoefficient(2, {(3, -3): 1})]
        with pytest.raises(ArithmeticError, match=r"^rank exponent beyond size: n=1, "
                                                  r"exponents=\(0, 2\)$"):
            genfun._checked(TruncatedSeries(3, 2, coeffs))

    def test_raises_under_optimized_mode(self):
        code = ("from qranks import genfun\n"
                "from qranks.series import TruncatedSeries\n"
                "try:\n"
                "    genfun._checked(TruncatedSeries.monomial(1, (2,), 1, 3))\n"
                "except ArithmeticError as exc:\n"
                "    print(exc)\n")
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        result = subprocess.run([sys.executable, "-O", "-c", code], env=env, cwd=root,
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout == self.MESSAGE + "\n"

    def test_returns_its_argument(self):
        terms = {(1, 0): 2, (-1, 1): -3, (0, 0): 5, (-2, 2): 1, (0, -1): 7}
        s = TruncatedSeries(2, 2, [LaurentCoefficient(2), LaurentCoefficient(2),
                                   LaurentCoefficient(2, terms)])
        assert genfun._checked(s) is s


class TestDeterminism:
    def test_builders_are_reproducible(self):
        builders = [
            lambda: genfun.partition_series(15),
            lambda: genfun.partition_rank_series(10),
            lambda: genfun.marked_durfee_rank_series(2, 10),
            lambda: genfun.marked_unimodal_rank_series(2, 12),
            lambda: genfun.self_conjugate_series(2, 15, "simplified"),
            lambda: genfun.mock_theta_psi(15, "theta"),
        ]
        for build in builders:
            assert build() == build()


class TestIndexTuples:
    """The oracle's index enumerator against a brute-force filter of gap tuples."""

    @pytest.mark.parametrize("order,step", [
        (series_oracle._durfee_order, 0),
        (sum, 1),
        (series_oracle._self_conjugate_order, 1),
    ])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_filtered_product(self, order, step, k):
        top = 20
        # gap m_1 >= 1, later gaps >= step, and no M_j can exceed its order
        ranges = [range(1, top + 1)] + [range(step, top + 1)] * (k - 1)
        region = {big for big in (tuple(itertools.accumulate(gaps))
                                  for gaps in itertools.product(*ranges))
                  if order(big) <= top}
        for n_max in range(top + 1):
            expected = sorted(big for big in region if order(big) <= n_max)
            assert list(series_oracle._index_tuples(k, n_max, order, step)) == expected


class TestNestedSumsAgainstTermOracle:
    """Each builder against the old term-by-term route (tests/series_oracle.py),
    coefficient by coefficient, at every truncation up to the bound."""

    def test_partition_rank_and_unimodal(self):
        for n in range(41):
            assert genfun.partition_rank_series(n) == series_oracle.partition_rank_series(n)
            assert genfun.unimodal_rank_series(n) == series_oracle.unimodal_rank_series(n)

    def test_marked_unimodal(self):
        for k in (1, 2, 3):
            for n in range(19):
                assert genfun.marked_unimodal_rank_series(k, n) == \
                    series_oracle.marked_unimodal_rank_series(k, n), (k, n)

    def test_marked_durfee(self):
        for k in (1, 2, 3):
            for n in range(15):
                assert genfun.marked_durfee_rank_series(k, n) == \
                    series_oracle.marked_durfee_rank_series(k, n), (k, n)

    @pytest.mark.parametrize("form", ["raw", "simplified"])
    def test_self_conjugate(self, form):
        for k in (1, 2, 3):
            for n in range(31):
                assert genfun.self_conjugate_series(k, n, form) == \
                    series_oracle.self_conjugate_series(k, n, form), (k, n)

    def test_psi_theta(self):
        for n in range(51):
            assert genfun.mock_theta_psi(n, "theta") == series_oracle.mock_theta_psi_theta(n)


# every nested-sum builder with the forms that use it, in the order the
# digest below was recorded in
NESTED_CASES = (
    [("marked_durfee_rank_series", (k, 14)) for k in (1, 2, 3)]
    + [("marked_unimodal_rank_series", (k, 14)) for k in (1, 2, 3)]
    + [("self_conjugate_series", (k, 20, form)) for k in (2, 3) for form in ("raw", "simplified")]
    + [("mock_theta_psi", (30, form)) for form in ("theta", "pochhammer")]
)


STEP_BUILDS = [
    pytest.param(lambda: genfun.marked_unimodal_rank_series(3, 14), id="uk"),
    pytest.param(lambda: genfun.marked_durfee_rank_series(2, 14), id="rk"),
    pytest.param(lambda: genfun.self_conjugate_series(3, 20, "raw"), id="scuk-raw"),
    pytest.param(lambda: genfun.self_conjugate_series(3, 20, "simplified"),
                 id="scuk-simplified"),
    pytest.param(lambda: genfun.mock_theta_psi(30, "theta"), id="psi-theta"),
]


class TestAccumulatorSteps:
    def test_coefficient_dicts_keep_their_insertion_order(self):
        # demo 03 prints raw `.terms`, so the order of each dict is output
        dicts = [[list(c.terms.items()) for c in getattr(genfun, name)(*args).coeffs]
                 for name, args in NESTED_CASES]
        assert hashlib.sha256(repr(dicts).encode()).hexdigest() == \
            "068350e4612ef8ca37ec842e54d93d2a49291bc70c54efadc1eabd219a3f5ae6"

    @pytest.mark.parametrize("build", STEP_BUILDS)
    def test_steps_only_read_rest(self, monkeypatch, build):
        # rest is S_j(b+1) as stored, which the next level reads too, so a
        # step writes only its head
        expected, nested_sum, written = build(), genfun._nested_sum, []

        def watched(k, n_max, var_count, gap, power, step):
            def watched_step(j, b, head, rest):
                before = [dict(bucket) for bucket in rest]
                step(j, b, head, rest)
                if rest != before:
                    written.append((j, b))
            return nested_sum(k, n_max, var_count, gap, power, watched_step)

        monkeypatch.setattr(genfun, "_nested_sum", watched)
        assert build() == expected
        assert written == []

    @pytest.mark.parametrize("build", STEP_BUILDS)
    def test_steps_build_no_partial_sum_as_a_series(self, request, monkeypatch, build):
        # partial sums stay accumulators and each binomial goes to the kernel
        # as it is: no series sum, quotient or Pochhammer product, and no
        # series product but uk's (1 + x_j q^b) * (1 + x_j^-1 q^b)
        calls = dict.fromkeys(["__add__", "__mul__", "__truediv__", "pochhammer"], 0)
        operands = []

        def counted(name, original):
            def wrapper(*args):
                calls[name] += 1
                if name == "__mul__":
                    operands.extend(sum(len(c.terms) for c in s.coeffs) for s in args)
                return original(*args)
            return wrapper

        for name in ("__add__", "__mul__", "__truediv__"):
            monkeypatch.setattr(TruncatedSeries, name,
                                counted(name, getattr(TruncatedSeries, name)))
        monkeypatch.setattr(genfun, "pochhammer", counted("pochhammer", genfun.pochhammer))
        build()
        if request.node.callspec.id == "uk":  # two one-binomial factors per product
            assert calls["pochhammer"] <= 2 * calls["__mul__"], calls
            assert max(operands, default=0) <= 2, operands
            calls["__mul__"] = calls["pochhammer"] = 0
        assert calls == dict.fromkeys(calls, 0)
