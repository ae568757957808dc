"""Unit and property tests for the exact series engine."""

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qranks import series
from qranks.series import FactorSpec, LaurentCoefficient, TruncatedSeries, pochhammer


def q_monomial(value, power, n_max, var_count=0, exps=None):
    exps = exps if exps is not None else (0,) * var_count
    return TruncatedSeries.monomial(value, exps, power, n_max)


def brute_force_bounded_partitions(n, allowed):
    """Independent oracle: count partitions of n into parts from ``allowed``."""
    allowed = sorted(allowed, reverse=True)

    def rec(remaining, max_part):
        if remaining == 0:
            return 1
        return sum(
            rec(remaining - p, p) for p in allowed if p <= min(remaining, max_part)
        )

    return rec(n, n)


# the argument errors of this module that no other test reaches, with their
# exact type and message
ERRORS = [
    pytest.param(lambda: LaurentCoefficient(-1), ValueError, "var_count must be >= 0",
                 id="LaurentCoefficient-var_count"),
    pytest.param(lambda: LaurentCoefficient(1).get((0, 0)), ValueError,
                 "exponent vector (0, 0) has length 2, expected 1", id="LaurentCoefficient.get"),
    pytest.param(lambda: setattr(LaurentCoefficient(1), "terms", {}), AttributeError,
                 "LaurentCoefficient is immutable", id="LaurentCoefficient-immutable"),
    pytest.param(lambda: TruncatedSeries(0, -1), ValueError, "var_count must be >= 0",
                 id="TruncatedSeries-var_count"),
    pytest.param(lambda: TruncatedSeries(1, 0, [LaurentCoefficient(0)]), ValueError,
                 "expected 2 coefficients, got 1", id="TruncatedSeries-coefficient-count"),
    pytest.param(lambda: TruncatedSeries(0, 1, [LaurentCoefficient(0)]), ValueError,
                 "mismatched variable count in coefficient list",
                 id="TruncatedSeries-coefficient-var_count"),
    pytest.param(lambda: setattr(TruncatedSeries.one(2, 0), "coeffs", ()), AttributeError,
                 "TruncatedSeries is immutable", id="TruncatedSeries-immutable"),
    pytest.param(lambda: TruncatedSeries.one(3, -1), ValueError, "var_count must be >= 0",
                 id="one-var_count"),
    pytest.param(lambda: TruncatedSeries.one(-1, 2), ValueError,
                 "truncation_order must be >= 0", id="one-truncation_order"),
    pytest.param(lambda: TruncatedSeries.monomial(1, (), -1, 3), ValueError,
                 "q_power must be >= 0", id="monomial-negative-q_power"),
    pytest.param(lambda: TruncatedSeries.from_integer_coefficients([]), ValueError,
                 "truncation_order must be >= 0", id="from_integer_coefficients-empty"),
    pytest.param(lambda: TruncatedSeries.one(2, 1).integer_coefficients(), ValueError,
                 "series has x variables; extract coefficients per exponent",
                 id="integer_coefficients-x-variables"),
    pytest.param(lambda: FactorSpec(0), ValueError, "sign must be +1 or -1",
                 id="FactorSpec-sign"),
    pytest.param(lambda: FactorSpec(1, 0), ValueError, "var_index is 1-based",
                 id="FactorSpec-var_index"),
    pytest.param(lambda: FactorSpec(1, 1, 2), ValueError, "var_exponent must be +1 or -1",
                 id="FactorSpec-var_exponent"),
    pytest.param(lambda: FactorSpec(1, None, 1, -1), ValueError, "q_offset must be >= 0",
                 id="FactorSpec-q_offset"),
    pytest.param(lambda: FactorSpec(1, None, 1, 0, 0), ValueError, "q_step must be >= 1",
                 id="FactorSpec-q_step"),
    pytest.param(lambda: pochhammer(FactorSpec(1), -1, 3, 0), ValueError,
                 "count must be >= 0 or None for the infinite product", id="pochhammer-count"),
]


@pytest.mark.parametrize("call, error, message", ERRORS)
def test_argument_error(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


class TestConstruction:
    def test_one_is_identity_constant(self):
        s = TruncatedSeries.one(3, 1)
        assert s.coefficient(0, (0,)) == 1
        assert all(s.coeffs[n].is_zero() for n in range(1, 4))

    def test_monomial_with_negative_exponent(self):
        s = TruncatedSeries.monomial(1, (-1,), 4, 5)
        assert s.coefficient(4, (-1,)) == 1
        assert s.coefficient(4, (1,)) == 0

    def test_constant_two_variables(self):
        s = TruncatedSeries.monomial(2, (0, 0), 0, 2)
        assert s.coefficient(0, (0, 0)) == 2

    def test_monomial_beyond_truncation(self):
        with pytest.raises(ValueError, match="exponent beyond truncation"):
            TruncatedSeries.monomial(1, (), 4, 3)

    def test_monomial_with_value_zero_is_zero(self):
        assert TruncatedSeries.monomial(0, (1,), 2, 3) == TruncatedSeries.zero(3, 1)

    def test_from_integer_coefficients(self):
        s = TruncatedSeries.from_integer_coefficients([0, 3, 0, -2])
        assert (s.truncation_order, s.var_count) == (3, 0)
        assert s.integer_coefficients() == [0, 3, 0, -2]
        assert [c.terms for c in s.coeffs] == [{}, {(): 3}, {}, {(): -2}]
        five = TruncatedSeries.from_integer_coefficients([5])
        assert five == TruncatedSeries.monomial(5, (), 0, 0)

    def test_empty_coefficients_share_one_zero(self):
        one = TruncatedSeries.one(5, 1)
        step = TruncatedSeries.monomial(1, (1,), 2, 5)
        results = {
            "one": one,
            "monomial": step,
            "pochhammer": pochhammer(FactorSpec(-1, 1, 1, 2, 2), 2, 5, 1),
            "+": one + step,
            "*": (one + step) * (one + step),
            "/": one / (one - step),
            "from_integer_coefficients":
                TruncatedSeries.from_integer_coefficients([0, 3, 0, -2, 0]),
            "monomial(0, ...)": TruncatedSeries.monomial(0, (1,), 2, 5),
        }
        for name, s in results.items():
            empty = [c for c in s.coeffs if c.is_zero()]
            assert len(empty) >= 2, name
            assert all(c is empty[0] for c in empty), name

    def test_zero_terms_never_stored(self):
        c = LaurentCoefficient(1, {(0,): 0, (1,): 3})
        assert c.terms == {(1,): 3}

    def test_keeps_its_own_copy(self):
        terms = {(1,): 3, (-1,): 2}
        c = LaurentCoefficient(1, terms)
        terms[(1,)] = 5
        terms[(0,)] = 1
        del terms[(-1,)]
        assert c.terms == {(1,): 3, (-1,): 2}
        # also when a zero value is dropped on the way in
        terms = {(1,): 0, (2,): 4}
        c = LaurentCoefficient(1, terms)
        terms[(2,)] = 9
        assert c.terms == {(2,): 4}

    def test_no_arithmetic_on_coefficients(self):
        for name in ("__add__", "__sub__", "__neg__", "__mul__"):
            assert name not in vars(LaurentCoefficient), name

    def test_exponent_length_checked(self):
        # the first exponent vector of the wrong length is named, zero value or not
        with pytest.raises(ValueError, match=r"\(1,\) has length 1, expected 2"):
            LaurentCoefficient(2, {(0, 1): 1, (1,): 0, (1, 2, 3): 4})


class TestValueSemantics:
    def test_equality_with_other_types_is_not_implemented(self):
        for value in (LaurentCoefficient(1), TruncatedSeries.zero(2, 1)):
            assert value.__eq__(0) is NotImplemented
            assert value != 0

    def test_equal_values_hash_equal(self):
        c = LaurentCoefficient(1, {(1,): 3, (-1,): 2})
        assert hash(c) == hash(LaurentCoefficient(1, {(-1,): 2, (1,): 3}))
        assert len({c, LaurentCoefficient(1, {(-1,): 2, (1,): 3, (0,): 0})}) == 1
        step = TruncatedSeries.monomial(1, (1,), 2, 5)
        one = TruncatedSeries.one(5, 1)
        assert hash(one + step) == hash(step + one)
        assert len({one + step, step + one, one}) == 2

    def test_coefficient_repr(self):
        assert repr(LaurentCoefficient(1)) == "0"
        assert repr(LaurentCoefficient(2, {(2, 0): 3, (0, -1): -1, (1, 1): 1})) == (
            "-1*x2^-1 + 1*x1*x2 + 3*x1^2")

    def test_series_repr(self):
        assert repr(TruncatedSeries.zero(2, 1)) == "<series mod q^3: 0>"
        assert repr(TruncatedSeries.from_integer_coefficients([0, 2, 0, 3, 4, 5, 6])) == (
            "<series mod q^7: (2)*q^1 + (3)*q^3 + (4)*q^4 + (5)*q^5 + (6)*q^6>")
        # six nonzero terms are shown, then an ellipsis
        assert repr(TruncatedSeries.from_integer_coefficients([1, 2, 0, 3, 4, 5, 6, 7])) == (
            "<series mod q^8: (1) + (2)*q^1 + (3)*q^3 + (4)*q^4 + (5)*q^5 + (6)*q^6 + ...>")


class TestArithmetic:
    def test_add_cancels(self):
        n = 2
        one = TruncatedSeries.one(n, 0)
        q = q_monomial(1, 1, n)
        total = (one + q) + (one - q)
        assert total.integer_coefficients() == [2, 0, 0]

    def test_add_zero_identity(self):
        s = q_monomial(3, 2, 4, var_count=1, exps=(1,))
        assert s + TruncatedSeries.zero(4, 1) == s

    def test_add_merges_laurent_terms(self):
        a = TruncatedSeries.monomial(1, (1,), 1, 3)
        b = TruncatedSeries.monomial(1, (-1,), 1, 3)
        c = a + b
        assert c.coefficient(1).terms == {(1,): 1, (-1,): 1}

    def test_mul_difference_of_squares(self):
        one = TruncatedSeries.one(2, 0)
        q = q_monomial(1, 1, 2)
        assert ((one + q) * (one - q)).integer_coefficients() == [1, 0, -1]

    def test_mul_one_identity(self):
        s = TruncatedSeries.monomial(5, (-2,), 3, 6) + TruncatedSeries.one(6, 1)
        assert s * TruncatedSeries.one(6, 1) == s

    def test_mul_laurent_cross_terms(self):
        one = TruncatedSeries.one(2, 1)
        a = one + TruncatedSeries.monomial(1, (1,), 1, 2)
        b = one + TruncatedSeries.monomial(1, (-1,), 1, 2)
        prod = a * b
        assert prod.coefficient(0).terms == {(0,): 1}
        assert prod.coefficient(1).terms == {(1,): 1, (-1,): 1}
        assert prod.coefficient(2).terms == {(0,): 1}

    def test_mixed_truncation_takes_min(self):
        a = TruncatedSeries.one(5, 0)
        b = TruncatedSeries.one(3, 0)
        assert (a + b).truncation_order == 3
        assert (a * b).truncation_order == 3

    def test_mismatched_var_count_rejected(self):
        with pytest.raises(ValueError, match="mismatched variable count"):
            TruncatedSeries.one(3, 1) + TruncatedSeries.one(3, 2)
        with pytest.raises(ValueError, match="mismatched variable count"):
            TruncatedSeries.one(3, 1) * TruncatedSeries.one(3, 0)


class TestInverse:
    def test_geometric_series(self):
        s = TruncatedSeries.one(4, 0) - q_monomial(1, 1, 4)
        assert s.inverse().integer_coefficients() == [1, 1, 1, 1, 1]

    def test_inverse_of_one(self):
        one = TruncatedSeries.one(5, 2)
        assert one.inverse() == one

    def test_parts_at_most_two(self):
        # oracle first: direct count of partitions into parts from {1, 2}
        expected = [brute_force_bounded_partitions(n, [1, 2]) for n in range(5)]
        assert expected == [1, 1, 2, 2, 3]
        one = TruncatedSeries.one(4, 0)
        s = (one - q_monomial(1, 1, 4)) * (one - q_monomial(1, 2, 4))
        assert s.inverse().integer_coefficients() == expected

    def test_non_unit_constant_rejected(self):
        with pytest.raises(ValueError, match="non-unit constant term"):
            (TruncatedSeries.one(3, 0) + TruncatedSeries.one(3, 0)).inverse()
        # an x term in the constant coefficient also disqualifies
        s = TruncatedSeries.one(3, 1) + TruncatedSeries.monomial(1, (1,), 0, 3)
        with pytest.raises(ValueError, match="non-unit constant term"):
            s.inverse()


class TestDivision:
    def test_by_parts_at_most_two(self):
        one = TruncatedSeries.one(6, 0)
        b = (one - q_monomial(1, 1, 6)) * (one - q_monomial(1, 2, 6))
        a = one + q_monomial(1, 3, 6)
        # (1 + q^3) / ((1 - q)(1 - q^2)): partitions into 1s and 2s, shifted by 3 and added
        bounded = [brute_force_bounded_partitions(n, [1, 2]) for n in range(7)]
        expected = [bounded[n] + (bounded[n - 3] if n >= 3 else 0) for n in range(7)]
        assert (a / b).integer_coefficients() == expected

    def test_non_unit_constant_rejected(self):
        one = TruncatedSeries.one(3, 1)
        # an x term in the constant coefficient disqualifies as well as 2 or 0
        for b in (one + one, one + TruncatedSeries.monomial(1, (1,), 0, 3),
                  TruncatedSeries.monomial(1, (0,), 1, 3)):
            with pytest.raises(ValueError, match="non-unit constant term"):
                one / b

    def test_mismatched_var_count_rejected(self):
        with pytest.raises(ValueError, match="mismatched variable count"):
            TruncatedSeries.one(3, 1) / TruncatedSeries.one(3, 2)


class TestPochhammer:
    def test_q_ascending_two_factors(self):
        spec = FactorSpec(1, None, 1, 1, 1)
        assert pochhammer(spec, 2, 3, 0).integer_coefficients() == [1, -1, -1, 1]

    def test_negative_truncation_rejected(self):
        with pytest.raises(ValueError, match="n_max"):
            pochhammer(FactorSpec(1, None, 1, 1, 1), 2, -1, 0)

    def test_with_variable(self):
        spec = FactorSpec(-1, 1, 1, 1, 1)
        s = pochhammer(spec, 2, 3, 1)
        assert s.coefficient(0).terms == {(0,): 1}
        assert s.coefficient(1).terms == {(1,): 1}
        assert s.coefficient(2).terms == {(1,): 1}
        assert s.coefficient(3).terms == {(2,): 1}

    def test_step_two(self):
        spec = FactorSpec(-1, None, 1, 2, 2)
        assert pochhammer(spec, 2, 6, 0).integer_coefficients() == [1, 0, 1, 0, 1, 0, 1]

    def test_infinite_product_stabilizes(self):
        spec = FactorSpec(1, None, 1, 1, 1)
        infinite = pochhammer(spec, None, 12, 0)
        assert infinite == pochhammer(spec, 12, 12, 0)

    def test_count_zero_is_one(self):
        assert pochhammer(FactorSpec(1, None, 1, 1, 1), 0, 5, 0) == TruncatedSeries.one(5, 0)

    def test_invalid_step_rejected_at_spec(self):
        with pytest.raises(ValueError, match="q_step"):
            FactorSpec(1, None, 1, 0, 0)

    def test_var_index_out_of_range(self):
        with pytest.raises(ValueError, match="x2"):
            pochhammer(FactorSpec(1, 2, 1, 1, 1), 3, 5, 1)


class TestCoefficientAccess:
    def test_full_laurent_and_single_exponent(self):
        one = TruncatedSeries.one(2, 1)
        s = one + TruncatedSeries.monomial(1, (1,), 1, 2) + TruncatedSeries.monomial(
            1, (-1,), 1, 2)
        assert s.coefficient(1, (-1,)) == 1
        assert s.coefficient(1).terms == {(1,): 1, (-1,): 1}
        assert TruncatedSeries.one(3, 0).coefficient(0, ()) == 1

    def test_beyond_truncation(self):
        with pytest.raises(ValueError, match="beyond truncation"):
            TruncatedSeries.one(3, 0).coefficient(4)


# ----------------------------------------------------------------------
# property tests
# ----------------------------------------------------------------------


@st.composite
def small_series(draw, var_count=None, n_max=None, unit=False):
    k = var_count if var_count is not None else draw(st.integers(0, 2))
    n = n_max if n_max is not None else draw(st.integers(0, 10))
    s = TruncatedSeries.one(n, k) if unit else TruncatedSeries.zero(n, k)
    for _ in range(draw(st.integers(0, 6))):
        order = draw(st.integers(1 if unit else 0, n)) if n else 0
        if unit and n == 0:
            break
        exps = tuple(draw(st.integers(-order, order)) if order else 0 for _ in range(k))
        value = draw(st.integers(-5, 5))
        s = s + TruncatedSeries.monomial(value, exps, order, n)
    return s


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_ring_axioms(data):
    k = data.draw(st.integers(0, 2))
    n = data.draw(st.integers(0, 8))
    a = data.draw(small_series(var_count=k, n_max=n))
    b = data.draw(small_series(var_count=k, n_max=n))
    c = data.draw(small_series(var_count=k, n_max=n))
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_inverse_round_trip(data):
    k = data.draw(st.integers(0, 2))
    n = data.draw(st.integers(0, 8))
    a = data.draw(small_series(var_count=k, n_max=n, unit=True))
    assert a * a.inverse() == TruncatedSeries.one(n, k)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_division_round_trip(data):
    k = data.draw(st.integers(0, 3))
    a = data.draw(small_series(var_count=k, n_max=data.draw(st.integers(0, 8))))
    b = data.draw(small_series(var_count=k, n_max=data.draw(st.integers(0, 8)), unit=True))
    n = min(a.truncation_order, b.truncation_order)
    quotient = a / b
    assert quotient * b == a + TruncatedSeries.zero(n, k)  # a, truncated at n
    assert quotient == a * b.inverse()
    for coeff in quotient.coeffs:
        assert all(v != 0 for v in coeff.terms.values())


@given(
    sign=st.sampled_from([1, -1]),
    var=st.sampled_from([None, 1]),
    exp=st.sampled_from([1, -1]),
    offset=st.integers(0, 3),
    step=st.integers(1, 3),
    first=st.integers(0, 4),
    second=st.integers(0, 4),
)
@settings(max_examples=100, deadline=None)
def test_pochhammer_telescopes(sign, var, exp, offset, step, first, second):
    spec = FactorSpec(sign, var, exp, offset, step)
    combined = pochhammer(spec, first + second, 12, 1)
    rest = FactorSpec(sign, var, exp, offset + first * step, step)
    split = pochhammer(spec, first, 12, 1) * pochhammer(rest, second, 12, 1)
    assert combined == split


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_no_zero_terms_survive_operations(data):
    k = data.draw(st.integers(0, 2))
    n = data.draw(st.integers(0, 8))
    a = data.draw(small_series(var_count=k, n_max=n))
    b = data.draw(small_series(var_count=k, n_max=n))
    for result in (a + b, a - b, a * b):
        for coeff in result.coeffs:
            assert all(v != 0 for v in coeff.terms.values())


# ----------------------------------------------------------------------
# sums and differences against plain dicts, with no series arithmetic
# ----------------------------------------------------------------------


@st.composite
def plain_series(draw, var_count, n_max):
    """One exponent->int dict per power of q up to n_max, zero values allowed;
    exponents in -1..1 so that keys collide often."""
    exps = st.tuples(*[st.integers(-1, 1)] * var_count)
    return [draw(st.dictionaries(exps, st.integers(-3, 3), max_size=4))
            for _ in range(n_max + 1)]


def nonzero(plain):
    return [{e: v for e, v in terms.items() if v} for terms in plain]


def plain_combination(a, b, c):
    """a + c*b dict by dict, to the shorter length, without zero values."""
    return nonzero({e: x.get(e, 0) + c * y.get(e, 0) for e in x.keys() | y.keys()}
                   for x, y in zip(a, b))


def as_series(plain, var_count):
    return TruncatedSeries(len(plain) - 1, var_count,
                           [LaurentCoefficient(var_count, terms) for terms in plain])


def plain_terms(s):
    return [dict(coeff.terms) for coeff in s.coeffs]


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_add_sub_neg_match_plain_dicts(data):
    k = data.draw(st.integers(0, 3))
    a = data.draw(plain_series(k, data.draw(st.integers(0, 6))))
    relation = data.draw(st.sampled_from(["independent", "equal", "negated"]))
    if relation == "independent":
        b = data.draw(plain_series(k, data.draw(st.integers(0, 6))))
    else:
        # b agrees with +-a on a prefix, so a - b or a + b cancels to 0 there
        sign = 1 if relation == "equal" else -1
        b = [{e: sign * v for e, v in terms.items()} for terms in a]
        b = b[: data.draw(st.integers(1, len(a)))] + data.draw(
            plain_series(k, data.draw(st.integers(-1, 2))))
    sa, sb = as_series(a, k), as_series(b, k)
    cases = [(sa + sb, plain_combination(a, b, 1)), (sa - sb, plain_combination(a, b, -1)),
             (-sa, plain_combination([{}] * len(a), a, -1)),
             (sa + sa, plain_combination(a, a, 1)), (sa - sa, [{}] * len(a))]
    for result, expected in cases:
        assert (result.truncation_order, result.var_count) == (len(expected) - 1, k)
        assert plain_terms(result) == expected
        assert all(0 not in coeff.terms.values() for coeff in result.coeffs)
    # the operands are unchanged
    assert (plain_terms(sa), plain_terms(sb)) == (nonzero(a), nonzero(b))


# ----------------------------------------------------------------------
# oracles: the plain products the kernel replaces
# ----------------------------------------------------------------------


def naive_product(a, b):
    """Every pair of monomials of a and b, multiplied and summed."""
    n_max = min(a.truncation_order, b.truncation_order)
    result = TruncatedSeries.zero(n_max, a.var_count)
    for i, ca in enumerate(a.coeffs):
        for j, cb in enumerate(b.coeffs):
            if i + j > n_max:
                continue
            for e1, v1 in ca.terms.items():
                for e2, v2 in cb.terms.items():
                    exps = tuple(p + r for p, r in zip(e1, e2))
                    result = result + TruncatedSeries.monomial(v1 * v2, exps, i + j, n_max)
    return result


def product_of_factors(spec, count, n_max, var_count):
    """pochhammer as one series multiplication per factor 1 - a*q^p."""
    if spec.var_index is None:
        exps = (0,) * var_count
    else:
        exps = tuple(spec.var_exponent if i == spec.var_index - 1 else 0
                     for i in range(var_count))
    result = TruncatedSeries.one(n_max, var_count)
    j = 1
    while count is None or j <= count:
        q_power = spec.q_offset + spec.q_step * (j - 1)
        if q_power > n_max:
            break
        result = result * (TruncatedSeries.one(n_max, var_count)
                           - TruncatedSeries.monomial(spec.sign, exps, q_power, n_max))
        j += 1
    return result


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_mul_matches_naive_product(data):
    k = data.draw(st.integers(0, 2))
    a = data.draw(small_series(var_count=k, n_max=data.draw(st.integers(0, 8))))
    b = data.draw(small_series(var_count=k, n_max=data.draw(st.integers(0, 8))))
    assert a * b == naive_product(a, b)


@given(
    var_count=st.integers(0, 2),
    sign=st.sampled_from([1, -1]),
    var=st.sampled_from([None, 1, 2]),
    exp=st.sampled_from([1, -1]),
    offset=st.integers(0, 4),
    step=st.integers(1, 3),
    count=st.one_of(st.none(), st.integers(0, 8)),
    n_max=st.integers(0, 10),
)
@settings(max_examples=200, deadline=None)
# q_offset=0 puts a q^0 factor 1 - a first, which must read a copy of its bucket
@example(var_count=1, sign=1, var=1, exp=1, offset=0, step=1, count=None, n_max=8)
@example(var_count=1, sign=-1, var=1, exp=-1, offset=0, step=2, count=3, n_max=8)
@example(var_count=0, sign=1, var=None, exp=1, offset=0, step=1, count=2, n_max=5)
def test_pochhammer_matches_product_of_factors(var_count, sign, var, exp, offset, step,
                                               count, n_max):
    if var is not None and var > var_count:
        var = None
    spec = FactorSpec(sign, var, exp, offset, step)
    assert pochhammer(spec, count, n_max, var_count) == product_of_factors(
        spec, count, n_max, var_count)


# ----------------------------------------------------------------------
# the q-power kernel in place: one Pochhammer factor, and 1 + L for a
# multi-term L, against the naive route through __mul__ and __truediv__
# ----------------------------------------------------------------------


def naive_binomial(c, exps, p, n_max):
    """1 + c*x^exps*q^p as a series; just 1 when q^p is beyond n_max."""
    one = TruncatedSeries.one(n_max, len(exps))
    return one + TruncatedSeries.monomial(c, exps, p, n_max) if p <= n_max else one


@st.composite
def kernel_case(draw):
    k = draw(st.integers(0, 3))
    n = draw(st.integers(0, 10))
    s = draw(small_series(var_count=k, n_max=n))
    c = draw(st.sampled_from([1, -1]))
    exps = tuple(draw(st.integers(-1, 1)) for _ in range(k))
    # below, at and above the truncation
    p = draw(st.one_of(st.integers(0, n + 2), st.just(n), st.just(n + 1)))
    return s, c, exps, p


def run_in_place(s, left, c):
    """s's buckets after the kernel call with ``right`` the buckets themselves."""
    acc = [dict(coeff.terms) for coeff in s.coeffs]
    series._convolve(acc, left, acc, c)
    return TruncatedSeries._from_buckets(s.truncation_order, s.var_count, acc)


@given(kernel_case())
@settings(max_examples=300, deadline=None)
# p = 0 factors read a copy of the bucket they change, with and without x
@example((TruncatedSeries.one(4, 1) + TruncatedSeries.monomial(2, (1,), 3, 4), 1, (1,), 0))
@example((TruncatedSeries.one(4, 2) + TruncatedSeries.monomial(3, (0, 1), 2, 4), 1,
          (0, 0), 0))
@example((TruncatedSeries.one(3, 2), -1, (0, 0), 0))
@example((TruncatedSeries.one(5, 3), -1, (-1, 0, 1), 5))
def test_pochhammer_factor_matches_naive(case):
    """The in-place step that pochhammer and the nested sums make per factor
    1 + c*x^exps*q^p: it multiplies, and for p >= 1 also divides."""
    s, c, exps, p = case
    binomial = naive_binomial(c, exps, p, s.truncation_order)
    for sign in (1, -1) if p else (1,):
        acc = [dict(coeff.terms) for coeff in s.coeffs]
        series._binomial(acc, c, exps, p, sign)
        got = TruncatedSeries._from_buckets(s.truncation_order, s.var_count, acc)
        assert got == (s * binomial if sign == 1 else s / binomial)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_in_place_multiplies_and_divides_by_one_plus_left(data):
    """With ``right is out`` and every j >= 1, c = 1 multiplies by 1 + L and
    c = -1 divides by it; L may reach past the truncation."""
    k = data.draw(st.integers(0, 2))
    n = data.draw(st.integers(0, 8))
    s = data.draw(small_series(var_count=k, n_max=n))
    monomials = data.draw(st.lists(
        st.tuples(st.integers(-3, 3), st.tuples(*[st.integers(-1, 1)] * k),
                  st.integers(1, n + 2)), min_size=2, max_size=5))
    u = TruncatedSeries.one(n + 2, k)
    for value, exps, j in monomials:
        u = u + TruncatedSeries.monomial(value, exps, j, n + 2)
    left = [(j, coeff.terms) for j, coeff in enumerate(u.coeffs[1:], 1) if coeff.terms]
    one_plus_left = u + TruncatedSeries.zero(n, k)
    assert run_in_place(s, left, 1) == s * one_plus_left
    assert run_in_place(s, left, -1) == s / one_plus_left


def test_empty_accumulator_is_zero_in_place():
    """The nested sums start each level's partial sum as []: every in-place
    entry leaves [] as [], and adding [] changes nothing."""
    for p in (1, 3):
        for sign in (1, -1):
            acc = []
            series._binomial(acc, -1, (1, 0), p, sign)
            assert acc == []
    acc = []
    series._add(acc, [{(0, 0): 1}, {(1, 0): 2}])
    series._add_product(acc, naive_binomial(1, (0, -1), 2, 5), [{(0, 0): 1}])
    assert acc == []
    acc = [{(0, 0): 1}, {(1, 0): 2}]
    series._add(acc, [], -1)
    series._add(acc, [], 3, 1)
    series._add_product(acc, naive_binomial(1, (0, -1), 1, 5), [])
    assert acc == [{(0, 0): 1}, {(1, 0): 2}]


def test_zero_multiple_leaves_accumulator_unchanged():
    """Adding 0 times monomials the accumulator lacks stores nothing and
    removes nothing, also where a zero sum meets a missing key."""
    for p in (0, 1):
        acc = [{(0, 0): 1}, {(1, 0): 2}]
        series._add(acc, [{(0, 1): 5}, {(1, 0): 7}], 0, p)
        assert acc == [{(0, 0): 1}, {(1, 0): 2}]
        series._binomial(acc, 0, (0, -1), p)
        assert acc == [{(0, 0): 1}, {(1, 0): 2}]


def padded(buckets, n, k):
    """The accumulator ``buckets`` as a series mod q^(n+1): 0 past its end."""
    return TruncatedSeries._from_buckets(n, k, (buckets + [{}] * n)[: n + 1])


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_add_and_add_product_match_series(data):
    """_add(acc, rest, c, p) is acc + c*q^p*rest and _add_product(acc, f, rest)
    is acc + f*rest, both truncated at len(acc); rest and f may end before or
    after acc, and rest is only read."""
    k = data.draw(st.integers(0, 2))
    n = data.draw(st.integers(0, 8))
    s = data.draw(small_series(var_count=k, n_max=n))
    r = data.draw(small_series(var_count=k))
    f = data.draw(small_series(var_count=k))
    c = data.draw(st.integers(-3, 3))
    p = data.draw(st.integers(0, n + 2))
    rest = [dict(coeff.terms) for coeff in r.coeffs]
    before = [list(b.items()) for b in rest]

    acc = [dict(coeff.terms) for coeff in s.coeffs]
    series._add(acc, rest, c, p)
    assert TruncatedSeries._from_buckets(n, k, acc) == \
        s + TruncatedSeries.monomial(c, (0,) * k, p, n + 2) * padded(rest, n, k)

    acc = [dict(coeff.terms) for coeff in s.coeffs]
    series._add_product(acc, f, rest)
    assert TruncatedSeries._from_buckets(n, k, acc) == \
        s + padded([dict(coeff.terms) for coeff in f.coeffs], n, k) * padded(rest, n, k)
    assert [list(b.items()) for b in rest] == before


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_shifted_copy_and_unit_match_series(data):
    """q^p * acc up to q^top is s * q^p truncated at top, in new dicts, and
    the unit accumulator is TruncatedSeries.one."""
    k = data.draw(st.integers(0, 2))
    n = data.draw(st.integers(0, 10))
    s = data.draw(small_series(var_count=k, n_max=n))
    top = data.draw(st.integers(0, n))
    p = data.draw(st.integers(0, top))
    acc = [dict(coeff.terms) for coeff in s.coeffs]
    shifted = series._shifted(acc, p, top)
    assert TruncatedSeries._from_buckets(top, k, shifted) == \
        s * TruncatedSeries.monomial(1, (0,) * k, p, top)
    assert set(map(id, shifted)).isdisjoint(map(id, acc))
    unit = series._unit(n, k)
    assert TruncatedSeries._from_buckets(n, k, unit) == TruncatedSeries.one(n, k)
    assert len(set(map(id, unit))) == n + 1
