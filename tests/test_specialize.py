"""Root-of-unity evaluation, exact and numeric."""

import cmath
import math
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qranks import combinat, genfun
from qranks.series import LaurentCoefficient, TruncatedSeries
from qranks.specialize import (
    ComplexSeries,
    GaussianSeries,
    RootOfUnityVector,
    specialize_exact,
    specialize_numeric,
)

ONE = RootOfUnityVector((Fraction(0, 1),))
MINUS_ONE = RootOfUnityVector((Fraction(1, 2),))
I = RootOfUnityVector((Fraction(1, 4),))

_UNITS = {0: (1, 0), 1: (0, 1), 2: (-1, 0), 3: (0, -1)}


def signed_census(n, turns):
    """Sum of i^(turns*m) weighted by the unimodal rank census at n."""
    re = im = 0
    for m, c in combinat.rank_census_unimodal(n).items():
        ur, ui = _UNITS[(turns * m) % 4]
        re += c * ur
        im += c * ui
    return re, im


class TestExact:
    def test_partition_series_recovered_at_one(self):
        r1 = genfun.partition_rank_series(20)
        g = specialize_exact(r1, ONE)
        assert g.real_coefficients() == genfun.partition_series(20).integer_coefficients()
        assert all(im == 0 for _, im in g.coeffs)

    def test_unimodal_at_minus_one_vanishes_at_four(self):
        g = specialize_exact(genfun.unimodal_rank_series(6), MINUS_ONE)
        assert g.coeffs[4] == (0, 0)

    def test_unimodal_at_minus_one_census(self):
        g = specialize_exact(genfun.unimodal_rank_series(25), MINUS_ONE)
        for n in range(1, 26):
            assert g.coeffs[n] == signed_census(n, 2), n

    def test_unimodal_at_i_census(self):
        g = specialize_exact(genfun.unimodal_rank_series(25), I)
        for n in range(1, 26):
            assert g.coeffs[n] == signed_census(n, 1), n

    def test_constant_series_unchanged(self):
        s = TruncatedSeries.monomial(7, (0, 0), 0, 3)
        v = RootOfUnityVector((Fraction(1, 4), Fraction(1, 2)))
        g = specialize_exact(s, v)
        assert g.coeffs == ((7, 0), (0, 0), (0, 0), (0, 0))

    def test_all_ones_sums_coefficients(self):
        s = genfun.marked_unimodal_rank_series(2, 12)
        v = RootOfUnityVector((Fraction(0, 1), Fraction(0, 1)))
        g = specialize_exact(s, v)
        for n in range(13):
            assert g.coeffs[n] == (sum(s.coefficient(n).terms.values()), 0)

    def test_non_fourth_root_rejected(self):
        with pytest.raises(ValueError, match="specialize_numeric"):
            specialize_exact(genfun.unimodal_rank_series(5), RootOfUnityVector((Fraction(1, 3),)))

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError, match="variables"):
            specialize_exact(genfun.unimodal_rank_series(5),
                             RootOfUnityVector((Fraction(0, 1), Fraction(1, 2))))


class TestNumeric:
    def test_agrees_with_exact_at_minus_one(self):
        s = genfun.unimodal_rank_series(30)
        numeric = specialize_numeric(s, MINUS_ONE)
        exact = specialize_exact(s, MINUS_ONE)
        for n in range(31):
            diff = abs(numeric.coeffs[n] - complex(*exact.coeffs[n]))
            assert diff <= numeric.error_bounds[n]
            assert diff <= 1e-12

    def test_all_ones_exact_integers(self):
        s = genfun.unimodal_rank_series(20)
        numeric = specialize_numeric(s, ONE)
        for n in range(21):
            expected = sum(s.coefficient(n).terms.values())
            assert numeric.coeffs[n] == complex(expected, 0)

    def test_third_roots_smoke(self):
        s = genfun.marked_unimodal_rank_series(2, 30)
        v = RootOfUnityVector((Fraction(1, 3), Fraction(1, 3)))
        numeric = specialize_numeric(s, v)
        for n in range(31):
            z = numeric.coeffs[n]
            assert z == z  # not NaN
            assert abs(z) < 10 ** 9
            assert numeric.error_bounds[n] >= 0.0

    def test_bounds_cover_exact_gaussian_values(self):
        s = genfun.marked_unimodal_rank_series(2, 15)
        for angles in ((0, 1), (1, 2), (1, 4), (3, 4)):
            v = RootOfUnityVector((Fraction(*angles), Fraction(*angles)))
            numeric = specialize_numeric(s, v)
            exact = specialize_exact(s, v)
            for n in range(16):
                diff = abs(numeric.coeffs[n] - complex(*exact.coeffs[n]))
                assert diff <= numeric.error_bounds[n]

    def test_equal_series_specialize_to_equal_bits(self):
        # the sum depends on the order of its terms: 70.5 in insertion order
        # here, 72 in reverse order, unless the specializer fixes the order
        terms = {(1,): 10 ** 17 + 1, (-1,): -10 ** 17, (2,): 3}
        v = RootOfUnityVector((Fraction(1, 3),))
        zero = LaurentCoefficient(1)
        results = []
        for keys in (list(terms), list(reversed(terms))):
            c = LaurentCoefficient(1, {exps: terms[exps] for exps in keys})
            results.append(specialize_numeric(TruncatedSeries(2, 1, [zero, zero, c]), v))
        assert results[0].coeffs[2].real == 70.5
        assert repr(results[0]) == repr(results[1])


class TestRootOfUnityVector:
    def test_angles_normalized(self):
        v = RootOfUnityVector.from_strings(["1/2", "3/4"])
        assert v.entries == (Fraction(1, 2), Fraction(3, 4))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            RootOfUnityVector((Fraction(5, 4),))
        with pytest.raises(ValueError, match="outside"):
            RootOfUnityVector((Fraction(-1, 4),))


# the angle range and the length checks of the result types, with their exact messages
ERRORS = [
    pytest.param(lambda: RootOfUnityVector((Fraction(5, 4),)), "angle 5/4 outside [0, 1)",
                 id="RootOfUnityVector-above"),
    pytest.param(lambda: RootOfUnityVector((-Fraction(1, 4),)), "angle -1/4 outside [0, 1)",
                 id="RootOfUnityVector-below"),
    pytest.param(lambda: GaussianSeries(1, ((0, 0),)),
                 "coefficient count does not match truncation order", id="GaussianSeries"),
    pytest.param(lambda: ComplexSeries(1, (0j,), (0.0, 0.0)),
                 "coefficient count does not match truncation order", id="ComplexSeries-coeffs"),
    pytest.param(lambda: ComplexSeries(0, (0j,), ()),
                 "error bound count does not match truncation order", id="ComplexSeries-bounds"),
]


@pytest.mark.parametrize("call, message", ERRORS)
def test_argument_error(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def fraction_loop_numeric(s, v):
    """Reference for specialize_numeric: each coefficient's monomials in
    ascending exponent order, each angle summed as a Fraction and reduced
    mod 1, quarter turns read from the unit table."""
    coeffs = []
    bounds = []
    for c in s.coeffs:
        total = 0j
        magnitude = 0
        for exps, value in sorted(c.terms.items()):
            angle = Fraction(0)
            for f, e in zip(v.entries, exps):
                angle += f * e
            angle -= math.floor(angle)
            if 4 % angle.denominator == 0:
                unit = complex(*_UNITS[angle.numerator * (4 // angle.denominator) % 4])
            else:
                unit = cmath.exp(2j * math.pi * float(angle))
            total += value * unit
            magnitude += abs(value)
        coeffs.append(total)
        bounds.append(4.0 * (len(c.terms) + 1) * magnitude * sys.float_info.epsilon)
    return coeffs, bounds


@st.composite
def series_at_angles(draw, values, denominators):
    """A random series in 0..3 variables and a random angle vector whose
    denominators come from ``denominators``."""
    k = draw(st.integers(0, 3))
    n_max = draw(st.integers(0, 6))
    exps = st.tuples(*[st.integers(-n_max - 1, n_max + 1)] * k)
    coeffs = [LaurentCoefficient(k, draw(st.dictionaries(exps, values, max_size=6)))
              for _ in range(n_max + 1)]
    angles = []
    for _ in range(k):
        b = draw(st.sampled_from(denominators))
        angles.append(Fraction(draw(st.integers(0, b - 1)), b))
    return TruncatedSeries(n_max, k, coeffs), RootOfUnityVector(tuple(angles))


# two large primes: their lcm is about 10^12, far more turn counts than a
# unit table could hold, so the table holds only those that occur
@given(series_at_angles(st.integers(-10 ** 6, 10 ** 6), (*range(1, 13), 1000003, 1000033)))
@settings(max_examples=200, deadline=None)
def test_numeric_matches_fraction_loop_bit_for_bit(case):
    s, v = case
    got = specialize_numeric(s, v)
    coeffs, bounds = fraction_loop_numeric(s, v)
    # repr tells signed zeros apart, which == does not
    assert [repr(z) for z in got.coeffs] == [repr(z) for z in coeffs]
    assert [repr(b) for b in got.error_bounds] == [repr(b) for b in bounds]


def fraction_loop_exact(s, v):
    """Reference for specialize_exact: each monomial's angle summed as a
    Fraction and reduced mod 1, then read as a power of i."""
    coeffs = []
    for c in s.coeffs:
        re = im = 0
        for exps, value in c.terms.items():
            angle = Fraction(0)
            for f, e in zip(v.entries, exps):
                angle += f * e
            angle -= math.floor(angle)
            ur, ui = _UNITS[int(4 * angle)]
            re += value * ur
            im += value * ui
        coeffs.append((re, im))
    return coeffs


@given(series_at_angles(st.integers(-10 ** 20, 10 ** 20), (1, 2, 4)))
@settings(max_examples=200, deadline=None)
def test_exact_matches_fraction_loop(case):
    s, v = case
    assert list(specialize_exact(s, v).coeffs) == fraction_loop_exact(s, v)


def test_numeric_evaluates_each_root_of_unity_once(monkeypatch):
    # rk k=2 n=16 has 1890 monomials but only five values of e^(2 pi i t/5)
    calls = []
    exp = cmath.exp

    def counting(z):
        calls.append(z)
        return exp(z)

    monkeypatch.setattr(cmath, "exp", counting)
    v = RootOfUnityVector((Fraction(1, 5), Fraction(2, 5)))
    specialize_numeric(genfun.marked_durfee_rank_series(2, 16), v)
    assert 0 < len(calls) <= 5


# magnitudes past 2^53, where float(value) already rounds
_HUGE = st.builds(lambda sign, m: sign * m, st.sampled_from([1, -1]),
                  st.integers(2 ** 53 + 1, 2 ** 80))


@given(series_at_angles(_HUGE, (1, 2, 4)))
@settings(max_examples=200, deadline=None)
def test_numeric_error_within_bound_beyond_double_precision(case):
    s, v = case
    numeric = specialize_numeric(s, v)
    exact = specialize_exact(s, v)
    for n, (z, (re, im), bound) in enumerate(
            zip(numeric.coeffs, exact.coeffs, numeric.error_bounds)):
        # |z - (re + i im)| <= bound, decided in exact rational arithmetic
        d_re = Fraction(z.real) - re
        d_im = Fraction(z.imag) - im
        assert d_re * d_re + d_im * d_im <= Fraction(bound) ** 2, n

