"""Acceptance suite: every identity the library promises, at full desk scale.

One test per criterion; each prints an ``ACCEPTANCE <id> ...: PASS/FAIL``
line (visible with ``pytest -v -s`` or in captured output).  All equalities
are exact; the only tolerances are the float error bounds recorded by the
numeric specializer and the stated wall-clock budgets.
"""

import io
import random
import time
from collections import Counter
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction

from marking_oracle import unimodal_by_filter
from qranks import cli, combinat, genfun
from qranks.series import FactorSpec, TruncatedSeries, pochhammer
from qranks.specialize import RootOfUnityVector, specialize_exact, specialize_numeric


@contextmanager
def criterion(label):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {label}: PASS ({elapsed:.1f}s)")


def _listing_tally(ranks, symbols):
    return dict(Counter(map(ranks, symbols)))


def test_criterion_1_marked_unimodal_series_equals_census():
    with criterion("1 (k-marked unimodal rank series vs census vs listing, k<=3, n<=22)"):
        started = time.monotonic()
        for k in (1, 2, 3):
            series = genfun.marked_unimodal_rank_series(k, 22)
            assert series.coefficient(0).is_zero()
            for n in range(1, 23):
                census = combinat.rank_census_marked_unimodal(n, k)
                listed = _listing_tally(combinat.unimodal_ranks,
                                        combinat.enumerate_marked_unimodal(n, k))
                assert series.coefficient(n).terms == census == listed, (k, n)
        assert time.monotonic() - started < 300


def test_criterion_1_at_scale_thm_1_2_cells():
    with criterion("1 at scale (qranks verify thm-1-2 cells, k<=3, n<=40)"):
        started = time.monotonic()
        out = io.StringIO()
        # the default budget admits it (exact count 1.86e6 against 1e8)
        argv = ["verify", "--suite", "thm-1-2", "--k-max", "3", "--n-max", "40"]
        with redirect_stdout(out):
            assert cli.main(argv) == 0
        assert out.getvalue().splitlines()[-1] == "summary: 120 cells, 120 passed, 0 failed"
        assert time.monotonic() - started < 30



def test_criterion_1_at_scale_n100():
    with criterion("1 at scale n100 (qranks verify thm-1-2 cells, k<=3, n<=100)"):
        started = time.monotonic()
        out = io.StringIO()
        # the default budget refuses it (estimate 4.23e10 against 1e8)
        argv = ["verify", "--suite", "thm-1-2", "--k-max", "3", "--n-max", "100",
                "--budget", str(10 ** 11)]
        with redirect_stdout(out):
            assert cli.main(argv) == 0
        assert out.getvalue().splitlines()[-1] == "summary: 300 cells, 300 passed, 0 failed"
        assert time.monotonic() - started < 60

def test_criterion_2_marked_durfee_series_equals_census():
    with criterion("2 (k-marked Durfee rank series vs census vs listing, k<=2, n<=18)"):
        started = time.monotonic()
        for k in (1, 2):
            series = genfun.marked_durfee_rank_series(k, 18)
            expected_constant = {(0,) * k: 1} if k == 1 else {}
            assert series.coefficient(0).terms == expected_constant
            for n in range(1, 19):
                census = combinat.rank_census_marked_durfee(n, k)
                listed = _listing_tally(combinat.durfee_ranks,
                                        combinat.enumerate_marked_durfee(n, k))
                assert series.coefficient(n).terms == census == listed, (k, n)
        assert time.monotonic() - started < 300


def test_criterion_2_at_scale_thm_1_1_cells():
    with criterion("2 at scale (qranks verify thm-1-1 cells, k<=3, n<=22)"):
        started = time.monotonic()
        out = io.StringIO()
        # the budget estimate still counts listed symbols (2.2e8 here)
        argv = ["verify", "--suite", "thm-1-1", "--k-max", "3", "--n-max", "22",
                "--budget", str(10 ** 9)]
        with redirect_stdout(out):
            assert cli.main(argv) == 0
        assert out.getvalue().splitlines()[-1] == "summary: 66 cells, 66 passed, 0 failed"
        assert time.monotonic() - started < 30


def test_criterion_2_at_scale_thm_1_1_n60():
    with criterion("2 at scale (qranks verify thm-1-1 cells in y_j = x_j + 1/x_j, k<=3, n<=60)"):
        started = time.monotonic()
        out = io.StringIO()
        # the budget estimate still counts listed symbols (1.7e13 here)
        argv = ["verify", "--suite", "thm-1-1", "--k-max", "3", "--n-max", "60",
                "--budget", str(10 ** 20)]
        with redirect_stdout(out):
            assert cli.main(argv) == 0
        assert out.getvalue().splitlines()[-1] == "summary: 180 cells, 180 passed, 0 failed"
        assert time.monotonic() - started < 30


def test_criterion_3_self_conjugate_identity():
    with criterion("3 (self-conjugate counts = signed parity difference, k<=3, n<=30)"):
        started = time.monotonic()
        for k in (2, 3):
            raw = genfun.self_conjugate_series(k, 30, "raw").integer_coefficients()
            simplified = genfun.self_conjugate_series(
                k, 30, "simplified").integer_coefficients()
            sign = 1 if k % 2 == 0 else -1
            for n in range(1, 31):
                count = combinat.count_self_conjugate(n, k)
                with_odd, with_even = combinat.count_even_part_parity(n, k)
                signed = sign * (with_odd - with_even)
                assert count == signed == raw[n] == simplified[n], (k, n)
        assert time.monotonic() - started < 120


def test_criterion_3_at_scale():
    with criterion("3 at scale (qranks verify thm-1-5 cells, k<=3, n<=60)"):
        started = time.monotonic()
        out = io.StringIO()
        # the default budget admits it (estimate 1.33e7 against 1e8)
        argv = ["verify", "--suite", "thm-1-5", "--k-max", "3", "--n-max", "60"]
        with redirect_stdout(out):
            assert cli.main(argv) == 0
        assert out.getvalue().splitlines()[-1].endswith(", 0 failed")
        assert time.monotonic() - started < 30


def test_criterion_3_at_scale_n80():
    with criterion("3 at scale (qranks verify thm-1-5 cells, k<=3, n<=80)"):
        started = time.monotonic()
        out = io.StringIO()
        # the estimate (2.47e8) bounds the decorations by partitions, so the
        # default budget refuses it
        argv = ["verify", "--suite", "thm-1-5", "--k-max", "3", "--n-max", "80",
                "--budget", str(10 ** 9)]
        with redirect_stdout(out):
            assert cli.main(argv) == 0
        assert out.getvalue().splitlines()[-1] == "summary: 160 cells, 160 passed, 0 failed"
        assert time.monotonic() - started < 30


def test_criterion_4_psi_forms_and_bijection():
    with criterion("4 (psi three ways to q^50; self-conjugate bijection, n<=20)"):
        theta = genfun.mock_theta_psi(50, "theta")
        poch = genfun.mock_theta_psi(50, "pochhammer")
        enum = genfun.mock_theta_psi(50, "enumerative")
        assert theta == poch == enum
        for n in range(1, 21):
            for sym in combinat.enumerate_self_conjugate_symbols(n):
                image = combinat.self_conjugate_to_odd_parts(sym)
                assert image.size == n
                assert combinat.odd_parts_to_self_conjugate(image) == sym
            for p in combinat.enumerate_complete_odd_partitions(n):
                back = combinat.odd_parts_to_self_conjugate(p)
                assert combinat.self_conjugate_to_odd_parts(back) == p


def test_criterion_5_anchor_values():
    with criterion("5 (anchor values and worked examples)"):
        assert genfun.partition_series(4).integer_coefficients()[4] == 5
        assert sum(combinat.rank_census_unimodal(4).values()) == 4

        fig3 = combinat.KMarkedDurfeeSymbol(
            top=((4, 3), (4, 3), (3, 2), (3, 2), (2, 2), (2, 1)),
            bottom=((5, 3), (3, 2), (2, 2), (2, 1)),
            side=5, k=3)
        assert fig3.size == 55
        assert combinat.durfee_ranks(fig3) == (-1, 0, 1)

        durfee = [combinat.durfee_decompose(p) for p in combinat.enumerate_partitions(4)]
        assert [(s.top.parts, s.bottom.parts, s.side) for s in durfee] == [
            ((1, 1, 1), (), 1),
            ((1, 1), (1,), 1),
            ((), (), 2),
            ((1,), (1, 1), 1),
            ((), (1, 1, 1), 1),
        ]

        symbols = [combinat.su_symbol(s) for s in combinat.enumerate_su_sequences(4)]
        assert [(s.top.parts, s.bottom.parts, s.peak) for s in symbols] == [
            ((), (), 4),
            ((), (1,), 3),
            ((1,), (), 3),
            ((1,), (1,), 2),
        ]


def test_criterion_6_dual_enumeration_strategies():
    with criterion("6 (marking filter vs profile construction, k<=3, n<=18)"):
        for k in (1, 2, 3):
            for n in range(1, 19):
                constructed = combinat.enumerate_marked_unimodal(n, k)
                assert constructed == unimodal_by_filter(n, k), (k, n)
                assert len(set(constructed)) == len(constructed)


def test_criterion_7_specialization_consistency():
    with criterion("7 (root-of-unity specialization consistency)"):
        r1 = genfun.partition_rank_series(40)
        at_one = specialize_exact(r1, RootOfUnityVector((Fraction(0, 1),)))
        assert at_one.real_coefficients() == genfun.partition_series(40).integer_coefficients()
        assert all(im == 0 for _, im in at_one.coeffs)

        u1 = genfun.unimodal_rank_series(25)
        minus_one = RootOfUnityVector((Fraction(1, 2),))
        at_minus_one = specialize_exact(u1, minus_one)
        assert at_minus_one.coeffs[4] == (0, 0)
        for n in range(1, 26):
            expected = sum(
                (-1) ** m * c for m, c in combinat.rank_census_unimodal(n).items())
            assert at_minus_one.coeffs[n] == (expected, 0), n

        numeric = specialize_numeric(u1, minus_one)
        for n in range(26):
            diff = abs(numeric.coeffs[n] - complex(*at_minus_one.coeffs[n]))
            assert diff <= numeric.error_bounds[n]


def test_criterion_8_series_engine_properties():
    with criterion("8 (ring axioms, inverses, telescoping: 1000 random cases)"):
        started = time.monotonic()
        rng = random.Random(20250808)

        def random_series(n_max, var_count, unit=False):
            s = (TruncatedSeries.one if unit else TruncatedSeries.zero)(n_max, var_count)
            for _ in range(rng.randint(0, 5)):
                order = rng.randint(1 if unit else 0, n_max) if n_max else 0
                if unit and n_max == 0:
                    break
                exps = tuple(rng.randint(-order, order) if order else 0
                             for _ in range(var_count))
                s = s + TruncatedSeries.monomial(rng.randint(-5, 5), exps, order, n_max)
            return s

        for case in range(1000):
            n_max = rng.randint(0, 10)
            var_count = rng.randint(0, 2)
            a = random_series(n_max, var_count)
            b = random_series(n_max, var_count)
            c = random_series(n_max, var_count)
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c), case
            assert a * (b + c) == a * b + a * c

            u = random_series(n_max, var_count, unit=True)
            assert u * u.inverse() == TruncatedSeries.one(n_max, var_count)

            spec = FactorSpec(
                rng.choice([1, -1]),
                rng.choice([None] + list(range(1, var_count + 1))),
                rng.choice([1, -1]),
                rng.randint(0, 3),
                rng.randint(1, 3),
            )
            head, tail = rng.randint(0, 3), rng.randint(0, 3)
            combined = pochhammer(spec, head + tail, n_max, var_count)
            split = pochhammer(spec, head, n_max, var_count) * pochhammer(
                FactorSpec(spec.sign, spec.var_index, spec.var_exponent,
                           spec.q_offset + head * spec.q_step, spec.q_step),
                tail, n_max, var_count)
            assert combined == split

            for result in (a + b, a * b, u.inverse()):
                for coeff in result.coeffs:
                    assert all(v != 0 for v in coeff.terms.values())

        assert time.monotonic() - started < 30
