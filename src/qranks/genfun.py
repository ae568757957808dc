"""Builders for every rank generating function, as exact truncated series.

Each builder sums a multi-indexed family of Pochhammer-product terms.  The
index region is cut off by the term's minimal q-order (the explicit q-power
in front; every other factor has constant term 1), so terms outside the
region vanish modulo q^(N+1) and the truncated result is exact.  Every
multi-sum indexes its terms by the prefix sums M_1..M_k and takes them
from one enumerator, :func:`_index_tuples`, given that order function.
The two self-conjugate forms share the enumerator and the series ring, so
they are not independent of each other; both are checked against
:func:`qranks.combinat.count_self_conjugate`, which shares no code with
this module.  Builders are deterministic and pure, and each one checks
explicitly (also under ``python -O``) that no rank exponent exceeds the
size it appears at.

Coefficients of the multivariate series are Laurent polynomials in
x_1..x_k; the integer attached to x^(m_1,..,m_k) q^n counts symbols of size
n whose j-th rank is m_j.  That equivalence is what the test suite checks
against the enumerations in :mod:`qranks.combinat`; it is never assumed
here.
"""

from __future__ import annotations

from . import combinat
from .series import FactorSpec, TruncatedSeries, pochhammer


def _checked(s: TruncatedSeries) -> TruncatedSeries:
    """Return ``s`` after checking that no rank exponent exceeds the size it
    appears at; a violation means a builder is wrong, not its input."""
    for n, c in enumerate(s.coeffs):
        for exps in c.terms:
            if any(abs(e) > n for e in exps):
                raise ArithmeticError(f"rank exponent beyond size: n={n}, exponents={exps}")
    return s


def _index_tuples(k: int, n_max: int, order, step: int):
    """Yield every (M_1, ..., M_k) with M_1 >= 1, M_j - M_(j-1) >= step and
    order(M) <= n_max, in lexicographic order.

    ``order`` must be nondecreasing and unbounded in every M_j.  Then the
    cheapest completion of a prefix takes each later M_j = M_(j-1) + step,
    and once it is over budget so is every larger value at that position.
    """
    def rec(prefix: tuple[int, ...]):
        if len(prefix) == k:
            yield prefix
            return
        value = prefix[-1] + step if prefix else 1
        while True:
            head = prefix + (value,)
            tail = tuple(value + step * t for t in range(1, k - len(head) + 1))
            if order(head + tail) > n_max:
                return
            yield from rec(head)
            value += 1

    yield from rec(())


def _durfee_order(big: tuple[int, ...]) -> int:
    return big[-1] ** 2 + sum(big[:-1])


def _self_conjugate_order(big: tuple[int, ...]) -> int:
    return 2 * sum(big[:-1]) + big[-1]


def partition_series(n_max: int) -> TruncatedSeries:
    """Partition counts p(0..n_max): the inverse of the infinite product
    prod (1 - q^n)."""
    euler = pochhammer(FactorSpec(1, None, 1, 1, 1), None, n_max, 0)
    return euler.inverse()


def partition_rank_series(n_max: int) -> TruncatedSeries:
    """Two-variable rank series for partitions: sum over t >= 0 of
    q^(t^2) / ((x1 q; q)_t (x1^-1 q; q)_t), one x variable."""
    total = TruncatedSeries.zero(n_max, 1)
    t = 0
    while t * t <= n_max:
        term = TruncatedSeries.monomial(1, (0,), t * t, n_max)
        if t:
            term = term * pochhammer(FactorSpec(1, 1, 1, 1, 1), t, n_max, 1).inverse()
            term = term * pochhammer(FactorSpec(1, 1, -1, 1, 1), t, n_max, 1).inverse()
        total = total + term
        t += 1
    return _checked(total)


def marked_durfee_rank_series(k: int, n_max: int) -> TruncatedSeries:
    """Rank series for k-marked Durfee symbols.

    For k >= 2 this is the multi-sum over m_1 > 0, m_2..m_k >= 0 of

        q^(M_k^2 + M_1 + ... + M_(k-1))
        / [ (x1 q; q)_(m_1) (x1^-1 q; q)_(m_1)
            prod_(j=2..k) (x_j q^(M_(j-1)); q)_(m_j+1)
                          (x_j^-1 q^(M_(j-1)); q)_(m_j+1) ]

    with M_j = m_1 + ... + m_j.  k=1 routes to
    :func:`partition_rank_series`.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return partition_rank_series(n_max)
    total = TruncatedSeries.zero(n_max, k)
    for big in _index_tuples(k, n_max, _durfee_order, 0):
        term = TruncatedSeries.monomial(1, (0,) * k, _durfee_order(big), n_max)
        term = term * pochhammer(FactorSpec(1, 1, 1, 1, 1), big[0], n_max, k).inverse()
        term = term * pochhammer(FactorSpec(1, 1, -1, 1, 1), big[0], n_max, k).inverse()
        for j in range(2, k + 1):
            offset = big[j - 2]
            length = big[j - 1] - offset + 1
            term = term * pochhammer(
                FactorSpec(1, j, 1, offset, 1), length, n_max, k).inverse()
            term = term * pochhammer(
                FactorSpec(1, j, -1, offset, 1), length, n_max, k).inverse()
        total = total + term
    return _checked(total)


def unimodal_rank_series(n_max: int) -> TruncatedSeries:
    """Two-variable rank series for strongly unimodal sequences: sum over
    t >= 0 of q^(t+1) (-x1 q; q)_t (-x1^-1 q; q)_t, one x variable."""
    total = TruncatedSeries.zero(n_max, 1)
    for t in range(n_max):
        term = TruncatedSeries.monomial(1, (0,), t + 1, n_max)
        term = term * pochhammer(FactorSpec(-1, 1, 1, 1, 1), t, n_max, 1)
        term = term * pochhammer(FactorSpec(-1, 1, -1, 1, 1), t, n_max, 1)
        total = total + term
    return _checked(total)


def marked_unimodal_rank_series(k: int, n_max: int) -> TruncatedSeries:
    """Rank series for k-marked strongly unimodal symbols.

    Sum over m_1..m_k >= 1 of

        q^(M_1 + ... + M_k)
        * prod_(j=1..k-1) (1 + x_j^-1 q^(M_j))
        * prod_(j=1..k) (-x_j q^(M_(j-1)+1); q)_(m_j - 1)
                        (-x_j^-1 q^(M_(j-1)+1); q)_(m_j - 1)

    with M_0 = 0 and M_j = m_1 + ... + m_j.  At k=1 the middle product is
    empty and the sum is the plain unimodal rank series.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    total = TruncatedSeries.zero(n_max, k)
    for big in _index_tuples(k, n_max, sum, 1):
        term = TruncatedSeries.monomial(1, (0,) * k, sum(big), n_max)
        for j in range(1, k):
            exps = tuple(-1 if i == j - 1 else 0 for i in range(k))
            bump = TruncatedSeries.one(n_max, k) + TruncatedSeries.monomial(
                1, exps, big[j - 1], n_max)
            term = term * bump
        for j, (lower, upper) in enumerate(zip((0,) + big, big), 1):
            length = upper - lower - 1
            term = term * pochhammer(FactorSpec(-1, j, 1, lower + 1, 1), length, n_max, k)
            term = term * pochhammer(FactorSpec(-1, j, -1, lower + 1, 1), length, n_max, k)
        total = total + term
    return _checked(total)


def self_conjugate_series(k: int, n_max: int, form: str = "raw") -> TruncatedSeries:
    """Counting series (no x variables) for self-conjugate k-marked
    strongly unimodal symbols.

    form="raw" sums, over m_1..m_k >= 1,

        q^(2(M_1+...+M_(k-1)) + M_k)
        * prod_(j=1..k) (-q^(2(M_(j-1)+1)); q^2)_(m_j - 1)

    which generates the doubled row pairs directly.  form="simplified"
    telescopes those products into

        sum_(P >= k) q^P (-q^2; q^2)_(P-1)
          * sum_(1 <= M_1 < ... < M_(k-1) < P)
              prod_j q^(2 M_j) / (1 + q^(2 M_j))

    with each 1/(1 + q^(2M_j)) realized by series inversion.  Both forms
    agree at every truncation.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if form not in ("raw", "simplified"):
        raise ValueError(f"unknown form {form!r}")
    total = TruncatedSeries.zero(n_max, 0)
    if form == "raw":
        for big in _index_tuples(k, n_max, _self_conjugate_order, 1):
            term = TruncatedSeries.monomial(1, (), _self_conjugate_order(big), n_max)
            for lower, upper in zip((0,) + big, big):
                term = term * pochhammer(
                    FactorSpec(-1, None, 1, 2 * (lower + 1), 2), upper - lower - 1, n_max, 0)
            total = total + term
        return _checked(total)

    # the same index region, with the inner products summed per peak M_k
    inner_totals: dict[int, TruncatedSeries] = {}
    for *lower, peak in _index_tuples(k, n_max, _self_conjugate_order, 1):
        inner = TruncatedSeries.one(n_max, 0)
        for b in lower:
            numer = TruncatedSeries.monomial(1, (), 2 * b, n_max)
            denom = TruncatedSeries.one(n_max, 0) + TruncatedSeries.monomial(
                1, (), 2 * b, n_max)
            inner = inner * numer * denom.inverse()
        inner_totals[peak] = inner_totals[peak] + inner if peak in inner_totals else inner
    for peak, inner_total in inner_totals.items():
        outer = TruncatedSeries.monomial(1, (), peak, n_max)
        outer = outer * pochhammer(FactorSpec(-1, None, 1, 2, 2), peak - 1, n_max, 0)
        total = total + outer * inner_total
    return _checked(total)


def mock_theta_psi(n_max: int, form: str = "theta") -> TruncatedSeries:
    """The classical third-order mock theta function psi(q), three ways.

    form="theta": sum over t >= 1 of q^(t^2) / (q; q^2)_t.
    form="pochhammer": sum over t >= 1 of q^t (-q^2; q^2)_(t-1), which is
    the k=1 self-conjugate series.
    form="enumerative": coefficients taken from the self-conjugate symbol
    counts.  All three agree at every truncation.
    """
    if form == "theta":
        total = TruncatedSeries.zero(n_max, 0)
        t = 1
        while t * t <= n_max:
            term = TruncatedSeries.monomial(1, (), t * t, n_max)
            term = term * pochhammer(FactorSpec(1, None, 1, 1, 2), t, n_max, 0).inverse()
            total = total + term
            t += 1
        return total
    if form == "pochhammer":
        return self_conjugate_series(1, n_max, "raw")
    if form == "enumerative":
        values = [0] + [combinat.count_self_conjugate(n, 1) for n in range(1, n_max + 1)]
        return TruncatedSeries.from_integer_coefficients(values)
    raise ValueError(f"unknown form {form!r}")


def even_part_parity_series(k: int, n_max: int) -> TruncatedSeries:
    """Signed difference of the decorated odd-part counts: the q^n
    coefficient is (-1)^k * (odd-parity count - even-parity count).

    Coefficient-wise this equals :func:`self_conjugate_series`; the test
    suite checks that identity, this builder does not assume it.
    """
    if k < 2:
        raise ValueError("defined for k >= 2 only")
    sign = 1 if k % 2 == 0 else -1
    values = []
    for n in range(n_max + 1):
        with_odd, with_even = combinat.count_even_part_parity(n, k)
        values.append(sign * (with_odd - with_even))
    return TruncatedSeries.from_integer_coefficients(values)
