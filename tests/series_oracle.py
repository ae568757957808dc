"""The term-by-term builders, kept as the reference oracle for the
nested-sum evaluation in :mod:`qranks.genfun`.

Each term is a full :class:`TruncatedSeries`: a q-monomial times one
``pochhammer`` series per product (``.inverse()`` for a denominator), joined
by ``__mul__`` and summed with ``+``.  The terms come from their own index
enumerator, :func:`_index_tuples`, so the oracle shares the series ring with
the library but not the order in which it sums.
"""

from qranks.series import FactorSpec, TruncatedSeries, pochhammer


def _index_tuples(k, n_max, order, step):
    """Yield every (M_1, ..., M_k) with M_1 >= 1, M_j - M_(j-1) >= step and
    order(M) <= n_max, in lexicographic order.

    ``order`` must be nondecreasing and unbounded in every M_j.  Then the
    cheapest completion of a prefix takes each later M_j = M_(j-1) + step,
    and once it is over budget so is every larger value at that position.
    """
    def rec(prefix):
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


def _durfee_order(big):
    return big[-1] ** 2 + sum(big[:-1])


def _self_conjugate_order(big):
    return 2 * sum(big[:-1]) + big[-1]


def partition_rank_series(n_max):
    total = TruncatedSeries.zero(n_max, 1)
    t = 0
    while t * t <= n_max:
        term = TruncatedSeries.monomial(1, (0,), t * t, n_max)
        if t:
            term = term * pochhammer(FactorSpec(1, 1, 1, 1, 1), t, n_max, 1).inverse()
            term = term * pochhammer(FactorSpec(1, 1, -1, 1, 1), t, n_max, 1).inverse()
        total = total + term
        t += 1
    return total


def marked_durfee_rank_series(k, n_max):
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
    return total


def unimodal_rank_series(n_max):
    total = TruncatedSeries.zero(n_max, 1)
    for t in range(n_max):
        term = TruncatedSeries.monomial(1, (0,), t + 1, n_max)
        term = term * pochhammer(FactorSpec(-1, 1, 1, 1, 1), t, n_max, 1)
        term = term * pochhammer(FactorSpec(-1, 1, -1, 1, 1), t, n_max, 1)
        total = total + term
    return total


def marked_unimodal_rank_series(k, n_max):
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
    return total


def self_conjugate_series(k, n_max, form="raw"):
    total = TruncatedSeries.zero(n_max, 0)
    if form == "raw":
        for big in _index_tuples(k, n_max, _self_conjugate_order, 1):
            term = TruncatedSeries.monomial(1, (), _self_conjugate_order(big), n_max)
            for lower, upper in zip((0,) + big, big):
                term = term * pochhammer(
                    FactorSpec(-1, None, 1, 2 * (lower + 1), 2), upper - lower - 1, n_max, 0)
            total = total + term
        return total
    inner_totals = {}
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
    return total


def mock_theta_psi_theta(n_max):
    total = TruncatedSeries.zero(n_max, 0)
    t = 1
    while t * t <= n_max:
        term = TruncatedSeries.monomial(1, (), t * t, n_max)
        term = term * pochhammer(FactorSpec(1, None, 1, 1, 2), t, n_max, 0).inverse()
        total = total + term
        t += 1
    return total
