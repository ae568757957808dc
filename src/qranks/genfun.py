"""Builders for every rank generating function, as exact truncated series.

Each multi-sum builder sums a k-fold nested family of Pochhammer-product
terms over indices M_1 <= M_2 <= ... <= M_k (strictly increasing for the
unimodal families).  No builder forms its terms one by one: one evaluator,
:func:`_nested_sum`, sums from the innermost index outwards (Horner's rule
for nested sums).  S_j(b), the sum over M_j >= b and every later index,
follows from S_j(b+1) and from S_(j+1) at M_j = b by one step.  Partial
sums stay accumulators, which only :mod:`qranks.series` builds, copies and
adds: a step only reads S_j(b+1), adds it (times q^p, or for uk times
(1 + x_j q^b)(1 + x_j^-1 q^b), two one-binomial series built up to q^(2b),
where their product ends) into the head, and multiplies or divides the head
in place by binomials 1 + c*x^e*q^p (:func:`qranks.series._binomial`); no
step reads an accumulator's length, and only the final sum becomes a
series.  A builder thus makes O(k*N) in-place operations of about
O(N * terms) each, as the kernel skips zero coefficients, where a
term-by-term sum makes one full product per factor of every term.  Each level
keeps only the powers of q its outer indices leave room for, and S_j(b) is
never formed once its least q-power exceeds them, so the result is exact.

The two self-conjugate forms share the evaluator and the series ring, so
they are not independent of each other; both are checked against the
symmetric table of :func:`qranks.combinat.marked_unimodal_counts`, which
shares no code with this module.  Builders are deterministic and pure,
and each one checks explicitly (also under ``python -O``) that no rank
exponent exceeds the size it appears at.

Coefficients of the multivariate series are Laurent polynomials in
x_1..x_k; the integer attached to x^(m_1,..,m_k) q^n counts symbols of size
n whose j-th rank is m_j.  That equivalence is what the test suite checks
against the enumerations in :mod:`qranks.combinat`; it is never assumed
here.  The two builders that read a census table,
:func:`mock_theta_psi` (``form="enumerative"``) and
:func:`even_part_parity_series`, import :mod:`qranks.combinat` when they
run, so importing this module does not load the census side.
"""

from __future__ import annotations

from itertools import chain

from .series import (FactorSpec, TruncatedSeries, _add, _add_product, _binomial, _shifted,
                     _unit, _x, pochhammer)


def _checked(s: TruncatedSeries) -> TruncatedSeries:
    """Return ``s`` once no rank exponent exceeds the size it appears at; a
    violation means a builder is wrong, not its input."""
    for n, c in enumerate(s.coeffs):
        if max(map(abs, chain.from_iterable(c.terms)), default=0) > n:
            exps = next(exps for exps in c.terms if any(abs(e) > n for e in exps))
            raise ArithmeticError(f"rank exponent beyond size: n={n}, exponents={exps}")
    return s


def _nested_sum(k: int, n_max: int, var_count: int, gap: int, power, step) -> TruncatedSeries:
    """S_1(1) for a k-fold nested sum, summed from its innermost index out.

    S_j(b) is the sum over M_j >= b and the later indices, where
    M_(i+1) >= M_i + gap, and S_(k+1) = 1.  Partial sums are accumulators
    of :mod:`qranks.series`: ``step(j, b, head, rest)`` turns
    head = q^power(j, b) * S_(j+1)(b + gap) into S_j(b) in place and only
    reads rest, S_j(b + 1) itself ([], which is 0, at the first b of a level).

    The outer indices M_i >= 1 + (i-1)*gap add room_j = sum_(i<j)
    power(i, 1 + (i-1)*gap) to every term of level j, which keeps
    q^0..q^(n_max - room_j).  The least q-power of S_j(b), power(j, b) plus
    that of S_(j+1)(b + gap), must grow with b, and power(j, b) >= b; sums
    whose least q-power exceeds the level's top are never formed.
    """
    tops = [n_max]  # tops[j - 1] = n_max - room_j, for j = 1..k+1
    for j in range(1, k + 1):
        tops.append(tops[-1] - power(j, 1 + (j - 1) * gap))
        if tops[-1] < 0:  # every term has a q-power beyond n_max
            return TruncatedSeries.zero(n_max, var_count)
    one = _unit(tops[k], var_count)
    inner = dict.fromkeys(range(1, n_max + 2), (0, one))  # b -> (least q-power, S_(j+1)(b))
    for j in range(k, 0, -1):
        top, level, rest = tops[j - 1], {}, []
        for b in range(top, (j - 1) * gap, -1):
            p = power(j, b)
            order, tail = inner.get(b + gap, (top + 1, None))  # not formed: 0 up to q^top
            if order + p <= top:
                head = _shifted(tail, p, top)
                step(j, b, head, rest)
                rest, level[b] = head, (order + p, head)
        inner = level
    return TruncatedSeries._from_buckets(n_max, var_count, inner[1][1])  # S_1(1) to q^n_max


def _durfee_sum(k: int, n_max: int) -> TruncatedSeries:
    """The sum over 1 <= M_1 <= ... <= M_k of

        q^(M_k^2 + M_1 + ... + M_(k-1))
        / prod_(j=1..k) prod_(p=M_(j-1)..M_j) (1 - x_j q^p)(1 - x_j^-1 q^p)

    with M_0 = 1, by S_j(b) = (q^(b or b^2) S_(j+1)(b) + S_j(b+1)) divided
    by (1 - x_j q^b)(1 - x_j^-1 q^b).
    """
    def step(j, b, head, rest):
        _add(head, rest)
        _binomial(head, -1, _x(j, 1, k), b, -1)
        _binomial(head, -1, _x(j, -1, k), b, -1)

    return _nested_sum(k, n_max, k, 0, lambda j, b: b * b if j == k else b, step)


def partition_series(n_max: int) -> TruncatedSeries:
    """Partition counts p(0..n_max): 1 / prod (1 - q^n)."""
    euler = pochhammer(FactorSpec(1, None, 1, 1, 1), None, n_max, 0)
    return TruncatedSeries.one(n_max, 0) / euler


def partition_rank_series(n_max: int) -> TruncatedSeries:
    """Two-variable rank series for partitions: sum over t >= 0 of
    q^(t^2) / ((x1 q; q)_t (x1^-1 q; q)_t), one x variable.  The terms with
    t >= 1 are the k=1 Durfee sum."""
    return _checked(TruncatedSeries.one(n_max, 1) + _durfee_sum(1, n_max))


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
    return _checked(_durfee_sum(k, n_max))


def unimodal_rank_series(n_max: int) -> TruncatedSeries:
    """Two-variable rank series for strongly unimodal sequences: sum over
    t >= 0 of q^(t+1) (-x1 q; q)_t (-x1^-1 q; q)_t, one x variable.  This
    is the k=1 marked unimodal sum."""
    return marked_unimodal_rank_series(1, n_max)


def marked_unimodal_rank_series(k: int, n_max: int) -> TruncatedSeries:
    """Rank series for k-marked strongly unimodal symbols.

    Sum over m_1..m_k >= 1 of

        q^(M_1 + ... + M_k)
        * prod_(j=1..k-1) (1 + x_j^-1 q^(M_j))
        * prod_(j=1..k) (-x_j q^(M_(j-1)+1); q)_(m_j - 1)
                        (-x_j^-1 q^(M_(j-1)+1); q)_(m_j - 1)

    with M_0 = 0 and M_j = m_1 + ... + m_j.  At k=1 the middle product is
    empty and the sum is the plain unimodal rank series.  Summed as
    S_j(b) = q^b (1 + x_j^-1 q^b) S_(j+1)(b+1)
             + (1 + x_j q^b)(1 + x_j^-1 q^b) S_j(b+1),
    without the middle factor at j = k.
    """
    if k < 1:
        raise ValueError("k must be >= 1")

    def step(j, b, head, rest):
        if j < k:
            _binomial(head, 1, _x(j, -1, k), b)
        if rest:  # bench/ traces this `*` and `pochhammer` (ROADMAP item 1)
            _add_product(head, pochhammer(FactorSpec(-1, j, 1, b), 1, 2 * b, k)
                         * pochhammer(FactorSpec(-1, j, -1, b), 1, 2 * b, k), rest)

    return _checked(_nested_sum(k, n_max, k, 1, lambda j, b: b, step))


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

    with each 1/(1 + q^(2M_j)) realized by series division.  Both forms
    agree at every truncation.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if form not in ("raw", "simplified"):
        raise ValueError(f"unknown form {form!r}")

    def power(j, b):
        return b if j == k else 2 * b

    def raw_step(j, b, head, rest):
        _add(head, rest)
        _add(head, rest, 1, 2 * b)

    def simplified_step(j, b, head, rest):
        if j < k:
            _binomial(head, 1, (), 2 * b, -1)
        else:
            for i in range(1, b):  # (-q^2; q^2)_(b-1)
                _binomial(head, 1, (), 2 * i)
        _add(head, rest)

    step = raw_step if form == "raw" else simplified_step
    return _checked(_nested_sum(k, n_max, 0, 1, power, step))


def mock_theta_psi(n_max: int, form: str = "theta") -> TruncatedSeries:
    """The classical third-order mock theta function psi(q), three ways.

    form="theta": sum over t >= 1 of q^(t^2) / (q; q^2)_t, summed as
    S(b) = (q^(b^2) + S(b+1)) / (1 - q^(2b-1)).
    form="pochhammer": sum over t >= 1 of q^t (-q^2; q^2)_(t-1), which is
    the k=1 self-conjugate series.
    form="enumerative": coefficients read from one table of the
    self-conjugate symbol counts.  All three agree at every truncation.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if form == "theta":
        def step(j, b, head, rest):
            _add(head, rest)
            _binomial(head, -1, (), 2 * b - 1, -1)

        return _nested_sum(1, n_max, 0, 0, lambda j, b: b * b, step)
    if form == "pochhammer":
        return self_conjugate_series(1, n_max, "raw")
    if form == "enumerative":
        from . import combinat
        return TruncatedSeries.from_integer_coefficients(
            combinat.marked_unimodal_counts(n_max, 1, symmetric=True)[0])
    raise ValueError(f"unknown form {form!r}")


def even_part_parity_series(k: int, n_max: int) -> TruncatedSeries:
    """Signed difference of the decorated odd-part counts: the q^n
    coefficient is (-1)^k * (odd-parity count - even-parity count).

    Coefficient-wise this equals :func:`self_conjugate_series`; the test
    suite checks that identity, this builder does not assume it.
    """
    if k < 2:
        raise ValueError("defined for k >= 2 only")
    sign = (-1) ** k
    from . import combinat
    return TruncatedSeries.from_integer_coefficients(
        [sign * (odd - even) for odd, even in combinat.even_part_parity_counts(n_max, k)])
