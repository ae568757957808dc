"""Exact truncated power series in q with integer Laurent-polynomial coefficients.

A :class:`TruncatedSeries` stores the coefficients of q^0 .. q^N exactly and
knows nothing about higher orders (the series is exact modulo q^(N+1)).
Each q-coefficient is a :class:`LaurentCoefficient`: a sparse integer
polynomial in x_1^(+-1), ..., x_k^(+-1).  It is a value type with no
arithmetic of its own.  All arithmetic is exact Python integer arithmetic;
no floating point enters this module.

Every sum, difference, negation, product, quotient and Pochhammer factor
is one call of :func:`_convolve`, the one loop over the powers of q, on a
mutable accumulator (:data:`Buckets`): a list of exponent->int dicts
indexed by the power of q.  Its one loop over the monomials is
:func:`_shift_add`.  Only this module builds (:func:`_unit`), copies
(:func:`_shifted`) and adds accumulators: :func:`_add` adds c*q^p times
one, and :func:`_add_product` a series times one (``*``, and uk's steps by
a product of two binomials).  :func:`_binomial` multiplies or divides one
in place by 1 + c*x^e*q^p (x^e from :func:`_x`), as in :func:`pochhammer`
and the nested sums of :mod:`qranks.genfun`.
:meth:`TruncatedSeries._from_buckets` turns every constructor's accumulator
into coefficients, one zero shared by all the empty ones.  A binomial step
costs O(N * terms), as zero coefficients cost nothing; ``inverse()`` is 1 / s.

Values are immutable after construction and all operations are pure, so
series may be shared freely between threads.
"""

from __future__ import annotations

from operator import add

from ._record import Record


def _shift_add(target: dict[tuple[int, ...], int], source: dict[tuple[int, ...], int],
               c: int, exps: tuple[int, ...]) -> None:
    """Add c * x^exps * source into ``target`` in place, dropping sums that
    reach 0.  An all-zero (or empty) ``exps`` adds ``source`` unshifted.

    This is the only monomial loop, and :func:`_convolve` its only caller.
    """
    if any(exps):
        items = [(tuple(map(add, e, exps)), v) for e, v in source.items()]
    else:
        items = source.items()
    for key, v in items:
        total = target.get(key, 0) + c * v
        if total:
            target[key] = total
        else:
            target.pop(key, None)


# an accumulator: one exponent->int dict per power of q, truncated at its length
Buckets = list[dict[tuple[int, ...], int]]


def _convolve(out: Buckets, left: list[tuple[int, dict[tuple[int, ...], int]]],
              right: Buckets, c: int) -> None:
    """Add c * left * right into ``out`` in place, truncated at len(out).

    ``left`` lists (j, terms) with j ascending; each nonzero right[i] pushes
    left[j] * right[i] into q^(i+j).  This is the only loop over the powers
    of q.  It walks i down when c = 1 and up when c = -1, so with ``right is
    out`` and every j >= 1, c = 1 multiplies ``out`` in place by 1 + left and
    c = -1 divides it in place by 1 + left.
    """
    if not left:
        return
    n = len(out)
    flat = [(j, exps, c * v) for j, terms in left for exps, v in terms.items()]
    top = min(n - left[0][0], len(right))
    for i in range(top - 1, -1, -1) if c == 1 else range(top):
        source = right[i]
        if source:
            for j, exps, v in flat:
                if i + j >= n:
                    break
                _shift_add(out[i + j], source, v, exps)


def _unit(top: int, var_count: int) -> Buckets:
    """A new accumulator of 1 at q^0..q^top."""
    return [{(0,) * var_count: 1}] + [{} for _ in range(top)]


def _shifted(acc: Buckets, p: int, top: int) -> Buckets:
    """A new accumulator of q^p * acc up to q^top, p <= top + 1; it ends where acc ends."""
    return [{} for _ in range(p)] + [dict(b) for b in acc[: top + 1 - p]]


def _add(acc: Buckets, rest: Buckets, c: int = 1, p: int = 0) -> None:
    """Add c * q^p * rest into ``acc`` in place, truncated at len(acc), at any var count."""
    _convolve(acc, [(p, {(): c})], rest, 1)


def _add_product(acc: Buckets, factor: TruncatedSeries, rest: Buckets) -> None:
    """Add factor * rest into ``acc`` in place, truncated at len(acc); rest is not acc."""
    _convolve(acc, [(j, a.terms) for j, a in enumerate(factor.coeffs[: len(acc)]) if a.terms],
              rest, 1)


def _x(j: int | None, e: int, var_count: int) -> tuple[int, ...]:
    """The exponent vector of x_j^e (j is 1-based); all zeros when j is None."""
    return tuple(e if i == j else 0 for i in range(1, var_count + 1))


def _binomial(acc: Buckets, c: int, exps: tuple[int, ...], p: int, sign: int = 1) -> None:
    """Multiply (sign = 1) or, for p >= 1, divide (sign = -1) ``acc`` in place
    by 1 + c * x^exps * q^p; a q^0 factor reads a copy of the buckets."""
    _convolve(acc, [(p, {exps: c})], acc if p else [dict(b) for b in acc], sign)


class LaurentCoefficient(Record):
    """Sparse integer polynomial in x_1^(+-1) .. x_k^(+-1), as a value.

    ``terms`` maps an exponent tuple of length ``var_count`` to a nonzero
    integer.  Zero values are never stored; the zero polynomial has an
    empty ``terms`` dict.  The object keeps its own copy of the dict it is
    built from.  Arithmetic lives in :class:`TruncatedSeries`.
    """

    __slots__ = ("var_count", "terms")

    def __init__(self, var_count: int, terms: dict[tuple[int, ...], int] | None = None):
        if var_count < 0:
            raise ValueError("var_count must be >= 0")
        pruned: dict[tuple[int, ...], int] = {}
        if terms:
            if set(map(len, terms)) != {var_count}:
                exps = next(e for e in terms if len(e) != var_count)
                raise ValueError(
                    f"exponent vector {exps!r} has length {len(exps)}, expected {var_count}"
                )
            # one copy, made at C speed unless a zero value has to be dropped
            pruned = ({exps: value for exps, value in terms.items() if value}
                      if 0 in terms.values() else dict(terms))
        object.__setattr__(self, "var_count", var_count)
        object.__setattr__(self, "terms", pruned)

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        """True when the polynomial equals the integer 1."""
        return self.terms == {(0,) * self.var_count: 1}

    def get(self, exponents: tuple[int, ...]) -> int:
        if len(exponents) != self.var_count:
            raise ValueError(
                f"exponent vector {exponents!r} has length {len(exponents)}, expected {self.var_count}"
            )
        return self.terms.get(tuple(exponents), 0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentCoefficient):
            return NotImplemented
        return self.var_count == other.var_count and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.var_count, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms):
            value = self.terms[exps]
            factors = [str(value)]
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(f"x{i + 1}")
                elif e != 0:
                    factors.append(f"x{i + 1}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)


class TruncatedSeries(Record):
    """Power series in q, exact modulo q^(N+1), with Laurent coefficients.

    ``coeffs[n]`` is the coefficient of q^n.  Mixed-truncation arithmetic
    truncates the result to the smaller order so pipelines compose.
    """

    __slots__ = ("truncation_order", "var_count", "coeffs")

    def __init__(self, truncation_order: int, var_count: int,
                 coeffs: list[LaurentCoefficient] | None = None):
        if truncation_order < 0:
            raise ValueError("truncation_order must be >= 0")
        if var_count < 0:
            raise ValueError("var_count must be >= 0")
        if coeffs is None:
            coeffs = [LaurentCoefficient(var_count)] * (truncation_order + 1)
        if len(coeffs) != truncation_order + 1:
            raise ValueError(
                f"expected {truncation_order + 1} coefficients, got {len(coeffs)}"
            )
        for c in coeffs:
            if c.var_count != var_count:
                raise ValueError("mismatched variable count in coefficient list")
        object.__setattr__(self, "truncation_order", truncation_order)
        object.__setattr__(self, "var_count", var_count)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def zero(cls, n_max: int, var_count: int) -> TruncatedSeries:
        return cls(n_max, var_count)

    @classmethod
    def one(cls, n_max: int, var_count: int) -> TruncatedSeries:
        return cls._from_buckets(n_max, var_count, _unit(n_max, var_count))

    @classmethod
    def monomial(cls, value: int, exponents: tuple[int, ...], q_power: int,
                 n_max: int) -> TruncatedSeries:
        """The series value * x^exponents * q^q_power at truncation n_max."""
        if q_power < 0:
            raise ValueError("q_power must be >= 0")
        if q_power > n_max:
            raise ValueError(f"exponent beyond truncation: q^{q_power} with n_max={n_max}")
        buckets: Buckets = [{}] * (n_max + 1)
        buckets[q_power] = {tuple(exponents): value} if value else {}
        return cls._from_buckets(n_max, len(exponents), buckets)

    @classmethod
    def _from_buckets(cls, n_max: int, var_count: int,
                      buckets: Buckets) -> TruncatedSeries:
        """The series with coefficients ``buckets``; the empty ones share one zero."""
        zero = LaurentCoefficient(var_count)
        return cls(n_max, var_count,
                   [LaurentCoefficient(var_count, b) if b else zero for b in buckets])

    @classmethod
    def from_integer_coefficients(cls, values: list[int]) -> TruncatedSeries:
        """Variable-free series with the given q^0..q^N integer coefficients."""
        return cls._from_buckets(len(values) - 1, 0, [{(): v} if v else {} for v in values])

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------

    def _check_compatible(self, other: TruncatedSeries) -> None:
        if self.var_count != other.var_count:
            raise ValueError(
                f"mismatched variable count: {self.var_count} vs {other.var_count}"
            )

    def _plus(self, other: TruncatedSeries, c: int) -> TruncatedSeries:
        """self + c * other at the smaller truncation, on a copy of self's buckets."""
        self._check_compatible(other)
        n_max = min(self.truncation_order, other.truncation_order)
        acc: Buckets = [dict(a.terms) for a in self.coeffs[: n_max + 1]]
        _add(acc, [b.terms for b in other.coeffs], c)
        return TruncatedSeries._from_buckets(n_max, self.var_count, acc)

    def __add__(self, other: TruncatedSeries) -> TruncatedSeries:
        return self._plus(other, 1)

    def __sub__(self, other: TruncatedSeries) -> TruncatedSeries:
        return self._plus(other, -1)

    def __neg__(self) -> TruncatedSeries:
        return TruncatedSeries.zero(self.truncation_order, self.var_count) - self

    def __mul__(self, other: TruncatedSeries) -> TruncatedSeries:
        self._check_compatible(other)
        n_max = min(self.truncation_order, other.truncation_order)
        acc: Buckets = [{} for _ in range(n_max + 1)]
        _add_product(acc, self, [b.terms for b in other.coeffs])
        return TruncatedSeries._from_buckets(n_max, self.var_count, acc)

    def __truediv__(self, other: TruncatedSeries) -> TruncatedSeries:
        """Quotient modulo q^(N+1) at the smaller truncation, in one pass up
        the powers of q; other's q^0 coefficient must be the integer 1 (no x
        terms), and then (self / other) * other == self."""
        self._check_compatible(other)
        if not other.coeffs[0].is_one():
            raise ValueError("non-unit constant term")
        n_max = min(self.truncation_order, other.truncation_order)
        acc: Buckets = [dict(a.terms) for a in self.coeffs[: n_max + 1]]
        _convolve(acc, [(j, b.terms) for j, b in enumerate(other.coeffs[1: n_max + 1], 1)
                        if b.terms], acc, -1)
        return TruncatedSeries._from_buckets(n_max, self.var_count, acc)

    def inverse(self) -> TruncatedSeries:
        """Multiplicative inverse modulo q^(N+1), the quotient 1 / self: the q^0
        coefficient must be the integer 1, and then self * self.inverse() == one."""
        return TruncatedSeries.one(self.truncation_order, self.var_count) / self

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------

    def coefficient(self, n: int, exponents: tuple[int, ...] | None = None):
        """Coefficient of q^n: a LaurentCoefficient, or an int at x^exponents."""
        if n < 0 or n > self.truncation_order:
            raise ValueError(f"beyond truncation: q^{n} with n_max={self.truncation_order}")
        if exponents is None:
            return self.coeffs[n]
        return self.coeffs[n].get(exponents)

    def integer_coefficients(self) -> list[int]:
        """The q^0..q^N integer coefficients of a variable-free series."""
        if self.var_count != 0:
            raise ValueError("series has x variables; extract coefficients per exponent")
        return [c.terms.get((), 0) for c in self.coeffs]

    def __repr__(self) -> str:
        shown = []
        for n, c in enumerate(self.coeffs):
            if not c.is_zero():
                shown.append(f"({c!r})*q^{n}" if n else f"({c!r})")
            if len(shown) >= 6:
                shown.append("...")
                break
        body = " + ".join(shown) if shown else "0"
        return f"<series mod q^{self.truncation_order + 1}: {body}>"


class FactorSpec(Record):
    """Argument of a Pochhammer-style product with base q^q_step.

    Describes a = sign * x_i^var_exponent * q^q_offset so that the product
    of (1 - a * q^(q_step*(j-1))) over j = 1..n can be formed.  When
    var_index is None the factor is purely in q and var_exponent is ignored.
    var_index is 1-based.
    """

    __slots__ = ("sign", "var_index", "var_exponent", "q_offset", "q_step")

    def __init__(self, sign: int, var_index: int | None = None, var_exponent: int = 1,
                 q_offset: int = 0, q_step: int = 1):
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if var_index is not None:
            if var_index < 1:
                raise ValueError("var_index is 1-based")
            if var_exponent not in (1, -1):
                raise ValueError("var_exponent must be +1 or -1")
        if q_offset < 0:
            raise ValueError("q_offset must be >= 0")
        if q_step < 1:
            raise ValueError("q_step must be >= 1")
        for name, value in zip(self.__slots__, (sign, var_index, var_exponent, q_offset, q_step)):
            object.__setattr__(self, name, value)


def pochhammer(spec: FactorSpec, count: int | None, n_max: int,
               var_count: int) -> TruncatedSeries:
    """Product of (1 - a*q^(s*(j-1))) for j = 1..count, truncated at n_max.

    Here a = spec.sign * x_i^spec.var_exponent * q^spec.q_offset and
    s = spec.q_step.  The factors are one range of in-place :func:`_binomial`
    steps at q^(q_offset + s*(j-1)), cut at ``count`` factors and at q^n_max,
    since the later ones are 1 modulo q^(n_max+1); ``count=None`` means the
    infinite product.
    """
    if spec.var_index is not None and spec.var_index > var_count:
        raise ValueError(
            f"factor uses x{spec.var_index} but series has {var_count} variables"
        )
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if count is not None and count < 0:
        raise ValueError("count must be >= 0 or None for the infinite product")

    exponents = _x(spec.var_index, spec.var_exponent, var_count)
    acc = _unit(n_max, var_count)
    for q_power in range(spec.q_offset, n_max + 1, spec.q_step)[:count]:
        _binomial(acc, -spec.sign, exponents, q_power)
    return TruncatedSeries._from_buckets(n_max, var_count, acc)
