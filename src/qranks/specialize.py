"""Evaluate multivariate series at vectors of roots of unity.

Two paths: an exact one over the Gaussian integers for fourth roots of
unity (values 1, i, -1, -i), and a double-precision one for arbitrary
rational angles that records a conservative per-coefficient error bound.

With L the lcm of the angle denominators, a monomial's value is
e^(2*pi*i*t/L) for its turn count t in [0, L), so each call builds one
unit table keyed by t and evaluates each root of unity at most once, not
once per monomial.  Turn counts are computed column-wise: one C-level
pass per variable over all keys of a coefficient, then one reduction mod
L.  The numeric path folds value * unit left to right from 0j in
ascending key order.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import repeat
from operator import add, mod, mul

from .series import TruncatedSeries

_EPS = sys.float_info.epsilon

# i^t as (re, im) for t = 0..3
_GAUSSIAN_UNITS = ((1, 0), (0, 1), (-1, 0), (0, -1))


@dataclass(frozen=True)
class RootOfUnityVector:
    """One rational angle a/b per variable; entry j is the value
    e^(2*pi*i*a/b).  Angles are stored in lowest terms with 0 <= a/b < 1."""

    entries: tuple[Fraction, ...]

    def __post_init__(self):
        entries = tuple(Fraction(e) for e in self.entries)
        for f in entries:
            if not 0 <= f < 1:
                raise ValueError(f"angle {f} outside [0, 1)")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_strings(cls, specs: list[str]) -> RootOfUnityVector:
        """Parse angles written as 'a/b' (or 'a' for an integer angle)."""
        return cls(tuple(Fraction(s) for s in specs))

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class GaussianSeries:
    """Exact evaluation result: one Gaussian integer (re, im) per q-order."""

    truncation_order: int
    coeffs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if len(self.coeffs) != self.truncation_order + 1:
            raise ValueError("coefficient count does not match truncation order")

    def real_coefficients(self) -> list[int]:
        return [re for re, _ in self.coeffs]


@dataclass(frozen=True)
class ComplexSeries:
    """Double-precision evaluation result with per-coefficient error bounds."""

    truncation_order: int
    coeffs: tuple[complex, ...]
    error_bounds: tuple[float, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.truncation_order + 1:
            raise ValueError("coefficient count does not match truncation order")
        if len(self.error_bounds) != self.truncation_order + 1:
            raise ValueError("error bound count does not match truncation order")


def _check_arity(s: TruncatedSeries, v: RootOfUnityVector) -> None:
    if len(v) != s.var_count:
        raise ValueError(
            f"angle vector has {len(v)} entries but series has {s.var_count} variables"
        )


def _turns(v: RootOfUnityVector) -> tuple[int, tuple[int, ...]]:
    """The lcm L of the angle denominators and each angle as a multiple of
    1/L, so a monomial's angle is an integer count of 1/L turns."""
    period = math.lcm(*(f.denominator for f in v.entries))
    return period, tuple(f.numerator * (period // f.denominator) for f in v.entries)


def _turn_counts(keys, turns: tuple[int, ...], period: int) -> list[int]:
    """Each key's angle as a count of 1/period turns in [0, period).

    The dot products with ``turns`` are built one variable at a time, each
    a C-level pass over that variable's column of exponents."""
    counts = repeat(0, len(keys))
    for turn, column in zip(turns, zip(*keys)):
        counts = map(add, counts, map(mul, repeat(turn), column))
    return list(map(mod, counts, repeat(period)))


def specialize_exact(s: TruncatedSeries, v: RootOfUnityVector) -> GaussianSeries:
    """Evaluate at fourth roots of unity, exactly.

    Every angle denominator must divide 4, so each variable takes a value
    in {1, i, -1, -i} and each monomial contributes an exact Gaussian
    integer: the real and imaginary rows of the unit table, indexed by the
    monomial's turn count, weight its integer coefficient.
    """
    _check_arity(s, v)
    for f in v.entries:
        if 4 % f.denominator:
            raise ValueError(
                f"angle {f} is not a fourth root of unity; use specialize_numeric"
            )
    period, turns = _turns(v)
    re_row, im_row = zip(*(_GAUSSIAN_UNITS[4 * t // period] for t in range(period)))
    coeffs = []
    for c in s.coeffs:
        counts = _turn_counts(c.terms, turns, period)
        values = c.terms.values()
        coeffs.append((sum(map(mul, values, map(re_row.__getitem__, counts))),
                       sum(map(mul, values, map(im_row.__getitem__, counts)))))
    return GaussianSeries(s.truncation_order, tuple(coeffs))


def specialize_numeric(s: TruncatedSeries, v: RootOfUnityVector) -> ComplexSeries:
    """Evaluate at arbitrary rational angles in double precision.

    One unit table per call holds e^(2*pi*i*t/L) for each turn count t
    that occurs (L the lcm of the angle denominators), so each distinct
    root of unity is evaluated once.  Turn counts are computed column-wise
    per coefficient.  Each coefficient is the left fold of value * unit
    from 0j over its monomials in ascending exponent order, so the result
    depends only on the series' value, not on the order its terms were
    made in.  The recorded error bound per coefficient is term-count based:
    4 * (number of monomials + 1) * (sum of |integer coefficients|) * eps.
    It is deliberately conservative.  Monomial values whose combined angle
    is a quarter turn are taken exactly, so evaluations at 1, -1, +-i incur
    no rounding beyond the final additions.
    """
    _check_arity(s, v)
    period, turns = _turns(v)
    keys = [sorted(c.terms) for c in s.coeffs]
    counts = [_turn_counts(k, turns, period) for k in keys]
    units = {}
    for t in set().union(*counts):
        if 4 * t % period == 0:
            units[t] = complex(*_GAUSSIAN_UNITS[4 * t // period])
        else:
            # t / L rounds correctly, as float(Fraction(t, L)) does
            units[t] = cmath.exp(2j * math.pi * (t / period))
    coeffs = []
    bounds = []
    for c, k, ts in zip(s.coeffs, keys, counts):
        coeffs.append(reduce(add, map(mul, map(c.terms.__getitem__, k),
                                      map(units.__getitem__, ts)), 0j))
        bounds.append(4.0 * (len(c.terms) + 1) * sum(map(abs, c.terms.values())) * _EPS)
    return ComplexSeries(s.truncation_order, tuple(coeffs), tuple(bounds))
