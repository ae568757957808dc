"""Strongly unimodal sequences and their symbols.

A strongly unimodal sequence rises strictly to a unique peak and then
falls strictly.  Its symbol keeps the parts right of the peak (top row)
and left of it (bottom row) under the peak value, and its rank is the
number of parts right of the peak minus the number left of it.
"""

from qranks import (
    enumerate_su_sequences,
    marked_unimodal_counts,
    su_rank,
    su_symbol,
    unimodal_rank_series,
)

print("The 4 strongly unimodal sequences of size 4:")
for seq in enumerate_su_sequences(4):
    sym = su_symbol(seq)
    print(f"  {seq.render():8s} rank {su_rank(seq):+d}   symbol {sym.render()}")

print()
print("Counts u(n) for n = 1..12:")
print(" ", marked_unimodal_counts(12, 1)[0][1:])

print()
print("The rank series knows the same numbers: setting x1 = 1 (i.e. summing")
print("each Laurent coefficient) recovers u(n), and individual exponents")
print("count sequences with a given rank.")
series = unimodal_rank_series(8)
for n in range(1, 9):
    coeff = series.coefficient(n)
    total = sum(coeff.terms.values())
    print(f"  n={n}: u(n)={total:3d}   by rank {coeff!r}")
