"""k-marked symbols and their multivariate rank generating functions.

Marking parts with 1..k (subject to ordering and interval rules) equips a
symbol with k rank statistics.  The library builds the generating function
whose x1^(m1)..xk^(mk) q^n coefficient counts symbols of size n with rank
vector (m1..mk), and enumerates the symbols independently so the two can
be compared coefficient by coefficient.
"""

from collections import Counter

from qranks import (
    KMarkedDurfeeSymbol,
    durfee_ranks,
    enumerate_marked_unimodal,
    marked_durfee_rank_series,
    marked_unimodal_rank_series,
    rank_census_marked_unimodal,
    unimodal_ranks,
)

print("All 2-marked strongly unimodal symbols of size 5:")
for sym in enumerate_marked_unimodal(5, 2):
    print(f"  {sym.render():24s} ranks {unimodal_ranks(sym)}")

print()
print("The same data from the generating function (exponent vector -> count):")
series = marked_unimodal_rank_series(2, 5)
print(f"  q^5 coefficient: {series.coefficient(5).terms}")
print(f"  census:          {rank_census_marked_unimodal(5, 2)}")

print()
print("Each symbol is built from its largest-marked-part profile M_1 < M_2 < M_3")
print("plus free parts in the intervals the profile sets; the listing, tallied")
print("by rank vector, is the q^9 coefficient of the series:")
symbols = enumerate_marked_unimodal(9, 3)
tally = Counter(unimodal_ranks(sym) for sym in symbols)
matches = dict(tally) == marked_unimodal_rank_series(3, 9).coefficient(9).terms
print(f"  n=9, k=3: {len(symbols)} symbols, rank counts match: {matches}")

print()
print("A 3-marked Durfee symbol of 55 and its three ranks:")
sym = KMarkedDurfeeSymbol(
    top=((4, 3), (4, 3), (3, 2), (3, 2), (2, 2), (2, 1)),
    bottom=((5, 3), (3, 2), (2, 2), (2, 1)),
    side=5, k=3)
print(f"  {sym.render()}  size {sym.size}  ranks {durfee_ranks(sym)}")

print()
print("Durfee rank series at k=2, low orders (empty until q^2):")
rk = marked_durfee_rank_series(2, 6)
for n in range(7):
    print(f"  q^{n}: {rk.coefficient(n).terms}")
