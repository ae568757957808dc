"""Planted defects that ``qranks verify`` must catch, kept as data.

Each row is (file under src/qranks, old text that occurs exactly once in
it, new text, the suite that must report a FAIL cell at its defaults,
what the defect breaks).  ``tests/test_mutants.py`` applies each row to a
copy of the package.  A row whose old text no longer occurs once is stale:
update it to the code it means to break.

Each defect gives a wrong but valid object, so that ``verify`` prints a
FAIL line rather than raising.  ``verify --suite bijections`` checks round
trips, not completeness: an enumerator that drops objects passes it.
``TestParts`` in ``tests/test_combinat.py`` and the listing goldens in
``tests/test_cli.py`` are what catch that.
"""

MUTANTS = [
    ("series.py", "(2 * p, {(0,) * len(exps): 1})", "(2 * p, {(0,) * len(exps): -1})",
     "thm-1-1", "the trinomial's q^(2p) term flips sign"),
    ("genfun.py", "_divide_trinomial(head, _x(j, 1, k), b)",
     "_divide_trinomial(head, _x(j, 1, k), b + 1)",
     "thm-1-1", "the y step divides at the next q-power"),
    ("genfun.py", "b * b if j == k else b, step", "b * b if j == k else b + 1, step",
     "thm-1-1", "the Durfee power of M_j, j < k, is one too large"),
    ("combinat.py", "block[s].get(ranks, 0) - count", "block[s].get(ranks, 0) + count",
     "thm-1-1", "the y pass adds its q^(2v) term"),
    ("combinat.py", "_moved(block[s], block[s - v], 1)", "_moved(block[s], block[s - v], -1)",
     "thm-1-1", "the y pass moves the rank the wrong way"),
    ("combinat.py", "(k - j) * v", "(k - j + 1) * v",
     "thm-1-1", "the Durfee walk's room is one v too small"),
    ("combinat.py", "ranks + (0,)", "ranks + (1,)",
     "thm-1-1", "an opened mark starts at rank 1"),
    ("genfun.py", "_binomial(head, 1, _x(j, -1, k), b)", "_binomial(head, 1, _x(j, 1, k), b)",
     "thm-1-2", "uk's middle factor carries x_j for x_j^-1"),
    ("combinat.py", "_moved(block[s + v], block[s], -1)", "_moved(block[s + v], block[s], 1)",
     "thm-1-2", "a unimodal bottom part counts +1"),
    ("genfun.py", "order + p <= top", "order + p < top",
     "thm-1-2", "nested sums drop the terms of order exactly n_max"),
    ("genfun.py", "_add(head, rest, 1, 2 * b)", "_add(head, rest, 1, 2 * b + 2)",
     "thm-1-5", "raw scuk shifts its doubled part by 2b + 2"),
    ("combinat.py", "((2 * peak, True),)", "((2 * peak + 2, True),)",
     "thm-1-5", "the symmetric table adds the value 2p + 2"),
    ("combinat.py", "for i in range(1, side + 1):", "for i in range(1, side + 2):",
     "bijections", "recomposing appends one more row of length side"),
    ("combinat.py", "return SUSymbol(top, bottom, peak)", "return SUSymbol(bottom, top, peak)",
     "bijections", "the unimodal symbol swaps its two rows"),
    # the rows built unchecked: each defect still slices a valid row
    ("combinat.py", "Partition._unchecked(parts[side:])", "Partition._unchecked(parts[side + 1:])",
     "bijections", "the Durfee bottom row drops its first part"),
    ("combinat.py", "Partition._unchecked(parts[i + 1:])", "Partition._unchecked(parts[i + 2:])",
     "bijections", "the unimodal top row drops the part after the peak"),
    ("combinat.py", "Partition._unchecked(parts[:i][::-1])",
     "Partition._unchecked(parts[1:i][::-1])",
     "bijections", "the unimodal bottom row drops the first part"),
    ("combinat.py", "return SUSymbol(row, row, heights[0])",
     "return SUSymbol(row, row, heights[0] + 1)",
     "bijections", "the odd parts' symbol has one more at its peak"),
    ("combinat.py", "range((remaining - j * j) // value, 0, -1)",
     "range((remaining - j * j) // value, 1, -1)",
     "psi", "no complete odd partition has one copy of a value above 1"),
    ("_record.py", "if mine is not theirs and not mine == theirs:", "if mine is not theirs:",
     "bijections", "records whose equal fields are distinct objects compare unequal"),
]

# mutants that change no output, each expected to pass its suite
EQUIVALENT = [
    ("combinat.py", "n_max - v - 1", "n_max - v",
     "thm-1-2", "the unimodal room one larger only fills sizes no peak reads"),
]
