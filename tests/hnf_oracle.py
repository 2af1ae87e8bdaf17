"""The extended-gcd row elimination, kept as a test oracle for `lattices.hnf`.

This is the package's original Hermite normal form: pivots by extended-gcd
row operations over the integers, with row swaps and sign flips, and no
reduction of entries, so they grow.  It needs no modulus and returns the
rank, and it shares nothing with the kernel modulo D but `xgcd`, so the
tests compare the two.
"""

from __future__ import annotations

from operator import index

from codelattice.lattices import xgcd


def hnf(rows) -> tuple[list[list[int]], int]:
    """(nonzero rows of the row-style HNF of the span of `rows`, rank)."""
    work = [list(map(index, r)) for r in rows]
    if not work:
        return [], 0
    n = len(work[0])
    if any(len(r) != n for r in work):
        raise ValueError("ragged matrix")
    pivot = 0
    for col in range(n):
        if pivot == len(work):
            break
        row = next((i for i in range(pivot, len(work)) if work[i][col]), None)
        if row is None:
            continue
        work[pivot], work[row] = work[row], work[pivot]
        for i in range(pivot + 1, len(work)):
            b = work[i][col]
            if b == 0:
                continue
            a = work[pivot][col]
            g, x, y = xgcd(a, b)
            p, r = work[pivot], work[i]
            work[pivot] = [x * pa + y * ra for pa, ra in zip(p, r)]
            work[i] = [(a // g) * ra - (b // g) * pa for pa, ra in zip(p, r)]
        if work[pivot][col] < 0:
            work[pivot] = [-e for e in work[pivot]]
        d = work[pivot][col]
        for i in range(pivot):
            q = work[i][col] // d
            if q:
                work[i] = [e - q * pe for e, pe in zip(work[i], work[pivot])]
        pivot += 1
    return work[:pivot], pivot
