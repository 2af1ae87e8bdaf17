"""The exact rational Fincke-Pohst enumerator, kept as a test oracle.

This is the package's original enumeration: a Cholesky decomposition in
``Fraction`` arithmetic, the coefficient interval of each level from exact
integer square roots, and the centre of each level recomputed from scratch.
It is slow but shares nothing with the residue walk over the HNF basis that
`short_vectors` uses, so the tests compare the two.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from codelattice.enumeration import ShortVector, ShortVectorList


class NotPositiveDefinite(ValueError):
    """The Gram matrix has a leading minor that is not positive."""


def cholesky(gram) -> list[list[Fraction]]:
    """q[i][i] and q[i][j] of the standard quadratic-form decomposition."""
    n = len(gram)
    q = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        s = Fraction(gram[i][i])
        for k in range(i):
            s -= q[k][k] * q[k][i] * q[k][i]
        if s <= 0:
            raise NotPositiveDefinite("Gram matrix is not positive definite")
        q[i][i] = s
        for j in range(i + 1, n):
            t = Fraction(gram[i][j])
            for k in range(i):
                t -= q[k][k] * q[k][i] * q[k][j]
            q[i][j] = t / s
    return q


def _floor_sqrt_add_div(s2: int, c: int, d: int) -> int:
    """floor((sqrt(s2) + c) / d) for integers s2 >= 0, d > 0, exactly."""
    x = (isqrt(s2) + c) // d
    t = d * (x + 1) - c
    if t <= 0 or t * t <= s2:
        x += 1
    return x


def _coeff_range(budget: Fraction, qii: Fraction, offset: Fraction):
    """Integers x with qii * (x + offset)**2 <= budget, as (lo, hi)."""
    if budget < 0:
        return 0, -1
    s = budget / qii
    a, b = s.numerator, s.denominator
    u, v = offset.numerator, offset.denominator
    s2 = a * b * v * v
    d = b * v
    hi = _floor_sqrt_add_div(s2, -u * b, d)
    lo = -_floor_sqrt_add_div(s2, u * b, d)
    return lo, hi


def fraction_short_vectors(lattice, bound: int) -> ShortVectorList:
    """Same contract as `codelattice.enumeration.short_vectors`, without a cap."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    n = lattice.n
    q = cholesky(lattice.gram)
    basis = lattice.basis
    out: list[ShortVector] = []
    x = [0] * n

    def emit():
        v = [0] * n
        for i in range(n):
            if x[i]:
                for j in range(n):
                    v[j] += x[i] * basis[i][j]
        norm = sum(e * e for e in v)
        if not 0 < norm <= bound:
            raise AssertionError(f"oracle emitted norm {norm} outside (0, {bound}]")
        for e in v:
            if e:
                if e < 0:
                    v = [-c for c in v]
                break
        out.append(ShortVector(tuple(v), norm))

    def rec(i: int, remaining: Fraction, zero_above: bool):
        offset = Fraction(0)
        for j in range(i + 1, n):
            if x[j]:
                offset += q[i][j] * x[j]
        lo, hi = _coeff_range(remaining, q[i][i], offset)
        if zero_above and lo < 0:
            lo = 0
        for xi in range(lo, hi + 1):
            x[i] = xi
            if i == 0:
                if not (zero_above and xi == 0):
                    emit()
            else:
                t = offset + xi
                rec(i - 1, remaining - q[i][i] * t * t, zero_above and xi == 0)
        x[i] = 0

    rec(n - 1, Fraction(bound), True)
    out.sort(key=lambda sv: (sv.norm, sv.coords))
    return ShortVectorList(bound, out)
