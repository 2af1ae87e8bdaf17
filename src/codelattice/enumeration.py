"""Complete short-vector enumeration in exact integer arithmetic.

Fraction-free (Bareiss) elimination of the Gram matrix gives the leading
minors D_0 = 1, D_1, ..., D_n and integer eliminated rows a_ij, and with
them the integer form of the norm

    Q(x) = sum_i (D_{i+1} x_i + c_i)**2 / (D_i D_{i+1}),
    c_i  = sum_{j>i} a_ij x_j.

Scaling by M = lcm_i(D_i D_{i+1}) makes the budget M*B and every weight
w_i = M / (D_i D_{i+1}) an integer.  A Fincke-Pohst depth-first walk fixes
x_{n-1}, ..., x_0 in turn; with R the budget left at level i and
s = isqrt(R // w_i), the admissible coefficients are exactly

    -floor((s + c_i) / D_{i+1}) <= x_i <= floor((s - c_i) / D_{i+1}),

so completeness never depends on rounding.  The centres c_i are kept as
Schnorr-Euchner partial sums: stepping x_j adds a_ij to the sums of the
levels below it, and a level only recomputes the terms whose coefficients
changed since it was last entered.  Every vector of squared norm <= B is
listed once per +-pair, and every emitted norm is re-checked by an integer
dot product against the form's value.
"""

from __future__ import annotations

from math import gcd, isqrt
from typing import NamedTuple

from .lattices import IntegralLattice

__all__ = [
    "CertificateError",
    "EnumerationCap",
    "NotPositiveDefinite",
    "ShortVector",
    "ShortVectorList",
    "short_vectors",
    "lattice_minimum",
]


class EnumerationCap(RuntimeError):
    """The enumeration produced more vectors than the configured cap."""

    def __init__(self, count: int, cap: int):
        self.count = count
        self.cap = cap
        super().__init__(f"enumeration cap exceeded: {count} vectors > cap {cap}")


class NotPositiveDefinite(ValueError):
    pass


class CertificateError(ArithmeticError):
    """An exact re-check of a certified quantity failed.

    Raised instead of returning a result the arithmetic cannot back; it
    signals a defect, never a property of the input.
    """


class ShortVector(NamedTuple):
    coords: tuple[int, ...]
    norm: int


class ShortVectorList(NamedTuple):
    bound: int
    vectors: list[ShortVector]


def _integer_form(gram) -> tuple[list[int], list[list[int]]]:
    """(D, a): leading minors D_0..D_n and Bareiss-eliminated rows a_ij.

    a[i][i] == D[i+1] and a[i][j] for j > i are the integer coefficients of
    the form in the module docstring.  Raises NotPositiveDefinite unless
    every leading minor is positive (Sylvester's criterion).
    """
    n = len(gram)
    a = [list(map(int, row)) for row in gram]
    dets = [1]
    for k in range(n):
        pivot = a[k][k]
        if pivot <= 0:
            raise NotPositiveDefinite("Gram matrix is not positive definite")
        prev = dets[k]
        row_k = a[k]
        for i in range(k + 1, n):
            row_i = a[i]
            f = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (pivot * row_i[j] - f * row_k[j]) // prev
        dets.append(pivot)
    return dets, a


def short_vectors(
    lattice: IntegralLattice, bound: int, cap: int = 10_000_000
) -> ShortVectorList:
    """All vectors with 0 < norm <= bound, one representative per +-pair.

    Representatives have a positive first nonzero coordinate and are sorted
    by (norm, coordinates).  Every emitted norm is re-verified by an
    integer dot product of the ambient coordinates; a mismatch raises
    CertificateError.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    n = lattice.n
    dets, a = _integer_form(lattice.gram)
    weights = [dets[i] * dets[i + 1] for i in range(n)]
    scale = 1
    for p in weights:
        scale = scale // gcd(scale, p) * p
    weights = [scale // p for p in weights]
    budget = scale * bound
    basis = lattice.basis
    out: list[ShortVector] = []

    # Per level i: coefficient x[i], its upper end hi[i], the budget rest[i]
    # left for levels <= i, the centre c[i] and whether every x[j], j > i,
    # is zero (then x[i] >= 0 keeps one vector per +-pair).
    x = [0] * n
    hi = [0] * n
    rest = [0] * n
    c = [0] * n
    zero_above = [False] * n
    # Schnorr-Euchner partial sums: sums[k][j] = sum_{j' >= j} a[k][j'] x[j'];
    # entering level k recomputes sums[k][j] for j from stale[k + 1] down.
    sums = [[0] * (n + 1) for _ in range(n)]
    stale = [n - 1] * n
    # partial[k] = sum_{j >= k} x[j] * basis[j] for k >= fresh
    partial = [None] * n + [[0] * n]
    fresh = n

    top = n - 1
    x[top] = 0 if top else 1
    hi[top] = isqrt(budget // weights[top]) // dets[n]
    rest[top] = budget
    zero_above[top] = True
    i = top  # the level whose x[i] is tried next
    while True:
        xi = x[i]
        if xi > hi[i]:
            i += 1
            if i == n:
                break
            x[i] += 1
            if fresh <= i:
                fresh = i + 1
            continue
        if i == 0:
            for j in range(fresh - 1, 0, -1):
                xj = x[j]
                partial[j] = (
                    [p + xj * b for p, b in zip(partial[j + 1], basis[j])]
                    if xj
                    else partial[j + 1]
                )
            fresh = 1
            above, row0 = partial[1], basis[0]
            d1, w0, c0, r0 = dets[1], weights[0], c[0], rest[0]
            for x0 in range(xi, hi[0] + 1):
                v = [p + x0 * b for p, b in zip(above, row0)]
                norm = sum(e * e for e in v)
                t = d1 * x0 + c0
                if not 0 < norm <= bound or norm * scale != budget - r0 + w0 * t * t:
                    raise CertificateError(
                        f"norm {norm} of {v} disagrees with the quadratic form"
                    )
                for e in v:
                    if e:
                        if e < 0:
                            v = [-e for e in v]
                        break
                out.append(ShortVector(tuple(v), norm))
                if len(out) > cap:
                    raise EnumerationCap(len(out), cap)
            x[0] = hi[0] + 1
            continue
        # descend to level k = i - 1 with the budget that x[i] leaves
        t = dets[i + 1] * xi + c[i]
        r = rest[i] - weights[i] * t * t
        k = i - 1
        j0 = stale[i]
        sk, ak = sums[k], a[k]
        for j in range(j0, k, -1):
            sk[j] = sk[j + 1] + ak[j] * x[j]
        if j0 > stale[k]:
            stale[k] = j0
        stale[i] = i
        ck = sk[i]
        s = isqrt(r // weights[k])
        d = dets[i]
        hk = (s - ck) // d
        zk = zero_above[i] and xi == 0
        lo = (0 if k else 1) if zk else -((s + ck) // d)
        if lo > hk:
            x[i] = xi + 1
            if fresh <= i:
                fresh = i + 1
            continue
        x[k] = lo
        hi[k] = hk
        rest[k] = r
        c[k] = ck
        zero_above[k] = zk
        if fresh <= k:
            fresh = i
        i = k

    out.sort(key=lambda sv: (sv.norm, sv.coords))
    return ShortVectorList(bound, out)


def lattice_minimum(lattice: IntegralLattice) -> tuple[int, tuple[int, ...]]:
    """Minimal nonzero squared norm with a witness vector.

    The minimum of the Gram diagonal is an upper bound achieved by a basis
    vector, so one complete enumeration below it suffices.  The result is
    cached on the (immutable) lattice, so each lattice enumerates once.
    """
    if lattice._minimum is None:
        start = min(lattice.gram[i][i] for i in range(lattice.n))
        best = short_vectors(lattice, start).vectors[0]
        lattice._minimum = (best.norm, best.coords)
    return lattice._minimum
