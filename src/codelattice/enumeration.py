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

Three exact rules keep each lattice to about one walk:

* The norm grain.  x G x^T = sum_i g_ii x_i**2 + sum_{i<j} 2 g_ij x_i x_j,
  so every norm is a multiple of g = gcd(g_ii, 2 g_ij), and a walk to
  g * floor(B / g) lists exactly the vectors of norm <= B.
* The Hermite start.  Every lattice of rank n has
  (lambda1**2)**n <= gamma_n**n * det, so for n <= 8 (where gamma_n**n is
  known exactly, HERMITE_POWER) lambda1**2 is at most the largest integer b
  with b**n <= gamma_n**n * det; `lattice_minimum` walks to the smaller of b
  and the Gram diagonal's minimum, a radius that always holds a minimal
  vector.
* The reused list.  The list `lattice_minimum` enumerated is kept on the
  lattice; it holds every vector of norm <= its bound, sorted by norm, so a
  later request whose rounded radius is within that bound is its bisected
  prefix, the list a new walk would return.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import gcd, isqrt
from operator import attrgetter
from typing import NamedTuple

from .exact import integer_root
from .lattices import IntegralLattice, leading_minors

__all__ = [
    "CertificateError",
    "DEFAULT_CAP",
    "EnumerationCap",
    "NotPositiveDefinite",
    "ShortVector",
    "ShortVectorList",
    "short_vectors",
    "lattice_minimum",
]


# gamma_n**n, the n-th power of Hermite's constant, for every n where it is
# known exactly (Conway & Sloane, SPLAG ch. 1 section 2)
HERMITE_POWER = {
    1: Fraction(1),
    2: Fraction(4, 3),
    3: Fraction(2),
    4: Fraction(4),
    5: Fraction(8),
    6: Fraction(64, 3),
    7: Fraction(64),
    8: Fraction(256),
}

DEFAULT_CAP = 10_000_000  # the cap of every capped enumeration and of the CLI


class EnumerationCap(RuntimeError):
    """An enumeration would list more than `cap` items, short vectors or a
    code's codewords (`what` names them); no partial result is returned."""

    def __init__(self, count: int, cap: int, what: str = "vectors"):
        self.count = count
        self.cap = cap
        super().__init__(f"enumeration cap exceeded: {count} {what} > cap {cap}")


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
    """`leading_minors` of the Gram matrix: D_0..D_n and the a_ij of the
    form in the module docstring.  Raises NotPositiveDefinite unless every
    leading minor is positive (Sylvester's criterion)."""
    dets, a = leading_minors(gram)
    if dets[-1] <= 0:
        raise NotPositiveDefinite("Gram matrix is not positive definite")
    return dets, a


def _grain(gram) -> int:
    """gcd of the g_ii and the 2 g_ij: every norm is a multiple of it."""
    n = len(gram)
    return gcd(
        *(gram[i][i] for i in range(n)),
        *(2 * gram[i][j] for i in range(n) for j in range(i + 1, n)),
    )


def short_vectors(
    lattice: IntegralLattice, bound: int, cap: int = DEFAULT_CAP
) -> ShortVectorList:
    """All vectors with 0 < norm <= bound, one representative per +-pair.

    Representatives have a positive first nonzero coordinate and are sorted
    by (norm, coordinates).  The walk goes to the bound rounded down to the
    norm grain; a request within the list `lattice_minimum` kept is served
    as its prefix (module docstring).  Either way the result is a new list,
    and more than `cap` vectors raise EnumerationCap.  Every enumerated
    norm is re-verified by an integer dot product of the ambient
    coordinates; a mismatch raises CertificateError.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    radius = bound - bound % _grain(lattice.gram)
    known = lattice._short
    if known is None or radius > known.bound:
        return ShortVectorList(bound, _walk(lattice, radius, cap))
    vectors = known.vectors[: bisect_right(known.vectors, radius, key=attrgetter("norm"))]
    # the walk raises at the first vector past the cap
    if len(vectors) > max(cap, 0):
        raise EnumerationCap(max(cap, 0) + 1, cap)
    return ShortVectorList(bound, vectors)


def _walk(lattice: IntegralLattice, bound: int, cap: int) -> list[ShortVector]:
    """The sorted representatives of norm <= bound (bound >= 0), by the
    Fincke-Pohst walk of the module docstring."""
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
    return out


def lattice_minimum(lattice: IntegralLattice) -> tuple[int, tuple[int, ...]]:
    """Minimal nonzero squared norm with a witness vector (the smallest
    coordinates among the minimal vectors).

    One complete enumeration to a radius known to hold a minimal vector
    suffices: the minimum of the Gram diagonal, attained by a basis vector,
    or for n <= 8 the Hermite bound, the largest b with
    b**n <= gamma_n**n * det, if smaller (lambda1**2 is an integer with
    (lambda1**2)**n <= gamma_n**n * det).  The list is kept on the
    (immutable) lattice, so each lattice enumerates it once and
    `short_vectors` serves smaller requests from it.
    """
    if lattice._short is None:
        radius = min(lattice.gram[i][i] for i in range(lattice.n))
        g = HERMITE_POWER.get(lattice.n)
        if g is not None:
            b = integer_root(g.numerator * lattice.det_gram // g.denominator, lattice.n)
            radius = min(radius, b)
        lattice._short = short_vectors(lattice, radius)
    best = lattice._short.vectors[0]
    return best.norm, best.coords
