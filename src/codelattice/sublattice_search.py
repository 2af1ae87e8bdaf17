"""Certified minimal determinants of rank-l sublattices, 1 <= l <= 4.

The searched quantity is the smallest Gram determinant over all rank-l
sublattices of an integral lattice.  The method enumerates candidate
vectors up to an exact per-vector norm bound and walks index-increasing
tuples with a product-of-norms prune:

* a minimising sublattice has a Minkowski-reduced basis whose norms are
  the successive minima (true for rank <= 4), so the product of its norms
  is at most H_l * d_l with H_l = (4/3)**(l*(l-1)/2), and each norm is at
  most R(d_l) = H_l * d_l / lambda1**(2(l-1));
* tuples whose partial norm product already exceeds the H_l budget cannot
  be that reduced basis and are pruned; rank-deficient prefixes are
  skipped; exact Gram determinants are evaluated at the leaves.

One kernel, `_Scan`, walks the tuples of a pool (the candidate vectors in
ascending norm order).  Adding a vector of norm n to a prefix with Gram
matrix G_k updates the determinant by the Schur complement

    det_{k+1} = det_k * n - u^T adj(G_k) u,

u being the new vector's dot products with the prefix, and the adjugate
exactly by adj' = [[(det_{k+1} adj + w w^T) / det_k, -w], [-w^T, det_k]]
with w = adj u (det_k > 0, as rank-deficient prefixes are skipped).  Each
loop stops at the index found by bisecting the ascending norms against the
budget, and the dot products of the prefix vectors are computed on demand,
only up to that index.  A walk has the fixed budget H_l * bound; a leaf
below the bound ends it, and a new walk starts at that leaf's determinant.

The candidate pool grows from what has been proven, not from the upper
bound u0 (the Gram determinant of the first l basis rows, or the hint if
smaller).  Starting at the minimal norm r = lambda1**2, the search
enumerates the pool of radius r, lowers the value by walking that pool,
and stops once R(value) <= r; otherwise it sets r = min(R(value), 2r) and
repeats.  Every value is the determinant of a sublattice or u0, so
value >= d_l and the final pool holds every vector of norm <= R(d_l): the
reported value is exact.  As the value only falls, r never exceeds R(u0),
the radius a single pool sized from u0 would need.
Pools within the radius `lattice_minimum` enumerated are prefixes of its
list, so on most lattices only pools beyond it need a walk.

The last walk of the final pool is the confirm scan: a fixed-threshold
walk at the budget H_l * value that found no leaf below the value.  Norms
are ascending and each is at least lambda1**2, so a tuple that reaches a
vector of norm n > bv = floor(H_l * value / lambda1**(2(l-1))) has a norm
product of at least n * lambda1**(2(l-1)) > H_l * value and is pruned.
The scan thus never reads past bv (the reported per_vector_bound), and a
pool of any larger radius, such as a doubled one, would give it the same
leaves: a rerun at a wider radius under the same prune cannot test whether
H_l is sharp, so none is made.

The Hermite floor often proves the value before that scan.  Every rank-l
sublattice M has det M >= lambda1(M)**(2l) / gamma_l**l by the definition
of Hermite's constant gamma_l, and lambda1(M) >= lambda1(L), so

    d_l >= floor_l = ceil(lambda1**(2l) / gamma_l**l),
    gamma_l**l = 1, 4/3, 2, 4 for l = 1, 2, 3, 4

(Conway & Sloane, SPLAG ch. 1 section 2; the table is
`enumeration.HERMITE_POWER`).  Determinants are integers, hence the
ceiling.  Once the value is <= floor_l it equals d_l (a valid value is
never below d_l), so no further walk or growth pool is needed; the
extremal sublattices of E8, D_n and their relatives all sit on this floor.

The scans only prove the value.  The witness comes from one walk over
the pool of radius bv in lexicographic row order that stops at the first
leaf whose determinant is the value.  It keeps the budget H_l * value,
but as norms are not sorted in that order it bounds each unplaced slot by
lambda1**2 alone, so its leaves are the tuples whose norm product is
within the budget and whose prefixes have full rank.  The pool's index
order is the rows' lexicographic order and the walk visits index tuples
in increasing order, so its first hit is the lexicographically smallest
sorted row tuple among the minimal tuples within the budget.  That
depends only on the proven value (never on hints), so hints and caching
never change the returned value or witness, only the work performed.  A
hint that no sublattice attains leaves the walk without a hit, which
raises CertificateError.  The witness is re-checked against the value by
an exact determinant; a mismatch raises CertificateError too.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from operator import attrgetter, mul

from .enumeration import HERMITE_POWER, CertificateError, lattice_minimum, short_vectors
from .lattices import (
    IntegralLattice,
    det_int,
    gram_matrix,
    sublattice_from_rows,
)

__all__ = ["SearchCertificate", "minimal_sublattice", "rank2_code_bound", "H_FACTOR"]

# (4/3)**(l*(l-1)/2): reduction-theory norm-product budget, valid for l <= 4.
H_FACTOR = {
    1: Fraction(1),
    2: Fraction(4, 3),
    3: Fraction(64, 27),
    4: Fraction(4096, 729),
}

# Bumped whenever the search changes what a certificate reports; part of the
# CLI cache key, so entries of an older search are recomputed, not served.
SEARCH_VERSION = 2


class SearchCertificate:
    """Result of a minimal-sublattice search.

    value is the exact minimal rank-l Gram determinant; witness is a
    sublattice achieving it; per_vector_bound is the largest norm the
    confirm scan or witness walk can reach, derived from the value.
    candidates_examined counts full-rank leaf determinants: when the value
    is above the Hermite floor, every leaf of the confirm scan (the full
    budget at the value); when the floor proves the value, the leaves the
    witness walk evaluated before it stopped, at most the confirm scan's
    count.  confirmed_by_escalation is always True: every returned value
    is proven.
    """

    __slots__ = ("l", "value", "witness", "per_vector_bound", "candidates_examined")

    confirmed_by_escalation = True

    def __init__(self, l, value, witness, per_vector_bound, examined):
        self.l = l
        self.value = value
        self.witness = witness
        self.per_vector_bound = per_vector_bound
        self.candidates_examined = examined

    def __repr__(self) -> str:
        return (
            f"SearchCertificate(l={self.l}, value={self.value}, "
            f"confirmed={self.confirmed_by_escalation})"
        )


def _hermite_floor(lam: int, l: int) -> int:
    """ceil(lam**l / gamma_l**l): no rank-l sublattice of a lattice with
    minimal norm lam has a smaller Gram determinant."""
    g = HERMITE_POWER[l]
    return -(-(lam**l) * g.denominator // g.numerator)


def _radius(h: Fraction, upper: int, lam: int, l: int) -> int:
    bv = (h.numerator * upper) // (h.denominator * lam ** (l - 1))
    return max(bv, lam)


def _extend(det, adj, u, n):
    """(det', adj') of a prefix (det, flat adjugate) extended by one vector.

    u holds the new vector's dot products with the prefix and n its norm.
    Adjugates are stored flat, upper triangle column by column:
    (a00,), (a00, a01, a11), (a00, a01, a11, a02, a12, a22).
    """
    if not u:
        return n, (1,)
    if len(u) == 1:
        x = u[0]
        return det * n - x * x, (n, -x, det)
    a00, a01, a11 = adj
    x, y = u
    w0 = a00 * x + a01 * y
    w1 = a01 * x + a11 * y
    d = det * n - x * w0 - y * w1
    return d, (
        (d * a00 + w0 * w0) // det,
        (d * a01 + w0 * w1) // det,
        (d * a11 + w1 * w1) // det,
        -w0,
        -w1,
        det,
    )


def _leaf_dets(det, adj, norms, cols):
    """Determinants of the prefix extended by each vector of a leaf batch.

    cols[j][t] is the dot product of prefix vector j with batch vector t.
    """
    if not cols:
        return norms
    if len(cols) == 1:
        return [det * n - x * x for n, x in zip(norms, cols[0])]
    if len(cols) == 2:
        a00, a01, a11 = adj
        b01 = 2 * a01
        return [
            det * n - x * (a00 * x + b01 * y) - a11 * y * y
            for n, x, y in zip(norms, *cols)
        ]
    a00, a01, a11, a02, a12, a22 = adj
    b01, b02, b12 = 2 * a01, 2 * a02, 2 * a12
    return [
        det * n - x * (a00 * x + b01 * y + b02 * z) - y * (a11 * y + b12 * z) - a22 * z * z
        for n, x, y, z in zip(norms, *cols)
    ]


# key for bisecting ascending norms against the budget of a loop that still
# has e vectors to place: norm**e (index e)
_POWER = (None, None, lambda v: v * v, lambda v: v * v * v, lambda v: (v * v) * (v * v))


class _Scan:
    """Index-increasing l-tuples of one pool under the norm-product prune.

    The pool (rows and norms) and the dot products computed so far stay
    with the object across walks.  `run` proves the value and needs the
    pool in ascending norm order; `find` finds the witness and walks the
    pool in whatever order it is given, which `minimal_sublattice` makes
    lexicographic.
    """

    __slots__ = (
        "rows", "norms", "dots", "l", "hn", "hd", "bound", "lower", "leaves", "key", "lam"
    )

    def __init__(self, vectors, l: int, h: Fraction):
        self.rows = [v.coords for v in vectors]
        self.norms = [v.norm for v in vectors]
        self.dots: list[list[int] | None] = [None] * len(self.norms)
        self.l = l
        self.hn, self.hd = h.numerator, h.denominator

    def run(self, bound: int, floor: int) -> int:
        """Smallest leaf determinant within its own budget, or the bound.

        A walk visits every tuple within the budget H_l * bound.  A leaf
        below the bound ends the walk, and a new walk starts at that leaf's
        determinant, so the last walk is a fixed-budget scan that found no
        leaf below the returned bound; `leaves` counts its full-rank leaf
        determinants.  A bound at or below the floor is returned at once,
        without another walk; `leaves` then means nothing.
        """
        while bound > floor:
            self.bound, self.lower, self.leaves = bound, None, 0
            self._walk(0, 1, (), 1, None)
            if self.lower is None:
                break
            bound = self.lower
        return bound

    def find(self, value: int, lam: int) -> None:
        """Walk the tuples in pool order up to the first leaf at the value.

        The budget is H_l * value; norms need not be sorted, so each
        unplaced slot is bounded by lam (the minimal norm) alone.  `key` is
        the rows of the first leaf whose determinant is the value (None if
        there is none) and `leaves` counts the full-rank leaf determinants
        evaluated, whole batches at a time.
        """
        self.bound, self.lam, self.leaves, self.key = value, lam, 0, None
        self._first(0, 1, (), 1, None)

    def _row(self, i: int, stop: int) -> list[int]:
        """Dot products of vector i with vectors i+1 .. stop-1, grown on demand."""
        row = self.dots[i]
        if row is None:
            row = self.dots[i] = []
        have = i + 1 + len(row)
        if have < stop:
            vi = self.rows[i]
            row.extend([sum(map(mul, vi, w)) for w in self.rows[have:stop]])
        return row

    def _walk(self, start, prod, prefix, det, adj):
        need = self.l - len(prefix)
        norms = self.norms
        budget = self.hn * self.bound // (prod * self.hd)
        stop = bisect_right(norms, budget, start, key=_POWER[need])
        if stop <= start:
            return
        cols = [self._row(i, stop)[start - i - 1 : stop - i - 1] for i in prefix]
        if need == 1:
            dets = _leaf_dets(det, adj, norms[start:stop], cols)
            zeros = dets.count(0)  # Gram determinants are >= 0; 0 is rank-deficient
            self.leaves += len(dets) - zeros
            low = min(filter(None, dets), default=self.bound) if zeros else min(dets)
            if low < self.bound:
                self.lower = low
            return
        for t in range(stop - start):
            k = start + t
            nk = norms[k]
            d, a = _extend(det, adj, [c[t] for c in cols], nk)
            if d > 0:
                self._walk(k + 1, prod * nk, prefix + (k,), d, a)
                if self.lower is not None:
                    return

    def _first(self, start, prod, prefix, det, adj):
        need = self.l - len(prefix)
        norms = self.norms
        top = self.hn * self.bound // (prod * self.hd * self.lam ** (need - 1))
        ks = [k for k in range(start, len(norms)) if norms[k] <= top]
        if not ks:
            return
        dots = [self._row(i, ks[-1] + 1) for i in prefix]
        if need == 1:
            cols = [[row[k - i - 1] for k in ks] for i, row in zip(prefix, dots)]
            dets = _leaf_dets(det, adj, [norms[k] for k in ks], cols)
            self.leaves += len(dets) - dets.count(0)
            if self.bound in dets:
                hit = ks[dets.index(self.bound)]
                self.key = tuple(self.rows[i] for i in prefix + (hit,))
            return
        for k in ks:
            nk = norms[k]
            d, a = _extend(det, adj, [row[k - i - 1] for i, row in zip(prefix, dots)], nk)
            if d > 0:
                self._first(k + 1, prod * nk, prefix + (k,), d, a)
                if self.key is not None:
                    return


def minimal_sublattice(
    lattice: IntegralLattice,
    l: int,
    upper_hint: int | None = None,
    cap: int = 10_000_000,
) -> SearchCertificate:
    """Exact minimal rank-l sublattice determinant with a certified witness.

    upper_hint, when given, must be a valid upper bound on the answer (for
    Construction A lattices q**(2l) always is); it can only shrink the
    enumerations before the value is proven.  l is capped at 4, the range
    where the norm product budget H_FACTOR is valid.
    """
    n = lattice.n
    if not 1 <= l <= min(4, n):
        raise ValueError(f"l must be in [1, {min(4, n)}], got {l}")
    lam, _ = lattice_minimum(lattice)
    u0 = det_int(gram_matrix(lattice.basis[:l]))
    if upper_hint is not None:
        if upper_hint < 1:
            raise ValueError("upper_hint must be positive")
        u0 = min(u0, int(upper_hint))
    h = H_FACTOR[l]
    floor = _hermite_floor(lam, l)

    # Grow the pool from lambda_1 (module docstring); r <= _radius(h, u0).
    # The last walk of the last pool is the confirm scan, unless the Hermite
    # floor proves the value first.
    r, value = lam, u0
    while True:
        vectors = short_vectors(lattice, r, cap).vectors
        scan = _Scan(vectors, l, h)
        value = scan.run(value, floor)
        bv = _radius(h, value, lam, l)
        if value <= floor or bv <= r:
            break
        r = min(bv, 2 * r)
    confirm_leaves = scan.leaves if value > floor else None
    # The witness: a lexicographic walk over the pool of radius bv.  Only
    # the floor can stop the growth short of bv.
    if bv > r:
        vectors = short_vectors(lattice, bv, cap).vectors
    else:
        vectors = vectors[: bisect_right(scan.norms, bv)]
    scan = _Scan(sorted(vectors, key=attrgetter("coords")), l, h)
    scan.find(value, lam)
    if scan.key is None:
        raise CertificateError(
            f"no rank-{l} sublattice of determinant {value} within the budget "
            "(is upper_hint below the minimum?)"
        )
    witness = sublattice_from_rows(lattice, scan.key)
    if witness.det_l != value:
        raise CertificateError(
            f"witness determinant {witness.det_l} differs from the value {value}"
        )
    examined = scan.leaves if confirm_leaves is None else confirm_leaves
    return SearchCertificate(l, value, witness, bv, examined)


def rank2_code_bound(code) -> int:
    """Upper bound on the minimal rank-2 determinant of a code lattice.

    min(q**4, q**2 * (d_E - b^2)) where b^2 is the largest squared entry
    of a shortest lift, maximised over codewords attaining d_E: the plane
    spanned by that lift and q*e_i at the position of b has this
    determinant.  When every d_E-attaining codeword has a single nonzero
    coordinate, d_E = b^2 and that plane degenerates; the bound falls back
    to q**2 * d_E, realised by the lift together with q*e_j at any
    position of disjoint support (n >= 2 required).
    """
    from .codes import weight_report

    wr = weight_report(code)
    if code.n < 2:
        raise ValueError("rank-2 bound needs n >= 2")
    q = code.q
    gap = wr.d_euclidean - wr.max_lift_sq
    if gap == 0:
        gap = wr.d_euclidean
    return min(q ** 4, q * q * gap)
