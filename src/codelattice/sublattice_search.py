"""Certified minimal determinants of rank-l sublattices, 1 <= l <= 4.

The searched quantity is the smallest Gram determinant over all rank-l
sublattices of an integral lattice.  The method enumerates candidate
vectors up to an exact per-vector norm bound and walks index-increasing
tuples with a product-of-norms prune:

* a minimising sublattice M has a basis whose norms are its successive
  minima (true for rank <= 4, van der Waerden), and Minkowski's second
  theorem bounds their product by gamma_l**l * d_l, where
  gamma_l**l = 1, 4/3, 2, 4 for l = 1, 2, 3, 4 is the l-th power of
  Hermite's constant (Conway & Sloane, SPLAG ch. 1 section 2; the table
  is `enumeration.HERMITE_POWER`); each norm is then at most
  R(d_l) = gamma_l**l * d_l / lambda1**(2(l-1));
* tuples whose partial norm product already exceeds the budget
  gamma_l**l * bound cannot be that basis and are pruned; rank-deficient
  prefixes are skipped; exact Gram determinants are evaluated at the
  leaves.

One walker, `_Scan._walk`, visits the tuples of a pool (the candidate
vectors in ascending (norm, coords) order).  Adding a vector of norm n to
a prefix with Gram matrix G_k updates the determinant by the Schur
complement

    det_{k+1} = det_k * n - u^T adj(G_k) u,

u being the new vector's dot products with the prefix, and the adjugate
exactly by adj' = [[(det_{k+1} adj + w w^T) / det_k, -w], [-w^T, det_k]]
with w = adj u (det_k > 0, as rank-deficient prefixes are skipped).  Each
loop stops at the index found by bisecting the ascending norms against the
budget, and the dot products of the prefix vectors are computed on demand,
only up to that index.  A walk has the fixed budget gamma_l**l * bound; a
leaf below the bound ends it, and a new walk starts at that leaf's
determinant.

The candidate pool grows from what has been proven, not from the upper
bound u0 (the Gram determinant of the first l basis rows).  Starting at
the minimal norm r = lambda1**2, the search enumerates the pool of radius
r, lowers the value by walking that pool, and stops once R(value) <= r;
otherwise it sets r = min(R(value), 2r) and repeats.  Every value is the
determinant of a sublattice or u0, so value >= d_l and the final pool
holds every vector of norm <= R(d_l): the reported value is exact.  As the
value only falls, r never exceeds R(u0), the radius a single pool sized
from u0 would need.
Pools within the radius `lattice_minimum` enumerated are prefixes of its
list, so on most lattices only pools beyond it need a walk.  A pool that
holds no more vectors than the last one, as the norm grain rounded its
radius back, is that same list; its walk at the same value would repeat
the last one, so the value, witness and leaf count stand.

The last walk of the final pool is the confirm scan: a fixed-threshold
walk at the budget gamma_l**l * value that found no leaf below the value.
Norms are ascending and each is at least lambda1**2, so a tuple that
reaches a vector of norm n > bv = floor(gamma_l**l * value /
lambda1**(2(l-1))) has a norm product above the budget and is pruned.
The scan thus never reads past bv (the reported per_vector_bound), and a
pool of any larger radius, such as a doubled one, would give it the same
leaves.

The Hermite floor often proves the value before that scan.  Every rank-l
sublattice M has det M >= lambda1(M)**(2l) / gamma_l**l by the definition
of Hermite's constant, and lambda1(M) >= lambda1(L), so

    d_l >= floor_l = ceil(lambda1**(2l) / gamma_l**l).

Determinants are integers, hence the ceiling.  Once the value is
<= floor_l it equals d_l (a valid value is never below d_l), so no leaf
can be lower: the walk at the value stops at its first leaf there
instead of scanning the whole budget, and the pool grows straight to bv.
The extremal sublattices of E8, D_n and their relatives all sit on this
floor.

The witness is the first leaf at the value of the last walk, over a pool
that holds every vector of norm <= bv: the index-first tuple, in the
pool's (norm, coords) order, among the tuples within the budget
gamma_l**l * value whose determinant is the value.  That depends only on
the lattice and the proven value, so caching never changes the returned
value or witness.  u0 is the determinant of a sublattice, so a last walk
without a hit is a defect and raises CertificateError.  The witness is
re-checked by the `SearchCertificate` constructor, as every cached
certificate is; a mismatch raises CertificateError too.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import attrgetter, index, mul

from .enumeration import DEFAULT_CAP, HERMITE_POWER, CertificateError, lattice_minimum, short_vectors
from .lattices import IntegralLattice, Sublattice, det_int, gram_matrix

__all__ = ["MAX_RANK", "SEARCH_VERSION", "SearchCertificate", "minimal_sublattice"]

# Bumped whenever the search changes what a certificate reports; part of the
# CLI cache key, so entries of an older search are recomputed, not served.
SEARCH_VERSION = 3

# The largest searchable rank: the norm-product budget needs a minimising
# sublattice with a basis of successive minima, which exists for rank <= 4
# (van der Waerden, Acta Math. 96, 1956).
MAX_RANK = 4


class SearchCertificate:
    """Result of a minimal-sublattice search.

    value is the exact minimal rank-l Gram determinant; witness is a
    sublattice achieving it, the first tuple at the value that the last walk
    visits; per_vector_bound is the largest norm that walk can reach,
    derived from the value.  candidates_examined counts the full-rank leaf
    determinants of that walk: when the value is above the Hermite floor,
    every leaf of the confirm scan (the full budget at the value); when the
    floor proves the value, the leaves evaluated before the walk stopped at
    its first hit, at most the confirm scan's count.

    The constructor, which the search and the cache loader both call, reads
    the integers with `operator.index` and proves that `rows` are l members
    of `lattice` spanning a sublattice of Gram determinant `value` (else
    CertificateError, NotInLattice or RankDeficient).  That proves
    value >= d_l, not value == d_l; per_vector_bound and examined are stored
    as given.  l and value are read from the witness, so they cannot be
    set apart from it.

    The class constant confirmed_by_escalation is always True, as every
    returned value is proven.  No certificate document carries it; it stays
    only because the benchmark harness reads it, and a benchmark-only
    change removes it together with the upper_hint keyword.
    """

    __slots__ = ("witness", "per_vector_bound", "candidates_examined")

    confirmed_by_escalation = True

    # read-only views of the witness the constructor proved
    l = property(attrgetter("witness.l"))
    value = property(attrgetter("witness.det_l"))

    def __init__(self, lattice: IntegralLattice, l, value, rows, per_vector_bound, examined):
        l, value = index(l), index(value)
        if len(rows) != l:
            raise CertificateError(f"witness has {len(rows)} rows, not {l}")
        witness = Sublattice(lattice, rows)
        if witness.det_l != value:
            raise CertificateError(
                f"witness determinant {witness.det_l} differs from the value {value}"
            )
        self.witness = witness
        self.per_vector_bound = index(per_vector_bound)
        self.candidates_examined = index(examined)

    def __repr__(self) -> str:
        return f"SearchCertificate(l={self.l}, value={self.value})"


def _hermite_floor(lam: int, l: int) -> int:
    """ceil(lam**l / gamma_l**l): no rank-l sublattice of a lattice with
    minimal norm lam has a smaller Gram determinant."""
    g = HERMITE_POWER[l]
    return -(-(lam**l) * g.denominator // g.numerator)


def _radius(upper: int, lam: int, l: int) -> int:
    """floor(gamma_l**l * upper / lam**(l-1)): the largest norm a tuple
    within the budget at upper can hold.  It is at least lam whenever upper
    is at least the Hermite floor, as every valid upper bound is."""
    g = HERMITE_POWER[l]
    return (g.numerator * upper) // (g.denominator * lam ** (l - 1))


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

    The pool (rows and norms, in ascending norm order) and the dot
    products computed so far stay with the object across walks.
    """

    __slots__ = (
        "rows", "norms", "dots", "l", "hn", "hd", "bound", "first", "lower", "leaves", "key"
    )

    def __init__(self, vectors, l: int):
        self.rows = [v.coords for v in vectors]
        self.norms = [v.norm for v in vectors]
        self.dots: list[list[int] | None] = [None] * len(self.norms)
        self.l = l
        g = HERMITE_POWER[l]
        self.hn, self.hd = g.numerator, g.denominator

    def run(self, bound: int, floor: int) -> int:
        """Smallest leaf determinant within its own budget, or the bound.

        A walk visits the tuples within the budget gamma_l**l * bound in
        index order.  A leaf below the bound ends the walk, and a new walk
        starts at that leaf's determinant, so the last walk found no leaf
        below the returned bound.  Above the floor it visits every tuple
        within the budget; on it (bound <= floor) no leaf can be lower, and
        it stops at its first leaf at the bound.  `key` holds the rows of
        the last walk's first leaf at the returned bound (None if there is
        none) and `leaves` counts its full-rank leaf determinants, whole
        batches at a time.
        """
        while True:
            self.bound, self.first = bound, bound <= floor
            self.lower, self.leaves, self.key = None, 0, None
            self._walk(0, 1, (), 1, None)
            if self.lower is None:
                return bound
            bound = self.lower

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
        """Walk the tuples extending prefix; True once the walk is over."""
        need = self.l - len(prefix)
        norms = self.norms
        budget = self.hn * self.bound // (prod * self.hd)
        stop = bisect_right(norms, budget, start, key=_POWER[need])
        if stop <= start:
            return False
        cols = [self._row(i, stop)[start - i - 1 : stop - i - 1] for i in prefix]
        if need == 1:
            dets = _leaf_dets(det, adj, norms[start:stop], cols)
            zeros = dets.count(0)  # Gram determinants are >= 0; 0 is rank-deficient
            self.leaves += len(dets) - zeros
            low = min(filter(None, dets), default=None) if zeros else min(dets)
            if low is None or low > self.bound:
                return False
            if low < self.bound:
                self.lower = low
                return True
            if self.key is None:
                hit = start + dets.index(low)
                self.key = tuple(self.rows[i] for i in prefix + (hit,))
            return self.first
        for t in range(stop - start):
            k = start + t
            nk = norms[k]
            d, a = _extend(det, adj, [c[t] for c in cols], nk)
            if d > 0 and self._walk(k + 1, prod * nk, prefix + (k,), d, a):
                return True
        return False


def minimal_sublattice(
    lattice: IntegralLattice,
    l: int,
    upper_hint: int | None = None,
    cap: int = DEFAULT_CAP,
) -> SearchCertificate:
    """Exact minimal rank-l sublattice determinant with a certified witness.

    l and cap are read with `operator.index`; l is at most MAX_RANK, the
    range where the norm-product budget gamma_l**l is valid.  upper_hint, when
    given, must be a valid upper bound on the answer; it changes neither
    the value nor the witness.  No caller in this package passes it.  It
    stays only because the benchmark harness (perfbench) passes q**(2l),
    and a benchmark-only change removes it together with
    SearchCertificate.confirmed_by_escalation.
    """
    l, cap = index(l), index(cap)
    n = lattice.n
    if not 1 <= l <= min(MAX_RANK, n):
        raise ValueError(f"l must be in [1, {min(MAX_RANK, n)}], got {l}")
    lam, _ = lattice_minimum(lattice)
    u0 = det_int(gram_matrix(lattice.basis[:l]))
    if upper_hint is not None:
        if upper_hint < 1:
            raise ValueError("upper_hint must be positive")
        u0 = min(u0, int(upper_hint))
    floor = _hermite_floor(lam, l)

    # Grow the pool from lambda_1 (module docstring); r <= _radius(u0).  The
    # last walk of the last pool is the confirm scan, or on the Hermite
    # floor the walk to the first hit; either gives the witness.  A pool no
    # larger than the last one is the same list, and is not walked again.
    r, value, scan = lam, u0, None
    while True:
        pool = short_vectors(lattice, r, cap).vectors
        if scan is None or len(pool) > len(scan.norms):
            scan = _Scan(pool, l)
            value = scan.run(value, floor)
        bv = _radius(value, lam, l)
        if bv <= r:
            break
        r = bv if value <= floor else min(bv, 2 * r)
    if scan.key is None:
        raise CertificateError(
            f"no rank-{l} sublattice of determinant {value} within the budget "
            "(is upper_hint below the minimum?)"
        )
    return SearchCertificate(lattice, l, value, scan.key, bv, scan.leaves)

