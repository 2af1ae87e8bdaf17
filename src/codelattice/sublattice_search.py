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

The candidate pool grows from what has been proven, not from the upper
bound u0 (the Gram determinant of the first l basis rows, or the hint if
smaller).  Starting at the minimal norm r = lambda1**2, the search
enumerates the pool of radius r, lowers the value by a scan of that pool,
and stops once R(value) <= r; otherwise it sets r = min(R(value), 2r) and
repeats.  Every value is the determinant of a sublattice or u0, so
value >= d_l and the final pool holds every vector of norm <= R(d_l): the
reported value is exact.  As the value only falls, r never exceeds R(u0),
the radius a single pool sized from u0 would need.

Afterwards the search is rerun once with the per-vector bound doubled;
`confirmed_by_escalation` records that the doubling changed nothing,
making the certificate independent of the sharpness of H_l.

Determinism: the witness scan runs at a radius derived from the proven
value (never from hints), with a fixed prune threshold, and reports the
lexicographically smallest sorted row list among minimal tuples.  Hints,
caching and the number of worker threads therefore never change the
returned value or witness, only the work performed.  The witness is
re-checked against the value by an exact determinant; a mismatch raises
CertificateError.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

from .enumeration import CertificateError, lattice_minimum, short_vectors
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


class SearchCertificate:
    """Result of a minimal-sublattice search.

    value is the exact minimal rank-l Gram determinant; witness is a
    sublattice achieving it; per_vector_bound is the enumeration radius
    derived from the value; candidates_examined counts the leaf
    determinants evaluated by the deterministic witness scan.
    """

    __slots__ = (
        "l",
        "value",
        "witness",
        "per_vector_bound",
        "candidates_examined",
        "confirmed_by_escalation",
    )

    def __init__(self, l, value, witness, per_vector_bound, examined, confirmed):
        self.l = l
        self.value = value
        self.witness = witness
        self.per_vector_bound = per_vector_bound
        self.candidates_examined = examined
        self.confirmed_by_escalation = confirmed

    def __repr__(self) -> str:
        return (
            f"SearchCertificate(l={self.l}, value={self.value}, "
            f"confirmed={self.confirmed_by_escalation})"
        )


def _radius(h: Fraction, upper: int, lam: int, l: int) -> int:
    bv = (h.numerator * upper) // (h.denominator * lam ** (l - 1))
    return max(bv, lam)


class _Pool:
    """Candidate vectors (ascending norms) with cached pairwise dot products."""

    def __init__(self, rows, norms):
        self.rows = rows
        self.norms = norms
        self._dots: dict[tuple[int, int], int] = {}
        self._matrix: list[list[int]] | None = None

    @classmethod
    def from_vectors(cls, vectors):
        return cls([v.coords for v in vectors], [v.norm for v in vectors])

    def dot(self, i: int, j: int) -> int:
        key = (i, j) if i <= j else (j, i)
        d = self._dots.get(key)
        if d is None:
            d = sum(a * b for a, b in zip(self.rows[key[0]], self.rows[key[1]]))
            self._dots[key] = d
        return d

    def dot_matrix(self) -> list[list[int]]:
        """Full pairwise dot matrix; pays off when leaves outnumber pairs."""
        if self._matrix is None:
            rows = self.rows
            m = len(rows)
            mat = [[0] * m for _ in range(m)]
            for i in range(m):
                ri = rows[i]
                mi = mat[i]
                mi[i] = self.norms[i]
                for j in range(i + 1, m):
                    d = sum(a * b for a, b in zip(ri, rows[j]))
                    mi[j] = d
                    mat[j][i] = d
            self._matrix = mat
        return self._matrix


def _det3_entries(a, b, c, d, e, f):
    """det of [[a,b,d],[b,c,e],[d,e,f]] (flat symmetric storage)."""
    return a * (c * f - e * e) - b * (b * f - e * d) + d * (b * e - c * d)


def _det3_general(m11, m12, m13, m21, m22, m23, m31, m32, m33):
    return (
        m11 * (m22 * m33 - m23 * m32)
        - m12 * (m21 * m33 - m23 * m31)
        + m13 * (m21 * m32 - m22 * m31)
    )


def _extend_flat(flat, newrow):
    """Append one symmetric row to a flat Gram tuple; return (det, flat2).

    Flat storage lists the upper triangle column by column:
    (g00,), (g00, g01, g11), (g00, g01, g11, g02, g12, g22), ...
    """
    j = len(newrow) - 1
    flat2 = flat + tuple(newrow)
    if j == 0:
        return newrow[0], flat2
    if j == 1:
        a, b, c = flat2
        return a * c - b * b, flat2
    if j == 2:
        return _det3_entries(*flat2), flat2
    a, b, c, d, e, f, g, h, i, jj = flat2
    det = (
        -g * _det3_general(b, d, g, c, e, h, e, f, i)
        + h * _det3_general(a, d, g, b, e, h, d, f, i)
        - i * _det3_general(a, b, g, b, c, h, d, e, i)
        + jj * _det3_entries(a, b, c, d, e, f)
    )
    return det, flat2


def _split(count: int, threads: int):
    buckets = [[] for _ in range(max(1, threads))]
    for k in range(count):
        buckets[k % len(buckets)].append(k)
    return [b for b in buckets if b]


def _dot_fn(pool: _Pool, l: int):
    # materialising the full matrix only pays when deep scans revisit pairs
    if l >= 3 and len(pool.norms) <= 400:
        mat = pool.dot_matrix()
        return lambda i, k: mat[i][k]
    return pool.dot


def _value_scan(pool: _Pool, l: int, h: Fraction, init: int, threads: int) -> int:
    """Smallest leaf determinant (or init if nothing beats it), adaptive prune."""
    norms = pool.norms
    m = len(norms)
    hn, hd = h.numerator, h.denominator
    dot = _dot_fn(pool, l)
    best = [init]  # shared monotone cell; stale reads only weaken pruning

    def rec(start, prod, idxs, flat):
        need = l - len(idxs)
        for k in range(start, m):
            nk = norms[k]
            if prod * nk ** need * hd > hn * best[0]:
                break
            newrow = [dot(i, k) for i in idxs]
            newrow.append(nk)
            d, flat2 = _extend_flat(flat, newrow)
            if d <= 0:
                continue
            if need == 1:
                if d < best[0]:
                    best[0] = d
            else:
                rec(k + 1, prod * nk, idxs + [k], flat2)

    def run(first_ks):
        for k in first_ks:
            nk = norms[k]
            if nk ** l * hd > hn * best[0]:
                break
            if l == 1:
                if nk < best[0]:
                    best[0] = nk
            else:
                rec(k + 1, nk, [k], (nk,))

    try:
        if threads > 1 and m > 1:
            with ThreadPoolExecutor(max_workers=threads) as ex:
                list(ex.map(run, _split(m, threads)))
        else:
            run(range(m))
    finally:
        del rec  # rec refers to itself; unbinding it frees the pool by refcount
    return best[0]


def _witness_scan(pool: _Pool, l: int, value: int, h: Fraction, threads: int):
    """Deterministic scan at fixed threshold h*value.

    Returns (lexicographically smallest sorted row list achieving `value`,
    number of leaf determinants evaluated).
    """
    norms = pool.norms
    rows = pool.rows
    m = len(norms)
    limit_n = h.numerator * value
    limit_d = h.denominator
    dot = _dot_fn(pool, l)

    def rec(start, prod, idxs, flat, state):
        need = l - len(idxs)
        for k in range(start, m):
            nk = norms[k]
            if prod * nk ** need * limit_d > limit_n:
                break
            newrow = [dot(i, k) for i in idxs]
            newrow.append(nk)
            d, flat2 = _extend_flat(flat, newrow)
            if d <= 0:
                continue
            if need == 1:
                state[1] += 1
                if d == value:
                    key = tuple(sorted(rows[i] for i in idxs + [k]))
                    if state[0] is None or key < state[0]:
                        state[0] = key
            else:
                rec(k + 1, prod * nk, idxs + [k], flat2, state)

    def run(first_ks):
        state = [None, 0]  # [best_key, leaves]
        for k in first_ks:
            nk = norms[k]
            if nk ** l * limit_d > limit_n:
                break
            if l == 1:
                state[1] += 1
                if nk == value:
                    key = (rows[k],)
                    if state[0] is None or key < state[0]:
                        state[0] = key
            else:
                rec(k + 1, nk, [k], (nk,), state)
        return state

    try:
        if threads > 1 and m > 1:
            with ThreadPoolExecutor(max_workers=threads) as ex:
                states = list(ex.map(run, _split(m, threads)))
        else:
            states = [run(range(m))]
    finally:
        del rec  # as in _value_scan
    keys = [s[0] for s in states if s[0] is not None]
    examined = sum(s[1] for s in states)
    if not keys:
        raise AssertionError("witness scan found no minimal tuple")
    return min(keys), examined


def minimal_sublattice(
    lattice: IntegralLattice,
    l: int,
    upper_hint: int | None = None,
    cap: int = 10_000_000,
    threads: int = 1,
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
    if threads < 1:
        raise ValueError("threads must be >= 1")
    lam, _ = lattice_minimum(lattice)
    u0 = det_int(gram_matrix(lattice.basis[:l]))
    if upper_hint is not None:
        if upper_hint < 1:
            raise ValueError("upper_hint must be positive")
        u0 = min(u0, int(upper_hint))
    h = H_FACTOR[l]

    # Grow the pool from lambda_1 (module docstring); r <= _radius(h, u0).
    r, value = lam, u0
    while True:
        pool = _Pool.from_vectors(short_vectors(lattice, r, cap).vectors)
        value = _value_scan(pool, l, h, value, threads)
        need = _radius(h, value, lam, l)
        if need <= r:
            break
        r = min(need, 2 * r)

    confirmed = True
    while True:
        bv = _radius(h, value, lam, l)
        wide = _Pool.from_vectors(short_vectors(lattice, 2 * bv, cap).vectors)
        rerun = _value_scan(wide, l, h, value, threads)
        if rerun == value:
            break
        value = rerun  # defensive; unreachable for l <= 4
        confirmed = False

    # Witness scan at the value-derived radius: sorted order is preserved
    # by the norm filter, and the candidate set no longer depends on hints.
    narrow = _Pool(
        [r for r, nm in zip(wide.rows, wide.norms) if nm <= bv],
        [nm for nm in wide.norms if nm <= bv],
    )
    witness_rows, examined = _witness_scan(narrow, l, value, h, threads)

    witness = sublattice_from_rows(lattice, witness_rows)
    if witness.det_l != value:
        raise CertificateError(
            f"witness determinant {witness.det_l} differs from the value {value}"
        )
    return SearchCertificate(l, value, witness, bv, examined, confirmed)


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
