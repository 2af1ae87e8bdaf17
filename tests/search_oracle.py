"""The three-scan minimal-sublattice search, kept as a test oracle.

This is an early form of the package's search: a value scan with an
adaptive prune over a pool grown from the lattice minimum, an escalation
rerun of the value scan over a pool of doubled radius, and a separate
witness scan at the fixed threshold h * value, whose witness is the first
leaf at the value in visit order.  The norm-product budget h is an
argument: H_FACTOR[l] = (4/3)**(l(l-1)/2), the looser budget of a
Minkowski-reduced basis, or gamma_l**l, the search's own.  Leaf determinants
come from the explicit 2x2, 3x3 and 4x4 cofactor expansions of a flat Gram
tuple, not from the Schur-complement update that `minimal_sublattice`
uses, and no Hermite floor closes a scan early, so the tests compare the
two certificate by certificate.
"""

from __future__ import annotations

from fractions import Fraction

from codelattice.enumeration import lattice_minimum, short_vectors
from codelattice.lattices import det_int, gram_matrix, sublattice_from_rows

# (4/3)**(l*(l-1)/2): the norm-product budget of a Minkowski-reduced basis,
# valid for l <= 4 and at least gamma_l**l
H_FACTOR = {
    1: Fraction(1),
    2: Fraction(4, 3),
    3: Fraction(64, 27),
    4: Fraction(4096, 729),
}


def _radius(h, upper, lam, l):
    """The largest norm a tuple within the budget h * upper can hold."""
    bv = (h.numerator * upper) // (h.denominator * lam ** (l - 1))
    return max(bv, lam)


class OracleCertificate:
    def __init__(self, value, witness, per_vector_bound, examined, confirmed):
        self.value = value
        self.witness = witness
        self.per_vector_bound = per_vector_bound
        self.candidates_examined = examined
        self.confirmed_by_escalation = confirmed


class _Pool:
    """Candidate vectors (ascending norms) with cached pairwise dot products."""

    def __init__(self, vectors):
        self.rows = [v.coords for v in vectors]
        self.norms = [v.norm for v in vectors]
        self._dots = {}

    def dot(self, i, j):
        key = (i, j) if i <= j else (j, i)
        d = self._dots.get(key)
        if d is None:
            d = sum(a * b for a, b in zip(self.rows[key[0]], self.rows[key[1]]))
            self._dots[key] = d
        return d


def _det3_entries(a, b, c, d, e, f):
    """det of [[a,b,d],[b,c,e],[d,e,f]] (flat symmetric storage)."""
    return a * (c * f - e * e) - b * (b * f - e * d) + d * (b * e - c * d)


def _det3_general(m11, m12, m13, m21, m22, m23, m31, m32, m33):
    return (
        m11 * (m22 * m33 - m23 * m32)
        - m12 * (m21 * m33 - m23 * m31)
        + m13 * (m21 * m32 - m22 * m31)
    )


def extend_flat(flat, newrow):
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


def _walk(pool, l, hn, hd, state, fixed, start, prod, idxs, flat):
    """Index-increasing tuples under the budget hn/hd * state['bound'].

    Adaptive (fixed=False): the bound falls to each smaller leaf.  Fixed:
    leaves are counted and the rows of the first leaf at the bound kept.
    """
    norms = pool.norms
    need = l - len(idxs)
    for k in range(start, len(norms)):
        nk = norms[k]
        if prod * nk ** need * hd > hn * state["bound"]:
            break
        newrow = [pool.dot(i, k) for i in idxs]
        newrow.append(nk)
        d, flat2 = extend_flat(flat, newrow)
        if d <= 0:
            continue
        if need > 1:
            _walk(pool, l, hn, hd, state, fixed, k + 1, prod * nk, idxs + [k], flat2)
        elif not fixed:
            if d < state["bound"]:
                state["bound"] = d
        else:
            state["leaves"] += 1
            if d == state["bound"] and state["key"] is None:
                state["key"] = tuple(pool.rows[i] for i in idxs + [k])


def _scan(pool, l, h, bound, fixed):
    state = {"bound": bound, "leaves": 0, "key": None}
    _walk(pool, l, h.numerator, h.denominator, state, fixed, 0, 1, [], ())
    return state


def oracle_minimal_sublattice(lattice, l, h, upper_hint=None, cap=10_000_000):
    """Same certificate fields as `minimal_sublattice`, by three scans at
    the norm-product budget h."""
    lam, _ = lattice_minimum(lattice)
    u0 = det_int(gram_matrix(lattice.basis[:l]))
    if upper_hint is not None:
        u0 = min(u0, int(upper_hint))

    r, value = lam, u0
    while True:
        pool = _Pool(short_vectors(lattice, r, cap).vectors)
        value = _scan(pool, l, h, value, fixed=False)["bound"]
        need = _radius(h, value, lam, l)
        if need <= r:
            break
        r = min(need, 2 * r)

    confirmed = True
    while True:
        bv = _radius(h, value, lam, l)
        wide = short_vectors(lattice, 2 * bv, cap).vectors
        rerun = _scan(_Pool(wide), l, h, value, fixed=False)["bound"]
        if rerun == value:
            break
        value = rerun
        confirmed = False

    narrow = _Pool([v for v in wide if v.norm <= bv])
    state = _scan(narrow, l, h, value, fixed=True)
    witness = sublattice_from_rows(lattice, state["key"])
    return OracleCertificate(value, witness, bv, state["leaves"], confirmed)
