"""Integral lattices: HNF bases, Gram matrices, Construction A, sublattices.

Everything stays over the integers.  Bases are kept in row-style Hermite
normal form (upper triangular, positive pivots, entries above each pivot
reduced into [0, pivot)), which is a canonical form: two descriptions of
the same lattice produce identical bases, Gram matrices and documents.
`hnf` reduces modulo a D with D Z^n inside the lattice, which each builder
proves, so no entry exceeds D.  With the pivots, the same D pins
`IntegralLattice.exponent`, the modulus of every enumeration walk, for
most lattices.  Scaled variants such as a lattice divided by sqrt(q) are
never materialised; all statements about them are rephrased on the
integral lattice with exact exponent bookkeeping.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain
from math import gcd, lcm, prod
from operator import index, mul

from .exact import Radical

__all__ = [
    "RankDeficient",
    "NotInLattice",
    "xgcd",
    "gram_matrix",
    "det_int",
    "hnf",
    "dual_basis",
    "IntegralLattice",
    "construction_a",
    "is_even",
    "Sublattice",
    "sublattice_from_rows",
    "gamma_ratio",
    "lattice_document",
    "canonical_json",
]


class RankDeficient(ValueError):
    """Rows span less than the rank an operation requires."""


class NotInLattice(ValueError):
    """A vector claimed as a lattice member is not one."""


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        g, x, y = -g, -x, -y
    return g, x, y


def gram_matrix(rows) -> list[list[int]]:
    """The dot products of the rows: one triangle, mirrored."""
    gram = [[0] * len(rows) for _ in rows]
    for i, u in enumerate(rows):
        g = gram[i]
        for j in range(i, len(rows)):
            g[j] = gram[j][i] = sum(map(mul, u, rows[j]))
    return gram


def det_int(gram) -> int:
    """Exact determinant of an integer Gram matrix, and of no other matrix,
    by fraction-free (Bareiss) elimination without row swaps.  A positive
    semidefinite matrix has no negative leading minor, and a zero one makes
    it singular, so the elimination stops at the first minor that is not
    positive and returns it: 0, the determinant."""
    n = len(gram)
    a = [list(map(index, row)) for row in gram]
    prev = 1
    for k in range(n):
        pivot = a[k][k]
        if pivot <= 0:
            return pivot
        row_k = a[k]
        for i in range(k + 1, n):
            row_i = a[i]
            f = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (pivot * row_i[j] - f * row_k[j]) // prev
        prev = pivot
    return prev


def _integer_rows(rows) -> list[list[int]]:
    """rows as lists of ints (`operator.index`), at least one, of one length."""
    out = [list(map(index, r)) for r in rows]
    if not out:
        raise ValueError("no rows")
    n = len(out[0])
    if any(len(r) != n for r in out):
        raise ValueError("ragged matrix")
    return out


def hnf(rows, modulus: int) -> list[list[int]]:
    """Row-style Hermite normal form of the span L of integer rows, given a
    modulus D with D Z^n inside L (Cohen, GTM 138, section 2.4.2), which the
    caller proves: q for a code lattice and its dual, det(R^T R) for rows R.

    Column j starts its pivot p at D e_j and folds in each row r with a
    nonzero entry at j by one unimodular xgcd step: p takes the gcd d, r
    the cofactor (a/g) r - (b/g) p, zero at j.  Entries past j are kept mod
    D, as D e_k lies in L.  Howell's form over Z_D needs the extra row
    (D/d) p - D e_j; here D e_j is folded in like any row, so the cofactors
    span it already.  When pivot j is added, column j of the rows above it
    is reduced into [0, d).  L holds D Z^n, so it has full rank: no row
    swap, no sign flip, no rank.  D = 0, which only a rank-deficient span
    forces, raises RankDeficient; any other D gives the HNF of L + D Z^n.
    """
    work = _integer_rows(rows)
    n = len(work[0])
    mod = abs(index(modulus))
    if not mod:
        raise RankDeficient(f"rows span less than rank {n}")
    work = [[e % mod for e in r] for r in work]
    basis = []
    for j in range(n):
        # p and the working rows hold columns j.. only
        p = [mod] + [0] * (n - j - 1)
        rest = []
        for r in work:
            if r[0]:
                g, x, y = xgcd(p[0], r[0])
                a, b = p[0] // g, r[0] // g
                p, r = (
                    [(x * u + y * v) % mod for u, v in zip(p, r)],
                    [(a * v - b * u) % mod for u, v in zip(p, r)],
                )
                p[0] = g
            if any(r):
                rest.append(r[1:])
        work = rest
        for i, row in enumerate(basis):
            c = row[j] // p[0]
            if c:
                basis[i] = row[:j] + [(u - c * v) % mod for u, v in zip(row[j:], p)]
        basis.append([0] * j + p)
    return basis


def dual_basis(lattice: IntegralLattice, q: int) -> list[list[int]]:
    """Rows of q * (B^{-1})^T for the HNF basis B: a basis of q times the
    dual lattice (error if not integral).

    B is upper triangular, so column j of q * B^{-1}, which is row j here,
    solves B x = q * e_j by integer back substitution; an entry that does
    not divide exactly means q * L* is not integral.
    """
    b = lattice.basis
    rows = []
    for j in range(lattice.n):
        x = [0] * lattice.n
        for i in range(j, -1, -1):
            s = (q if i == j else 0) - sum(b[i][k] * x[k] for k in range(i + 1, j + 1))
            if s % b[i][i]:
                raise ValueError("q times the dual basis is not integral")
            x[i] = s // b[i][i]
        rows.append(x)
    return rows


def _check_hnf(basis) -> None:
    n = len(basis)
    if n == 0:
        raise ValueError("empty basis")
    for i, row in enumerate(basis):
        if len(row) != n:
            raise ValueError(f"basis is not square: row {i} has {len(row)} entries, not {n}")
        if row[i] <= 0:
            raise ValueError(f"basis is not in HNF: pivot {i} is {row[i]}, not positive")
        if any(row[:i]):
            raise ValueError(f"basis is not in HNF: row {i} is nonzero below the diagonal")
    for j in range(1, n):
        pivot = basis[j][j]
        for i in range(j):
            if not 0 <= basis[i][j] < pivot:
                raise ValueError(
                    f"basis is not in HNF: entry ({i}, {j}) = {basis[i][j]} "
                    f"is outside [0, {pivot})"
                )


def _pinned_exponent(pivots, modulus: int) -> int | None:
    """The exponent m of Z^n / L, the least m with m Z^n inside L, when the
    pivots d_j of the HNF of L and a D with D Z^n inside L pin it; else None.

    lcm(d_j) divides m, as m e_j lies in L and the basis is triangular; m
    divides D; and m divides det B = prod(d_j), as adj B is integral.  So
    the two bounds meet at m when they are equal."""
    low = lcm(*pivots)
    return low if low == gcd(modulus, prod(pivots)) else None


class IntegralLattice:
    """Full-rank integral lattice with a canonical HNF basis.

    Immutable after construction; all methods are pure.  `_gram` holds
    the Gram matrix once `gram` is first read, since many lattices never
    need it: a cache hit, a table that reads only `det_gram`, or a search
    that `_short` serves (enumeration walks the basis itself).  `_short`
    caches the `ShortVectorList` that `enumeration.lattice_minimum`
    enumerated for this lattice, from which `enumeration.short_vectors`
    serves every request within its bound.  `_exponent` keeps `exponent`
    once it is known.
    """

    __slots__ = ("n", "basis", "det_gram", "_gram", "_short", "_exponent")

    def __init__(self, basis):
        """basis must be the row HNF that `hnf` returns:
        square, zero below the diagonal, positive pivots, and entries above
        each pivot in [0, pivot).  Use `from_rows` for arbitrary rows."""
        self.basis = tuple(tuple(map(index, row)) for row in basis)
        self.n = len(self.basis)
        _check_hnf(self.basis)
        pivots = [self.basis[i][i] for i in range(self.n)]
        d = prod(pivots)
        self.det_gram = d * d
        self._gram = None
        self._short = None
        self._exponent = _pinned_exponent(pivots, d)

    @property
    def exponent(self) -> int:
        """The exponent m of Z^n / L, the least m with m Z^n inside L: the
        modulus of every enumeration walk.  For most lattices the pivots pin
        it (`_pinned_exponent`), with D = det B at construction or with the
        q that `construction_a` reduced by.  Otherwise the first read
        computes m = d / gcd(d, every entry of d B^{-1} = adj B), with
        d = det B, and keeps it."""
        m = self._exponent
        if m is None:
            d = prod(self.basis[j][j] for j in range(self.n))
            m = self._exponent = d // gcd(d, *chain.from_iterable(dual_basis(self, d)))
        return m

    @property
    def gram(self) -> tuple[tuple[int, ...], ...]:
        """The Gram matrix B B^T of the HNF basis B, built on first read."""
        g = self._gram
        if g is None:
            g = self._gram = tuple(tuple(r) for r in gram_matrix(self.basis))
        return g

    @classmethod
    def from_rows(cls, rows) -> "IntegralLattice":
        """Lattice L spanned by integer rows R; raises RankDeficient if the
        span does not have full rank in its ambient dimension.

        The HNF modulus is D = det(R^T R), the sum of the squared n-minors
        of R (Cauchy-Binet).  Each minor is a multiple of det L, so D Z^n
        lies in L, and the sum is 0 exactly when the rank is below n.  D is
        a multiple of det B**2, so it pins no exponent the pivots do not."""
        rows = _integer_rows(rows)
        return cls(hnf(rows, det_int(gram_matrix(list(zip(*rows))))))

    def coefficients_of(self, v) -> list[int] | None:
        """Integer coordinates of v in the basis, or None if not a member."""
        v = list(map(index, v))
        if len(v) != self.n:
            return None
        coeffs = []
        for i in range(self.n):
            d = self.basis[i][i]
            if v[i] % d:
                return None
            c = v[i] // d
            coeffs.append(c)
            if c:
                v = [e - c * be for e, be in zip(v, self.basis[i])]
        if any(v):
            return None
        return coeffs

    def __contains__(self, v) -> bool:
        return self.coefficients_of(v) is not None

    def __eq__(self, other) -> bool:
        return isinstance(other, IntegralLattice) and self.basis == other.basis

    def __hash__(self):
        return hash(self.basis)

    def __repr__(self) -> str:
        return f"IntegralLattice(n={self.n}, det_gram={self.det_gram})"


def construction_a(code) -> IntegralLattice:
    """Lattice of integer vectors reducing mod q to a codeword of `code`.

    The HNF of the lifted generators modulo q, since q Z^n lies in the
    lattice; always full rank.  The code cardinality is recovered from the
    basis: |C| = q**n / prod(diagonal).  q also pins the exponent wherever
    the pivots allow (`_pinned_exponent`).
    """
    lattice = IntegralLattice(hnf(code.generators or [[0] * code.n], code.q))
    if lattice._exponent is None:
        pivots = [lattice.basis[i][i] for i in range(lattice.n)]
        lattice._exponent = _pinned_exponent(pivots, code.q)
    return lattice


def is_even(lattice: IntegralLattice) -> bool:
    """True iff every vector norm is even.

    Checking the Gram diagonal, the basis-row norms, suffices: x G x^T has
    the parity of sum(x_i^2 g_ii) because the off-diagonal terms come in
    pairs.
    """
    return all(sum(e * e for e in row) % 2 == 0 for row in lattice.basis)


class Sublattice:
    """Rank-l sublattice spanned by member rows of an ambient lattice.

    The constructor proves what it stores: each row is a member (else
    NotInLattice) and the rows have full rank (else RankDeficient); the
    Gram matrix and its determinant are computed from the rows."""

    __slots__ = ("ambient", "rows", "det_l", "l")

    def __init__(self, ambient: IntegralLattice, rows):
        rows = tuple(tuple(map(index, r)) for r in rows)
        for r in rows:
            if ambient.coefficients_of(r) is None:
                raise NotInLattice(f"row {list(r)} is not a lattice member")
        det = det_int(gram_matrix(rows))
        if det <= 0:
            raise RankDeficient(f"rows span less than rank {len(rows)}")
        self.ambient = ambient
        self.rows = rows
        self.det_l = det
        self.l = len(rows)

    def __repr__(self) -> str:
        return f"Sublattice(l={self.l}, det_l={self.det_l})"


# the constructor under its older name, which only perfbench still calls
sublattice_from_rows = Sublattice


def gamma_ratio(lattice: IntegralLattice, sub: Sublattice) -> Radical:
    """det(sublattice) / det(lattice)**(l/n) as an exact radical."""
    if sub.ambient is not lattice and sub.ambient != lattice:
        raise ValueError("sublattice does not belong to this lattice")
    n, l = lattice.n, sub.l
    return Radical(Fraction(sub.det_l ** n, lattice.det_gram ** l), n)


def lattice_document(lattice: IntegralLattice) -> dict:
    """Canonical exportable description of the lattice."""
    return {
        "n": lattice.n,
        "basis": [list(r) for r in lattice.basis],
        "gram": [list(r) for r in lattice.gram],
        "det_gram": lattice.det_gram,
    }


def canonical_json(doc) -> str:
    """The package's JSON text form: sorted keys, two-space indent, final newline."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
