"""Complete short-vector enumeration in exact integer arithmetic.

The HNF basis B is upper triangular with pivots d_j, so a lattice vector
x = c B has x_j = P_j + c_j d_j, where P_j = sum_{i<j} c_i B_ij depends on
the coefficients already fixed.  The walk fixes x_0, x_1, ... in turn, each
x_j in the residue class P_j mod d_j, and the norm is the plain sum of the
x_j**2: no Gram matrix, no quadratic form, no rounding.  A modulus m with
m Z^n inside the lattice splits the walk in two stages, since whether x is
a lattice vector depends on x mod m only:

* The words.  The first stage takes each x_j to be the representative w_j
  of its class mod m in (-m/2, m/2].  The sum of the w_j**2 over a prefix
  is the least norm of any completion, and it prunes the walk.  For a
  Construction A lattice m = q, and the words are the codewords' minimal
  lifts (Conway & Sloane, SPLAG ch. 5 section 2).  A level whose pivot is
  m has at most one entry in (-m/2, m/2], and its row is m e_j (m e_j
  lies in the lattice, and the HNF is reduced), so the walk fixes such
  levels in a loop and branches only where a pivot is below m.  A prefix
  that spends the whole budget leaves every later entry 0, so its word is
  completed in one loop (c_k = -P_k / d_k), or dropped at the first d_k
  that does not divide P_k.
* The lifts.  The vectors congruent to a word w are w + m z.  Moving x_j
  off w_j costs at least m * (m - 2 |w_j|) more than w_j**2, so only the
  coordinates where that fits into the slack B - |w|**2 can move.  The
  second stage walks those, each x_j with x_j**2 <= (slack left) + w_j**2,
  and so never meets a dead end.
* The modulus.  m is `IntegralLattice.exponent`, the least m with
  m Z^n inside the lattice.  When m*m > 4B no class holds two vectors of
  norm <= B, and the walk is the plain ambient walk: every vector is its
  own word.
* One vector per +-pair.  Negation maps words to words and fixes exactly
  the entries 0 and m/2.  While every w_j so far is one of them, the first
  stage keeps w_j >= 0, so it visits one word of each pair {w, -w}.  The
  lifts of a word are emitted sign-normalised; those of a self-negating
  word (every entry 0 or m/2) only with a positive first nonzero entry.

Every emitted vector's norm is re-checked by an integer dot product against
the walk's running sum and against (0, B]; a mismatch raises
CertificateError.

Three exact rules keep each lattice to about one walk:

* The norm grain.  x G x^T = sum_i g_ii x_i**2 + sum_{i<j} 2 g_ij x_i x_j,
  so every norm is a multiple of g = gcd(g_ii, 2 g_ij), and a walk to
  g * floor(B / g) lists exactly the vectors of norm <= B.  Only a request
  past the kept list (below) needs g.  It is read from the basis rows, and
  the 2 g_ij only until g <= 2, which divides them all; no Gram matrix.
  A row d_j e_j has g_ij = d_j B_ij, and adds 2 d_j gcd(B_ij, i < j).
* The Hermite start.  Every lattice of rank n has
  (lambda1**2)**n <= gamma_n**n * det, so for n <= 8 (where gamma_n**n is
  known exactly, HERMITE_POWER) lambda1**2 is at most the largest integer b
  with b**n <= gamma_n**n * det; `lattice_minimum` walks to the smaller of b
  and the smallest basis-row norm, a radius that always holds a minimal
  vector.
* The reused list.  The list `lattice_minimum` enumerated is kept on the
  lattice; it holds every vector of norm <= its bound, sorted by norm, so a
  later request within that bound is its bisected prefix, the list a new
  walk would return.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import gcd, isqrt
from operator import attrgetter, index, itemgetter, mul
from typing import NamedTuple

from .exact import integer_root
from .lattices import IntegralLattice

__all__ = [
    "CertificateError",
    "DEFAULT_CAP",
    "EnumerationCap",
    "HERMITE_POWER",
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


def _grain(basis) -> int:
    """gcd of the g_ii and the 2 g_ij of the basis rows' Gram matrix: every
    norm is a multiple of it.  The row norms g_ii come first, and the
    2 g_ij (over columns >= j only, the basis being triangular) only while
    the gcd is above 2, since 1 and 2 divide every 2 g_ij.  A row d_j e_j
    has g_ij = B_ij d_j, so its 2 g_ij, i < j, add 2 d_j gcd(B_ij) at once."""
    g = gcd(*(sum(map(mul, row, row)) for row in basis))
    for j in range(1, len(basis)):
        if g <= 2:
            return g
        row = basis[j]
        if any(row[j + 1 :]):
            tail = row[j:]
            g = gcd(g, *(2 * sum(map(mul, basis[i][j:], tail)) for i in range(j)))
        else:
            g = gcd(g, 2 * row[j] * gcd(*(basis[i][j] for i in range(j))))
    return g


def short_vectors(
    lattice: IntegralLattice, bound: int, cap: int = DEFAULT_CAP
) -> ShortVectorList:
    """All vectors with 0 < norm <= bound, one representative per +-pair;
    bound and cap are read with `operator.index`.

    Representatives have a positive first nonzero coordinate and are sorted
    by (norm, coordinates).  A request within the list `lattice_minimum`
    kept is served as its prefix; past it, the walk goes to the bound
    rounded down to the norm grain, and without it to the bound as asked
    (module docstring).  Either way the result is a new list, and more
    than `cap` vectors raise EnumerationCap.
    Every enumerated norm is re-verified by an integer dot product of the
    ambient coordinates; a mismatch raises CertificateError.
    """
    bound, cap = index(bound), index(cap)
    if bound < 1:
        raise ValueError("bound must be >= 1")
    known = lattice._short
    if known is None:
        return ShortVectorList(bound, _walk(lattice, bound, cap))
    if bound > known.bound:
        radius = bound - bound % _grain(lattice.basis)
        if radius > known.bound:
            return ShortVectorList(bound, _walk(lattice, radius, cap))
    vectors = known.vectors[: bisect_right(known.vectors, bound, key=attrgetter("norm"))]
    # the walk raises at the first vector past the cap
    if len(vectors) > max(cap, 0):
        raise EnumerationCap(max(cap, 0) + 1, cap)
    return ShortVectorList(bound, vectors)


def _walk(lattice: IntegralLattice, bound: int, cap: int) -> list[ShortVector]:
    """The sorted representatives of norm <= bound (bound >= 0), by the
    residue walk of the module docstring."""
    walk = _Walk(lattice.basis, lattice.exponent, bound, cap)
    walk.words(0, [0] * lattice.n, bound, True)
    out = walk.out
    out.sort(key=itemgetter(1, 0))  # (norm, coords)
    return out


class _Walk:
    """The state of one `_walk`: the basis's pivots d_j and row tails (the
    nonzero (k, B_jk) with k > j), the modulus, the bound, the cap and the
    vectors emitted so far.  `words` recurses only at levels whose pivot is
    below m, and `lift` once per free entry, so the depth is at most 2n."""

    __slots__ = ("pivots", "tails", "m", "bound", "cap", "out")

    def __init__(self, basis, m: int, bound: int, cap: int):
        self.pivots = [row[j] for j, row in enumerate(basis)]
        self.tails = [[(k, b) for k, b in enumerate(row[j + 1 :], j + 1) if b] for j, row in enumerate(basis)]
        self.m = m
        self.bound = bound
        self.cap = cap
        self.out: list[ShortVector] = []

    def words(self, j: int, x: list[int], rest: int, self_negating: bool) -> None:
        """Walk the words whose first j entries are x[:j]; x[j:] holds the
        P_k of those entries, rest the budget they leave, and self_negating
        whether each of them is 0 or m/2.

        Each entry of level j is followed, in a loop, by the forced levels
        after it, whose pivot is m: a range of fewer than m integers holds
        at most one entry of their class.  Such a row is m e_k (m e_k lies
        in L, and the HNF is reduced), so fixing its entry moves no other
        P, and only P_k mod m is read there; the walk writes the entry over
        P_k and leaves it.  x is otherwise updated in place and restored.
        The walk recurses only at the next level whose pivot is below m, and
        hands a prefix that spent the budget, or a whole word, to `leaf`."""
        pivots, tails, m = self.pivots, self.tails, self.m
        n = len(pivots)
        half, low = m // 2, (m - 1) // 2  # entries lie in [-low, half]
        d, p = pivots[j], x[j]
        s = isqrt(rest)
        hi = s if s < half else half
        lo = 0 if self_negating else -(s if s < low else low)
        tail = tails[j]
        for w in range(lo + (p - lo) % d, hi + 1, d):
            x[j] = w
            c = (w - p) // d
            if c:
                for k, b in tail:
                    x[k] += c * b
            left = rest - w * w
            negating = self_negating and (w == 0 or w + w == m)
            i = j + 1
            while left and i < n and pivots[i] == m:
                s = isqrt(left)
                hi_i = s if s < half else half
                u = 0 if negating else -(s if s < low else low)
                u += (x[i] - u) % m
                if u > hi_i:
                    break
                x[i] = u
                left -= u * u
                negating = negating and (u == 0 or u + u == m)
                i += 1
            else:  # no dead end: branch at level i, or list the word's lifts
                if left and i < n:
                    self.words(i, x, left, negating)
                else:
                    self.leaf(i, x, left, negating)
            if c:
                for k, b in tail:
                    x[k] -= c * b
        x[j] = p

    def leaf(self, j: int, x: list[int], slack: int, self_negating: bool) -> None:
        """List the lifts of the word whose first j entries are x[:j]; x[j:]
        holds the P_k of those entries (mod m where d_k = m), and slack the
        budget they leave, which is 0 unless j = n.  With no budget left
        every later entry is 0: c_k = -P_k / d_k, and no word at all if d_k
        does not divide P_k; only its entries m/2 are then free.  The word
        is completed in a copy of x, by the tails of the completed rows."""
        pivots, tails = self.pivots, self.tails
        v = x[:]
        for k in range(j, len(pivots)):
            p = v[k]
            if p:
                c, r = divmod(p, pivots[k])
                if r:
                    return
                v[k] = 0
                for i, b in tails[k]:
                    v[i] -= c * b
        m = self.m
        free = [k for k, e in enumerate(v) if m * (m - 2 * abs(e)) <= slack]
        self.lift(free, 0, v, slack, self_negating)

    def lift(self, free: list[int], i: int, v: list[int], slack: int, positive: bool) -> None:
        """Emit the lifts of the word v that differ from it at free[i:] only;
        slack is the bound less the norm of v.  While `positive`, the word
        is self-negating, every entry so far is zero, and the next one stays
        >= 0."""
        if i == len(free):
            if any(v):  # not the zero vector, the zero word's smallest lift
                self.emit(v, slack)
            return
        m = self.m
        k = free[i]
        w = v[k]
        room = slack + w * w
        s = isqrt(room)
        lo = 0 if positive else -s
        for x in range(lo + (w - lo) % m, s + 1, m):
            v[k] = x
            self.lift(free, i + 1, v, room - x * x, positive and x == 0)
        v[k] = w

    def emit(self, v: list[int], slack: int) -> None:
        norm = sum(map(mul, v, v))
        if not 0 < norm <= self.bound or norm != self.bound - slack:
            raise CertificateError(f"norm {norm} of {v} disagrees with the walk")
        for e in v:
            if e:
                if e < 0:
                    v = [-e for e in v]
                break
        out = self.out
        out.append(ShortVector(tuple(v), norm))
        if len(out) > self.cap:
            raise EnumerationCap(len(out), self.cap)


def lattice_minimum(lattice: IntegralLattice) -> tuple[int, tuple[int, ...]]:
    """Minimal nonzero squared norm with a witness vector (the smallest
    coordinates among the minimal vectors).

    One complete enumeration to a radius known to hold a minimal vector
    suffices: the smallest basis-row norm, or for n <= 8 the Hermite bound,
    the largest b with b**n <= gamma_n**n * det, if smaller (lambda1**2 is
    an integer with (lambda1**2)**n <= gamma_n**n * det).  The list is kept
    on the (immutable) lattice, so each lattice enumerates it once and
    `short_vectors` serves smaller requests from it.
    """
    if lattice._short is None:
        radius = min(sum(e * e for e in row) for row in lattice.basis)
        g = HERMITE_POWER.get(lattice.n)
        if g is not None:
            b = integer_root(g.numerator * lattice.det_gram // g.denominator, lattice.n)
            radius = min(radius, b)
        lattice._short = short_vectors(lattice, radius)
    best = lattice._short.vectors[0]
    return best.norm, best.coords
