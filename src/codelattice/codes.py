"""Linear codes over Z_q: named families, weights, duals, documents.

A code is an additive subgroup of Z_q^n described by generator rows.  Over
a composite q the rows need not be independent, so the cardinality is taken
from the lattice determinant (|C| = q^n / prod of HNF diagonal) rather than
from the number of rows, and codeword enumeration walks the additive
closure of the generators.
"""

from __future__ import annotations

import json
from math import comb

from .enumeration import CertificateError
from .lattices import (
    IntegralLattice,
    canonical_json,
    construction_a,
    det_int,
    dual_basis,
    gram_matrix,
    hnf,
)

__all__ = [
    "EnumerationTooLarge",
    "LinearCode",
    "WeightReport",
    "parity_check_code",
    "reed_muller_generators",
    "reed_muller_code",
    "reed_muller_table",
    "extended_hamming_code",
    "full_code",
    "zero_code",
    "weight_report",
    "dual_code",
    "dual_code_lattice",
    "same_row_space",
    "is_self_dual",
    "minimal_lift",
    "code_document",
    "dump_code",
    "code_from_document",
    "load_code",
    "save_code",
]

class EnumerationTooLarge(ValueError):
    """Codeword enumeration would exceed the configured cap."""

    def __init__(self, cardinality: int, cap: int):
        self.cardinality = cardinality
        self.cap = cap
        super().__init__(f"enumeration too large: |C| = {cardinality} > cap {cap}")


class LinearCode:
    """Linear code over Z_q given by generator rows (entries in [0, q)).

    Immutable; the Construction A lattice, the dual code and the weight
    report are computed once on demand and cached.
    """

    __slots__ = ("q", "n", "generators", "family", "params", "_lattice", "_dual", "_weights")

    def __init__(self, q: int, n: int, generators, family=None, params=None):
        q = int(q)
        n = int(n)
        if q < 2:
            raise ValueError("q must be >= 2")
        if n < 1:
            raise ValueError("n must be >= 1")
        rows = []
        for g in generators:
            g = [int(e) % q for e in g]
            if len(g) != n:
                raise ValueError("generator length differs from n")
            if any(g):
                rows.append(tuple(g))
        self.q = q
        self.n = n
        self.generators = tuple(rows)
        self.family = family
        self.params = dict(params) if params else None
        self._lattice = None
        self._dual = None
        self._weights = None

    def lattice(self) -> IntegralLattice:
        if self._lattice is None:
            self._lattice = construction_a(self)
        return self._lattice

    @property
    def cardinality(self) -> int:
        basis = self.lattice().basis
        d = 1
        for i in range(self.n):
            d *= basis[i][i]
        return self.q ** self.n // d

    def codewords(self):
        """All codewords (additive closure of the generators), as tuples.

        The span is built generator by generator: if W is closed under the
        generators seen so far, the span including g is {w + k*g} for
        k in [0, q).  Deduplication handles dependent rows over rings.
        """
        words = {(0,) * self.n}
        for g in self.generators:
            new = set(words)
            cur = g
            for _ in range(self.q - 1):
                new.update(
                    tuple((a + b) % self.q for a, b in zip(w, cur)) for w in words
                )
                cur = tuple((a + b) % self.q for a, b in zip(cur, g))
            words = new
        return sorted(words)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LinearCode)
            and self.q == other.q
            and self.n == other.n
            and self.generators == other.generators
        )

    def __hash__(self):
        return hash((self.q, self.n, self.generators))

    def __repr__(self) -> str:
        return f"LinearCode(q={self.q}, n={self.n}, k_rows={len(self.generators)})"


class WeightReport:
    """Minimum Hamming/Euclidean weights of the nonzero codewords."""

    __slots__ = ("d_hamming", "d_euclidean", "witness", "max_lift_sq")

    def __init__(self, d_hamming, d_euclidean, witness, max_lift_sq):
        self.d_hamming = d_hamming
        self.d_euclidean = d_euclidean
        self.witness = tuple(witness)
        self.max_lift_sq = max_lift_sq

    def __repr__(self) -> str:
        return (
            f"WeightReport(d_H={self.d_hamming}, d_E={self.d_euclidean}, "
            f"b2={self.max_lift_sq})"
        )


def minimal_lift(word, q: int) -> tuple[int, ...]:
    """Shortest integer lift of a word in Z_q^n.

    Entry a maps to a when a^2 <= (q-a)^2 and to a-q otherwise; the tie at
    a = q/2 (q even) keeps +q/2, which makes the witness deterministic.
    """
    out = []
    for a in word:
        a %= q
        out.append(a if a * a <= (q - a) * (q - a) else a - q)
    return tuple(out)


def weight_report(code: LinearCode, cap: int = 10_000_000) -> WeightReport:
    """Exhaustive weight data, cached on `code`; raises EnumerationTooLarge
    above the cap, on every call, whether or not the report is cached."""
    card = code.cardinality
    if card > cap:
        raise EnumerationTooLarge(card, cap)
    if code._weights is None:
        code._weights = _weights(code)
    return code._weights


def _weights(code: LinearCode) -> WeightReport:
    q = code.q
    d_h = None
    d_e = None
    witness = None
    best_words = []
    for w in code.codewords():
        if not any(w):
            continue
        wh = sum(1 for a in w if a)
        we = sum(min(a * a, (q - a) * (q - a)) for a in w)
        if d_h is None or wh < d_h:
            d_h = wh
        if d_e is None or we < d_e:
            d_e = we
            best_words = [w]
            witness = w
        elif we == d_e:
            best_words.append(w)
    if d_e is None:
        raise ValueError("code has no nonzero codeword")
    b2 = max(max(e * e for e in minimal_lift(w, q)) for w in best_words)
    return WeightReport(d_h, d_e, witness, b2)


# -- named families -------------------------------------------------------


def parity_check_code(n: int, q: int) -> LinearCode:
    """Words (c_1, ..., c_{n-1}, sum c_i); generator matrix [I_{n-1} | 1]."""
    if n < 2:
        raise ValueError("n must be >= 2")
    rows = []
    for i in range(n - 1):
        row = [0] * n
        row[i] = 1
        row[n - 1] = 1
        rows.append(row)
    return LinearCode(q, n, rows, family="parity_check", params={"n": n, "q": q})


def reed_muller_generators(r: int, m: int) -> list[list[int]]:
    """Generator matrix B(r, m) of the binary Reed-Muller code R(r, m).

    Recursive block form [[B(r,m-1), B(r,m-1)], [0, B(r-1,m-1)]] with base
    cases B(0, i) = all-ones row and B(i, i) = identity.  Row count is
    sum_{i<=r} C(m, i).
    """
    if not 0 <= r <= m:
        raise ValueError("need 0 <= r <= m")
    if r == 0:
        return [[1] * (1 << m)]
    if r == m:
        size = 1 << m
        return [[1 if j == i else 0 for j in range(size)] for i in range(size)]
    top = reed_muller_generators(r, m - 1)
    bot = reed_muller_generators(r - 1, m - 1)
    half = 1 << (m - 1)
    rows = [row + row for row in top]
    rows += [[0] * half + row for row in bot]
    if len(rows) != sum(comb(m, i) for i in range(r + 1)):
        raise CertificateError(f"RM({r},{m}) has {len(rows)} generators, not the dimension")
    return rows


def reed_muller_code(r: int, m: int) -> LinearCode:
    return LinearCode(
        2,
        1 << m,
        reed_muller_generators(r, m),
        family="reed_muller",
        params={"r": r, "m": m},
    )


_EXTENDED_HAMMING_ROWS = (
    (1, 0, 0, 0, 1, 1, 0, 1),
    (0, 1, 0, 0, 1, 0, 1, 1),
    (0, 0, 1, 0, 0, 1, 1, 1),
    (0, 0, 0, 1, 1, 1, 1, 0),
)


def extended_hamming_code() -> LinearCode:
    """The [8, 4] extended binary Hamming code (self-dual, |C| = 16)."""
    return LinearCode(2, 8, _EXTENDED_HAMMING_ROWS, family="extended_hamming")


def full_code(n: int, q: int) -> LinearCode:
    rows = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    return LinearCode(q, n, rows, family="full", params={"n": n, "q": q})


def zero_code(n: int, q: int) -> LinearCode:
    return LinearCode(q, n, (), family="zero", params={"n": n, "q": q})


# family name -> (constructor, names of its parameters in argument order)
FAMILIES = {
    "parity_check": (parity_check_code, ("n", "q")),
    "reed_muller": (reed_muller_code, ("r", "m")),
    "extended_hamming": (extended_hamming_code, ()),
    "full": (full_code, ("n", "q")),
    "zero": (zero_code, ("n", "q")),
}


def reed_muller_table(m_max: int) -> list[tuple[int, int, int, int, int]]:
    """(m, r, k, det_rows, det_lattice) for 1 <= m <= m_max and 0 <= r < m.

    k is the number of generator rows of B(r, m), det_rows the determinant
    of their Gram matrix and det_lattice that of the code lattice.
    """
    table = []
    for m in range(1, m_max + 1):
        for r in range(m):
            rows = reed_muller_generators(r, m)
            det_lattice = LinearCode(2, 1 << m, rows).lattice().det_gram
            table.append((m, r, len(rows), det_int(gram_matrix(rows)), det_lattice))
    return table


# -- duality --------------------------------------------------------------


def dual_code(code: LinearCode) -> LinearCode:
    """Dual code, computed through the lattice route and cached on `code`.

    q times the dual basis of the Construction A lattice is an integral
    matrix spanning the lattice of the dual code; reducing its HNF rows
    mod q yields generators of the dual code.  The dual's own lattice is
    built from those generators, not taken from this HNF, so that checks
    comparing the two routes stay independent.
    """
    if code._dual is None:
        q, n = code.q, code.n
        h, rank = hnf(dual_basis(code.lattice(), q))
        if rank != n:
            raise CertificateError(f"dual basis has rank {rank}, not {n}")
        code._dual = LinearCode(q, n, [[e % q for e in row] for row in h])
    return code._dual


def dual_code_lattice(code: LinearCode) -> IntegralLattice:
    """Construction A lattice of the dual code (an integral lattice).

    Minimal sublattice determinants of the (rational) dual lattice follow
    by exact rescaling: d_l of the dual lattice equals d_l of this lattice
    divided by q**(2l).
    """
    return dual_code(code).lattice()


def same_row_space(a: LinearCode, b: LinearCode) -> bool:
    """Equality as codes: identical Construction A lattices."""
    return a.q == b.q and a.n == b.n and a.lattice() == b.lattice()


def is_self_dual(code: LinearCode) -> bool:
    return same_row_space(code, dual_code(code))


# -- documents ------------------------------------------------------------


def code_document(code: LinearCode) -> dict:
    doc: dict = {"q": code.q, "n": code.n}
    if code.family is not None:
        doc["family"] = code.family
        if code.params:
            doc.update(code.params)
    else:
        doc["generators"] = [list(g) for g in code.generators]
    return doc


def dump_code(code: LinearCode) -> str:
    return canonical_json(code_document(code))


def document_int(value, name: str) -> int:
    """value, if it is an integer of a JSON document; ValueError otherwise.

    JSON numbers do not tell 3 from 3.0 (RFC 8259 section 6), and int()
    would read 3.5 as 3 and true as 1, so only an int is accepted: not a
    bool, a float or a string.
    """
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def code_from_document(doc: dict) -> LinearCode:
    if "family" in doc:
        family = doc["family"]
        if not isinstance(family, str) or family not in FAMILIES:
            raise ValueError(f"unknown family {family!r} (known: {tuple(FAMILIES)})")
        make, names = FAMILIES[family]
        return make(*(document_int(doc[name], name) for name in names))
    if "generators" in doc:
        q, n = document_int(doc["q"], "q"), document_int(doc["n"], "n")
        rows = [[document_int(e, "generator entry") for e in g] for g in doc["generators"]]
        return LinearCode(q, n, rows)
    raise ValueError("code document needs either 'family' or 'generators'")


def load_code(path) -> LinearCode:
    with open(path, "r", encoding="utf-8") as fh:
        return code_from_document(json.load(fh))


def save_code(code: LinearCode, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_code(code))
