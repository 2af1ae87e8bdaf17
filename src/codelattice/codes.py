"""Linear codes over Z_q: named families, weights, duals, documents.

A code is an additive subgroup of Z_q^n described by generator rows.  Over
a composite q the rows need not be independent, so the cardinality is taken
from the lattice determinant (|C| = q^n / prod of HNF diagonal) rather than
from the number of rows, and codeword enumeration walks the additive
closure of the generators.
"""

from __future__ import annotations

from math import comb, isqrt
from operator import attrgetter, index
from types import MappingProxyType
from typing import NamedTuple

from .enumeration import DEFAULT_CAP, CertificateError, EnumerationCap
from .lattices import IntegralLattice, construction_a, det_int, dual_basis, gram_matrix

__all__ = [
    "FAMILIES",
    "FAMILY_KEYS",
    "MAX_LENGTH",
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
    "rank2_code_bound",
    "dual_code",
    "is_self_dual",
    "code_document",
    "code_from_document",
    "document_int",
    "read_spec",
]


class LinearCode:
    """Linear code over Z_q given by generator rows (entries in [0, q)).

    Immutable; the Construction A lattice, the dual code and the weight
    report are computed once on demand and cached.  family and params are
    None unless one of the FAMILIES constructors built the code, which sets
    them to its name and a read-only mapping of its parameters by name
    (`_labelled`).  Both are read-only, so the label cannot come to
    contradict the generators.
    """

    __slots__ = ("q", "n", "generators", "_family", "_params", "_lattice", "_dual", "_weights")

    family = property(attrgetter("_family"))
    params = property(attrgetter("_params"))

    def __init__(self, q: int, n: int, generators):
        q = index(q)
        n = index(n)
        if q < 2:
            raise ValueError("q must be >= 2")
        if n < 1:
            raise ValueError("n must be >= 1")
        rows = []
        for g in generators:
            g = [index(e) % q for e in g]
            if len(g) != n:
                raise ValueError("generator length differs from n")
            if any(g):
                rows.append(tuple(g))
        self.q = q
        self.n = n
        self.generators = tuple(rows)
        self._family = None
        self._params = None
        self._lattice = None
        self._dual = None
        self._weights = None

    def lattice(self) -> IntegralLattice:
        if self._lattice is None:
            self._lattice = construction_a(self)
        return self._lattice

    @property
    def cardinality(self) -> int:
        """q**n / det(L_C), where det_gram = det(L_C)**2."""
        return self.q ** self.n // isqrt(self.lattice().det_gram)

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


class WeightReport(NamedTuple):
    """Minimum Hamming/Euclidean weights of the nonzero codewords."""

    d_hamming: int
    d_euclidean: int
    max_lift_sq: int


def weight_report(code: LinearCode, cap: int = DEFAULT_CAP) -> WeightReport:
    """Exhaustive weight data, cached on `code`; raises EnumerationCap
    above the cap, on every call, whether or not the report is cached."""
    card = code.cardinality
    if card > cap:
        raise EnumerationCap(card, cap, "codewords")
    if code._weights is None:
        code._weights = _weights(code)
    return code._weights


def _weights(code: LinearCode) -> WeightReport:
    """One pass over the codewords; sq holds the squared entries of a
    word's shortest lift, min(a, q - a)**2 per entry, all 0 for the zero
    word."""
    q = code.q
    d_h = d_e = b2 = None
    for w in code.codewords():
        sq = [min(a * a, (q - a) * (q - a)) for a in w]
        we = sum(sq)
        if not we:
            continue
        wh = len(sq) - sq.count(0)
        if d_h is None or wh < d_h:
            d_h = wh
        if d_e is None or we < d_e:
            d_e, b2 = we, max(sq)
        elif we == d_e:
            b2 = max(b2, *sq)
    if d_e is None:
        raise ValueError("code has no nonzero codeword")
    return WeightReport(d_h, d_e, b2)


def rank2_code_bound(code: LinearCode) -> int:
    """Upper bound on the minimal rank-2 determinant of a code lattice.

    min(q**4, q**2 * (d_E - b^2)) where b^2 is the largest squared entry
    of a shortest lift, maximised over codewords attaining d_E: the plane
    spanned by that lift and q*e_i at the position of b has this
    determinant.  When every d_E-attaining codeword has a single nonzero
    coordinate, d_E = b^2 and that plane degenerates; the bound falls back
    to q**2 * d_E, realised by the lift together with q*e_j at any
    position of disjoint support (n >= 2 required).
    """
    if code.n < 2:
        raise ValueError("rank-2 bound needs n >= 2")
    wr = weight_report(code)
    q = code.q
    gap = wr.d_euclidean - wr.max_lift_sq
    if gap == 0:
        gap = wr.d_euclidean
    return min(q ** 4, q * q * gap)


# -- named families -------------------------------------------------------


def _labelled(code: LinearCode, family: str, **params) -> LinearCode:
    """code, labelled as the one the `family` constructor built from params."""
    code._family = family
    code._params = MappingProxyType({name: index(value) for name, value in params.items()})
    return code


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
    return _labelled(LinearCode(q, n, rows), "parity_check", n=n, q=q)


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
    code = LinearCode(2, 1 << m, reed_muller_generators(r, m))
    return _labelled(code, "reed_muller", r=r, m=m)


_EXTENDED_HAMMING_ROWS = (
    (1, 0, 0, 0, 1, 1, 0, 1),
    (0, 1, 0, 0, 1, 0, 1, 1),
    (0, 0, 1, 0, 0, 1, 1, 1),
    (0, 0, 0, 1, 1, 1, 1, 0),
)


def extended_hamming_code() -> LinearCode:
    """The [8, 4] extended binary Hamming code (self-dual, |C| = 16)."""
    return _labelled(LinearCode(2, 8, _EXTENDED_HAMMING_ROWS), "extended_hamming")


def full_code(n: int, q: int) -> LinearCode:
    rows = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    return _labelled(LinearCode(q, n, rows), "full", n=n, q=q)


def zero_code(n: int, q: int) -> LinearCode:
    return _labelled(LinearCode(q, n, ()), "zero", n=n, q=q)


# family name -> (constructor, names of its parameters in argument order)
FAMILIES = {
    "parity_check": (parity_check_code, ("n", "q")),
    "reed_muller": (reed_muller_code, ("r", "m")),
    "extended_hamming": (extended_hamming_code, ()),
    "full": (full_code, ("n", "q")),
    "zero": (zero_code, ("n", "q")),
}

# every family parameter once, in FAMILIES order: the CLI's family flags
FAMILY_KEYS = tuple(dict.fromkeys(name for _, names in FAMILIES.values() for name in names))

# The size bound of a spec document: length at most 2**7, as in rm-table, so
# m <= 7 for Reed-Muller, and at most MAX_LENGTH**2 generator or row entries,
# which every family's generators at that length fit.
MAX_LENGTH = 128


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

    The rows of q times the dual basis of L_C span q L_C* = L_{C dual},
    which holds q Z^n, so those rows mod q generate the dual code and
    Construction A of them gives q L_C* back.  Its det_gram times L_C's is
    q**(2n) (else CertificateError).  d_l of L_C* is d_l of that lattice
    divided by q**(2l).
    """
    if code._dual is None:
        q, n = code.q, code.n
        lattice = code.lattice()
        dual = LinearCode(q, n, dual_basis(lattice, q))
        if lattice.det_gram * dual.lattice().det_gram != q ** (2 * n):
            raise CertificateError("det_gram of the code lattice times its dual's is not q^(2n)")
        code._dual = dual
    return code._dual


def is_self_dual(code: LinearCode) -> bool:
    return code.lattice() == dual_code(code).lattice()


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


def document_int(value, name: str) -> int:
    """value, if it is an integer of a JSON document; ValueError otherwise.

    JSON numbers do not tell 3 from 3.0 (RFC 8259 section 6), and int()
    would read 3.5 as 3 and true as 1, so only an int is accepted: not a
    bool, a float or a string.
    """
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _check_shape(doc: dict, shape: str, keys) -> None:
    """ValueError unless `doc` has no key but `keys`, those of its shape,
    and is within the size bound (MAX_LENGTH)."""
    extra = sorted(set(doc) - set(keys))
    if extra:
        raise ValueError(f"{shape} takes no key {extra[0]!r}")
    for key, bound in (("n", MAX_LENGTH), ("m", MAX_LENGTH.bit_length() - 1)):
        if key in doc and document_int(doc[key], key) > bound:
            raise ValueError(f"{key} = {doc[key]} is over the size bound {bound}")
    entries = sum(map(len, doc.get("generators", doc.get("rows", ()))))
    if entries > MAX_LENGTH**2:
        raise ValueError(f"{entries} entries are over the size bound {MAX_LENGTH**2}")


def code_from_document(doc) -> LinearCode:
    """The code of a family or generator document, checked as in `read_spec`."""
    if not isinstance(doc, dict):
        raise ValueError("not a JSON object")
    if "family" in doc:
        family = doc["family"]
        if not isinstance(family, str) or family not in FAMILIES:
            raise ValueError(f"unknown family {family!r} (known: {tuple(FAMILIES)})")
        make, names = FAMILIES[family]
        _check_shape(doc, f"family {family!r}", ("family", "q", "n", *names))
        code = make(*(document_int(doc[name], name) for name in names))
        for key in ("q", "n"):  # code_document writes both for every family
            if key in doc and document_int(doc[key], key) != getattr(code, key):
                raise ValueError(f"{key} = {doc[key]} contradicts the {family} code")
        return code
    if "generators" in doc:
        _check_shape(doc, "a generator document", ("q", "n", "generators"))
        q, n = document_int(doc["q"], "q"), document_int(doc["n"], "n")
        rows = [[document_int(e, "generator entry") for e in g] for g in doc["generators"]]
        return LinearCode(q, n, rows)
    raise ValueError("spec needs a 'family' or 'generators' key, or 'rows' for a lattice")


def read_spec(doc) -> tuple[LinearCode | None, IntegralLattice]:
    """(code, its lattice) of a family or generator document, or
    (None, lattice) of a rows document: the one reader of spec documents.

    A family document takes the family's parameters and its code's q and n,
    a generator document q, n and generators, a rows document rows only.
    Every number must be a JSON integer (`document_int`).  A missing key
    raises KeyError.  Any other defect raises ValueError (or TypeError for
    a value of the wrong JSON type): a non-object, a key outside the shape,
    a family's q or n other than its code's, a length over MAX_LENGTH or
    more than MAX_LENGTH**2 entries (checked before anything is built), and
    rows of less than full rank.
    """
    if isinstance(doc, dict) and "rows" in doc:
        _check_shape(doc, "a rows document", ("rows",))
        rows = [[document_int(e, "row entry") for e in row] for row in doc["rows"]]
        return None, IntegralLattice.from_rows(rows)
    code = code_from_document(doc)
    return code, code.lattice()
