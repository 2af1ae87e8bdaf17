"""Cross-validation suite: formula layer against the search oracle.

Every check pins an exactly known value or a closed-form formula for one
of the classical code/lattice families and recomputes it end to end with
the independent machinery (codeword closure, HNF determinants, complete
enumeration, certified sublattice search).

The check contract.  A check is a plain function of one `_Context`, which
`run_checks` builds once per call: the enumeration cap, the family corpus
and the random corpus.  It returns a non-empty list of claims, each a pair
of strings (expected, computed).  `run_checks` joins each side with "; "
into the report's expected and computed fields, and the check passes iff
the two agree exactly; there are no tolerances anywhere, decimals are
display only.  A check that raises fails, with the exception as its detail;
this is how a search or a codeword enumeration over the cap is reported.
Checks are eager functions, not generators, so timing a call times the
check.

The constants for cells like (5,2) or (7,2) are open problems: the suite
certifies per-lattice values and implication-derived intervals only, and
the report states this explicitly.
"""

from __future__ import annotations

import fnmatch
import functools
import random
import time
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from .codes import (
    LinearCode,
    dual_code,
    extended_hamming_code,
    full_code,
    parity_check_code,
    rank2_code_bound,
    reed_muller_code,
    reed_muller_generators,
    reed_muller_table,
    weight_report,
)
from .exact import Radical
from .invariants import (
    BERGE_MARTINET,
    KNOWN_FACTS,
    RANKIN,
    berge_martinet_invariant,
    propagate_bounds,
    rankin_invariant,
    standard_seeds,
)
from .lattices import (
    IntegralLattice,
    Sublattice,
    construction_a,
    det_int,
    dual_basis,
    gamma_ratio,
    gram_matrix,
    is_even,
)
from .enumeration import DEFAULT_CAP, CertificateError, EnumerationCap, lattice_minimum
from .sublattice_search import minimal_sublattice

__all__ = ["CheckResult", "run_checks", "OPEN_CONSTANTS_NOTE"]

OPEN_CONSTANTS_NOTE = (
    "note: the suite certifies per-lattice values and implication-derived "
    "intervals only; interval cells such as (5,2) and (7,2) are open "
    "constants whose exact values are not claimed or reproducible here."
)


class CheckResult(NamedTuple):
    check_id: str
    status: str  # "pass" | "fail" | "skipped"
    expected: str
    computed: str
    runtime_ms: int
    detail: str = ""


# Sweep ranges of the parity check checks and the seed of the random corpus.
PARITY_N = range(3, 8)
PRIMAL_Q = range(2, 6)
DUAL_Q = (2, 3)
SEED = 20240


class _Context:
    """What every check reads; built once per `run_checks` call, so the
    lattices and duals the corpus codes cache are shared by the checks.
    search(lattice, l) is `minimal_sublattice` under the cap, memoised: a
    lattice hashes and compares by its basis, so equal lattices that two
    checks build share one answer, and no check can search without the
    cap."""

    __slots__ = ("cap", "family", "random", "search")

    def __init__(self, cap: int, family: list[LinearCode], random: list[LinearCode]):
        self.cap, self.family, self.random = cap, family, random
        self.search = functools.cache(lambda lattice, l: minimal_sublattice(lattice, l, cap=cap))


def _random_codes(count: int) -> list[LinearCode]:
    rng = random.Random(SEED)
    out = []
    for _ in range(count):
        n = rng.randint(2, 6)
        q = rng.choice((2, 3, 4))
        k = rng.randint(1, n)
        gens = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
        out.append(LinearCode(q, n, gens))
    return out


def _family_corpus() -> list[LinearCode]:
    corpus = [parity_check_code(n, q) for n in (3, 4, 5) for q in (2, 3, 4)]
    corpus += [reed_muller_code(1, 2), reed_muller_code(1, 3), reed_muller_code(2, 3)]
    corpus += [extended_hamming_code(), full_code(3, 4)]
    return corpus


def _enumerable(code: LinearCode, cap: int) -> LinearCode:
    """`code`, once its codewords are known to fit under the cap."""
    if code.cardinality > cap:
        raise EnumerationCap(code.cardinality, cap, "codewords")
    return code


def _tally(what: str, bad: list, total: int) -> tuple[str, str]:
    """The claim that no code of `total` is `bad`, naming the first three."""
    found = f"{len(bad)} {what} on {total} codes" + (f": {bad[:3]}" if bad else "")
    return f"0 {what} on {total} codes", found


# -- individual checks ------------------------------------------------------


def _check_det_formula(ctx):
    """det of the code lattice equals (q^n / |C|)^2, |C| counted directly."""
    claims = []
    for code in ctx.family + ctx.random[:40]:
        count = len(_enumerable(code, ctx.cap).codewords())
        if count != code.cardinality:
            raise CertificateError(
                f"{count} codewords counted, cardinality {code.cardinality} from the lattice"
            )
        expected = Fraction(code.q ** code.n, count) ** 2
        claims.append((str(expected), str(code.lattice().det_gram)))
    return claims


def _check_d1_formula(ctx):
    """Minimum of the code lattice equals min(q^2, d_E), and q^2 for the zero code."""
    codes = ctx.family + ctx.random
    mismatches = []
    for code in codes:
        expect = code.q ** 2
        if code.generators:
            expect = min(expect, weight_report(code, ctx.cap).d_euclidean)
        got, _ = lattice_minimum(code.lattice())
        if got != expect:
            mismatches.append((code.q, code.n, expect, got))
    return [_tally("mismatches", mismatches, len(codes))]


def _check_rank2_code_bound(ctx):
    """Rank-2 bound min(q^4, q^2 (d_E - b^2)) is valid; tight on R(1,3)."""
    violations = 0
    total = 0
    for code in ctx.family + ctx.random[:40]:
        if code.n < 2 or not code.generators:
            continue
        total += 1
        bound = rank2_code_bound(_enumerable(code, ctx.cap))
        cert = ctx.search(code.lattice(), 2)
        violations += cert.value > bound
    rm = reed_muller_code(1, 3)
    bound_rm = rank2_code_bound(rm)
    d2_rm = ctx.search(rm.lattice(), 2).value
    gamma_bound = Radical(min(Fraction(1), Fraction(bound_rm, 16)), 1) * Radical(
        Fraction(rm.cardinality), 1
    ) ** Fraction(4, 8)
    return [
        (f"valid on {total}", f"valid on {total - violations}"),
        ("tight bound 12 = d2 12", f"tight bound {bound_rm} = d2 {d2_rm}"),
        ("gamma bound 3", f"gamma bound {gamma_bound}"),
    ]


def _check_even_lattice_rank2(ctx):
    """Even lattices have rank-2 sublattice determinants >= 3."""
    named = [(f"n={n}", parity_check_code(n, 2)) for n in range(3, 8)]
    named.append(("RM", reed_muller_code(1, 3)))
    claims = []
    for name, code in named:
        lat = code.lattice()
        d2 = ctx.search(lat, 2).value
        even = is_even(lat) and d2 >= 3
        claims.append(("even d2>=3", "even d2>=3" if even else f"violation {name}"))
    zn = IntegralLattice.from_rows([[1 if j == i else 0 for j in range(4)] for i in range(4)])
    claims.append(("Z^4 odd", "Z^4 odd" if not is_even(zn) else "Z^4 even?!"))
    return claims


def _check_code_lattice_duality(ctx):
    """q/dual-basis round trip, |C||Cdual| = q^n, unimodular iff self-dual."""
    bad = []
    codes = ctx.family + ctx.random[:40]
    for code in codes:
        q, n = code.q, code.n
        lat = code.lattice()
        dual = dual_code(code)
        # round trip: q times the dual basis spans the lattice that
        # Construction A builds from the dual code's generators
        if IntegralLattice.from_rows(dual_basis(lat, q)) != construction_a(dual):
            bad.append(("roundtrip", q, n))
        if code.cardinality * dual.cardinality != q ** n:
            bad.append(("cardinality", q, n))
        if any(
            sum(a * b for a, b in zip(g, gd)) % q
            for g in code.generators
            for gd in dual.generators
        ):
            bad.append(("orthogonality", q, n))
        if dual_code(dual).lattice() != lat:
            bad.append(("double dual", q, n))
        # (1/sqrt(q)) L_C is unimodular iff it is integral (Gram divisible
        # by q) with determinant 1, which must coincide with C self-dual.
        unimodular = lat.det_gram == q ** n and all(
            e % q == 0 for row in lat.gram for e in row
        )
        if unimodular != (lat == dual.lattice()):
            bad.append(("unimodular iff self-dual", q, n))
    return [_tally("violations", bad, len(codes))]


def _check_parity_check_family(ctx):
    """Single parity check family: Hermite values, d2 = 3, rank-2 invariant."""
    claims = []
    for n in (3, 4, 5):
        lat = parity_check_code(n, 2).lattice()
        cert = ctx.search(lat, 1)
        fact = KNOWN_FACTS[RANKIN, n, 1].value
        claims.append((f"gamma({n},1)={fact}", f"gamma({n},1)={rankin_invariant(lat, cert)}"))
    for q in PRIMAL_Q:
        for n in PARITY_N:
            lat = parity_check_code(n, q).lattice()
            cert = ctx.search(lat, 2)
            expected_gamma = Radical(Fraction(3 ** n, q ** 4), n)
            claims.append((f"d2(n={n},q={q})=3", f"d2(n={n},q={q})={cert.value}"))
            claims.append((f"g2={expected_gamma}", f"g2={rankin_invariant(lat, cert)}"))
    return claims


RM_TABLE = (
    # (m, r, k, det of the generator-row lattice)
    (1, 0, 1, 2),
    (2, 0, 1, 4),
    (2, 1, 3, 4),
    (3, 0, 1, 8),
    (3, 1, 4, 64),
    (3, 2, 7, 8),
    (4, 0, 1, 16),
    (4, 1, 5, 4096),
    (4, 2, 11, 4096),
    (4, 3, 15, 16),
    (5, 0, 1, 32),
    (5, 1, 6, 1048576),
    (5, 2, 16, 1073741824),
    (5, 3, 26, 1048576),
    (5, 4, 31, 32),
)


def _check_rm_table(ctx):
    """Reed-Muller table: generator-row Gram dets and code lattice dets."""
    claims = []
    for (m, r, k, det_rows), row in zip(RM_TABLE, reed_muller_table(5), strict=True):
        m_got, r_got, k_got, det_rows_got, det_lattice = row
        claims.append((f"k({r},{m})={k}", f"k({r_got},{m_got})={k_got}"))
        claims.append((f"detB={det_rows}", f"detB={det_rows_got}"))
        claims.append((f"detL={(2 ** ((1 << m) - k)) ** 2}", f"detL={det_lattice}"))
    return claims


def _first_order_allones_rows(m: int) -> list[list[int]]:
    """B(1, m) with the first row rewritten as the all-ones vector.

    Adding row 2 to row 1 is an integer row operation, so the row lattice
    is unchanged; the closed submatrix determinant formulas below are
    stated for this variant.
    """
    rows = reed_muller_generators(1, m)
    rows[0] = [a + b for a, b in zip(rows[0], rows[1])]
    return rows


def _check_rm_row_determinants(ctx):
    """First-order generator matrices: full and submatrix determinants."""
    claims = []
    for m in range(2, 6):
        gram = gram_matrix(reed_muller_generators(1, m))
        prime = gram_matrix(_first_order_allones_rows(m))
        expect_full = 4 * 2 ** ((m - 2) * (m + 1))
        claims.append((f"det(1,{m})={expect_full}", f"det(1,{m})={det_int(gram)}"))
        # the Gram matrix of a subset of rows is a principal submatrix
        for size in range(1, m + 2):
            for subset in combinations(range(m + 1), size):
                got = det_int([[prime[i][j] for j in subset] for i in subset])
                expect = (4 if 0 in subset else 1 + size) * 2 ** ((m - 2) * size)
                claims.append((f"{m}:{subset}={expect}", f"{m}:{subset}={got}"))
        diag_even = all(g[i][i] % 2 == 0 for g in (prime, gram) for i in range(m + 1))
        claims.append((f"{m}:even diag", f"{m}:even diag" if diag_even else f"{m}:odd diag"))
    return claims


def _check_rm_first_order(ctx):
    """First-order Reed-Muller lattices: Hermite values, subratios, and E8's
    Rankin and Berge-Martinet constants at ranks 1-4."""
    claims = []
    lats = {m: reed_muller_code(1, m).lattice() for m in (2, 3, 4)}
    # Hermite values: sqrt(2) at m=2, then 2^(2(m+1)/2^m)
    for m, lat in lats.items():
        n = 1 << m
        cert = ctx.search(lat, 1)
        expect = Radical(2, 2) if m == 2 else Radical(2) ** Fraction(2 * (m + 1), n)
        claims.append((f"gamma({n},1)={expect}", f"gamma({n},1)={rankin_invariant(lat, cert)}"))
    # rank-2 subratio 3 at m=3; the Rankin invariant itself is 3 there
    lat3, prime3 = lats[3], _first_order_allones_rows(3)
    sub = Sublattice(lat3, [prime3[1], prime3[2]])
    claims.append(("ratio(8,2)=3", f"ratio(8,2)={gamma_ratio(lat3, sub)}"))
    # E8 at ranks 1-4, the known constants that `bounds` seeds from;
    # L_RM(1,3) is self-dual, so each search serves both invariants
    rm3 = reed_muller_code(1, 3)
    for l in (1, 2, 3, 4):
        fact = KNOWN_FACTS[RANKIN, 8, l].value
        got = rankin_invariant(lat3, ctx.search(lat3, l))
        claims.append((f"gamma(8,{l})={fact}", f"gamma(8,{l})={got}"))
        fact = KNOWN_FACTS[BERGE_MARTINET, 8, l].value
        got = berge_martinet_invariant(rm3, l, ctx.search)
        claims.append((f"g'(8,{l})={fact}", f"g'(8,{l})={got}"))
    # m=4, l=2: the q-hypercube plane beats the generator-row planes
    lat4, prime4 = lats[4], _first_order_allones_rows(4)
    cands = {
        "rows no1": det_int(gram_matrix([prime4[1], prime4[2]])),
        "rows with1": det_int(gram_matrix([prime4[0], prime4[1]])),
        "2Z^2": 16,
    }
    best = min(cands, key=lambda k: (cands[k], k))
    claims.append((
        "m=4 min cand=2Z^2 (16 < 48 <= 64)",
        f"m=4 min cand={best} ({cands['2Z^2']} < {cands['rows no1']} <= {cands['rows with1']})",
    ))
    rows2z = [[2 if j == 0 else 0 for j in range(16)], [2 if j == 1 else 0 for j in range(16)]]
    sub2z = Sublattice(lat4, rows2z)
    # det quotient: 16 / (2^22)^(1/8) = 2^(5/4)
    claims.append(
        (f"ratio(16,2)={Radical(2) ** Fraction(5, 4)}", f"ratio(16,2)={gamma_ratio(lat4, sub2z)}")
    )
    # l = 3, 4 at m = 3: both subratios are 4
    for l in (3, 4):
        sub_l = Sublattice(lat3, prime3[:l])
        claims.append((f"ratio(8,{l})=4", f"ratio(8,{l})={gamma_ratio(lat3, sub_l)}"))
    return claims


E8_GRAM = (
    (2, 1, 1, 1, 1, 1, 0, 1),
    (1, 2, 1, 1, 1, 0, 1, 1),
    (1, 1, 2, 1, 0, 1, 1, 1),
    (1, 1, 1, 2, 1, 1, 1, 0),
    (1, 1, 0, 1, 2, 0, 0, 0),
    (1, 0, 1, 1, 0, 2, 0, 0),
    (0, 1, 1, 1, 0, 0, 2, 0),
    (1, 1, 1, 0, 0, 0, 0, 2),
)


def _check_e8_gram(ctx):
    """The 8x8 even unimodular Gram matrix and its code construction."""
    even = all(E8_GRAM[i][i] % 2 == 0 for i in range(8))
    doubled = tuple(tuple(2 * e for e in row) for row in E8_GRAM)
    same = extended_hamming_code().lattice().gram == doubled
    return [
        ("det=1", f"det={det_int([list(r) for r in E8_GRAM])}"),
        ("even", "even" if even else "odd"),
        ("gram(L_EH)=2*G", "gram(L_EH)=2*G" if same else "gram mismatch"),
    ]


def _check_rm_last_order(ctx):
    """R(m-1, m) is the single parity check code; values are consistent."""
    claims = []
    for m in (2, 3, 4):
        n = 1 << m
        lat = reed_muller_code(m - 1, m).lattice()
        same = lat == parity_check_code(n, 2).lattice()
        claims.append((f"m={m} same lattice", f"m={m} same lattice" if same else f"m={m} differ"))
        cert1 = ctx.search(lat, 1)
        expect1 = Radical(Fraction(2 ** n, 4), n)  # 2 / 2^(2/n)
        claims.append((f"gamma({n},1)={expect1}", f"gamma({n},1)={rankin_invariant(lat, cert1)}"))
        prime = _first_order_allones_rows(m)
        sub2 = Sublattice(lat, [prime[1], prime[2]])
        expect2 = Radical(Fraction((3 * 4 ** (m - 2)) ** n, 16), n)
        claims.append((f"ratio({n},2)={expect2}", f"ratio({n},2)={gamma_ratio(lat, sub2)}"))
        if m >= 3:
            sub3 = Sublattice(lat, prime[:3])
            expect3 = Radical(Fraction((4 * 2 ** (3 * (m - 2))) ** n, 4 ** 3), n)
            claims.append((f"ratio({n},3)={expect3}", f"ratio({n},3)={gamma_ratio(lat, sub3)}"))
    # at m=2 the rank-2 upper bound from the subratio is attained: 3/2
    lat4 = parity_check_code(4, 2).lattice()
    cert = ctx.search(lat4, 2)
    fact = KNOWN_FACTS[RANKIN, 4, 2].value
    claims.append((f"gamma(4,2)={fact}", f"gamma(4,2)={rankin_invariant(lat4, cert)}"))
    return claims


def _check_dual_parity_check(ctx):
    """Dual of the single parity check code: minima, d2 formula, invariants."""

    # one code object per (n, q), so that its lattice and dual are built once
    code = functools.cache(parity_check_code)

    def gamma_prime(n, q, l):
        return berge_martinet_invariant(code(n, q), l, ctx.search)

    claims = []
    # d1 of the dual-code lattice and the rank-1 dual invariant
    for q in DUAL_Q:
        for n in PARITY_N:
            got, _ = lattice_minimum(dual_code(code(n, q)).lattice())
            claims.append((f"d1*(n={n},q={q})={min(n, q * q)}", f"d1*(n={n},q={q})={got}"))
            expect1 = Radical(Fraction(2 * min(n, q * q), q * q), 2)
            claims.append((f"g'1={expect1}", f"g'1={gamma_prime(n, q, 1)}"))
    # q = 2 rank-1 values: 1 at n = 2, the known constants at n = 3, 4, 5
    for n in (2, 3, 4, 5):
        expect = KNOWN_FACTS[BERGE_MARTINET, n, 1].value if n > 2 else Radical(1)
        claims.append((f"g'({n},1)={expect}", f"g'({n},1)={gamma_prime(n, 2, 1)}"))
    # d2 of the dual-code lattice
    for q in DUAL_Q:
        for n in PARITY_N:
            dual_lat = dual_code(code(n, q)).lattice()
            cert = ctx.search(dual_lat, 2)
            expect_d2 = min(q ** 4, q * q * (n - 1))
            claims.append((f"d2*(n={n},q={q})={expect_d2}", f"d2*(n={n},q={q})={cert.value}"))
            expect2 = Radical(Fraction(3 * min(q * q, n - 1), q * q), 2)
            claims.append((f"g'2={expect2}", f"g'2={gamma_prime(n, q, 2)}"))
    fact = KNOWN_FACTS[BERGE_MARTINET, 4, 2].value
    claims.append((f"g'(4,2)={fact}", f"g'(4,2)={gamma_prime(4, 2, 2)}"))
    sqrt3 = Radical(3, 2)
    for n in (5, 6, 7):
        gp = gamma_prime(n, 2, 2)
        shown = f"g'({n},2)>=sqrt3" if gp >= sqrt3 else f"g'({n},2)={gp}"
        claims.append((f"g'({n},2)>=sqrt3", shown))
    return claims


def _check_bound_intervals(ctx):
    """Interval table for the open cells, with rule provenance and decimals."""
    res = propagate_bounds(7, standard_seeds(7, ctx.search))
    targets = [
        (RANKIN, 5, 2, Radical(Fraction(243, 16), 5), Radical(2), "rule (7)", (4, 1)),
        (RANKIN, 7, 2, Radical(Fraction(2187, 16), 7), Radical(32, 3), "rule (7)", (5, 5)),
        (BERGE_MARTINET, 5, 2, Radical(3, 2), Radical(2), "rule (5)", (5, 1)),
        (BERGE_MARTINET, 7, 2, Radical(3, 2), Radical(Fraction(8, 3)), "rule (5)", (5, 5)),
    ]
    claims, rendered = [], []
    for kind, n, l, lower, upper, rule, (dl, du) in targets:
        cell = res.cell(kind, n, l)
        used = rule if any(rule in p for p in cell.provenance) else "no " + rule
        claims.append((
            f"{kind}({n},{l})=[{lower},{upper}] via {rule}",
            f"{kind}({n},{l})=[{cell.lower},{cell.upper}] via {used}",
        ))
        rendered.append((cell.lower.to_decimal(dl), cell.upper.to_decimal(du)))
    shown = [rendered[0][0], rendered[1][0], rendered[1][1], rendered[2][0], rendered[3][1]]
    claims.append(("decimals 1.723,2.0189,3.1748,1.7321,2.6667", "decimals " + ",".join(shown)))
    return claims


def _check_cardinality_bound_tightness(ctx):
    """gamma_{n,l}(L_C) <= |C|^(2l/n), attained by R(1,3) at l = 1."""
    rm = reed_muller_code(1, 3)
    lat = rm.lattice()
    g81 = rankin_invariant(lat, ctx.search(lat, 1))
    bound = Radical(Fraction(rm.cardinality)) ** Fraction(2, 8)
    violations = 0
    for code in ctx.family:
        clat = code.lattice()
        for l in (1, 2):
            c = ctx.search(clat, l)
            card = Radical(Fraction(code.cardinality))
            violations += rankin_invariant(clat, c) > card ** Fraction(2 * l, code.n)
    holds = "bound holds on corpus"
    return [
        (f"gamma(8,1)={KNOWN_FACTS[RANKIN, 8, 1].value}", f"gamma(8,1)={g81}"),
        ("cap=2", f"cap={bound}"),
        (holds, f"{violations} violations" if violations else holds),
    ]


def _form_minimum(g, radius: int) -> Fraction:
    """Brute-force minimum of a 2x2 positive form over a coefficient box.

    Valid whenever the form dominates (x^2 + y^2) / radius^2 near the
    claimed minimum; the callers use tiny hand-checked forms.
    """
    best = None
    for x in range(-radius, radius + 1):
        for y in range(-radius, radius + 1):
            if x == 0 and y == 0:
                continue
            v = Fraction(g[0][0]) * x * x + 2 * Fraction(g[0][1]) * x * y + Fraction(g[1][1]) * y * y
            if best is None or v < best:
                best = v
    return best


def _check_a2_benchmark(ctx):
    """The (2,1) value 2/sqrt(3) against the hand Gram [[2,1],[1,2]].

    This cell has no code construction (the known-values table records no
    achieving construction for it); the hexagonal Gram matrix is checked
    by direct form minima instead.  Its determinant 3 is not a perfect
    square, so no basis with integer coordinates exists and the lattice
    route cannot apply.
    """
    g = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(2)]]
    det = Fraction(det_int([[2, 1], [1, 2]]))
    primal_min = _form_minimum(g, 2)
    dual = [[g[1][1] / det, -g[0][1] / det], [-g[1][0] / det, g[0][0] / det]]
    dual_min = _form_minimum(dual, 2)
    value = (Radical(primal_min) * Radical(dual_min)) ** Fraction(1, 2)
    fact = KNOWN_FACTS[BERGE_MARTINET, 2, 1]
    source = "no code construction recorded" if fact.source == "" else f"source={fact.source}"
    return [
        (f"g'(2,1)={fact.value}", f"g'(2,1)={value}"),
        ("no code construction recorded", source),
    ]


CHECKS = (
    ("det_formula", _check_det_formula),
    ("d1_formula", _check_d1_formula),
    ("rank2_code_bound", _check_rank2_code_bound),
    ("even_lattice_rank2", _check_even_lattice_rank2),
    ("code_lattice_duality", _check_code_lattice_duality),
    ("parity_check_family", _check_parity_check_family),
    ("rm_table", _check_rm_table),
    ("rm_row_determinants", _check_rm_row_determinants),
    ("rm_first_order", _check_rm_first_order),
    ("e8_gram", _check_e8_gram),
    ("rm_last_order", _check_rm_last_order),
    ("dual_parity_check", _check_dual_parity_check),
    ("bound_intervals", _check_bound_intervals),
    ("cardinality_bound_tightness", _check_cardinality_bound_tightness),
    ("a2_benchmark", _check_a2_benchmark),
)


def run_checks(
    filter: str | None = None, random_codes: int = 200, cap: int = DEFAULT_CAP
) -> list[CheckResult]:
    """Run the suite in declared order; failures never abort the run.

    `filter` is a substring or fnmatch pattern on check ids; non-matching
    checks are reported as skipped.  `random_codes` sizes the random code
    corpus and `cap` caps the sublattice searches and codeword enumerations
    that the checks run.
    """
    ctx = _Context(cap, _family_corpus(), _random_codes(random_codes))
    results = []
    for check_id, fn in CHECKS:
        if filter and filter not in check_id and not fnmatch.fnmatch(check_id, filter):
            results.append(CheckResult(check_id, "skipped", "", "", 0))
            continue
        t0 = time.perf_counter()
        try:
            claims = fn(ctx)
            expected = "; ".join(e for e, _ in claims)
            computed = "; ".join(c for _, c in claims)
            status = "pass" if expected == computed else "fail"
            detail = ""
        except Exception as exc:  # individual failures are recorded
            expected, computed = "", ""
            status = "fail"
            detail = f"{type(exc).__name__}: {exc}"
        ms = int((time.perf_counter() - t0) * 1000)
        results.append(CheckResult(check_id, status, expected, computed, ms, detail))
    return results
