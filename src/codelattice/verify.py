"""Cross-validation suite: formula layer against the search oracle.

Every check pins an exactly known value or a closed-form formula for one
of the classical code/lattice families and recomputes it end to end with
the independent machinery (codeword closure, HNF determinants, complete
enumeration, certified sublattice search).  A check passes iff the
expected and computed renderings agree exactly; there are no tolerances
anywhere, decimals are display only.

The constants for cells like (5,2) or (7,2) are open problems: the suite
certifies per-lattice values and implication-derived intervals only, and
the report states this explicitly.
"""

from __future__ import annotations

import fnmatch
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from .codes import (
    LinearCode,
    dual_code,
    extended_hamming_code,
    full_code,
    parity_check_code,
    reed_muller_code,
    reed_muller_generators,
    weight_report,
)
from .exact import Radical
from .invariants import (
    BERGE_MARTINET,
    RANKIN,
    berge_martinet_invariant,
    known_fact,
    propagate_bounds,
    rankin_invariant,
    standard_seeds,
)
from .lattices import (
    IntegralLattice,
    canonical_json,
    construction_a,
    det_int,
    gamma_ratio,
    gram_matrix,
    hnf,
    inverse_times,
    is_even,
    sublattice_from_rows,
)
from .enumeration import CertificateError, lattice_minimum
from .sublattice_search import minimal_sublattice, rank2_code_bound

__all__ = ["CheckResult", "run_checks", "render_report", "OPEN_CONSTANTS_NOTE"]

OPEN_CONSTANTS_NOTE = (
    "note: the suite certifies per-lattice values and implication-derived "
    "intervals only; interval cells such as (5,2) and (7,2) are open "
    "constants whose exact values are not claimed or reproducible here."
)


@dataclass
class CheckResult:
    check_id: str
    status: str  # "pass" | "fail" | "skipped"
    expected: str
    computed: str
    runtime_ms: int
    detail: str = ""


# Sweep ranges of the parity check checks and the seed of the random corpus.
PARITY_N = (3, 7)
PRIMAL_Q = (2, 5)
DUAL_Q = (2, 3)
SEED = 20240


@dataclass
class _Config:
    random_codes: int
    cap: int


def _random_codes(cfg: _Config) -> list[LinearCode]:
    rng = random.Random(SEED)
    out = []
    for _ in range(cfg.random_codes):
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


def _search(lattice, l, hint, cfg: _Config):
    return minimal_sublattice(lattice, l, upper_hint=hint, cap=cfg.cap)


# -- individual checks ------------------------------------------------------


def _check_det_formula(cfg):
    """det of the code lattice equals (q^n / |C|)^2, |C| counted directly."""
    pairs = []
    for code in _family_corpus() + _random_codes(cfg)[:40]:
        count = len(code.codewords())
        lat = construction_a(code)
        pairs.append((Fraction(code.q ** code.n, count) ** 2, lat.det_gram))
        if count != code.cardinality:
            raise CertificateError(
                f"{count} codewords counted, cardinality {code.cardinality} from the lattice"
            )
    expected = "; ".join(str(a) for a, _ in pairs)
    computed = "; ".join(str(Fraction(b)) for _, b in pairs)
    return expected, computed


def _check_d1_formula(cfg):
    """Minimum of the code lattice equals min(q^2, d_E)."""
    mismatches = []
    total = 0
    for code in _family_corpus() + _random_codes(cfg):
        total += 1
        q = code.q
        try:
            de = weight_report(code, cfg.cap).d_euclidean
        except ValueError:
            de = None  # zero code
        expect = q * q if de is None else min(q * q, de)
        got, _ = lattice_minimum(construction_a(code))
        if got != expect:
            mismatches.append((code.q, code.n, expect, got))
    return f"0 mismatches on {total} codes", (
        f"{len(mismatches)} mismatches on {total} codes"
        + (f": {mismatches[:3]}" if mismatches else "")
    )


def _check_rank2_code_bound(cfg):
    """Rank-2 bound min(q^4, q^2 (d_E - b^2)) is valid; tight on R(1,3)."""
    violations = 0
    total = 0
    for code in _family_corpus() + _random_codes(cfg)[:40]:
        if code.n < 2 or not code.generators:
            continue
        total += 1
        bound = rank2_code_bound(code)
        cert = _search(construction_a(code), 2, code.q ** 4, cfg)
        if cert.value > bound:
            violations += 1
    rm = reed_muller_code(1, 3)
    bound_rm = rank2_code_bound(rm)
    d2_rm = _search(construction_a(rm), 2, 16, cfg).value
    gamma_bound = Radical(min(Fraction(1), Fraction(bound_rm, 16)), 1) * Radical(
        Fraction(rm.cardinality), 1
    ) ** Fraction(4, 8)
    expected = f"valid on {total}; tight bound 12 = d2 12; gamma bound 3"
    computed = (
        f"valid on {total - violations}; tight bound {bound_rm} = d2 {d2_rm}; "
        f"gamma bound {gamma_bound}"
    )
    return expected, computed


def _check_even_lattice_rank2(cfg):
    """Even lattices have rank-2 sublattice determinants >= 3."""
    parts_e, parts_c = [], []
    for n in range(3, 8):
        lat = construction_a(parity_check_code(n, 2))
        d2 = _search(lat, 2, 16, cfg).value
        parts_e.append("even d2>=3")
        parts_c.append(
            "even d2>=3" if is_even(lat) and d2 >= 3 else f"violation n={n}"
        )
    rm_lat = construction_a(reed_muller_code(1, 3))
    d2 = _search(rm_lat, 2, 16, cfg).value
    parts_e.append("even d2>=3")
    parts_c.append("even d2>=3" if is_even(rm_lat) and d2 >= 3 else "violation RM")
    zn = IntegralLattice.from_rows([[1 if j == i else 0 for j in range(4)] for i in range(4)])
    parts_e.append("Z^4 odd")
    parts_c.append("Z^4 odd" if not is_even(zn) else "Z^4 even?!")
    return "; ".join(parts_e), "; ".join(parts_c)


def _check_code_lattice_duality(cfg):
    """q/dual-basis round trip, |C||Cdual| = q^n, unimodular iff self-dual."""
    bad = []
    corpus = _family_corpus() + _random_codes(cfg)[:40]
    for code in corpus:
        q, n = code.q, code.n
        lat = code.lattice()
        dual = dual_code(code)
        # round trip: HNF of q * (basis^{-1})^T equals the dual-code basis
        scaled_inv = inverse_times([list(r) for r in lat.basis], q)
        dual_rows = [[scaled_inv[i][j] for i in range(n)] for j in range(n)]
        h, _ = hnf(dual_rows)
        if tuple(tuple(r) for r in h) != dual.lattice().basis:
            bad.append(("roundtrip", q, n))
        if code.cardinality * dual.cardinality != q ** n:
            bad.append(("cardinality", q, n))
        if any(
            sum(a * b for a, b in zip(g, gd)) % q
            for g in code.generators
            for gd in dual.generators
        ):
            bad.append(("orthogonality", q, n))
        dd = dual_code(dual)
        if dd.lattice() != lat:
            bad.append(("double dual", q, n))
        # (1/sqrt(q)) L_C is unimodular iff it is integral (Gram divisible
        # by q) with determinant 1, which must coincide with C self-dual.
        unimodular = lat.det_gram == q ** n and all(
            e % q == 0 for row in lat.gram for e in row
        )
        self_dual = lat == dual.lattice()
        if unimodular != self_dual:
            bad.append(("unimodular iff self-dual", q, n))
    return f"0 violations on {len(corpus)} codes", (
        f"{len(bad)} violations on {len(corpus)} codes" + (f": {bad[:3]}" if bad else "")
    )


def _check_parity_check_family(cfg):
    """Single parity check family: Hermite values, d2 = 3, rank-2 invariant."""
    parts_e, parts_c = [], []
    for n, fact_val in ((3, Radical(2, 3)), (4, Radical(2, 2)), (5, Radical(8, 5))):
        lat = construction_a(parity_check_code(n, 2))
        cert = _search(lat, 1, 4, cfg)
        parts_e.append(f"gamma({n},1)={fact_val}")
        parts_c.append(f"gamma({n},1)={rankin_invariant(lat, cert)}")
    lo, hi = PARITY_N
    q_lo, q_hi = PRIMAL_Q
    for q in range(q_lo, q_hi + 1):
        for n in range(lo, hi + 1):
            lat = construction_a(parity_check_code(n, q))
            cert = _search(lat, 2, q ** 4, cfg)
            parts_e.append(f"d2(n={n},q={q})=3")
            parts_c.append(f"d2(n={n},q={q})={cert.value}")
            expected_gamma = Radical(Fraction(3 ** n, q ** 4), n)
            parts_e.append(f"g2={expected_gamma}")
            parts_c.append(f"g2={rankin_invariant(lat, cert)}")
    return "; ".join(parts_e), "; ".join(parts_c)


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


def _check_rm_table(cfg):
    """Reed-Muller table: generator-row Gram dets and code lattice dets."""
    parts_e, parts_c = [], []
    for m, r, k, det_rows in RM_TABLE:
        rows = reed_muller_generators(r, m)
        parts_e.append(f"k({r},{m})={k}")
        parts_c.append(f"k({r},{m})={len(rows)}")
        parts_e.append(f"detB={det_rows}")
        parts_c.append(f"detB={det_int(gram_matrix(rows))}")
        n = 1 << m
        lat = construction_a(reed_muller_code(r, m))
        parts_e.append(f"detL={(2 ** (n - k)) ** 2}")
        parts_c.append(f"detL={lat.det_gram}")
    return "; ".join(parts_e), "; ".join(parts_c)


def _first_order_allones_rows(m: int) -> list[list[int]]:
    """B(1, m) with the first row rewritten as the all-ones vector.

    Adding row 2 to row 1 is an integer row operation, so the row lattice
    is unchanged; the closed submatrix determinant formulas below are
    stated for this variant.
    """
    rows = reed_muller_generators(1, m)
    rows[0] = [a + b for a, b in zip(rows[0], rows[1])]
    return rows


def _check_rm_row_determinants(cfg):
    """First-order generator matrices: full and submatrix determinants."""
    from itertools import combinations

    parts_e, parts_c = [], []
    for m in range(2, 6):
        rows = reed_muller_generators(1, m)
        expect_full = 4 * 2 ** ((m - 2) * (m + 1))
        parts_e.append(f"det(1,{m})={expect_full}")
        parts_c.append(f"det(1,{m})={det_int(gram_matrix(rows))}")
        prime = _first_order_allones_rows(m)
        for size in range(1, m + 2):
            for subset in combinations(range(m + 1), size):
                sub = [prime[i] for i in subset]
                got = det_int(gram_matrix(sub))
                if 0 in subset:
                    expect = 4 * 2 ** ((m - 2) * size)
                else:
                    expect = (1 + size) * 2 ** ((m - 2) * size)
                parts_e.append(f"{m}:{subset}={expect}")
                parts_c.append(f"{m}:{subset}={got}")
        diag_even = all(
            gram_matrix(prime)[i][i] % 2 == 0 for i in range(m + 1)
        ) and all(gram_matrix(rows)[i][i] % 2 == 0 for i in range(m + 1))
        parts_e.append(f"{m}:even diag")
        parts_c.append(f"{m}:even diag" if diag_even else f"{m}:odd diag")
    return "; ".join(parts_e), "; ".join(parts_c)


def _check_rm_first_order(cfg):
    """First-order Reed-Muller lattices: Hermite values and subratios."""
    parts_e, parts_c = [], []
    # Hermite values: sqrt(2) at m=2, then 2^(2(m+1)/2^m)
    for m in (2, 3, 4):
        n = 1 << m
        lat = construction_a(reed_muller_code(1, m))
        cert = _search(lat, 1, 4, cfg)
        if m == 2:
            expect = Radical(2, 2)
        else:
            expect = Radical(2) ** Fraction(2 * (m + 1), n)
        parts_e.append(f"gamma({n},1)={expect}")
        parts_c.append(f"gamma({n},1)={rankin_invariant(lat, cert)}")
    # rank-2 subratio 3 at m=3; the Rankin invariant itself is 3 there
    lat3 = construction_a(reed_muller_code(1, 3))
    prime3 = _first_order_allones_rows(3)
    sub = sublattice_from_rows(lat3, [prime3[1], prime3[2]])
    parts_e.append("ratio(8,2)=3")
    parts_c.append(f"ratio(8,2)={gamma_ratio(lat3, sub)}")
    cert2 = _search(lat3, 2, 16, cfg)
    parts_e.append("gamma(8,2)=3")
    parts_c.append(f"gamma(8,2)={rankin_invariant(lat3, cert2)}")
    # m=4, l=2: the q-hypercube plane beats the generator-row planes
    lat4 = construction_a(reed_muller_code(1, 4))
    prime4 = _first_order_allones_rows(4)
    cands = {
        "rows no1": det_int(gram_matrix([prime4[1], prime4[2]])),
        "rows with1": det_int(gram_matrix([prime4[0], prime4[1]])),
        "2Z^2": 16,
    }
    best = min(cands, key=lambda k: (cands[k], k))
    parts_e.append("m=4 min cand=2Z^2 (16 < 48 <= 64)")
    parts_c.append(
        f"m=4 min cand={best} ({cands['2Z^2']} < {cands['rows no1']} <= {cands['rows with1']})"
    )
    rows2z = [[2 if j == 0 else 0 for j in range(16)], [2 if j == 1 else 0 for j in range(16)]]
    sub2z = sublattice_from_rows(lat4, rows2z)
    # det quotient: 16 / (2^22)^(1/8) = 2^(5/4)
    parts_e.append(f"ratio(16,2)={Radical(2) ** Fraction(5, 4)}")
    parts_c.append(f"ratio(16,2)={gamma_ratio(lat4, sub2z)}")
    # l = 3, 4 at m = 3: both subratios are 4
    for l in (3, 4):
        sub_l = sublattice_from_rows(lat3, prime3[:l])
        parts_e.append(f"ratio(8,{l})=4")
        parts_c.append(f"ratio(8,{l})={gamma_ratio(lat3, sub_l)}")
    return "; ".join(parts_e), "; ".join(parts_c)


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


def _check_e8_gram(cfg):
    """The 8x8 even unimodular Gram matrix and its code construction."""
    parts_e, parts_c = [], []
    parts_e.append("det=1")
    parts_c.append(f"det={det_int([list(r) for r in E8_GRAM])}")
    parts_e.append("even")
    parts_c.append("even" if all(E8_GRAM[i][i] % 2 == 0 for i in range(8)) else "odd")
    lat = construction_a(extended_hamming_code())
    doubled = tuple(tuple(2 * e for e in row) for row in E8_GRAM)
    parts_e.append("gram(L_EH)=2*G")
    parts_c.append("gram(L_EH)=2*G" if lat.gram == doubled else "gram mismatch")
    return "; ".join(parts_e), "; ".join(parts_c)


def _check_rm_last_order(cfg):
    """R(m-1, m) is the single parity check code; values are consistent."""
    parts_e, parts_c = [], []
    for m in (2, 3, 4):
        n = 1 << m
        rm = reed_muller_code(m - 1, m)
        pc = parity_check_code(n, 2)
        lat = construction_a(rm)
        parts_e.append(f"m={m} same lattice")
        parts_c.append(
            f"m={m} same lattice" if lat == construction_a(pc) else f"m={m} differ"
        )
        cert1 = _search(lat, 1, 4, cfg)
        expect1 = Radical(Fraction(2 ** n, 4), n)  # 2 / 2^(2/n)
        parts_e.append(f"gamma({n},1)={expect1}")
        parts_c.append(f"gamma({n},1)={rankin_invariant(lat, cert1)}")
        prime = _first_order_allones_rows(m)
        sub2 = sublattice_from_rows(lat, [prime[1], prime[2]])
        expect2 = Radical(Fraction((3 * 4 ** (m - 2)) ** n, 16), n)
        parts_e.append(f"ratio({n},2)={expect2}")
        parts_c.append(f"ratio({n},2)={gamma_ratio(lat, sub2)}")
        if m >= 3:
            sub3 = sublattice_from_rows(lat, prime[:3])
            expect3 = Radical(Fraction((4 * 2 ** (3 * (m - 2))) ** n, 4 ** 3), n)
            parts_e.append(f"ratio({n},3)={expect3}")
            parts_c.append(f"ratio({n},3)={gamma_ratio(lat, sub3)}")
    # at m=2 the rank-2 upper bound from the subratio is attained: 3/2
    lat4 = construction_a(parity_check_code(4, 2))
    cert = _search(lat4, 2, 16, cfg)
    parts_e.append("gamma(4,2)=3/2")
    parts_c.append(f"gamma(4,2)={rankin_invariant(lat4, cert)}")
    return "; ".join(parts_e), "; ".join(parts_c)


def _check_dual_parity_check(cfg):
    """Dual of the single parity check code: minima, d2 formula, invariants."""
    parts_e, parts_c = [], []
    lo, hi = PARITY_N
    # d1 of the dual-code lattice and the rank-1 dual invariant
    for q in DUAL_Q:
        for n in range(lo, hi + 1):
            code = parity_check_code(n, q)
            dual = dual_code(code)
            got, _ = lattice_minimum(construction_a(dual))
            parts_e.append(f"d1*(n={n},q={q})={min(n, q * q)}")
            parts_c.append(f"d1*(n={n},q={q})={got}")
            gp1 = berge_martinet_invariant(code, 1)
            expect1 = Radical(Fraction(2 * min(n, q * q), q * q), 2)
            parts_e.append(f"g'1={expect1}")
            parts_c.append(f"g'1={gp1}")
    # q = 2 rank-1 values
    named = {2: Radical(1), 3: Radical(Fraction(3, 2), 2), 4: Radical(2, 2), 5: Radical(2, 2)}
    for n, expect in named.items():
        gp = berge_martinet_invariant(parity_check_code(n, 2), 1)
        parts_e.append(f"g'({n},1)={expect}")
        parts_c.append(f"g'({n},1)={gp}")
    # d2 of the dual-code lattice
    for q in DUAL_Q:
        for n in range(lo, hi + 1):
            dual_lat = construction_a(dual_code(parity_check_code(n, q)))
            cert = _search(dual_lat, 2, q ** 4, cfg)
            parts_e.append(f"d2*(n={n},q={q})={min(q ** 4, q * q * (n - 1))}")
            parts_c.append(f"d2*(n={n},q={q})={cert.value}")
            gp2 = berge_martinet_invariant(parity_check_code(n, q), 2)
            expect2 = Radical(Fraction(3 * min(q * q, n - 1), q * q), 2)
            parts_e.append(f"g'2={expect2}")
            parts_c.append(f"g'2={gp2}")
    gp42 = berge_martinet_invariant(parity_check_code(4, 2), 2)
    parts_e.append("g'(4,2)=3/2")
    parts_c.append(f"g'(4,2)={gp42}")
    sqrt3 = Radical(3, 2)
    for n in (5, 6, 7):
        gp = berge_martinet_invariant(parity_check_code(n, 2), 2)
        parts_e.append(f"g'({n},2)>=sqrt3")
        parts_c.append(f"g'({n},2)>=sqrt3" if gp >= sqrt3 else f"g'({n},2)={gp}")
    return "; ".join(parts_e), "; ".join(parts_c)


def _check_bound_intervals(cfg):
    """Interval table for the open cells, with rule provenance and decimals."""
    res = propagate_bounds(7, standard_seeds(7))
    targets = [
        (RANKIN, 5, 2, Radical(Fraction(243, 16), 5), Radical(2), "rule (7)", (4, 1)),
        (RANKIN, 7, 2, Radical(Fraction(2187, 16), 7), Radical(32, 3), "rule (7)", (5, 5)),
        (BERGE_MARTINET, 5, 2, Radical(3, 2), Radical(2), "rule (5)", (5, 1)),
        (BERGE_MARTINET, 7, 2, Radical(3, 2), Radical(Fraction(8, 3)), "rule (5)", (5, 5)),
    ]
    decimals = {"expected": ["1.723", "2.0189", "3.1748", "1.7321", "2.6667"]}
    parts_e, parts_c, rendered = [], [], []
    for kind, n, l, lower, upper, rule, (dl, du) in targets:
        cell = res.cell(kind, n, l)
        parts_e.append(f"{kind}({n},{l})=[{lower},{upper}] via {rule}")
        used = rule if any(rule in p for p in cell.provenance) else "no " + rule
        parts_c.append(f"{kind}({n},{l})=[{cell.lower},{cell.upper}] via {used}")
        rendered.append((cell.lower.to_decimal(dl), cell.upper.to_decimal(du)))
    shown = [rendered[0][0], rendered[1][0], rendered[1][1], rendered[2][0], rendered[3][1]]
    parts_e.append("decimals " + ",".join(decimals["expected"]))
    parts_c.append("decimals " + ",".join(shown))
    return "; ".join(parts_e), "; ".join(parts_c)


def _check_cardinality_bound_tightness(cfg):
    """gamma_{n,l}(L_C) <= |C|^(2l/n), attained by R(1,3) at l = 1."""
    rm = reed_muller_code(1, 3)
    lat = construction_a(rm)
    cert = _search(lat, 1, 4, cfg)
    g81 = rankin_invariant(lat, cert)
    cap = Radical(Fraction(rm.cardinality)) ** Fraction(2, 8)
    parts_e = ["gamma(8,1)=2", "cap=2", "bound holds on corpus"]
    violations = 0
    for code in _family_corpus():
        card = code.cardinality
        clat = construction_a(code)
        for l in (1, 2):
            if l > clat.n:
                continue
            c = _search(clat, l, code.q ** (2 * l), cfg)
            if rankin_invariant(clat, c) > Radical(Fraction(card)) ** Fraction(2 * l, code.n):
                violations += 1
    parts_c = [
        f"gamma(8,1)={g81}",
        f"cap={cap}",
        "bound holds on corpus" if violations == 0 else f"{violations} violations",
    ]
    return "; ".join(parts_e), "; ".join(parts_c)


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


def _check_a2_benchmark(cfg):
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
    fact = known_fact(BERGE_MARTINET, 2, 1)
    parts_e = [f"g'(2,1)={fact.value}", "no code construction recorded"]
    parts_c = [
        f"g'(2,1)={value}",
        "no code construction recorded" if fact.source == "" else f"source={fact.source}",
    ]
    return "; ".join(parts_e), "; ".join(parts_c)


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
    filter: str | None = None, random_codes: int = 200, cap: int = 10_000_000
) -> list[CheckResult]:
    """Run the suite in declared order; failures never abort the run.

    `filter` is a substring or fnmatch pattern on check ids; non-matching
    checks are reported as skipped.  `random_codes` sizes the random code
    corpus and `cap` is the enumeration cap of every search.
    """
    cfg = _Config(random_codes, cap)
    results = []
    for check_id, fn in CHECKS:
        if filter and filter not in check_id and not fnmatch.fnmatch(check_id, filter):
            results.append(CheckResult(check_id, "skipped", "", "", 0))
            continue
        t0 = time.perf_counter()
        try:
            expected, computed = fn(cfg)
            status = "pass" if expected == computed else "fail"
            detail = ""
        except Exception as exc:  # individual failures are recorded
            expected, computed = "", ""
            status = "fail"
            detail = f"{type(exc).__name__}: {exc}"
        ms = int((time.perf_counter() - t0) * 1000)
        results.append(CheckResult(check_id, status, expected, computed, ms, detail))
    return results


def render_report(results: list[CheckResult], fmt: str = "text") -> str:
    """Machine-readable report; one record per check plus the open-constants
    note required on every run."""
    if fmt == "json":
        doc = {
            "note": OPEN_CONSTANTS_NOTE,
            "checks": [
                {
                    "check_id": r.check_id,
                    "status": r.status,
                    "expected": r.expected,
                    "computed": r.computed,
                    "runtime_ms": r.runtime_ms,
                    "detail": r.detail,
                }
                for r in results
            ],
        }
        return canonical_json(doc)
    if fmt == "csv":
        lines = ["check_id,status,runtime_ms"]
        lines += [f"{r.check_id},{r.status},{r.runtime_ms}" for r in results]
        lines.append(f"# {OPEN_CONSTANTS_NOTE}")
        return "\n".join(lines) + "\n"
    lines = [OPEN_CONSTANTS_NOTE]
    for r in results:
        line = f"{r.status.upper():7} {r.check_id} [{r.runtime_ms} ms]"
        if r.status == "fail":
            line += f"\n        expected: {r.expected}\n        computed: {r.computed}"
            if r.detail:
                line += f"\n        detail: {r.detail}"
        lines.append(line)
    n_fail = sum(1 for r in results if r.status == "fail")
    lines.append(f"{len(results)} checks, {n_fail} failures")
    return "\n".join(lines) + "\n"
