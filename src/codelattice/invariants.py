"""Rankin and Berge-Martinet invariants, known values, bound propagation.

Per-lattice invariants are exact radicals.  For the constants themselves
(the suprema over all lattices) the module keeps a grid of exact intervals
and tightens it with a catalog of classical inequalities.  The catalog is
numbered once here and referenced by number in all provenance strings:

  (1) per-lattice only, used as consistency checks, never on the grid:
      gamma_{n,l}(L) <= gamma_{n,1}(L)**l and
      gamma'_{n,l}(L)**2 = gamma_{n,l}(L) * gamma_{n,l}(L*)
  (2) gamma'_{n,l} <= gamma_{n,l} <= gamma_n**l
  (3) gamma_{n,l} = gamma_{n,n-l} and gamma'_{n,l} = gamma'_{n,n-l}
  (4) gamma_{n,l} <= gamma_{h,l} * gamma_{n,h}**(l/h)      (l <= h <= n)
  (5) gamma_{n,l}**n <= gamma_{n-l,l}**(n-l) * gamma'_{n,l}**(2l)
      and gamma'_{n,2l} <= gamma'_{n-l,l}**2               (0 <= l <= n/2)
  (6) gamma'_{n,n/2} = gamma_{n,n/2} for even n
  (7) gamma_{n,l}**(n-2l) <= gamma_{n-l,l}**(n-l)          (n > 2l)
  (8) gamma'_{2l+1,1} <= gamma'_{l+1,1}**2

Two rule profiles exist.  The default "published" profile applies
(2)-upper, (3), (5)-second-form, (6), (7), (8): exactly the derivations
behind the published interval table this library reproduces, so the grid
endpoints match that table.  The "full" profile adds (2)-lower, (4) and
(5)-first-form, which genuinely tighten some open cells beyond the
published table (for example rule (4) with h = 4 pulls the (5,2) upper
bound below 2).  Both profiles are sound; only their fixed points differ.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import mpmath

from .codes import LinearCode, dual_code, is_self_dual, parity_check_code
from .exact import Radical
from .lattices import IntegralLattice, construction_a
from .sublattice_search import SearchCertificate, minimal_sublattice

__all__ = [
    "KnownFact",
    "BoundInterval",
    "PropagationResult",
    "InconsistentBounds",
    "RANKIN",
    "BERGE_MARTINET",
    "known_facts",
    "known_fact_seeds",
    "standard_seeds",
    "rankin_invariant",
    "berge_martinet_invariant",
    "propagate_bounds",
    "AsymptoticBounds",
    "asymptotic_bounds",
]

RANKIN = "rankin"
BERGE_MARTINET = "berge_martinet"


@dataclass(frozen=True)
class KnownFact:
    """An exactly known constant value, with the lattice achieving it."""

    kind: str
    n: int
    l: int
    value: Radical
    source: str


def known_facts() -> list[KnownFact]:
    """All exactly known Rankin / Berge-Martinet constants up to n = 8."""
    r = Radical
    f = Fraction
    facts = [
        (RANKIN, 2, 1, r(f(4, 3), 2), "A2"),
        (RANKIN, 3, 1, r(2, 3), "A3=D3"),
        (RANKIN, 4, 1, r(2, 2), "D4"),
        (RANKIN, 4, 2, r(f(3, 2)), "D4"),
        (RANKIN, 5, 1, r(8, 5), "D5"),
        (RANKIN, 6, 1, r(f(64, 3), 6), "E6"),
        (RANKIN, 6, 2, r(9, 3), "E6"),
        (RANKIN, 7, 1, r(64, 7), "E7"),
        (RANKIN, 8, 1, r(2), "E8"),
        (RANKIN, 8, 2, r(3), "E8"),
        (RANKIN, 8, 3, r(4), "E8"),
        (RANKIN, 8, 4, r(4), "E8"),
        (BERGE_MARTINET, 2, 1, r(f(4, 3), 2), ""),
        (BERGE_MARTINET, 3, 1, r(f(3, 2), 2), "D3"),
        (BERGE_MARTINET, 4, 1, r(2, 2), "D4"),
        (BERGE_MARTINET, 4, 2, r(f(3, 2)), "D4"),
        (BERGE_MARTINET, 5, 1, r(2, 2), "D5"),
        (BERGE_MARTINET, 6, 1, r(f(8, 3), 2), ""),
        (BERGE_MARTINET, 6, 2, r(2), "E6"),
        (BERGE_MARTINET, 7, 1, r(3, 2), ""),
        (BERGE_MARTINET, 8, 1, r(2), "E8"),
        (BERGE_MARTINET, 8, 2, r(3), "E8"),
        (BERGE_MARTINET, 8, 3, r(4), "E8"),
        (BERGE_MARTINET, 8, 4, r(4), "E8"),
    ]
    return [KnownFact(*t) for t in facts]


def known_fact(kind: str, n: int, l: int) -> KnownFact | None:
    for fact in known_facts():
        if (fact.kind, fact.n, fact.l) == (kind, n, l):
            return fact
    return None


# -- per-lattice invariants ------------------------------------------------


def rankin_invariant(lattice: IntegralLattice, cert: SearchCertificate) -> Radical:
    """d_l(L) / det(L)**(l/n) from a search certificate for L."""
    w = cert.witness
    if w.ambient is not lattice and w.ambient != lattice:
        raise ValueError("certificate does not belong to this lattice")
    if w.det_l != cert.value:
        raise ValueError("certificate witness does not match its value")
    n, l = lattice.n, cert.l
    return Radical(Fraction(cert.value ** n, lattice.det_gram ** l), n)


def berge_martinet_invariant(
    code: LinearCode,
    l: int,
    shortcut: bool | None = None,
    search=None,
) -> Radical:
    """sqrt(d_l(L_C) * d_l(L_C*)) via the dual code.

    The dual lattice never has to be materialised: d_l of the dual lattice
    is d_l of the dual-code lattice divided by q**(2l), which turns the
    invariant into (1/q**l) * sqrt(d_l(L_C) * d_l(L_{C dual})).

    shortcut=None auto-detects self-dual codes and then returns the exact
    rational d_l(L_C) / q**l; shortcut=False forces the generic two-search
    path (the two agree exactly, which the test suite asserts).
    """
    if search is None:
        def search(lat, rank, hint):
            return minimal_sublattice(lat, rank, upper_hint=hint)

    q = code.q
    hint = q ** (2 * l)
    primal = search(construction_a(code), l, hint)
    use_shortcut = is_self_dual(code) if shortcut is None else shortcut
    if use_shortcut:
        if not is_self_dual(code):
            raise ValueError("self-dual shortcut requested for a non-self-dual code")
        return Radical(Fraction(primal.value, q ** l))
    dual = search(construction_a(dual_code(code)), l, hint)
    return Radical(Fraction(primal.value * dual.value, q ** (2 * l)), 2)


# -- interval grid ----------------------------------------------------------


@dataclass
class BoundInterval:
    """Exact bounds on one constant, with the derivations that set them."""

    kind: str
    n: int
    l: int
    lower: Radical
    upper: Radical | None = None
    provenance: list[str] = field(default_factory=list)

    def is_exact(self) -> bool:
        return self.upper is not None and self.lower == self.upper


class InconsistentBounds(ValueError):
    def __init__(self, cell: BoundInterval, detail: str):
        self.cell = cell
        chain = "; ".join(cell.provenance)
        super().__init__(
            f"inconsistent bounds for {cell.kind}({cell.n},{cell.l}): "
            f"{detail}; provenance: {chain}"
        )


@dataclass
class PropagationResult:
    cells: dict[tuple[str, int, int], BoundInterval]
    sweeps: int
    cap_hit: bool

    def cell(self, kind: str, n: int, l: int) -> BoundInterval:
        return self.cells[(kind, n, l)]


def known_fact_seeds(n_max: int) -> list[BoundInterval]:
    seeds = []
    for fact in known_facts():
        if fact.n <= n_max:
            src = f" ({fact.source})" if fact.source else ""
            seeds.append(
                BoundInterval(
                    fact.kind,
                    fact.n,
                    fact.l,
                    lower=fact.value,
                    upper=fact.value,
                    provenance=[f"known value{src}"],
                )
            )
    return seeds


def standard_seeds(n_max: int) -> list[BoundInterval]:
    """Known facts plus this library's own lattice lower bounds.

    The single parity check code at q = 2 supplies, for every n, a rank-2
    sublattice of determinant 3 (lower bound 3/4**(2/n) on the Rankin
    constant) and, combined with its dual, the lower bound
    (1/2) * sqrt(3 * min(4, n-1)) on the Berge-Martinet constant.
    """
    seeds = known_fact_seeds(n_max)
    for n in range(3, min(n_max, 8) + 1):
        code = parity_check_code(n, 2)
        lat = construction_a(code)
        cert = minimal_sublattice(lat, 2, upper_hint=16)
        gl = rankin_invariant(lat, cert)
        seeds.append(
            BoundInterval(
                RANKIN,
                n,
                2,
                lower=gl,
                provenance=[
                    f"lattice lower bound: single parity check code, n={n}, q=2, "
                    f"rank-2 determinant {cert.value}"
                ],
            )
        )
        gp = berge_martinet_invariant(code, 2)
        seeds.append(
            BoundInterval(
                BERGE_MARTINET,
                n,
                2,
                lower=gp,
                provenance=[
                    f"lattice lower bound: single parity check code and its dual, "
                    f"n={n}, q=2"
                ],
            )
        )
    return seeds


PUBLISHED_RULES = ("3", "6", "7", "5b", "8", "2u")
FULL_RULES = ("3", "6", "7", "5b", "5a", "8", "2u", "2l", "4")


def propagate_bounds(
    n_max: int,
    seeds: list[BoundInterval],
    rules: str = "published",
    max_sweeps: int = 64,
) -> PropagationResult:
    """Fixed point of the inequality catalog over the (kind, n, l) grid.

    Cells start at [1, unbounded] (the cubic lattice gives 1 as a universal
    lower bound).  Seeds are applied first, then rule sweeps run until no
    interval tightens; rules only ever tighten, so the published-profile
    iteration terminates well before the sweep cap.
    """
    if isinstance(rules, str):
        try:
            active = {"published": PUBLISHED_RULES, "full": FULL_RULES}[rules]
        except KeyError:
            raise ValueError(f"unknown rule profile {rules!r}")
    else:
        active = tuple(rules)

    cells: dict[tuple[str, int, int], BoundInterval] = {}
    for kind in (RANKIN, BERGE_MARTINET):
        for n in range(2, n_max + 1):
            for l in range(1, n):
                cells[(kind, n, l)] = BoundInterval(kind, n, l, lower=Radical(1))

    changed = [False]

    def tighten_lower(cell: BoundInterval, value: Radical, why: str):
        if value > cell.lower:
            if cell.upper is not None and value > cell.upper:
                raise InconsistentBounds(cell, f"new lower {value} > upper {cell.upper}")
            cell.lower = value
            cell.provenance.append(f"lower {value} by {why}")
            changed[0] = True

    def tighten_upper(cell: BoundInterval, value: Radical, why: str):
        if cell.upper is None or value < cell.upper:
            if value < cell.lower:
                raise InconsistentBounds(cell, f"new upper {value} < lower {cell.lower}")
            cell.upper = value
            cell.provenance.append(f"upper {value} by {why}")
            changed[0] = True

    for seed in seeds:
        if (seed.kind, seed.n, seed.l) not in cells:
            continue
        cell = cells[(seed.kind, seed.n, seed.l)]
        why = seed.provenance[0] if seed.provenance else "seed"
        tighten_lower(cell, seed.lower, why)
        if seed.upper is not None:
            tighten_upper(cell, seed.upper, why)

    sym = {RANKIN: "gamma", BERGE_MARTINET: "gamma'"}

    def mirror(kind, n, l, why):
        a = cells[(kind, n, l)]
        b = cells[(kind, n, n - l)]
        tighten_lower(b, a.lower, why)
        if a.upper is not None:
            tighten_upper(b, a.upper, why)

    def sweep():
        keys = sorted(cells)
        if "3" in active:
            for kind, n, l in keys:
                mirror(kind, n, l, f"rule (3): {sym[kind]}({n},{l}) = {sym[kind]}({n},{n - l})")
        if "6" in active:
            for n in range(2, n_max + 1, 2):
                l = n // 2
                a = cells[(RANKIN, n, l)]
                b = cells[(BERGE_MARTINET, n, l)]
                why = f"rule (6): gamma'({n},{l}) = gamma({n},{l})"
                tighten_lower(b, a.lower, why)
                tighten_lower(a, b.lower, why)
                if a.upper is not None:
                    tighten_upper(b, a.upper, why)
                if b.upper is not None:
                    tighten_upper(a, b.upper, why)
        if "7" in active:
            for kind, n, l in keys:
                if kind != RANKIN or n - 2 * l <= 0 or (RANKIN, n - l, l) not in cells:
                    continue
                src = cells[(RANKIN, n - l, l)]
                if src.upper is None:
                    continue
                cand = src.upper ** Fraction(n - l, n - 2 * l)
                tighten_upper(
                    cells[(kind, n, l)],
                    cand,
                    f"rule (7): gamma({n},{l})^{n - 2 * l} <= gamma({n - l},{l})^{n - l}",
                )
        if "5b" in active:
            for kind, n, l in keys:
                if kind != BERGE_MARTINET or l % 2 or (BERGE_MARTINET, n - l // 2, l // 2) not in cells:
                    continue
                half = l // 2
                src = cells[(BERGE_MARTINET, n - half, half)]
                if src.upper is None:
                    continue
                tighten_upper(
                    cells[(kind, n, l)],
                    src.upper ** 2,
                    f"rule (5): gamma'({n},{l}) <= gamma'({n - half},{half})^2",
                )
        if "5a" in active:
            for kind, n, l in keys:
                if kind != RANKIN or 2 * l > n or (RANKIN, n - l, l) not in cells:
                    continue
                a = cells[(RANKIN, n - l, l)]
                b = cells[(BERGE_MARTINET, n, l)]
                if a.upper is None or b.upper is None:
                    continue
                cand = (a.upper ** (n - l) * b.upper ** (2 * l)) ** Fraction(1, n)
                tighten_upper(
                    cells[(kind, n, l)],
                    cand,
                    f"rule (5): gamma({n},{l})^{n} <= "
                    f"gamma({n - l},{l})^{n - l} * gamma'({n},{l})^{2 * l}",
                )
        if "8" in active:
            for kind, n, l in keys:
                if kind != BERGE_MARTINET or l != 1 or n % 2 == 0 or n < 3:
                    continue
                half = (n + 1) // 2
                if (BERGE_MARTINET, half, 1) not in cells:
                    continue
                src = cells[(BERGE_MARTINET, half, 1)]
                if src.upper is None:
                    continue
                tighten_upper(
                    cells[(kind, n, l)],
                    src.upper ** 2,
                    f"rule (8): gamma'({n},1) <= gamma'({half},1)^2",
                )
        if "2u" in active:
            for kind, n, l in keys:
                cell = cells[(kind, n, l)]
                if kind == RANKIN and l >= 2:
                    src = cells[(RANKIN, n, 1)]
                    if src.upper is not None:
                        tighten_upper(
                            cell,
                            src.upper ** l,
                            f"rule (2): gamma({n},{l}) <= gamma({n},1)^{l}",
                        )
                if kind == BERGE_MARTINET:
                    src = cells[(RANKIN, n, l)]
                    if src.upper is not None:
                        tighten_upper(
                            cell,
                            src.upper,
                            f"rule (2): gamma'({n},{l}) <= gamma({n},{l})",
                        )
        if "2l" in active:
            for kind, n, l in keys:
                if kind != RANKIN:
                    continue
                src = cells[(BERGE_MARTINET, n, l)]
                tighten_lower(
                    cells[(kind, n, l)],
                    src.lower,
                    f"rule (2): gamma({n},{l}) >= gamma'({n},{l})",
                )
        if "4" in active:
            for kind, n, l in keys:
                if kind != RANKIN:
                    continue
                for hdim in range(l + 1, n):
                    a = cells.get((RANKIN, hdim, l))
                    b = cells.get((RANKIN, n, hdim))
                    if a is None or b is None or a.upper is None or b.upper is None:
                        continue
                    cand = a.upper * b.upper ** Fraction(l, hdim)
                    tighten_upper(
                        cells[(kind, n, l)],
                        cand,
                        f"rule (4): gamma({n},{l}) <= "
                        f"gamma({hdim},{l}) * gamma({n},{hdim})^({l}/{hdim})",
                    )

    sweeps = 0
    cap_hit = False
    while True:
        changed[0] = False
        sweep()
        sweeps += 1
        if not changed[0]:
            break
        if sweeps >= max_sweeps:
            cap_hit = True
            break
    return PropagationResult(cells, sweeps, cap_hit)


# -- asymptotic bounds for the half-rank constants --------------------------


@dataclass(frozen=True)
class AsymptoticBounds:
    """Certified decimal bounds on the order-(2k, k) Rankin constant."""

    k: int
    lower: str
    upper: str
    lower_rule: str
    upper_rule: str


def _round_sig(x, digits: int, direction: int) -> str:
    """Decimal string with `digits` significant digits, rounded outward.

    x is a zero-width interval endpoint; the scaling runs in interval
    arithmetic so the printed value never crosses the certified side.
    """
    iv = mpmath.iv
    if x <= 0:
        raise ValueError("positive value expected")
    exp10 = int(mpmath.floor(mpmath.log10(mpmath.mpf(x.a))))
    m = 0
    for _ in range(4):
        scaled = x * iv.mpf(10) ** (digits - 1 - exp10)
        if direction < 0:
            m = int(mpmath.floor(mpmath.mpf(scaled.a)))
        else:
            m = int(mpmath.ceil(mpmath.mpf(scaled.b)))
        if m < 10 ** (digits - 1):
            exp10 -= 1
        elif m >= 10 ** digits:
            exp10 += 1
        else:
            break
    t = exp10 + 1  # digits before the decimal point
    digs = str(m)
    if t >= digits:
        return digs + "0" * (t - digits)
    if t >= 1:
        return digs[:t] + "." + digs[t:]
    return "0." + "0" * (-t) + digs


def asymptotic_bounds(k: int, digits: int = 6) -> AsymptoticBounds:
    """Evaluate the two displayed bound pairs on the (2k, k) constant.

    The base pair (valid for k >= 2) is (k/12)**(k/2) below and
    (1 + k/2)**(k ln 2 + 1/2) above.  For k >= 5 an improved pair with
    constants pi and e is also evaluated and the tighter side is kept.
    All arithmetic runs in interval arithmetic at 120 bits with outward
    rounding, so the printed decimals are still valid bounds.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    iv = mpmath.iv
    old_prec = iv.prec
    old_mp_prec = mpmath.mp.prec
    iv.prec = 120
    mpmath.mp.prec = 120
    try:
        kk = iv.mpf(k)
        lows = [((kk / 12) ** (kk / 2), "(k/12)^(k/2)")]
        ups = [((1 + kk / 2) ** (kk * iv.log(2) + iv.mpf(1) / 2),
                "(1+k/2)^(k ln2 + 1/2)")]
        if k >= 5:
            pi = iv.pi
            lows.append(
                (
                    4 / (pi ** 2 * iv.sqrt(kk))
                    * (2 * kk / (pi * iv.exp(iv.mpf(3) / 2))) ** (kk / 2),
                    "4/(pi^2 sqrt(k)) (2k/(pi e^(3/2)))^(k/2)",
                )
            )
            ups.append(
                (
                    iv.exp(9)
                    * (iv.mpf(833) / 10000) ** (kk / 2)
                    * ((4 * kk - 1) / 17) ** (kk / (4 * kk - 2))
                    * (kk - iv.mpf(1) / 2) ** (kk * iv.log(2)),
                    "e^9 (0.0833)^(k/2) ((4k-1)/17)^(k/(4k-2)) (k-1/2)^(k ln2)",
                )
            )
        # Valid lower bound: the lower endpoint of each interval.  Keep the
        # largest lower and the smallest upper.
        lo_val, lo_rule = max(
            ((b.a, rule) for b, rule in lows), key=lambda t: mpmath.mpf(t[0].a)
        )
        up_val, up_rule = min(
            ((b.b, rule) for b, rule in ups), key=lambda t: mpmath.mpf(t[0].a)
        )
        return AsymptoticBounds(
            k,
            _round_sig(lo_val, digits, -1),
            _round_sig(up_val, digits, +1),
            lo_rule,
            up_rule,
        )
    finally:
        iv.prec = old_prec
        mpmath.mp.prec = old_mp_prec
