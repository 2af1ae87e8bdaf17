"""Rankin and Berge-Martinet invariants, known values, bound propagation.

Per-lattice invariants are exact radicals.  For the constants themselves
(the suprema over all lattices) the module keeps a grid of exact intervals
and tightens it with a catalog of classical inequalities.  The rule table
(the `_rule*` generators and `PROFILES`) is the one place that numbers the
catalog, states each rule, and assigns the rules to the two profiles.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .codes import LinearCode, dual_code, parity_check_code
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


class KnownFact(NamedTuple):
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


def berge_martinet_invariant(code: LinearCode, l: int, search=None) -> Radical:
    """sqrt(d_l(L_C) * d_l(L_C*)) via the dual code.

    The dual lattice never has to be materialised: d_l of the dual lattice
    is d_l of the dual-code lattice divided by q**(2l), which turns the
    invariant into (1/q**l) * sqrt(d_l(L_C) * d_l(L_{C dual})).  For a
    self-dual code the two lattices coincide, the primal certificate serves
    both, and the radical is the rational d_l(L_C) / q**l.  search(lattice,
    l) returns the SearchCertificate of one lattice; it defaults to
    `minimal_sublattice`.
    """
    if search is None:
        search = minimal_sublattice
    lattice = code.lattice()
    primal = search(lattice, l)
    dual_lattice = dual_code(code).lattice()
    dual = primal if dual_lattice == lattice else search(dual_lattice, l)
    return Radical(Fraction(primal.value * dual.value, code.q ** (2 * l)), 2)


# -- interval grid ----------------------------------------------------------


class BoundInterval:
    """Exact bounds on one constant, with the derivations that set them.

    Mutable, since propagation tightens cells in place; `upper` None means
    unbounded, and each interval gets its own `provenance` list.
    """

    __slots__ = ("kind", "n", "l", "lower", "upper", "provenance")

    def __init__(
        self,
        kind: str,
        n: int,
        l: int,
        lower: Radical,
        upper: Radical | None = None,
        provenance: list[str] | None = None,
    ):
        self.kind = kind
        self.n = n
        self.l = l
        self.lower = lower
        self.upper = upper
        self.provenance = [] if provenance is None else provenance

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in zip(self.__slots__, self._values()))
        return f"BoundInterval({inner})"

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


class PropagationResult(NamedTuple):
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


def standard_seeds(n_max: int, cap: int = 10_000_000) -> list[BoundInterval]:
    """Known facts plus this library's own lattice lower bounds.

    The single parity check code at q = 2 supplies, for every n, a rank-2
    sublattice of determinant 3 (lower bound 3/4**(2/n) on the Rankin
    constant) and, combined with its dual, the lower bound
    (1/2) * sqrt(3 * min(4, n-1)) on the Berge-Martinet constant.  `cap`
    caps every sublattice search made for these seeds.
    """

    def search(lat, rank):
        return minimal_sublattice(lat, rank, cap=cap)

    seeds = known_fact_seeds(n_max)
    for n in range(3, min(n_max, 8) + 1):
        code = parity_check_code(n, 2)
        lat = construction_a(code)
        cert = search(lat, 2)
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
        gp = berge_martinet_invariant(code, 2, search)
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


# -- the rule table ----------------------------------------------------------
#
# The inequality catalog is numbered here, once; provenance strings cite the
# numbers.  (1) holds per lattice and serves as a consistency check only:
#   (1) gamma_{n,l}(L) <= gamma_{n,1}(L)**l and
#       gamma'_{n,l}(L)**2 = gamma_{n,l}(L) * gamma_{n,l}(L*)
# Each other rule is a generator that walks the grid keys in sorted order and
# yields (cell, lower, upper, why), None for a side it does not touch.  It
# reads its source cells as it yields, so each step sees the steps before it.


def _rule2u(cells, keys):
    """(2) gamma'_{n,l} <= gamma_{n,l} <= gamma_n**l, the upper sides."""
    for kind, n, l in keys:
        if kind == RANKIN:
            src = cells[(RANKIN, n, 1)].upper
            if l >= 2 and src is not None:
                why = f"rule (2): gamma({n},{l}) <= gamma({n},1)^{l}"
                yield cells[(kind, n, l)], None, src ** l, why
        else:
            src = cells[(RANKIN, n, l)].upper
            if src is not None:
                why = f"rule (2): gamma'({n},{l}) <= gamma({n},{l})"
                yield cells[(kind, n, l)], None, src, why


def _rule2l(cells, keys):
    """(2) gamma_{n,l} >= gamma'_{n,l}, the lower side."""
    for kind, n, l in keys:
        if kind == RANKIN:
            src = cells[(BERGE_MARTINET, n, l)].lower
            yield cells[(kind, n, l)], src, None, f"rule (2): gamma({n},{l}) >= gamma'({n},{l})"


def _rule3(cells, keys):
    """(3) gamma_{n,l} = gamma_{n,n-l} and gamma'_{n,l} = gamma'_{n,n-l}."""
    for kind, n, l in keys:
        src, s = cells[(kind, n, l)], "gamma" if kind == RANKIN else "gamma'"
        why = f"rule (3): {s}({n},{l}) = {s}({n},{n - l})"
        yield cells[(kind, n, n - l)], src.lower, src.upper, why


def _rule4(cells, keys):
    """(4) gamma_{n,l} <= gamma_{h,l} * gamma_{n,h}**(l/h) for l < h < n."""
    for kind, n, l in keys:
        if kind != RANKIN:
            continue
        for h in range(l + 1, n):
            a, b = cells[(RANKIN, h, l)].upper, cells[(RANKIN, n, h)].upper
            if a is not None and b is not None:
                why = f"rule (4): gamma({n},{l}) <= gamma({h},{l}) * gamma({n},{h})^({l}/{h})"
                yield cells[(kind, n, l)], None, a * b ** Fraction(l, h), why


def _rule5a(cells, keys):
    """(5) gamma_{n,l}**n <= gamma_{n-l,l}**(n-l) * gamma'_{n,l}**(2l), n > 2l."""
    for kind, n, l in keys:
        if kind == RANKIN and n > 2 * l:
            a, b = cells[(RANKIN, n - l, l)].upper, cells[(BERGE_MARTINET, n, l)].upper
            if a is not None and b is not None:
                cand = (a ** (n - l) * b ** (2 * l)) ** Fraction(1, n)
                why = f"rule (5): gamma({n},{l})^{n} <= gamma({n - l},{l})^{n - l} * gamma'({n},{l})^{2 * l}"
                yield cells[(kind, n, l)], None, cand, why


def _rule5b(cells, keys):
    """(5) gamma'_{n,2l} <= gamma'_{n-l,l}**2, the second form."""
    for kind, n, l in keys:
        if kind == BERGE_MARTINET and l % 2 == 0:
            src = cells[(BERGE_MARTINET, n - l // 2, l // 2)].upper
            if src is not None:
                why = f"rule (5): gamma'({n},{l}) <= gamma'({n - l // 2},{l // 2})^2"
                yield cells[(kind, n, l)], None, src ** 2, why


def _rule6(cells, keys):
    """(6) gamma'_{n,n/2} = gamma_{n,n/2} for even n."""
    for kind, n, l in keys:
        if kind == RANKIN and 2 * l == n:
            a, b = cells[(RANKIN, n, l)], cells[(BERGE_MARTINET, n, l)]
            why = f"rule (6): gamma'({n},{l}) = gamma({n},{l})"
            yield b, a.lower, None, why
            yield a, b.lower, None, why
            yield b, None, a.upper, why
            yield a, None, b.upper, why


def _rule7(cells, keys):
    """(7) gamma_{n,l}**(n-2l) <= gamma_{n-l,l}**(n-l) for n > 2l."""
    for kind, n, l in keys:
        if kind == RANKIN and n > 2 * l:
            src = cells[(RANKIN, n - l, l)].upper
            if src is not None:
                why = f"rule (7): gamma({n},{l})^{n - 2 * l} <= gamma({n - l},{l})^{n - l}"
                yield cells[(kind, n, l)], None, src ** Fraction(n - l, n - 2 * l), why


def _rule8(cells, keys):
    """(8) gamma'_{2l+1,1} <= gamma'_{l+1,1}**2."""
    for kind, n, l in keys:
        if kind == BERGE_MARTINET and l == 1 and n % 2:
            src = cells[(BERGE_MARTINET, (n + 1) // 2, 1)].upper
            if src is not None:
                why = f"rule (8): gamma'({n},1) <= gamma'({(n + 1) // 2},1)^2"
                yield cells[(kind, n, l)], None, src ** 2, why


# Each profile lists its rules in the order a sweep applies them.  "published"
# holds exactly the derivations behind the published interval table, so its
# fixed point reproduces that table.  "full" adds the lower side of (2), (4)
# and the first form of (5), which tighten some open cells further (rule (4)
# with h = 4 pulls the (5,2) upper bound below 2).  Both profiles are sound.
PROFILES = {
    "published": (_rule3, _rule6, _rule7, _rule5b, _rule8, _rule2u),
    "full": (_rule3, _rule6, _rule7, _rule5b, _rule5a, _rule8, _rule2u, _rule2l, _rule4),
}


def _tighten(cell: BoundInterval, lower, upper, why: str) -> bool:
    """Raise cell.lower to `lower` and drop cell.upper to `upper` where that
    tightens them (None leaves a side alone); True if the cell changed."""
    changed = False
    if lower is not None and lower > cell.lower:
        if cell.upper is not None and lower > cell.upper:
            raise InconsistentBounds(cell, f"new lower {lower} > upper {cell.upper}")
        cell.lower = lower
        cell.provenance.append(f"lower {lower} by {why}")
        changed = True
    if upper is not None and (cell.upper is None or upper < cell.upper):
        if upper < cell.lower:
            raise InconsistentBounds(cell, f"new upper {upper} < lower {cell.lower}")
        cell.upper = upper
        cell.provenance.append(f"upper {upper} by {why}")
        changed = True
    return changed


def propagate_bounds(
    n_max: int,
    seeds: list[BoundInterval],
    rules: str = "published",
    max_sweeps: int = 64,
) -> PropagationResult:
    """Fixed point of the profile `rules` ("published" or "full") on the grid.

    Cells start at [1, unbounded] (the cubic lattice gives 1 as a universal
    lower bound).  Seeds are applied first, then rule sweeps run until no
    interval tightens; rules only ever tighten, so the iteration terminates
    well before the sweep cap, whose hit sets `cap_hit`.
    Under "full", n_max >= 11 raises ValueError: rules (4) and (5) build
    radicands past Python's 4300-digit int-to-str limit for provenance.
    """
    try:
        profile = PROFILES[rules]
    except KeyError:
        raise ValueError(f"unknown rule profile {rules!r}") from None

    cells: dict[tuple[str, int, int], BoundInterval] = {}
    for kind in (RANKIN, BERGE_MARTINET):
        for n in range(2, n_max + 1):
            for l in range(1, n):
                cells[(kind, n, l)] = BoundInterval(kind, n, l, lower=Radical(1))

    for seed in seeds:
        cell = cells.get((seed.kind, seed.n, seed.l))
        if cell is not None:
            why = seed.provenance[0] if seed.provenance else "seed"
            _tighten(cell, seed.lower, seed.upper, why)

    keys = sorted(cells)
    sweeps = 0
    while True:
        sweeps += 1
        changed = False
        for rule in profile:
            for step in rule(cells, keys):
                changed |= _tighten(*step)
        if not changed or sweeps >= max_sweeps:
            return PropagationResult(cells, sweeps, cap_hit=changed)


# -- asymptotic bounds for the half-rank constants --------------------------


class AsymptoticBounds(NamedTuple):
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
    import mpmath

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
    rounding, so the printed decimals are still valid bounds.  mpmath is
    imported here, on first use, so that no other request pays for it.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    import mpmath

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
