"""The string-id propagation engine, kept as a test oracle.

This is the package's previous `propagate_bounds`: one hand-written branch
per catalog rule, selected by string ids, with two tightening closures and a
shared changed flag.  It reads and tightens the grid in the same order as
the rule-table engine, so the tests compare the two cell by cell, provenance
list by provenance list, and sweep count by sweep count.
"""

from __future__ import annotations

from fractions import Fraction

from codelattice.exact import Radical
from codelattice.invariants import (
    BERGE_MARTINET,
    RANKIN,
    BoundInterval,
    InconsistentBounds,
    PropagationResult,
)


PUBLISHED_RULES = ("3", "6", "7", "5b", "8", "2u")
FULL_RULES = ("3", "6", "7", "5b", "5a", "8", "2u", "2l", "4")


def oracle_propagate_bounds(
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
