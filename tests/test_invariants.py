from fractions import Fraction

import pytest

from codelattice.codes import (
    dual_code,
    extended_hamming_code,
    parity_check_code,
    reed_muller_code,
)
from codelattice.exact import Radical
from codelattice.invariants import (
    BERGE_MARTINET,
    KNOWN_FACTS,
    RANKIN,
    BoundInterval,
    InconsistentBounds,
    asymptotic_bounds,
    berge_martinet_invariant,
    known_fact_seeds,
    propagate_bounds,
    rankin_invariant,
    standard_seeds,
)
from codelattice.lattices import construction_a
from codelattice.sublattice_search import minimal_sublattice
from propagation_oracle import oracle_propagate_bounds


def _gamma_of(code, l):
    lat = construction_a(code)
    cert = minimal_sublattice(lat, l, upper_hint=code.q ** (2 * l))
    return rankin_invariant(lat, cert)


def test_known_facts_table():
    assert KNOWN_FACTS[RANKIN, 6, 2].value == Radical(9, 3)
    assert KNOWN_FACTS[RANKIN, 2, 1].value == Radical(Fraction(4, 3), 2)
    assert (RANKIN, 5, 2) not in KNOWN_FACTS
    assert len(KNOWN_FACTS) == 24
    assert all(key == fact[:3] for key, fact in KNOWN_FACTS.items())
    with pytest.raises(TypeError):
        KNOWN_FACTS[RANKIN, 5, 2] = KNOWN_FACTS[RANKIN, 6, 2]
    with pytest.raises(AttributeError):
        KNOWN_FACTS[RANKIN, 6, 2].value = Radical(1)


def test_bound_interval_record():
    a = BoundInterval(RANKIN, 4, 2, lower=Radical(1))
    b = BoundInterval(RANKIN, 4, 2, lower=Radical(1))
    assert a.upper is None and a.provenance == [] and a.provenance is not b.provenance
    assert a == b
    a.provenance.append("seed")
    assert a != b and b.provenance == []
    b.provenance.append("seed")
    assert a == b
    assert a != BoundInterval(RANKIN, 4, 2, lower=Radical(1), upper=Radical(2), provenance=["seed"])
    assert a != BoundInterval(BERGE_MARTINET, 4, 2, lower=Radical(1), provenance=["seed"])
    assert repr(a) == (
        f"BoundInterval(kind='rankin', n=4, l=2, lower={Radical(1)!r}, upper=None, "
        "provenance=['seed'])"
    )


def test_rankin_examples():
    assert _gamma_of(parity_check_code(3, 2), 1) == Radical(2, 3)
    assert _gamma_of(parity_check_code(4, 2), 2) == Radical(Fraction(3, 2))
    assert _gamma_of(reed_muller_code(1, 3), 2) == Radical(3)


def test_construction_reproduces_marked_facts():
    # every exactly known cell that has a code construction is hit exactly
    marked = [
        (RANKIN, 3, 1, parity_check_code(3, 2), 1),
        (RANKIN, 4, 1, parity_check_code(4, 2), 1),
        (RANKIN, 4, 2, parity_check_code(4, 2), 2),
        (RANKIN, 5, 1, parity_check_code(5, 2), 1),
        (RANKIN, 8, 1, reed_muller_code(1, 3), 1),
        (RANKIN, 8, 2, reed_muller_code(1, 3), 2),
    ]
    for kind, n, l, code, rank in marked:
        assert _gamma_of(code, rank) == KNOWN_FACTS[kind, n, l].value
    marked_prime = [
        (BERGE_MARTINET, 3, 1, parity_check_code(3, 2), 1),
        (BERGE_MARTINET, 4, 1, parity_check_code(4, 2), 1),
        (BERGE_MARTINET, 4, 2, parity_check_code(4, 2), 2),
        (BERGE_MARTINET, 5, 1, parity_check_code(5, 2), 1),
        (BERGE_MARTINET, 8, 1, reed_muller_code(1, 3), 1),
        (BERGE_MARTINET, 8, 2, reed_muller_code(1, 3), 2),
    ]
    for kind, n, l, code, rank in marked_prime:
        assert berge_martinet_invariant(code, rank) == KNOWN_FACTS[kind, n, l].value


def test_berge_martinet_examples():
    assert berge_martinet_invariant(parity_check_code(3, 2), 1) == Radical(Fraction(3, 2), 2)
    assert berge_martinet_invariant(extended_hamming_code(), 2) == Radical(3)
    assert berge_martinet_invariant(parity_check_code(4, 2), 2) == Radical(Fraction(3, 2))


def _two_search_berge_martinet(code, l):
    """sqrt(d_l(L_C) * d_l(L_{C dual})) / q**l from two explicit searches."""
    hint = code.q ** (2 * l)
    primal = minimal_sublattice(construction_a(code), l, upper_hint=hint)
    dual = minimal_sublattice(construction_a(dual_code(code)), l, upper_hint=hint)
    return Radical(Fraction(primal.value * dual.value, code.q ** (2 * l)), 2)


def test_self_dual_paths_agree():
    for code in (extended_hamming_code(), reed_muller_code(1, 3)):
        for l in (1, 2):
            value = berge_martinet_invariant(code, l)
            assert value == _two_search_berge_martinet(code, l)
            assert value.is_rational()
    # a code that is not self-dual searches its dual lattice
    code = parity_check_code(3, 2)
    assert berge_martinet_invariant(code, 1) == _two_search_berge_martinet(code, 1)


def test_standard_seeds_search_each_lattice_once(monkeypatch):
    # per n, the primal lattice once (its Rankin and Berge-Martinet seeds
    # share the search) and the dual lattice once
    import codelattice.invariants as invariants

    searched = []

    def counted(lattice, l, **kwargs):
        searched.append((lattice.basis, l))
        return minimal_sublattice(lattice, l, **kwargs)

    monkeypatch.setattr(invariants, "minimal_sublattice", counted)
    standard_seeds(8)
    assert len(searched) == 12 == len(set(searched))


def test_lattice_seeds_cover_every_n():
    # D_9 and D_10 seed their rank-2 cells and, by rule (3), the mirror
    # cells at l = n - 2: the lower bounds are their invariants, not 1
    seeds = standard_seeds(10)
    d9 = parity_check_code(9, 2).lattice()
    gamma92 = rankin_invariant(d9, minimal_sublattice(d9, 2))
    for rules in ("published", "full"):
        res = propagate_bounds(10, seeds, rules)
        assert res.cell(RANKIN, 9, 2).lower == gamma92 > 1
        assert res.cell(RANKIN, 9, 7).lower == gamma92
        assert res.cell(RANKIN, 10, 2).lower.to_decimal(6) == "2.27357"
        for n in (9, 10):
            assert res.cell(BERGE_MARTINET, n, 2).lower == Radical(3, 2)
            assert res.cell(BERGE_MARTINET, n, n - 2).lower == Radical(3, 2)


def test_rankin_certificate_validation():
    lat = construction_a(parity_check_code(4, 2))
    other = construction_a(parity_check_code(5, 2))
    cert = minimal_sublattice(other, 1)
    with pytest.raises(ValueError):
        rankin_invariant(lat, cert)


def test_propagation_published_targets():
    res = propagate_bounds(7, standard_seeds(7))
    assert not res.cap_hit

    c = res.cell(RANKIN, 5, 2)
    assert c.lower == Radical(Fraction(243, 16), 5)
    assert c.upper == Radical(2)
    assert any("rule (7)" in p for p in c.provenance)
    assert c.lower.to_decimal(4) == "1.723"

    c = res.cell(RANKIN, 7, 2)
    assert c.lower == Radical(Fraction(2187, 16), 7)
    assert c.upper == Radical(32, 3)
    assert any("rule (7)" in p for p in c.provenance)
    assert c.lower.to_decimal(5) == "2.0189"
    assert c.upper.to_decimal(5) == "3.1748"

    c = res.cell(BERGE_MARTINET, 5, 2)
    assert c.lower == Radical(3, 2)
    assert c.upper == Radical(2)
    assert any("rule (5)" in p for p in c.provenance)
    assert c.lower.to_decimal(5) == "1.7321"

    c = res.cell(BERGE_MARTINET, 7, 2)
    assert c.lower == Radical(3, 2)
    assert c.upper == Radical(Fraction(8, 3))
    assert any("rule (5)" in p for p in c.provenance)
    assert c.upper.to_decimal(5) == "2.6667"


def test_propagation_monotone_and_consistent():
    res = propagate_bounds(8, standard_seeds(8))
    for (kind, n, l), cell in res.cells.items():
        if cell.upper is not None:
            assert cell.lower <= cell.upper
        # duality symmetry holds at the fixed point
        mirror = res.cell(kind, n, n - l)
        assert mirror.lower == cell.lower
        assert mirror.upper == cell.upper
    # rule (2): the prime upper never exceeds the plain upper
    for (kind, n, l), cell in res.cells.items():
        if kind == BERGE_MARTINET and cell.upper is not None:
            plain = res.cell(RANKIN, n, l)
            if plain.upper is not None:
                assert cell.upper <= plain.upper


def test_exact_cells_stay_exact():
    res = propagate_bounds(8, standard_seeds(8))
    for fact in KNOWN_FACTS.values():
        if fact.n <= 8:
            cell = res.cell(fact.kind, fact.n, fact.l)
            assert cell.lower == fact.value
            assert cell.upper == fact.value


def test_full_profile_tightens():
    res = propagate_bounds(7, standard_seeds(7), rules="full")
    c52 = res.cell(RANKIN, 5, 2)
    # rule (2) lower raises to sqrt(3); rule (4) with h=4 drops the upper
    assert c52.lower == Radical(3, 2)
    assert c52.upper < Radical(2)
    assert c52.lower <= c52.upper
    c72 = res.cell(RANKIN, 7, 2)
    assert c72.upper < Radical(32, 3)


def test_inconsistent_seeds_raise():
    bad = known_fact_seeds(5) + [
        BoundInterval(RANKIN, 4, 2, lower=Radical(7), provenance=["bogus seed"])
    ]
    with pytest.raises(InconsistentBounds) as err:
        propagate_bounds(5, bad)
    assert "bogus seed" in str(err.value) or "known value" in str(err.value)


def test_unknown_rule_profile():
    with pytest.raises(ValueError):
        propagate_bounds(5, [], rules="nonsense")


def test_sweep_cap_reported():
    res = propagate_bounds(7, standard_seeds(7), max_sweeps=1)
    assert res.sweeps == 1
    assert res.cap_hit
    full = propagate_bounds(7, standard_seeds(7))
    assert not full.cap_hit
    assert full.sweeps > 1


def _same_result(got, want):
    assert list(got.cells) == list(want.cells)
    for key, cell in want.cells.items():
        other = got.cells[key]
        assert (other.lower, other.upper, other.provenance) == (
            cell.lower, cell.upper, cell.provenance
        ), key
    assert (got.sweeps, got.cap_hit) == (want.sweeps, want.cap_hit)


@pytest.mark.parametrize("n_max", range(2, 11))
def test_matches_string_id_oracle(n_max):
    seed_sets = {
        "standard": standard_seeds(n_max),
        "known": known_fact_seeds(n_max),
        "none": [],
    }
    for seeds in seed_sets.values():
        for rules in ("published", "full"):
            for max_sweeps in (1, 2, 3, 64):
                _same_result(
                    propagate_bounds(n_max, seeds, rules=rules, max_sweeps=max_sweeps),
                    oracle_propagate_bounds(n_max, seeds, rules=rules, max_sweeps=max_sweeps),
                )


@pytest.mark.parametrize(
    "bogus",
    [
        BoundInterval(RANKIN, 4, 2, lower=Radical(7), provenance=["bogus seed"]),
        BoundInterval(BERGE_MARTINET, 5, 2, lower=Radical(7), provenance=["bogus seed"]),
        BoundInterval(BERGE_MARTINET, 7, 5, lower=Radical(1), upper=Radical(1), provenance=["bogus seed"]),
    ],
)
@pytest.mark.parametrize("rules", ["published", "full"])
def test_inconsistency_matches_oracle(bogus, rules):
    seeds = standard_seeds(7) + [bogus]
    with pytest.raises(InconsistentBounds) as got:
        propagate_bounds(7, seeds, rules=rules)
    with pytest.raises(InconsistentBounds) as want:
        oracle_propagate_bounds(7, seeds, rules=rules)
    assert str(got.value) == str(want.value)


def test_asymptotic_bounds():
    import mpmath

    mpmath.mp.prec, mpmath.iv.prec = 70, 90
    try:
        b2 = asymptotic_bounds(2)
        assert (mpmath.mp.prec, mpmath.iv.prec) == (70, 90)
    finally:
        mpmath.mp.prec = mpmath.iv.prec = 53
    with pytest.raises(AttributeError):
        b2.lower = "0"
    assert b2.lower.startswith("0.16666")
    assert b2.lower_rule == "(k/12)^(k/2)"
    b4 = asymptotic_bounds(4)
    assert float(b4.lower) <= 4 <= float(b4.upper)
    b5 = asymptotic_bounds(5, digits=8)
    assert float(b5.lower) <= float(b5.upper)
    with pytest.raises(ValueError):
        asymptotic_bounds(1)


def test_asymptotic_outward_rounding():
    # 1/6 rounded down at 6 digits must end in ...66, never ...67
    assert asymptotic_bounds(2, digits=6).lower == "0.166666"
