import json
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from codelattice.codes import (
    LinearCode,
    dual_code,
    full_code,
    parity_check_code,
    rank2_code_bound,
    reed_muller_code,
)
from codelattice.enumeration import (
    HERMITE_POWER,
    CertificateError,
    EnumerationCap,
    lattice_minimum,
    short_vectors,
)
from codelattice.exact import Radical
from codelattice.invariants import KNOWN_FACTS, RANKIN, rankin_invariant
from codelattice.lattices import (
    IntegralLattice,
    NotInLattice,
    RankDeficient,
    construction_a,
    det_int,
    gram_matrix,
    is_even,
)
from codelattice.sublattice_search import (
    SearchCertificate,
    _hermite_floor,
    minimal_sublattice,
)
from closed_form_oracle import corank_one_minimum, top_rank_minimum
from search_oracle import H_FACTOR, oracle_minimal_sublattice

DATA = Path(__file__).parent / "data"


def _zn(n):
    return IntegralLattice.from_rows([[1 if j == i else 0 for j in range(n)] for i in range(n)])


def _brute_force_d2(lattice, radius):
    """Unpruned oracle: minimum Gram determinant over all candidate pairs."""
    vecs = short_vectors(lattice, radius).vectors
    best = None
    for a, b in combinations(vecs, 2):
        g = gram_matrix([a.coords, b.coords])
        d = det_int(g)
        if d > 0 and (best is None or d < best):
            best = d
    return best


def test_d2_d4_with_oracle():
    lat = construction_a(parity_check_code(4, 2))
    assert _brute_force_d2(lat, 4) == 3
    cert = minimal_sublattice(lat, 2, upper_hint=16)
    assert cert.value == 3
    assert cert.confirmed_by_escalation
    assert cert.witness.det_l == 3
    assert sorted(map(abs, (e for r in cert.witness.rows for e in r))).count(1) == 4


def test_d2_e8_with_oracle():
    lat = construction_a(reed_muller_code(1, 3))
    assert _brute_force_d2(lat, 6) == 12
    cert = minimal_sublattice(lat, 2, upper_hint=16)
    assert cert.value == 12
    assert cert.confirmed_by_escalation


def test_zn_all_ranks():
    lat = _zn(5)
    for l in (1, 2, 3, 4):
        assert minimal_sublattice(lat, l).value == 1


def test_dual_parity_formula():
    # min(q^4, q^2 (n-1)): 12 at n=4, and the two arguments tie at 16 for n=5
    lat4 = construction_a(dual_code(parity_check_code(4, 2)))
    assert _brute_force_d2(lat4, 8) == 12
    assert minimal_sublattice(lat4, 2, upper_hint=16).value == 12
    lat5 = construction_a(dual_code(parity_check_code(5, 2)))
    assert minimal_sublattice(lat5, 2, upper_hint=16).value == 16


def test_d1_matches_minimum():
    rng = random.Random(41)
    for _ in range(30):
        n = rng.randint(2, 5)
        q = rng.choice((2, 3, 4))
        k = rng.randint(1, n)
        code = LinearCode(q, n, [[rng.randrange(q) for _ in range(n)] for _ in range(k)])
        lat = construction_a(code)
        assert minimal_sublattice(lat, 1).value == lattice_minimum(lat)[0]


def test_code_lattice_upper_bound():
    rng = random.Random(42)
    for _ in range(25):
        n = rng.randint(2, 5)
        q = rng.choice((2, 3))
        k = rng.randint(1, n)
        code = LinearCode(q, n, [[rng.randrange(q) for _ in range(n)] for _ in range(k)])
        lat = construction_a(code)
        for l in (1, 2):
            cert = minimal_sublattice(lat, l, upper_hint=q ** (2 * l))
            assert cert.value <= q ** (2 * l)


def test_even_implies_d2_at_least_3():
    for n in range(3, 8):
        lat = construction_a(parity_check_code(n, 2))
        assert is_even(lat)
        assert minimal_sublattice(lat, 2, upper_hint=16).value >= 3


Q4_CODE = LinearCode(
    4,
    8,
    [[3, 2, 3, 3, 0, 0, 2, 3], [2, 3, 1, 2, 0, 2, 1, 3], [0, 1, 0, 3, 1, 0, 1, 3]],
)


def _session_corpus(count=40, seed=48):
    """Code lattices shaped like the cli-session benchmark's (n 3-7, q 2-4,
    l 1-2), each followed by its dual code's lattice, with the hint q**(2l),
    an upper bound on every code lattice's d_l; the value is not pinned."""
    rng = random.Random(seed)
    cases = []
    for i in range(count):
        n, q = rng.randint(3, 7), rng.choice((2, 3, 4))
        k = rng.randint(1, n - 1)
        code = LinearCode(q, n, [[rng.randrange(q) for _ in range(n)] for _ in range(k)])
        l = rng.randint(1, 2)
        for side, c in (("", code), ("-dual", dual_code(code))):
            lat = construction_a(c)
            cases.append(pytest.param(lat, l, q ** (2 * l), None, id=f"session{i:02d}{side}"))
    return cases


@pytest.mark.parametrize(
    "lat, l, hint, value",
    [
        pytest.param(construction_a(parity_check_code(5, 3)), 2, 81, 3,  # on the Hermite floor
                     id="parity-n5-q3-l2"),
        pytest.param(construction_a(reed_muller_code(1, 4)), 2, 256, 16, id="rm-1-4-l2"),
        pytest.param(construction_a(Q4_CODE), 2, 256, 20, id="q4-code-l2"),
        pytest.param(
            IntegralLattice.from_rows(json.loads((DATA / "rows_n5.json").read_text())["rows"]),
            3, 50, 36, id="rows-n5-l3",
        ),
        *_session_corpus(),
    ],
)
def test_hint_never_changes_result(lat, l, hint, value):
    hints = (None, hint) if value is None else (None, hint, value)
    certs = [minimal_sublattice(lat, l, upper_hint=h) for h in hints]
    assert len({c.value for c in certs}) == 1
    assert value in (None, certs[0].value)
    assert len({c.witness.rows for c in certs}) == 1
    assert len({c.per_vector_bound for c in certs}) == 1
    assert len({c.candidates_examined for c in certs}) == 1


def test_scaling_covariance():
    for s in (2, 3):
        for l in (1, 2):
            lat = construction_a(parity_check_code(4, 2))
            scaled = IntegralLattice.from_rows([[s * e for e in row] for row in lat.basis])
            a = minimal_sublattice(lat, l, upper_hint=16).value
            b = minimal_sublattice(scaled, l).value
            assert b == a * s ** (2 * l)


def test_higher_rank_on_small_lattice():
    # rank 3 and 4 on D4: brute-force oracle over all candidate triples
    lat = construction_a(parity_check_code(4, 2))
    vecs = short_vectors(lat, 4).vectors
    best3 = None
    for trio in combinations(vecs, 3):
        d = det_int(gram_matrix([v.coords for v in trio]))
        if d > 0 and (best3 is None or d < best3):
            best3 = d
    cert3 = minimal_sublattice(lat, 3, upper_hint=64)
    assert cert3.value == best3 == 4
    cert4 = minimal_sublattice(lat, 4, upper_hint=256)
    assert cert4.value == 4  # the whole D4 lattice is densest at full rank


def test_rank3_e8_matches_known_value():
    lat = construction_a(reed_muller_code(1, 3))
    cert = minimal_sublattice(lat, 3, upper_hint=64)
    # 32 is the Hermite floor 4**3 / 2: the walk at the value stops at its
    # first hit after 118 leaves, where a confirm scan evaluates 279,720
    assert (cert.value, cert.candidates_examined) == (32, 118)
    assert cert.confirmed_by_escalation
    assert rankin_invariant(lat, cert) == Radical(4)


def test_rank4_e8_pinned():
    lat = construction_a(reed_muller_code(1, 3))
    cert = minimal_sublattice(lat, 4, upper_hint=256)
    # per_vector_bound floor(gamma_4**4 * 64 / 4**3) = 4: only minimal vectors
    assert (cert.value, cert.per_vector_bound) == (64, 4)
    assert cert.witness.rows == (
        (0, 0, 0, 0, 0, 0, 0, 2),
        (0, 0, 0, 0, 0, 0, 2, 0),
        (0, 0, 0, 0, 0, 2, 0, 0),
        (0, 0, 0, 0, 1, -1, -1, -1),
    )
    assert cert.confirmed_by_escalation
    assert rankin_invariant(lat, cert) == KNOWN_FACTS[RANKIN, 8, 4].value == Radical(4)


def test_hermite_powers_match_known_facts():
    # Hermite's constants gamma_n = gamma_{n,1} as the literature states them
    # (Conway & Sloane, SPLAG ch. 1 section 2); the table's rows and the
    # search's budget gamma_n**n both come from HERMITE_POWER
    literature = {
        2: Radical(Fraction(4, 3), 2),
        3: Radical(2, 3),
        4: Radical(2, 2),
        5: Radical(8, 5),
        6: Radical(Fraction(64, 3), 6),
        7: Radical(64, 7),
        8: Radical(2),
    }
    assert HERMITE_POWER[1] == 1
    assert sorted(HERMITE_POWER) == list(range(1, 9))
    for n, gamma in literature.items():
        assert KNOWN_FACTS[RANKIN, n, 1].value == gamma
        assert Radical(HERMITE_POWER[n]) == gamma ** n


def _floor_cases(rng, count):
    """Small random code and from_rows lattices with their minimal norms."""
    cases = []
    while len(cases) < count:
        n = rng.randint(2, 4)
        if len(cases) % 2:
            rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            try:
                lat = IntegralLattice.from_rows(rows)
            except RankDeficient:
                continue
        else:
            q = rng.choice((2, 3))
            k = rng.randint(1, n)
            lat = construction_a(
                LinearCode(q, n, [[rng.randrange(q) for _ in range(n)] for _ in range(k)])
            )
        cases.append(lat)
    return cases


def test_hermite_floor_is_sound_by_brute_force():
    rng = random.Random(46)
    checked = 0
    for lat in _floor_cases(rng, 24):
        lam = lattice_minimum(lat)[0]
        vecs = [v.coords for v in short_vectors(lat, 3 * lam).vectors[:16]]
        for l in range(1, lat.n + 1):
            floor = _hermite_floor(lam, l)
            assert floor * HERMITE_POWER[l] >= lam**l > (floor - 1) * HERMITE_POWER[l]
            for rows in combinations(vecs, l):
                d = det_int(gram_matrix(rows))
                if d > 0:
                    assert d >= floor
                    checked += 1
    assert checked > 1000


def test_hint_at_floor_below_minimum_raises():
    # L_RM(1,4): lambda1**2 = 4, floor 4**2 / (4/3) = 12, but d_2 = 16
    lat = construction_a(reed_muller_code(1, 4))
    assert _hermite_floor(lattice_minimum(lat)[0], 2) == 12
    assert minimal_sublattice(lat, 2, upper_hint=16).value == 16
    with pytest.raises(CertificateError):
        minimal_sublattice(lat, 2, upper_hint=12)


def test_rank_validation():
    lat = _zn(3)
    with pytest.raises(ValueError):
        minimal_sublattice(lat, 0)
    with pytest.raises(ValueError):
        minimal_sublattice(lat, 4)  # exceeds dimension
    with pytest.raises(ValueError):
        minimal_sublattice(_zn(5), 5)  # beyond the validated budget
    # rank and cap are read as integers at entry, not deep inside a walk
    for bad in (2.0, "2", None):
        with pytest.raises(TypeError):
            minimal_sublattice(construction_a(reed_muller_code(1, 3)), bad)
    with pytest.raises(TypeError):
        minimal_sublattice(lat, 2, cap=100.0)
    assert minimal_sublattice(lat, True).value == 1


def test_rank2_code_bound_examples():
    assert rank2_code_bound(reed_muller_code(1, 3)) == 12
    assert rank2_code_bound(parity_check_code(4, 2)) == 4
    assert rank2_code_bound(full_code(4, 2)) == 4
    # degenerate composite-q case falls back to q^2 * d_E
    degenerate = LinearCode(4, 2, [[2, 0]])
    assert rank2_code_bound(degenerate) == 64
    assert minimal_sublattice(construction_a(degenerate), 2).value == 64
    with pytest.raises(ValueError):
        rank2_code_bound(LinearCode(2, 3, []))
    # the length is checked before the codewords are listed, so a length-1
    # code over the enumeration cap has no rank-2 bound either
    with pytest.raises(ValueError, match="n >= 2"):
        rank2_code_bound(full_code(1, 10**8))


def test_bound_is_valid_on_random_codes():
    rng = random.Random(43)
    for _ in range(40):
        n = rng.randint(2, 5)
        q = rng.choice((2, 3, 4))
        k = rng.randint(1, n)
        code = LinearCode(q, n, [[rng.randrange(q) for _ in range(n)] for _ in range(k)])
        if not code.generators:
            continue
        bound = rank2_code_bound(code)
        cert = minimal_sublattice(construction_a(code), 2, upper_hint=q ** 4)
        assert cert.value <= bound


def test_certificate_fields():
    lat = construction_a(parity_check_code(4, 2))
    cert = minimal_sublattice(lat, 2, upper_hint=16)
    assert cert.l == 2
    assert cert.per_vector_bound >= 2
    assert cert.candidates_examined > 0
    assert cert.witness.ambient == lat
    # the rows come in the pool's (norm, coords) order
    rows = list(cert.witness.rows)
    assert rows == sorted(rows, key=lambda r: (sum(x * x for x in r), r))


def test_certificate_constructor_checks_its_witness():
    d4 = construction_a(parity_check_code(4, 2))
    cert = SearchCertificate(d4, 1, 2, [[1, 1, 0, 0]], 2, 1)
    assert rankin_invariant(d4, cert) == Radical(2, 2)  # d_1 / det**(1/4)
    # l and value are the witness's, and cannot be set apart from it
    assert (cert.l, cert.value) == (cert.witness.l, cert.witness.det_l) == (1, 2)
    for name in ("l", "value"):
        with pytest.raises(AttributeError):
            setattr(cert, name, 1)
    # (1,0,0,0) is not in D4: the forged d_1 = 1 would give (1/2)**(1/2)
    with pytest.raises(NotInLattice):
        SearchCertificate(d4, 1, 1, [[1, 0, 0, 0]], 0, 0)
    with pytest.raises(RankDeficient):
        SearchCertificate(d4, 2, 0, [[1, 1, 0, 0], [2, 2, 0, 0]], 0, 0)
    # a value other than the witness determinant, or a row count other than l
    with pytest.raises(CertificateError, match="differs from the value"):
        SearchCertificate(d4, 1, 1, [[1, 1, 0, 0]], 2, 1)
    with pytest.raises(CertificateError, match="2 rows, not 1"):
        SearchCertificate(d4, 1, 3, [[1, 1, 0, 0], [0, 1, 1, 0]], 2, 1)
    # l, value, per_vector_bound and examined are integers, read as in
    # every public constructor: l = 1.0 would pass the row count
    for args in ((1.0, 2, 2, 1), (1, 2.0, 2, 1), (1, 2, "2", 1), (1, 2, 2, None)):
        l, value, bound, examined = args
        with pytest.raises(TypeError):
            SearchCertificate(d4, l, value, [[1, 1, 0, 0]], bound, examined)


@pytest.mark.parametrize(
    "code, l, value, leaves",
    [
        (reed_muller_code(1, 3), 1, 4, 120),
        (reed_muller_code(1, 3), 2, 12, 119),
        (parity_check_code(8, 2), 4, 4, 50),
        (reed_muller_code(1, 4), 2, 16, 120),
        (Q4_CODE, 2, 20, 3),
    ],
)
def test_benchmark_certificates_pinned(code, l, value, leaves):
    # E8 at l = 3 is pinned in test_rank3_e8_matches_known_value.  E8 and D8
    # sit on the Hermite floor (leaves of the walk up to its first hit);
    # L_RM(1,4) and the q = 4 code are above it (leaves of the full confirm
    # scan).
    cert = minimal_sublattice(construction_a(code), l, upper_hint=code.q ** (2 * l))
    assert (cert.value, cert.candidates_examined) == (value, leaves)
    assert cert.confirmed_by_escalation


def test_rows_lattice_certificate_pinned():
    # HNF rows with a large Gram diagonal (842) but lambda1**2 = 3: the
    # Hermite start enumerates to 8, not to 842; the CLI smoke test in CI
    # runs the same spec
    with open(DATA / "rows_n5.json", encoding="utf-8") as fh:
        lat = IntegralLattice.from_rows(json.load(fh)["rows"])
    assert lattice_minimum(lat) == (3, (0, 1, 1, -1, 0))
    assert lat._short.bound == 8
    cert = minimal_sublattice(lat, 3)
    assert (cert.value, cert.per_vector_bound, cert.candidates_examined) == (36, 8, 9)
    assert cert.witness.rows == ((0, 1, 1, -1, 0), (1, 1, 0, 1, 0), (1, 0, -1, -1, -1))


def test_pool_grows_from_minimum_within_hint_radius(monkeypatch):
    from codelattice import sublattice_search
    from codelattice.sublattice_search import _radius

    radii = []

    def recording(lattice, bound, cap=10_000_000):
        radii.append(bound)
        return short_vectors(lattice, bound, cap)

    monkeypatch.setattr(sublattice_search, "short_vectors", recording)
    rng = random.Random(44)
    cases = [(construction_a(Q4_CODE), 2, 4)]
    for _ in range(30):
        n = rng.randint(2, 6)
        q = rng.choice((2, 3, 4))
        k = rng.randint(1, n)
        code = LinearCode(q, n, [[rng.randrange(q) for _ in range(n)] for _ in range(k)])
        cases.append((construction_a(code), rng.randint(1, min(3, n)), q))
    for lat, l, q in cases:
        for hint in (None, q ** (2 * l)):
            radii.clear()
            cert = minimal_sublattice(lat, l, upper_hint=hint)
            lam = lattice_minimum(lat)[0]
            u0 = det_int(gram_matrix(lat.basis[:l]))
            if hint is not None:
                u0 = min(u0, hint)
            # every enumeration is a growth radius; none goes beyond the last
            assert radii[0] == lam
            assert radii == sorted(set(radii))
            assert radii[-1] >= cert.per_vector_bound
            assert radii[-1] <= _radius(u0, lam, l)


def _oracles(lat, l, hint, cap=10_000_000):
    """The oracle's certificates at the budgets H_l and gamma_l**l (one
    run where the two agree, l <= 2)."""
    loose = oracle_minimal_sublattice(lat, l, H_FACTOR[l], upper_hint=hint, cap=cap)
    if HERMITE_POWER[l] == H_FACTOR[l]:
        return loose, loose
    return loose, oracle_minimal_sublattice(lat, l, HERMITE_POWER[l], upper_hint=hint, cap=cap)


def _matches_oracle(lat, l, cert, loose, tight) -> bool:
    """Assert cert matches the oracle's; True if the Hermite floor closed it.

    The value and flag equal those of the oracle at the looser budget H_l,
    which shares no gamma_l**l theory with the search.  Against the oracle
    at gamma_l**l, the search's own budget, value, witness, bound and flag
    are equal too.  Above the floor the confirm scan's leaves are equal; on
    the floor the walk stops at its first hit, so it examines at most the
    confirm scan's leaves.
    """
    assert (cert.value, cert.confirmed_by_escalation) == (
        loose.value, loose.confirmed_by_escalation
    )
    fields = [
        (c.value, c.witness.rows, c.per_vector_bound, c.confirmed_by_escalation)
        for c in (cert, tight)
    ]
    assert fields[0] == fields[1]
    closed = cert.value <= _hermite_floor(lattice_minimum(lat)[0], l)
    if closed:
        assert cert.candidates_examined <= tight.candidates_examined
    else:
        assert cert.candidates_examined == tight.candidates_examined
    return closed


def test_matches_three_scan_oracle_on_random_codes():
    rng = random.Random(45)
    compared = closed = 0
    for _ in range(180):
        n = rng.randint(2, 6)
        q = rng.choice((2, 3, 4))
        k = rng.randint(1, n)
        code = LinearCode(q, n, [[rng.randrange(q) for _ in range(n)] for _ in range(k)])
        l = rng.randint(1, min(4, n))
        hint = rng.choice((None, q ** (2 * l)))
        lat = construction_a(code)
        try:
            # the oracle's doubled escalation radius is its largest pool; a
            # weight-1 codeword at l >= 3 makes it run to millions of vectors
            expected = _oracles(lat, l, hint, cap=5000)
        except EnumerationCap:
            continue
        cert = minimal_sublattice(lat, l, upper_hint=hint)
        closed += _matches_oracle(lat, l, cert, *expected)
        compared += 1
    assert compared >= 150
    assert 0 < closed < compared


def test_matches_three_scan_oracle_on_benchmark_jobs():
    # E8 at l = 3 and D8 at l = 4 take seconds in the oracle; their value
    # and leaves are pinned in test_benchmark_certificates_pinned
    for code, l in ((reed_muller_code(1, 3), 1), (reed_muller_code(1, 3), 2),
                    (reed_muller_code(1, 4), 2), (Q4_CODE, 2)):
        lat = construction_a(code)
        hint = code.q ** (2 * l)
        cert = minimal_sublattice(lat, l, upper_hint=hint)
        _matches_oracle(lat, l, cert, *_oracles(lat, l, hint))


def _closed_form_cases(rng, count):
    """Random code and from_rows lattices of dimension 2-5."""
    cases = []
    while len(cases) < count:
        n = rng.randint(2, 5)
        if len(cases) % 2:
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            try:
                lat = IntegralLattice.from_rows(rows)
            except RankDeficient:
                continue
        else:
            q = rng.choice((2, 3, 4))
            k = rng.randint(1, n)
            lat = construction_a(
                LinearCode(q, n, [[rng.randrange(q) for _ in range(n)] for _ in range(k)])
            )
        cases.append(lat)
    return cases


def test_top_ranks_match_closed_forms():
    # d_n = det L and d_(n-1) = det L * lambda1(L*)**2 share no prune theory
    # with the search; at n = 5 the rank-4 budget gamma_4**4 is on trial.
    # The count sizes the sweep to a few seconds: the next case of this
    # seed, 3Z + Z + 3Z + 3Z at l = 4 (lambda1**2 = 1), alone takes 14 s.
    rng = random.Random(47)
    compared = 0
    for lat in _closed_form_cases(rng, 66):
        n = lat.n
        for l, form in ((n, top_rank_minimum), (n - 1, corank_one_minimum)):
            if l <= 4:
                assert minimal_sublattice(lat, l).value == form(lat), (lat.basis, l)
                compared += 1
    assert compared == 117


def test_search_within_the_kept_list_builds_no_gram_matrix():
    # E8 at l = 1 and 2 reads only lambda_1's kept list, so no request
    # passes its bound and needs the norm grain
    for l in (1, 2):
        lat = construction_a(reed_muller_code(1, 3))
        minimal_sublattice(lat, l)
        assert lat._gram is None


def test_unchanged_pool_is_scanned_once(monkeypatch):
    # L_RM(1,4) at l = 2: lambda_1's pool of 16 vectors gives the value 16
    # and the radius 5, which the grain 4 rounds back to the same 16
    # vectors, so the walk at 16 is not repeated; nor is the Gram matrix
    # built, as the grain comes from the basis rows
    from codelattice import sublattice_search

    scans = []

    class Counted(sublattice_search._Scan):
        __slots__ = ()

        def __init__(self, vectors, l):
            scans.append(len(vectors))
            super().__init__(vectors, l)

    monkeypatch.setattr(sublattice_search, "_Scan", Counted)
    lat = construction_a(reed_muller_code(1, 4))
    cert = minimal_sublattice(lat, 2)
    assert scans == [16]
    assert (cert.value, cert.per_vector_bound, cert.candidates_examined) == (16, 5, 120)
    assert lat._gram is None


def test_pools_freed_without_cyclic_gc():
    import gc

    lat = construction_a(reed_muller_code(1, 3))
    gc.collect()
    gc.disable()
    try:
        short_vectors(lat, 8)
        assert gc.collect() == 0
        minimal_sublattice(lat, 3)
        assert gc.collect() == 0
    finally:
        gc.enable()


_CORRUPTED_CHECKS = """
import sys
from codelattice import enumeration, sublattice_search
from codelattice.codes import parity_check_code
from codelattice.lattices import construction_a

print(sys.flags.optimize)
lat = construction_a(parity_check_code(4, 2))
real_isqrt = enumeration.isqrt
# every coordinate range of the walk overshoots by two, one step of the
# modulus 2, so a lift past the bound reaches the emitted-norm check
# (budgets left below zero read as 0); an overshoot by one no longer does,
# as a word that spends its budget is completed with zeros
enumeration.isqrt = lambda r: real_isqrt(max(r, 0)) + 2
try:
    sublattice_search.minimal_sublattice(lat, 2)
except enumeration.CertificateError:
    print("norm check raised")
enumeration.isqrt = real_isqrt

class Forged:
    det_l = 0

# the witness the SearchCertificate constructor builds
sublattice_search.Sublattice = lambda lattice, rows: Forged()
try:
    sublattice_search.minimal_sublattice(lat, 2)
except enumeration.CertificateError:
    print("witness check raised")

from codelattice import codes, verify

real_dual_basis = codes.dual_basis
# q times q L*: its span with q Z^n is q Z^n, not q L*, so the dual's
# determinant no longer makes det_gram(L_C) * det_gram(dual) = q^(2n)
codes.dual_basis = lambda lattice, q: [[q * e for e in row] for row in real_dual_basis(lattice, q)]
try:
    codes.dual_code(parity_check_code(4, 2))
except enumeration.CertificateError:
    print("dual determinant check raised")
codes.dual_basis = real_dual_basis

codes.LinearCode.codewords = lambda self: [()]
[result] = [r for r in verify.run_checks("det_formula") if r.status != "skipped"]
print(result.status, "codewords counted" in result.detail)
"""


def test_certified_checks_survive_optimize():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import codelattice

    src = str(Path(codelattice.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", _CORRUPTED_CHECKS],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[:5] == [
        "1",
        "norm check raised",
        "witness check raised",
        "dual determinant check raised",
        "fail True",
    ]
