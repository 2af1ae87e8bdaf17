import json
import random
from itertools import combinations
from pathlib import Path

import pytest

from codelattice.codes import (
    LinearCode,
    dual_code,
    full_code,
    parity_check_code,
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
from codelattice.invariants import RANKIN, known_facts, rankin_invariant
from codelattice.lattices import (
    IntegralLattice,
    RankDeficient,
    construction_a,
    det_int,
    gram_matrix,
    is_even,
)
from codelattice.sublattice_search import (
    _hermite_floor,
    minimal_sublattice,
    rank2_code_bound,
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
            scaled = lat.scaled(s)
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
    facts = {(f.kind, f.n, f.l): f.value for f in known_facts()}
    assert rankin_invariant(lat, cert) == facts[(RANKIN, 8, 4)] == Radical(4)


def test_hermite_powers_match_known_facts():
    # gamma_l**l from the exactly known Hermite constants gamma_l = gamma_{l,1}
    facts = {(f.kind, f.n, f.l): f.value for f in known_facts()}
    assert HERMITE_POWER[1] == 1
    assert sorted(HERMITE_POWER) == list(range(1, 9))
    for l in range(2, 9):
        assert facts[(RANKIN, l, 1)] ** l == Radical(HERMITE_POWER[l])


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
real_form = enumeration._integer_form

def skewed_form(gram):
    dets, a = real_form(gram)
    a[0][1] += 1
    return dets, a

enumeration._integer_form = skewed_form
try:
    sublattice_search.minimal_sublattice(lat, 2)
except enumeration.CertificateError:
    print("norm check raised")
enumeration._integer_form = real_form

class Forged:
    det_l = 0

sublattice_search.sublattice_from_rows = lambda lattice, rows: Forged()
try:
    sublattice_search.minimal_sublattice(lat, 2)
except enumeration.CertificateError:
    print("witness check raised")

from codelattice import codes, verify

real_hnf = codes.hnf
codes.hnf = lambda rows: (real_hnf(rows)[0], real_hnf(rows)[1] - 1)
try:
    codes.dual_code(parity_check_code(4, 2))
except enumeration.CertificateError:
    print("dual rank check raised")
codes.hnf = real_hnf

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
        "dual rank check raised",
        "fail True",
    ]
