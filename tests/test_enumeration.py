import random
from fractions import Fraction
from math import gcd, isqrt

import pytest

from codelattice.codes import LinearCode, dual_code, parity_check_code, reed_muller_code
from codelattice.enumeration import (
    HERMITE_POWER,
    EnumerationCap,
    ShortVectorList,
    _grain,
    _walk,
    lattice_minimum,
    short_vectors,
)
from codelattice.lattices import IntegralLattice, RankDeficient, construction_a, dual_basis
from enumeration_oracle import fraction_short_vectors


def _zn(n):
    return IntegralLattice.from_rows([[1 if j == i else 0 for j in range(n)] for i in range(n)])


def _random_code(rng, n_max=6, q_choices=(2, 3, 4)):
    n = rng.randint(2, n_max)
    q = rng.choice(q_choices)
    k = rng.randint(1, n)
    return LinearCode(q, n, [[rng.randrange(q) for _ in range(n)] for _ in range(k)])


def test_unit_vectors():
    sv = short_vectors(_zn(2), 1)
    assert [(v.coords, v.norm) for v in sv.vectors] == [((0, 1), 1), ((1, 0), 1)]


def test_z2_bound_4():
    sv = short_vectors(_zn(2), 4)
    assert [v.coords for v in sv.vectors] == [
        (0, 1),
        (1, 0),
        (1, -1),
        (1, 1),
        (0, 2),
        (2, 0),
    ]


def test_d4_kissing():
    lat = construction_a(parity_check_code(4, 2))
    sv = short_vectors(lat, 2)
    assert len(sv.vectors) == 12
    assert all(v.norm == 2 for v in sv.vectors)


def test_e8_kissing():
    lat = construction_a(reed_muller_code(1, 3))
    sv = short_vectors(lat, 4)
    assert len(sv.vectors) == 120
    assert all(v.norm == 4 for v in sv.vectors)


def test_minimum_examples():
    for n in (2, 3, 5):
        assert lattice_minimum(_zn(n))[0] == 1
    for q in (2, 3, 4):
        for n in (3, 4, 5):
            assert lattice_minimum(construction_a(parity_check_code(n, q)))[0] == 2
    norm, witness = lattice_minimum(construction_a(reed_muller_code(1, 3)))
    assert norm == 4
    assert sum(e * e for e in witness) == 4


def test_minimum_enumerates_once_per_lattice(monkeypatch):
    from codelattice import enumeration

    bounds = []

    def recording(lattice, bound, cap=10_000_000):
        bounds.append(bound)
        return short_vectors(lattice, bound, cap)

    monkeypatch.setattr(enumeration, "short_vectors", recording)
    lat = construction_a(reed_muller_code(1, 3))
    first = lattice_minimum(lat)
    assert lattice_minimum(lat) == first == (4, first[1])
    assert len(bounds) == 1
    # an equal lattice built anew has its own cache
    assert lattice_minimum(construction_a(reed_muller_code(1, 3))) == first
    assert len(bounds) == 2


def test_minimum_oracle_random_codes():
    from codelattice.codes import weight_report

    rng = random.Random(31)
    for _ in range(80):
        code = _random_code(rng)
        try:
            de = weight_report(code).d_euclidean
        except ValueError:
            de = None
        expect = code.q ** 2 if de is None else min(code.q ** 2, de)
        assert lattice_minimum(construction_a(code))[0] == expect


def test_box_completeness_oracle():
    # Independent oracle: scan the integer box |v_i| <= isqrt(B) and keep
    # lattice members (membership solved against the HNF basis, not the
    # enumeration machinery); the enumeration must produce exactly the
    # sign-canonical members.
    rng = random.Random(32)
    for _ in range(25):
        code = _random_code(rng, n_max=4, q_choices=(2, 3))
        lat = construction_a(code)
        bound = rng.choice((3, 4, 6))
        got = {v.coords for v in short_vectors(lat, bound).vectors}
        expect = set()
        r = isqrt(bound)
        span = range(-r, r + 1)
        n = lat.n

        def scan(prefix):
            if len(prefix) == n:
                norm = sum(e * e for e in prefix)
                if 0 < norm <= bound and lat.coefficients_of(list(prefix)) is not None:
                    v = list(prefix)
                    for e in v:
                        if e:
                            if e < 0:
                                v = [-c for c in v]
                            break
                    expect.add(tuple(v))
                return
            for x in span:
                scan(prefix + (x,))

        scan(())
        assert got == expect


def test_sorted_and_verified():
    lat = construction_a(parity_check_code(5, 3))
    sv = short_vectors(lat, 9)
    norms = [v.norm for v in sv.vectors]
    assert norms == sorted(norms)
    for v in sv.vectors:
        assert sum(e * e for e in v.coords) == v.norm
        first = next(e for e in v.coords if e)
        assert first > 0


def test_doubling_stability():
    rng = random.Random(33)
    for _ in range(20):
        code = _random_code(rng, n_max=5)
        lat = construction_a(code)
        b = rng.choice((2, 3, 5))
        small = short_vectors(lat, b).vectors
        large = short_vectors(lat, 2 * b).vectors
        assert large[: len(small)] == small
        assert {v for v in small} <= set(large)


def test_cap_exceeded():
    lat = _zn(6)
    with pytest.raises(EnumerationCap) as err:
        short_vectors(lat, 16, cap=10)
    assert err.value.count > 10


def test_bad_bound():
    with pytest.raises(ValueError):
        short_vectors(_zn(2), 0)
    # bound and cap are read as integers at entry, so a fresh walk and the
    # kept list give the same answer
    for fresh in (True, False):
        lat = construction_a(reed_muller_code(1, 3))
        if not fresh:
            lattice_minimum(lat)
        for bad in (4.5, 4.0, "4", None):
            with pytest.raises(TypeError):
                short_vectors(lat, bad)
        with pytest.raises(TypeError):
            short_vectors(lat, 4, 10.0)
        one = short_vectors(lat, True)
        assert one == ShortVectorList(1, []) and type(one.bound) is int
        assert len(short_vectors(lat, 4).vectors) == 120


def _fraction_det(m):
    """Determinant by Gaussian elimination over the rationals, with row swaps."""
    a = [[Fraction(e) for e in row] for row in m]
    n, det = len(a), Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det


@pytest.mark.parametrize("seed", range(4))
def test_det_int_matches_fraction_elimination(seed):
    # Gram matrices of k random rows in dimension m: singular whenever the
    # rows are dependent (always when k > m), and then det_int is 0
    from codelattice.lattices import det_int, gram_matrix

    rng = random.Random(900 + seed)
    singular = 0
    for _ in range(40):
        m, k = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(k)]
        if rng.random() < 0.3:
            rows.append([a - b for a, b in zip(rows[0], rows[-1])])
        gram = gram_matrix(rows)
        det = det_int(gram)
        assert det == _fraction_det(gram), rows
        singular += det == 0
    assert singular >= 5


def _random_full_rank(rng, n):
    """A lattice from random small rows, and the norm of its shortest row."""
    while True:
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        try:
            lat = IntegralLattice.from_rows(rows)
        except RankDeficient:
            continue
        return lat, min(sum(e * e for e in row) for row in rows)


def _assert_matches_oracle(lat, bounds):
    for bound in bounds:
        assert short_vectors(lat, bound) == fraction_short_vectors(lat, bound), (lat.basis, bound)


def test_matches_fraction_oracle_on_code_lattices():
    rng = random.Random(35)
    for _ in range(40):
        lat = construction_a(_random_code(rng, n_max=6, q_choices=(2, 3, 4, 5)))
        wide = short_vectors(lat, 9).vectors
        # bounds equal to attained norms put vectors exactly on the boundary
        exact = {v.norm for v in wide[:: max(1, len(wide) // 3)]}
        _assert_matches_oracle(lat, sorted(exact | {1, rng.randint(2, 12)}))
    # composite and even q; radii >= q**2, where the zero word and nonzero
    # words have several lifts; and words with q/2 entries, which negation
    # fixes (the self-negating rule)
    codes = [
        LinearCode(4, 4, [[2, 2, 0, 0], [0, 2, 2, 2]]),
        LinearCode(6, 3, [[3, 3, 0], [2, 4, 2]]),
        LinearCode(8, 3, [[4, 4, 4], [1, 3, 0]]),
    ]
    for q in (4, 6, 8, 9):
        codes += [_random_code(rng, n_max=4 if q < 8 else 3, q_choices=(q,)) for _ in range(4)]
    for code in codes:
        lat = construction_a(code)
        q = code.q
        # the walk's modulus divides q: q Z^n lies in every L_C
        assert q % lat.exponent == 0
        _assert_matches_oracle(lat, (q * q - 1, q * q, q * q + rng.randint(1, 2 * q)))


def test_matches_fraction_oracle_on_general_lattices():
    rng = random.Random(36)
    for _ in range(40):
        lat, row_norm = _random_full_rank(rng, rng.randint(1, 6))
        # the generating row is a lattice vector lying exactly on the bound
        _assert_matches_oracle(lat, sorted({max(1, row_norm - 1), row_norm, row_norm + 1}))
    # pivots (2, 2), but Z^2 / L is cyclic of order 4: 2 e_1 is not in L,
    # so the pivots do not pin the exponent (lcm 2; product and D 4) and
    # the walk takes it from the dual basis.  L is also L_C for the code
    # C = <(2, 1)> over Z_4, whose builder reduces by D = q = 4.
    for lat in (IntegralLattice.from_rows([[2, 1], [0, 2]]), construction_a(LinearCode(4, 2, [[2, 1]]))):
        assert lat.basis == ((2, 1), (0, 2)) and lat._exponent is None
        assert lat.exponent == 4  # no pivot is m: the walk branches at every level
        _assert_matches_oracle(lat, range(1, 26))


def _interleaves(lat):
    """Whether a forced level (pivot m) comes before a branching one."""
    m, pivots = lat.exponent, [lat.basis[j][j] for j in range(lat.n)]
    return any(d == m and min(pivots[j + 1 :], default=m) < m for j, d in enumerate(pivots))


def test_matches_fraction_oracle_where_forced_and_branching_levels_interleave():
    # the walk fixes levels whose pivot is m in a loop and branches at the
    # rest: codes over Z_6 and Z_12 with m = q and pivots strictly between
    # 1 and q, and a rows lattice whose pivots are 1, m, 1, m with m = 6
    # even, so its forced entries reach m/2
    rng = random.Random(43)
    lats = []
    for q in (6, 12):
        found = 0
        while found < 6:
            lat = construction_a(_random_code(rng, n_max=4, q_choices=(q,)))
            pivots = [lat.basis[j][j] for j in range(lat.n)]
            if lat.exponent == q and any(1 < d < q for d in pivots) and _interleaves(lat):
                lats.append(lat)
                found += 1
    rows = IntegralLattice.from_rows([[-3, 0, -3, 3], [0, 0, 3, -3], [-1, 2, -1, -1], [-2, -2, 2, -2]])
    assert rows.basis == ((1, 4, 0, 4), (0, 6, 0, 0), (0, 0, 1, 3), (0, 0, 0, 6))
    assert rows.exponent == 6 and _interleaves(rows)
    for lat in lats + [rows]:
        quarter = lat.exponent ** 2 // 4
        _assert_matches_oracle(lat, sorted({max(1, quarter - 1), quarter, quarter + 1, lat.exponent ** 2}))


def _dual_basis_exponent(lat):
    """The least m with m B^-1 integral: d / gcd(d, every entry of d B^-1)."""
    d = 1
    for j in range(lat.n):
        d *= lat.basis[j][j]
    return d // gcd(d, *(e for row in dual_basis(lat, d) for e in row))


def test_exponent_matches_the_dual_basis_formula():
    # codes over composite and prime q, their duals, rows lattices and the
    # same bases through the bare constructor: wherever the pivots pin the
    # exponent it is the formula's, and the walk's modulus always is
    rng = random.Random(41)
    lats = []
    for _ in range(150):
        code = _random_code(rng, n_max=8, q_choices=tuple(range(2, 28)))
        lats += [("code", code.lattice()), ("dual", dual_code(code).lattice())]
    lats += [("rows", _random_full_rank(rng, rng.randint(1, 5))[0]) for _ in range(60)]
    lats += [("basis", IntegralLattice(lat.basis)) for _, lat in lats[:120]]
    pinned = dict.fromkeys(("code", "dual", "rows", "basis"), 0)
    for kind, lat in lats:
        exact = _dual_basis_exponent(lat)
        if lat._exponent is not None:
            assert lat._exponent == exact, (kind, lat.basis)
            pinned[kind] += 1
        assert lat.exponent == exact == lat._exponent, (kind, lat.basis)
    # q pins nearly every code lattice and its dual; det B alone fewer
    assert pinned["code"] >= 140 and pinned["dual"] >= 140, pinned
    assert pinned["rows"] >= 40 and pinned["basis"] >= 40, pinned


def test_unpinned_exponent_is_computed_once(monkeypatch):
    from codelattice import lattices

    calls = []

    def counted(lattice, q):
        calls.append(q)
        return dual_basis(lattice, q)

    monkeypatch.setattr(lattices, "dual_basis", counted)
    lat = construction_a(LinearCode(4, 2, [[2, 1]]))
    # no kept list: both requests walk
    _assert_matches_oracle(lat, (5, 9))
    assert calls == [4] and lat._exponent == 4
    with pytest.raises(AttributeError):
        lat.exponent = 2
    # a pinned exponent needs no dual basis at all
    short_vectors(construction_a(reed_muller_code(1, 3)), 4)
    assert calls == [4]


def _words_calls(monkeypatch, lat):
    from codelattice import enumeration

    calls = [0]
    words = enumeration._Walk.words

    def counted(self, *args):
        calls[0] += 1
        return words(self, *args)

    monkeypatch.setattr(enumeration._Walk, "words", counted)
    lattice_minimum(lat)
    monkeypatch.setattr(enumeration._Walk, "words", words)
    return calls[0]


def test_spent_budget_ends_the_words(monkeypatch):
    # once a prefix spends the whole budget every later entry is 0, so the
    # word is completed in one loop instead of one call per coordinate; and
    # the levels whose pivot is m are fixed in a loop, so `words` is called
    # only for a level whose pivot is below m (E8 has four of each)
    cases = [
        (reed_muller_code(1, 3), 14, (4, 120)),
        (reed_muller_code(1, 4), 15, (4, 16)),
        (LinearCode(4, 8, [[3, 2, 3, 3, 0, 0, 2, 3], [2, 3, 1, 2, 0, 2, 1, 3], [0, 1, 0, 3, 1, 0, 1, 3]]), 14, (11, 23)),
        (parity_check_code(128, 2), 8_128, (2, 128 * 127)),
    ]
    for code, calls, kept in cases:
        lat = construction_a(code)
        assert _words_calls(monkeypatch, lat) == calls, code
        assert (lat._short.bound, len(lat._short.vectors)) == kept


def test_matches_fraction_oracle_on_e8():
    lat = construction_a(reed_muller_code(1, 3))
    _assert_matches_oracle(lat, (4, 7, 8))


def _gram_grain(gram):
    """gcd of the g_ii and the 2 g_ij over the whole Gram matrix."""
    n = len(gram)
    return gcd(*(gram[i][i] for i in range(n)), *(2 * gram[i][j] for i in range(n) for j in range(i + 1, n)))


def _grain_cases():
    """(lattice, grain): even lattices with grains 2 and 4, odd ones with 1."""
    rng = random.Random(37)
    cases = [
        (construction_a(parity_check_code(4, 2)), 2),
        (construction_a(reed_muller_code(1, 3)), 4),
        (_zn(3), 1),
        (construction_a(parity_check_code(5, 3)), 1),
    ]
    for _ in range(6):
        lat = construction_a(_random_code(rng, n_max=5, q_choices=(2, 3)))
        cases.append((lat, _gram_grain(lat.gram)))
    return cases


def test_row_grain_matches_the_gram_grain():
    # the grain read from the basis rows, stopping once it is <= 2, is the
    # gcd over the whole Gram matrix; the row norms alone give 9 and 3 for
    # the first two lattices, and 2 g_01 = 12 and 20 bring them to 3 and 1
    rng = random.Random(40)
    lats = [
        IntegralLattice([[2, 2, 1], [0, 3, 0], [0, 0, 3]]),
        IntegralLattice([[4, 2, 0, 1], [0, 4, 1, 2], [0, 0, 3, 0], [0, 0, 0, 3]]),
        construction_a(parity_check_code(4, 2)),
    ]
    lats += [construction_a(_random_code(rng, n_max=8, q_choices=(2, 3, 4, 6, 8))) for _ in range(60)]
    lats += [_random_full_rank(rng, rng.randint(1, 5))[0] for _ in range(60)]
    for lat in lats:
        assert _grain(lat.basis) == _gram_grain(lat.gram), lat.basis
    assert [_grain(lat.basis) for lat in lats[:3]] == [3, 1, 2]


def test_grain_rounding_lists_the_unrounded_walk():
    for lat, grain in _grain_cases():
        assert _grain(lat.basis) == grain
        for bound in range(1, 2 * grain + 2):
            got = short_vectors(IntegralLattice(lat.basis), bound)
            assert got == ShortVectorList(bound, _walk(lat, bound, 10_000_000))
            assert all(v.norm % grain == 0 for v in got.vectors)


def test_bound_below_grain_is_empty():
    lat = construction_a(reed_muller_code(1, 4))
    assert _grain(lat.basis) == 4
    for bound in (1, 2, 3):
        assert short_vectors(lat, bound) == ShortVectorList(bound, [])
    lattice_minimum(lat)  # the same answer from the kept list
    for bound in (1, 2, 3):
        assert short_vectors(lat, bound) == ShortVectorList(bound, [])


def _hermite_radius(lat):
    g = HERMITE_POWER[lat.n]
    b = 1
    while (b + 1) ** lat.n * g.denominator <= g.numerator * lat.det_gram:
        b += 1
    return b


def test_hermite_start_matches_brute_force():
    # brute force: the Fraction oracle to the smallest Gram diagonal, or to
    # the norm of a generating row if smaller; both are attained
    rng = random.Random(38)
    cases = [construction_a(reed_muller_code(1, 3)), construction_a(parity_check_code(8, 4))]
    cases += [construction_a(_random_code(rng, n_max=8, q_choices=(2, 3, 4, 5))) for _ in range(30)]
    cases = [(lat, lat.gram[0][0]) for lat in cases]
    cases += [_random_full_rank(rng, rng.randint(1, 6)) for _ in range(30)]
    below = 0
    for lat, row_norm in cases:
        gram = lat.gram
        diag = min(gram[i][i] for i in range(lat.n))
        best = fraction_short_vectors(lat, min(diag, row_norm)).vectors[0]
        assert lattice_minimum(lat) == (best.norm, best.coords), lat.basis
        b = _hermite_radius(lat)
        assert best.norm <= b
        assert lat._short.bound == min(diag, b)
        below += b < diag
    assert below >= 10


def test_kept_list_serves_the_fresh_walk():
    rng = random.Random(39)
    lats = [construction_a(LinearCode(4, 8, [[3, 2, 3, 3, 0, 0, 2, 3]]))]
    lats += [construction_a(_random_code(rng, n_max=6, q_choices=(3, 4, 5))) for _ in range(8)]
    for lat in lats:
        lattice_minimum(lat)
        known = lat._short
        for bound in range(1, known.bound + 1):
            fresh = IntegralLattice(lat.basis)
            served = short_vectors(lat, bound)
            assert served == short_vectors(fresh, bound)
            assert served.vectors is not known.vectors
            for cap in (-1, 0, len(served.vectors) - 1, len(served.vectors)):
                outcomes = []
                for target in (lat, IntegralLattice(lat.basis)):
                    try:
                        short_vectors(target, bound, cap)
                        outcomes.append(None)
                    except EnumerationCap as exc:
                        outcomes.append((exc.count, exc.cap))
                assert outcomes[0] == outcomes[1]
                assert (outcomes[0] is None) == (len(served.vectors) <= max(cap, 0))


def test_kept_list_is_not_walked_again(monkeypatch):
    from codelattice import enumeration

    walks = []

    def recording(lattice, bound, cap):
        walks.append(bound)
        return _walk(lattice, bound, cap)

    monkeypatch.setattr(enumeration, "_walk", recording)
    lat = construction_a(reed_muller_code(1, 4))
    lattice_minimum(lat)
    assert walks == [4]
    # radius 5 rounds to the grain 4, inside the kept list
    assert [len(short_vectors(lat, b).vectors) for b in (4, 5, 7)] == [16, 16, 16]
    assert walks == [4]
    short_vectors(lat, 8)
    assert walks == [4, 8]
