import random
from fractions import Fraction

import pytest

from codelattice.codes import LinearCode, full_code, parity_check_code, reed_muller_code
from codelattice.exact import Radical
from codelattice.lattices import (
    IntegralLattice,
    NotInLattice,
    RankDeficient,
    Sublattice,
    canonical_json,
    construction_a,
    det_int,
    dual_basis,
    gamma_ratio,
    hnf,
    is_even,
    lattice_document,
    sublattice_from_rows,
)
from dual_oracle import dual_basis as oracle_dual_basis
from hnf_oracle import hnf as oracle_hnf


def _random_code(rng, n_max=6, q_max=5):
    n = rng.randint(2, n_max)
    q = rng.randint(2, q_max)
    k = rng.randint(1, n)
    return LinearCode(q, n, [[rng.randrange(q) for _ in range(n)] for _ in range(k)])


def test_hnf_examples():
    ident = [[1, 0], [0, 1]]
    assert hnf(ident, 1) == [[1, 0], [0, 1]]
    stack = [[1, 0, 1], [0, 1, 1], [2, 0, 0], [0, 2, 0], [0, 0, 2]]
    assert hnf(stack, 2) == [[1, 0, 1], [0, 1, 1], [0, 0, 2]]
    # the generators alone: 2 Z^3 lies in their span with 2 I_3
    assert hnf(stack[:2], 2) == [[1, 0, 1], [0, 1, 1], [0, 0, 2]]
    assert hnf([[2, 0], [0, 2], [1, 1]], 2) == [[1, 1], [0, 2]]
    # a modulus the span does not hold gives the HNF of L + D Z^n
    assert hnf([[2, 1]], 4) == [[2, 1], [0, 2]]
    with pytest.raises(RankDeficient):
        hnf([[1, 2], [2, 4]], 0)
    assert hnf([[2, 1]], -4) == hnf([[2, 1]], 4)
    with pytest.raises(ValueError):
        hnf([], 1)
    with pytest.raises(ValueError, match="ragged"):
        hnf([[1, 0], [1]], 1)


def test_hnf_canonical_reduction():
    rows = hnf([[4, 7], [0, 5]], 20)
    # entries above each pivot lie in [0, pivot)
    for j in range(2):
        for i in range(j):
            assert 0 <= rows[i][j] < rows[j][j]


def test_hnf_matches_xgcd_oracle():
    # the kernel modulo D against the xgcd elimination it replaced: codes over
    # prime and composite q, their duals, and rows of every shape
    rng = random.Random(13)
    for _ in range(300):
        q = rng.choice((2, 3, 4, 5, 6, 8, 9, 12, 16, 25, 27))
        n = rng.randint(1, 7)
        gens = [[rng.randrange(q) for _ in range(n)] for _ in range(rng.randint(0, n + 2))]
        code = LinearCode(q, n, gens)
        ambient = [[q if j == i else 0 for j in range(n)] for i in range(n)]
        lat = code.lattice()
        assert list(map(list, lat.basis)) == oracle_hnf([*map(list, code.generators), *ambient])[0]
        dual = dual_basis(lat, q)
        assert hnf(dual, q) == oracle_hnf(dual)[0]
    deficient = 0
    full_rank = {True: 0, False: 0}  # square R: modulus |det R|; else det(R^T R)
    for _ in range(300):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(max(n - 1, 1), n + 3))]
        h, rank = oracle_hnf(rows)
        if rank < n:
            deficient += 1
            with pytest.raises(RankDeficient):
                IntegralLattice.from_rows(rows)
        else:
            full_rank[len(rows) == n] += 1
            assert list(map(list, IntegralLattice.from_rows(rows).basis)) == h
    assert 20 < deficient < 280 and min(full_rank.values()) > 40


def test_from_rows_modulus(monkeypatch):
    # a square R reduces modulo |det R| = det L, half the bits of
    # det(R^T R); other rows keep det(R^T R): for R = (3, 3)^T,
    # isqrt(18) = 4 is no multiple of det L = 3
    from codelattice import lattices

    moduli = []
    real = lattices.hnf
    monkeypatch.setattr(lattices, "hnf", lambda rows, m: moduli.append(m) or real(rows, m))
    assert IntegralLattice.from_rows([[1, 3], [2, 1]]).basis == ((1, 3), (0, 5))
    assert IntegralLattice.from_rows([[3], [3]]).basis == ((3,),)
    assert moduli == [5, 18]


def _unimodular_disguise(rng, rows) -> list[list[int]]:
    """Other rows with the same integer span: each step adds a multiple of
    one row to another, swaps two rows, negates a row, or appends an integer
    combination of the rows."""
    rows = [list(r) for r in rows]
    for _ in range(2 * len(rows) + 2):
        i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
        step = rng.randrange(4)
        if step == 0 and i != j:
            c = rng.choice((-3, -2, -1, 1, 2, 3))
            rows[j] = [a + c * b for a, b in zip(rows[j], rows[i])]
        elif step == 1:
            rows[i], rows[j] = rows[j], rows[i]
        elif step == 2:
            rows[i] = [-a for a in rows[i]]
        else:
            coeffs = [rng.randint(-2, 2) for _ in rows]
            rows.append([sum(c * r[k] for c, r in zip(coeffs, rows)) for k in range(len(rows[0]))])
    return rows


def test_hnf_does_not_depend_on_the_rows_given():
    # the basis is a function of the lattice alone: rows and code generators
    # under unimodular row operations give the oracle's basis of the original
    rng = random.Random(5)
    full_rank = 0
    for _ in range(200):
        n = rng.randint(1, 6)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(n, n + 2))]
        h, rank = oracle_hnf(rows)
        if rank < n:
            continue
        full_rank += 1
        basis = IntegralLattice.from_rows(rows).basis
        assert list(map(list, basis)) == h
        assert IntegralLattice.from_rows(_unimodular_disguise(rng, rows)).basis == basis
    assert full_rank > 100
    for _ in range(200):
        q = rng.choice((2, 3, 4, 5, 6, 8, 9, 12))
        n = rng.randint(1, 6)
        gens = [[rng.randrange(q) for _ in range(n)] for _ in range(rng.randint(1, n))]
        ambient = [[q if j == i else 0 for j in range(n)] for i in range(n)]
        basis = LinearCode(q, n, gens).lattice().basis
        assert list(map(list, basis)) == oracle_hnf([*gens, *ambient])[0]
        assert LinearCode(q, n, _unimodular_disguise(rng, gens)).lattice().basis == basis


def test_rank_deficient():
    with pytest.raises(RankDeficient, match="rank 2"):
        IntegralLattice.from_rows([[1, 2], [2, 4]])
    # fewer rows than columns: det(R^T R) = 0 without any minor to take
    with pytest.raises(RankDeficient):
        IntegralLattice.from_rows([[1, 2, 3]])
    # zip(*rows) would drop the third column of the longer row
    with pytest.raises(ValueError, match="ragged"):
        IntegralLattice.from_rows([[1, 0], [0, 1, 5]])


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: IntegralLattice.from_rows([[1.5, 0], [0, 1]]), id="from_rows-float"),
        pytest.param(lambda: LinearCode(3.5, 4, [[1, 1, 1, 1]]), id="LinearCode-float-q"),
        pytest.param(lambda: LinearCode(3, 4, [[1.9, 1, 1, 1]]), id="LinearCode-float-generator"),
        pytest.param(lambda: Radical(2, 2.5), id="Radical-float-root"),
        pytest.param(lambda: Radical(2, "3"), id="Radical-str-root"),
        pytest.param(lambda: hnf([["1", 0], [0, 2]], 2), id="hnf-str"),
        pytest.param(lambda: IntegralLattice([[1.7, 0], [0, 2.2]]), id="IntegralLattice-float"),
        pytest.param(
            lambda: Sublattice(IntegralLattice([[1, 0], [0, 1]]), [[1.2, 1.9]]),
            id="Sublattice-float",
        ),
        pytest.param(lambda: hnf([[Fraction(2), 0], [0, 1]], 2), id="hnf-Fraction"),
    ],
)
def test_constructors_reject_non_integers(build):
    # int() would truncate each of these to a wrong lattice, code or radical
    with pytest.raises(TypeError):
        build()


def test_construction_a_dets():
    assert construction_a(full_code(4, 3)).det_gram == 1
    for q in (2, 3, 5):
        assert construction_a(parity_check_code(4, q)).det_gram == q * q
    assert construction_a(reed_muller_code(1, 3)).det_gram == 256


def test_det_formula_random():
    rng = random.Random(5)
    for _ in range(200):
        code = _random_code(rng)
        count = len(code.codewords())
        lat = construction_a(code)
        assert lat.det_gram == Fraction(code.q ** code.n, count) ** 2


def test_q_zn_contained():
    rng = random.Random(6)
    for _ in range(50):
        code = _random_code(rng, n_max=5, q_max=4)
        lat = construction_a(code)
        for i in range(code.n):
            e = [code.q if j == i else 0 for j in range(code.n)]
            assert e in lat


def test_parity_check_is_dn():
    for n in range(3, 7):
        lat = construction_a(parity_check_code(n, 2))
        stack = [
            [1 if j == i else (1 if j == n - 1 else 0) for j in range(n)]
            for i in range(n - 1)
        ]
        stack.append([0] * (n - 1) + [2])
        assert lat == IntegralLattice.from_rows(stack)


def test_is_even():
    assert is_even(construction_a(parity_check_code(4, 2)))
    assert not is_even(IntegralLattice.from_rows([[1, 0], [0, 1]]))
    assert is_even(construction_a(reed_muller_code(1, 3)))


def test_sublattice_examples():
    for n in (4, 5, 6):
        lat = construction_a(parity_check_code(n, 2))
        rows = [
            [1, 1] + [0] * (n - 2),
            [1] + [0] * (n - 2) + [1],
        ]
        sub = Sublattice(lat, rows)
        assert sub.det_l == 3
        one = Sublattice(lat, [rows[0]])
        assert one.det_l == 2
    lat8 = construction_a(reed_muller_code(1, 3))
    rows = [[0, 1, 0, 1, 0, 1, 0, 1], [0, 0, 1, 1, 0, 0, 1, 1]]
    sub = Sublattice(lat8, rows)
    assert sub.det_l == 12


def test_sublattice_errors():
    lat = construction_a(parity_check_code(3, 2))
    with pytest.raises(NotInLattice):
        Sublattice(lat, [[1, 0, 0]])
    with pytest.raises(RankDeficient):
        Sublattice(lat, [[1, 1, 0], [2, 2, 0]])
    # the one constructor checks: (1,0,0,0) is not in D4, so no Gram data
    # passed beside the rows can make it a sublattice of determinant 1
    d4 = construction_a(parity_check_code(4, 2))
    assert sublattice_from_rows is Sublattice  # the alias the benchmark harness calls
    with pytest.raises(NotInLattice):
        Sublattice(d4, [[1, 0, 0, 0]])
    with pytest.raises(TypeError):
        Sublattice(d4, [[1, 0, 0, 0]], [[1]], 1)


def test_a_sublattice_is_read_only():
    # what the constructor proved stays proved: det_l = 1 would forge a
    # rank-1 sublattice of D4 below its minimum 2
    d4 = construction_a(parity_check_code(4, 2))
    sub = Sublattice(d4, [[1, 1, 0, 0]])
    assert Sublattice.__slots__ == ("_ambient", "_rows", "_det_l")
    for name, value in (
        ("ambient", construction_a(full_code(4, 2))),
        ("rows", ((1, 0, 0, 0),)),
        ("det_l", 1),
        ("l", 2),
    ):
        with pytest.raises(AttributeError):
            setattr(sub, name, value)
    assert (sub.ambient, sub.rows, sub.det_l, sub.l) == (d4, ((1, 1, 0, 0),), 2, 1)


def test_gamma_ratio_examples():
    from codelattice.codes import reed_muller_generators

    lat8 = construction_a(reed_muller_code(1, 3))
    rows = reed_muller_generators(1, 3)
    sub4 = Sublattice(lat8, rows)
    assert gamma_ratio(lat8, sub4) == Radical(4)

    lat16 = construction_a(reed_muller_code(1, 4))
    rows2z = [[2] + [0] * 15, [0, 2] + [0] * 14]
    sub = Sublattice(lat16, rows2z)
    # 16 / (2^22)^(1/8) = 2^(5/4) by the defining determinant quotient
    assert gamma_ratio(lat16, sub) == Radical(2) ** Fraction(5, 4)

    whole = Sublattice(lat8, lat8.basis)
    assert gamma_ratio(lat8, whole) == Radical(1)


def test_scaling_covariance():
    rng = random.Random(9)
    for s in (2, 3):
        code = parity_check_code(4, 2)
        lat = construction_a(code)
        scaled = IntegralLattice.from_rows([[s * e for e in row] for row in lat.basis])
        assert scaled.det_gram == lat.det_gram * s ** (2 * lat.n)
        rows = [[1, 1, 0, 0], [1, 0, 0, 1]]
        sub = Sublattice(lat, rows)
        ssub = Sublattice(scaled, [[s * e for e in r] for r in rows])
        assert ssub.det_l == sub.det_l * s ** (2 * sub.l)
        assert gamma_ratio(lat, sub) == gamma_ratio(scaled, ssub)


def test_duality_round_trip():
    from codelattice.codes import dual_code

    rng = random.Random(10)
    for _ in range(40):
        code = _random_code(rng, n_max=5, q_max=4)
        lat = construction_a(code)
        h = hnf(dual_basis(lat, code.q), code.q)
        assert tuple(tuple(r) for r in h) == construction_a(dual_code(code)).basis


def test_dual_basis_matches_fraction_oracle():
    rng = random.Random(11)
    for _ in range(500):
        n = rng.randint(1, 8)
        q = rng.randint(2, 9)
        k = rng.randint(0, n)
        code = LinearCode(q, n, [[rng.randrange(q) for _ in range(n)] for _ in range(k)])
        lat = code.lattice()
        assert dual_basis(lat, q) == oracle_dual_basis(lat, q)
    # a scale that does not clear the denominators of the dual basis
    for basis, q in (([[2]], 3), ([[1, 1], [0, 2]], 1), ([[3, 1], [0, 3]], 3)):
        lat = IntegralLattice(basis)
        with pytest.raises(ValueError, match="not integral"):
            dual_basis(lat, q)
        with pytest.raises(ValueError, match="not integral"):
            oracle_dual_basis(lat, q)


def test_membership_solver():
    lat = construction_a(parity_check_code(4, 3))
    v = [1, 0, 0, 0]
    assert lat.coefficients_of(v) is None
    w = [1, 1, 0, 2]
    coeffs = lat.coefficients_of(w)
    assert coeffs is not None
    rebuilt = [0, 0, 0, 0]
    for c, row in zip(coeffs, lat.basis):
        rebuilt = [a + c * b for a, b in zip(rebuilt, row)]
    assert rebuilt == w


def test_document_canonical():
    lat = construction_a(parity_check_code(3, 2))
    doc = lattice_document(lat)
    assert doc["det_gram"] == 4
    assert canonical_json(doc) == canonical_json(lattice_document(IntegralLattice(lat.basis)))


def test_det_int_matches_diagonal_square():
    rng = random.Random(12)
    for _ in range(50):
        code = _random_code(rng, n_max=5, q_max=4)
        lat = construction_a(code)
        assert det_int([list(r) for r in lat.gram]) == lat.det_gram


def test_gram_computed_from_the_basis():
    lat = construction_a(reed_muller_code(1, 3))
    assert lat.det_gram == 256 and hash(lat) == hash(lat.basis)
    assert lat == IntegralLattice(lat.basis)
    rows = lat.basis
    assert lat.gram == tuple(tuple(sum(a * b for a, b in zip(u, v)) for v in rows) for u in rows)


def test_a_lattice_stores_its_basis_alone():
    # n, det_gram and gram are computed from the basis, and the basis is
    # read-only, so none can be set apart from it: Z^4 cannot become a
    # basis of D4 whose det_gram stays 4
    d4 = construction_a(parity_check_code(4, 2))
    assert IntegralLattice.__slots__ == ("_basis", "_short", "_exponent")
    z4 = IntegralLattice.from_rows([[int(i == j) for j in range(4)] for i in range(4)])
    for name in ("basis", "n", "det_gram", "gram"):
        with pytest.raises(AttributeError):
            setattr(d4, name, getattr(z4, name))
    assert (d4.n, d4.det_gram) == (4, 4) and d4.basis != z4.basis
    assert d4 == construction_a(parity_check_code(4, 2)) and z4.det_gram == 1


def test_constructor_rejects_non_hnf_basis():
    for bad in (
        [[0, 1], [1, 0]],  # zero pivot
        [[1, 0], [1, 1]],  # nonzero below the diagonal
        [[-2, 0], [0, 1]],  # negative pivot
        [[2, 3], [0, 3]],  # entry above a pivot not reduced
        [[2, -1], [0, 3]],
        [[1, 0, 0], [0, 1, 0]],  # not square
        [],
    ):
        with pytest.raises(ValueError):
            IntegralLattice(bad)
    rows = [[2, 1, 3], [0, 5, 1], [4, 4, 4]]
    lat = IntegralLattice.from_rows(rows)
    assert IntegralLattice(lat.basis) == lat
    assert IntegralLattice([[2, 1], [0, 3]]).det_gram == 36
