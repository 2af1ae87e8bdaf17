import json
import random

import pytest

from codelattice.enumeration import EnumerationCap
from codelattice.lattices import IntegralLattice, canonical_json, construction_a, dual_basis
from codelattice import codes
from codelattice.codes import (
    FAMILIES,
    FAMILY_KEYS,
    MAX_LENGTH,
    LinearCode,
    code_document,
    code_from_document,
    dual_code,
    extended_hamming_code,
    full_code,
    minimal_lift,
    parity_check_code,
    rank2_code_bound,
    read_spec,
    reed_muller_code,
    reed_muller_generators,
    weight_report,
    zero_code,
    is_self_dual,
)


def _random_code(rng, n_max=6, q_choices=(2, 3, 4, 5)):
    n = rng.randint(2, n_max)
    q = rng.choice(q_choices)
    k = rng.randint(1, n)
    return LinearCode(q, n, [[rng.randrange(q) for _ in range(n)] for _ in range(k)])


def test_parity_check_examples():
    c = parity_check_code(3, 2)
    assert set(c.generators) == {(1, 0, 1), (0, 1, 1)}
    assert c.cardinality == 4
    rep = parity_check_code(2, 2)
    assert rep.generators == ((1, 1),)
    assert rep.cardinality == 2
    c43 = parity_check_code(4, 3)
    assert c43.cardinality == 27
    words = c43.codewords()
    assert len(words) == 27
    assert weight_report(c43).d_euclidean == 2


def test_minimal_lift():
    assert minimal_lift((0, 1, 2, 3), 4) == (0, 1, 2, -1)
    assert minimal_lift((0, 1, 2), 3) == (0, 1, -1)
    assert minimal_lift((3,), 5) == (-2,)


def test_reed_muller_generators():
    assert reed_muller_generators(1, 2) == [
        [1, 0, 1, 0],
        [0, 1, 0, 1],
        [0, 0, 1, 1],
    ]
    assert reed_muller_generators(0, 3) == [[1] * 8]
    b13 = reed_muller_generators(1, 3)
    assert len(b13) == 4
    from codelattice.lattices import det_int, gram_matrix

    assert det_int(gram_matrix(b13)) == 64
    with pytest.raises(ValueError):
        reed_muller_generators(3, 2)


def test_reed_muller_nesting():
    # every row of B(r-1, m) lies in the row space of B(r, m) mod 2
    for m in (2, 3):
        for r in range(1, m + 1):
            big = set(reed_muller_code(r, m).codewords())
            for row in reed_muller_generators(r - 1, m):
                assert tuple(e % 2 for e in row) in big


def test_extended_hamming():
    eh = extended_hamming_code()
    assert eh.cardinality == 16
    assert is_self_dual(eh)
    weights = {sum(w) for w in eh.codewords()}
    assert weights == {0, 4, 8}
    assert weight_report(eh).d_euclidean == 4


def test_weight_report_examples():
    wr = weight_report(parity_check_code(4, 2))
    assert (wr.d_hamming, wr.d_euclidean, wr.max_lift_sq) == (2, 2, 1)
    # the report is cached on the code, so it cannot be edited in place
    with pytest.raises(AttributeError):
        wr.d_euclidean = 0
    with pytest.raises(ValueError):
        weight_report(zero_code(3, 2))
    wr_rm = weight_report(reed_muller_code(1, 3))
    assert (wr_rm.d_hamming, wr_rm.d_euclidean) == (4, 4)


def test_weight_report_cap():
    with pytest.raises(EnumerationCap):
        weight_report(full_code(6, 4), cap=100)


def test_weight_report_cached_with_cap_checked_each_call(monkeypatch):
    code = reed_muller_code(1, 3)
    first = weight_report(code)

    def no_codewords(self):
        raise AssertionError("codewords enumerated again")

    monkeypatch.setattr(LinearCode, "codewords", no_codewords)
    assert weight_report(code) is first
    assert rank2_code_bound(code) == 12
    with pytest.raises(EnumerationCap):
        weight_report(code, cap=15)
    assert weight_report(code, cap=16) is first


def test_binary_euclidean_equals_hamming():
    rng = random.Random(21)
    for _ in range(40):
        code = _random_code(rng, q_choices=(2,))
        try:
            wr = weight_report(code)
        except ValueError:
            continue
        assert wr.d_euclidean == wr.d_hamming


def test_dual_code_examples():
    for n, q in ((3, 2), (4, 3), (5, 2)):
        d = dual_code(parity_check_code(n, q))
        assert d.cardinality == q
        gen = tuple([1] * (n - 1) + [(q - 1) % q])
        assert gen in set(d.codewords())
    assert dual_code(full_code(3, 4)).generators == ()
    eh = extended_hamming_code()
    assert dual_code(eh).lattice() == eh.lattice()


def test_duality_invariants_random():
    rng = random.Random(22)
    for _ in range(60):
        code = _random_code(rng, q_choices=(2, 3, 4, 5))
        dual = dual_code(code)
        assert code.cardinality * dual.cardinality == code.q ** code.n
        for g in code.generators:
            for gd in dual.generators:
                assert sum(a * b for a, b in zip(g, gd)) % code.q == 0
        assert dual_code(dual).lattice() == code.lattice()


def test_cardinality_divides_power():
    rng = random.Random(23)
    for _ in range(40):
        code = _random_code(rng)
        assert code.q ** code.n % code.cardinality == 0


def test_document_round_trip():
    rng = random.Random(24)
    samples = [
        parity_check_code(4, 3),
        reed_muller_code(1, 3),
        extended_hamming_code(),
        full_code(3, 2),
        zero_code(4, 5),
    ] + [_random_code(rng) for _ in range(10)]
    for code in samples:
        text = canonical_json(code_document(code))
        loaded = code_from_document(json.loads(text))
        assert (loaded.q, loaded.n, loaded.lattice()) == (code.q, code.n, code.lattice())
        # the canonical form is stable: writing what was read gives the same bytes
        assert canonical_json(code_document(loaded)) == text


def test_dual_code_lattice():
    # repetition dual: |C_dual| = q, so det = (q^n / q)^2
    for n, q in ((3, 2), (4, 3), (5, 2)):
        lat = dual_code(parity_check_code(n, q)).lattice()
        assert lat.det_gram == q ** (2 * (n - 1))
    eh = extended_hamming_code()
    assert dual_code(eh).lattice() == construction_a(eh)
    # dual of the full code is q Z^n; the dual of Z^n is Z^n itself
    assert dual_code(full_code(3, 4)).lattice().det_gram == 4 ** 6


def test_dual_lattice_is_construction_a_of_the_dual():
    # Construction A of the dual code's generators, the rows of q times the
    # dual basis mod q, gives back the lattice those rows span, q L_C*, with
    # |C| |C_dual| = q^n
    from codelattice.verify import _family_corpus

    rng = random.Random(26)
    codes = _family_corpus() + [zero_code(3, 4), zero_code(2, 6)]
    codes += [_random_code(rng, n_max=5, q_choices=(2, 3, 4, 6)) for _ in range(40)]
    for code in codes:
        dual = dual_code(code)
        spanned = IntegralLattice.from_rows(dual_basis(code.lattice(), code.q))
        assert dual.lattice() == construction_a(dual) == spanned, (code.q, code.generators)
        assert code.cardinality * dual.cardinality == code.q ** code.n


def test_document_errors():
    with pytest.raises(ValueError):
        code_from_document({"q": 2, "n": 3})
    known = "(known: ('parity_check', 'reed_muller', 'extended_hamming', 'full', 'zero'))"
    for family in ("nonsense", ["parity_check"], 3):
        with pytest.raises(ValueError) as info:
            code_from_document({"q": 2, "n": 3, "family": family})
        assert str(info.value) == f"unknown family {family!r} {known}"
    # a missing parameter is a KeyError naming it, in the constructor's order
    with pytest.raises(KeyError, match="'r'"):
        code_from_document({"family": "reed_muller"})
    with pytest.raises(KeyError, match="'q'"):
        code_from_document({"family": "parity_check", "n": 3})
    # a family takes its parameters, plus q and n if they match the code
    assert code_from_document({"family": "reed_muller", "r": 1, "m": 3, "q": 2, "n": 8}).n == 8
    for doc in (
        {"family": "reed_muller", "r": 1, "m": 3, "q": 5, "n": 3},
        {"family": "reed_muller", "r": 1, "m": 3, "n": 5},
        {"family": "extended_hamming", "q": 3},
        {"family": "parity_check", "n": 4, "q": 2, "m": 3},
    ):
        with pytest.raises(ValueError):
            code_from_document(doc)


def test_read_spec_shapes_take_only_their_keys():
    code, lat = read_spec({"family": "parity_check", "n": 4, "q": 2})
    assert lat == code.lattice() == construction_a(parity_check_code(4, 2))
    code, lat = read_spec({"rows": [[2, 1], [1, 2]]})
    assert code is None and lat.det_gram == 9
    for doc in (
        {"q": 2, "n": 4, "generators": [[1, 1, 1, 1]], "m": 7},
        {"rows": [[1, 0], [0, 1]], "q": 5, "family": "zero"},
        {"rows": [[1, 0], [0, 1]], "n": 2},
        {"rows": [[1, 2], [2, 4]]},  # rank deficient
        [[1, 0], [0, 1]],
        {},
    ):
        with pytest.raises(ValueError):
            read_spec(doc)
    # the CLI's family flags, in FAMILIES order
    assert FAMILY_KEYS == ("n", "q", "r", "m")


def test_size_bound_is_checked_before_building(monkeypatch):
    def build(*args):
        raise AssertionError("an oversized document was built")

    for family in FAMILIES:
        monkeypatch.setitem(FAMILIES, family, (build, FAMILIES[family][1]))
    monkeypatch.setattr(codes, "LinearCode", build)
    monkeypatch.setattr(codes.IntegralLattice, "from_rows", build)
    row = [1] * MAX_LENGTH
    for doc in (
        {"family": "reed_muller", "r": 1, "m": 40},
        {"family": "reed_muller", "r": 1, "m": 8},
        {"family": "parity_check", "n": 100000, "q": 2},
        {"family": "full", "n": MAX_LENGTH + 1, "q": 2},
        {"family": "extended_hamming", "n": MAX_LENGTH + 1},
        {"q": 2, "n": MAX_LENGTH + 1, "generators": [[1] * (MAX_LENGTH + 1)]},
        {"q": 2, "n": MAX_LENGTH, "generators": [row] * (MAX_LENGTH + 1)},
        {"rows": [row] * (MAX_LENGTH + 1)},
        {"rows": [[1] * (MAX_LENGTH**2 + 1)]},
    ):
        with pytest.raises(ValueError, match="size bound"):
            read_spec(doc)


def test_family_table_dispatch():
    params = {"n": 4, "q": 3, "r": 1, "m": 3}
    for family, (make, names) in FAMILIES.items():
        args = [params[name] for name in names]
        code = code_from_document({"family": family, **{name: params[name] for name in names}})
        assert code == make(*args)
        assert code.family == family
        # the label a family constructor sets reads back to the same lattice
        again = code_from_document(json.loads(canonical_json(code_document(code))))
        assert again.family == family
        assert again.lattice() == code.lattice()


def test_only_a_family_constructor_labels_a_code():
    # a label beside generators could contradict them: [[1, 1, 1, 1]]
    # labelled parity_check would read back with cardinality 8, not 2
    with pytest.raises(TypeError):
        LinearCode(2, 4, [[1, 1, 1, 1]], family="parity_check", params={"n": 4, "q": 2})
    code = LinearCode(2, 4, [[1, 1, 1, 1]])
    assert (code.family, code.params) == (None, None)
    assert code_from_document(code_document(code)).cardinality == 2
    # a bool parameter is labelled as the integer the code was built from
    assert code_from_document(code_document(full_code(True, 2))) == full_code(1, 2)


def test_a_family_label_is_read_only():
    # a label assigned after construction could contradict the generators,
    # as a label passed to LinearCode could
    code = LinearCode(2, 4, [[1, 1, 1, 1]])
    with pytest.raises(AttributeError):
        code.family = "parity_check"
    with pytest.raises(AttributeError):
        code.params = {"n": 4, "q": 2}
    with pytest.raises(TypeError):
        parity_check_code(4, 2).params["n"] = 9
    # the documents of the family codes keep their keys and their order
    params = {"n": 4, "q": 3, "r": 1, "m": 3}
    documents = {
        family: list(code_document(make(*[params[name] for name in names])).items())
        for family, (make, names) in FAMILIES.items()
    }
    assert documents == {
        "parity_check": [("q", 3), ("n", 4), ("family", "parity_check")],
        "reed_muller": [("q", 2), ("n", 8), ("family", "reed_muller"), ("r", 1), ("m", 3)],
        "extended_hamming": [("q", 2), ("n", 8), ("family", "extended_hamming")],
        "full": [("q", 3), ("n", 4), ("family", "full")],
        "zero": [("q", 3), ("n", 4), ("family", "zero")],
    }


def test_generators_reduced_and_zero_rows_dropped():
    code = LinearCode(3, 3, [[3, 4, -1], [0, 0, 0], [6, 3, 3]])
    assert code.generators == ((0, 1, 2),)
    doc = json.loads(canonical_json(code_document(code)))
    assert doc["generators"] == [[0, 1, 2]]
