import decimal
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from codelattice.exact import Radical, exact_root, integer_root


def test_integer_root():
    assert integer_root(0, 3) == 0
    assert integer_root(1, 7) == 1
    assert integer_root(26, 3) == 2
    assert integer_root(27, 3) == 3
    assert integer_root(10 ** 30, 5) == 10 ** 6
    assert exact_root(32, 5) == 2
    assert exact_root(31, 5) is None


def test_canonical_forms():
    assert Radical(4, 2) == Radical(2)
    assert Radical(4, 2).root == 1
    assert Radical(8, 5).as_triple() == (8, 1, 5)
    assert Radical(Fraction(64, 3), 6).as_triple() == (64, 3, 6)
    assert Radical(0, 9).as_triple() == (0, 1, 1)
    assert Radical(1, 12).as_triple() == (1, 1, 1)
    assert Radical(Fraction(27, 8), 3) == Radical(Fraction(3, 2))


def test_compare_examples():
    assert Radical(2, 3) == Radical(2, 3)
    # 3/4^(2/5) = (3^5/4^2)^(1/5) is below 2
    assert Radical(Fraction(243, 16), 5) < Radical(2)
    # 8^(1/5) < 2 because 8 < 2^5
    assert Radical(8, 5) < Radical(2) < Radical(9, 3)


def test_mul_pow_examples():
    assert Radical(2, 3) ** 3 == Radical(2)
    assert Radical(Fraction(64, 3), 6) ** 2 == Radical(Fraction(64, 3), 3)
    assert Radical(2) ** Fraction(5, 3) == Radical(32, 3)
    assert Radical(2, 2) * Radical(2, 2) == Radical(2)
    assert Radical(2, 3) * Radical(4, 3) == Radical(2)
    assert Radical(3, 2) / Radical(3, 2) == Radical(1)
    with pytest.raises(ZeroDivisionError):
        Radical(0) ** -1


def test_decimal_examples():
    assert Radical(Fraction(243, 16), 5).to_decimal(4) == "1.723"
    assert Radical(3, 2).to_decimal(5) == "1.7321"
    assert Radical(1).to_decimal(5) == "1.0000"
    assert Radical(Fraction(2187, 16), 7).to_decimal(5) == "2.0189"
    assert (Radical(2) ** Fraction(5, 3)).to_decimal(5) == "3.1748"
    assert Radical(Fraction(8, 3)).to_decimal(5) == "2.6667"
    assert Radical(2).to_decimal(1) == "2"
    assert Radical(1073741824).to_decimal(6) == "1073740000"
    assert (Radical(2) ** Fraction(-3, 2)).to_decimal(4) == "0.3536"


def test_decimal_rounding_carries_into_a_new_digit():
    # the mantissa rounds up to 10**digits and keeps `digits` digits
    assert Radical(Fraction(1999999, 200000)).to_decimal(6) == "10.0000"
    assert Radical(Fraction(999999, 1000)).to_decimal(3) == "1000"
    assert Radical(Fraction(1999, 2000)).to_decimal(3) == "1.00"
    assert Radical(Fraction(999999, 10000), 2).to_decimal(5) == "10.000"


def _decimal_reference(value, digits):
    """value to `digits` significant digits, ties away from zero, by the
    decimal module at 40 guard digits: a rendering independent of
    `to_decimal`'s integer roots."""
    num, den, root = value.as_triple()
    with decimal.localcontext() as ctx:
        ctx.prec = digits + 40
        x = Decimal(num) / Decimal(den)
        if root > 1:
            x = (x.ln() / root).exp()
        exp = x.adjusted() - digits + 1
        y = x.quantize(Decimal(1).scaleb(exp), rounding=decimal.ROUND_HALF_UP)
        if y.adjusted() > x.adjusted():  # rounded up to a power of ten
            y = y.quantize(Decimal(1).scaleb(exp + 1))
    return format(y, "f")


def test_decimal_matches_the_decimal_module():
    rng = random.Random(29)
    for _ in range(1500):
        num = rng.randint(1, 10 ** 6)
        # a power-of-ten denominator makes exact ties at the last digit
        den = rng.choice((rng.randint(1, 10 ** 6), 10 ** rng.randint(0, 6)))
        value = Radical(Fraction(num, den), rng.choice((1, 1, 2, 3, 5, 12)))
        digits = rng.randint(1, 15)
        assert value.to_decimal(digits) == _decimal_reference(value, digits), (value, digits)


def _random_radical(rng):
    num = rng.randint(1, 10 ** 6)
    den = rng.randint(1, 10 ** 6)
    root = rng.randint(1, 12)
    return Radical(Fraction(num, den), root)


def test_total_order_on_random_triples():
    rng = random.Random(7)
    for _ in range(300):
        a, b, c = (_random_radical(rng) for _ in range(3))
        # trichotomy and antisymmetry
        assert [a < b, a == b, a > b].count(True) == 1
        assert (a < b) == (b > a)
        # transitivity
        if a <= b and b <= c:
            assert a <= c
        # consistency with multiplication by a positive radical
        if a < b:
            assert a * c < b * c or c == Radical(0)


def _powered(rng):
    """(a, r): a rational a, often a perfect power, and a root r <= 12, so
    that Radical(a, r) often reduces its root."""
    base = Fraction(rng.randint(0, 40), rng.randint(1, 40))
    k = rng.randint(1, 4)
    return base**k, k * rng.randint(1, 12 // k)


def test_order_agrees_with_cross_powering():
    # a^(1/r) against b^(1/s) compares as a^s against b^r, for the roots as
    # given and not only for canonical ones: Radical(8, 6) is 2^(1/2)
    rng = random.Random(17)
    pairs = [
        ((8, 6), (2, 2)),
        ((8, 6), (4, 4)),
        ((64, 12), (3, 2)),
        ((Fraction(27, 8), 3), (Fraction(3, 2), 1)),
        ((0, 9), (1, 12)),
    ]
    pairs += [(_powered(rng), _powered(rng)) for _ in range(400)]
    # equal values under different roots: c^(k1 / (k1 m)) and c^(k2 / (k2 m))
    for _ in range(100):
        c = Fraction(rng.randint(0, 40), rng.randint(1, 40))
        m = rng.randint(1, 4)
        k1, k2 = rng.randint(1, 12 // m), rng.randint(1, 12 // m)
        pairs.append(((c**k1, k1 * m), (c**k2, k2 * m)))
    for (a, r), (b, s) in pairs:
        x, y = Radical(a, r), Radical(b, s)
        lhs, rhs = Fraction(a) ** s, Fraction(b) ** r
        assert (x < y, x == y, x > y) == (lhs < rhs, lhs == rhs, lhs > rhs), (a, r, b, s)
        if x == y:
            assert hash(x) == hash(y), (a, r, b, s)


def test_pow_composition():
    rng = random.Random(11)
    for _ in range(200):
        x = _random_radical(rng)
        e1 = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        e2 = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        if x.radicand == 0 and (e1 < 0 or e2 < 0 or e1 * e2 < 0):
            continue
        assert (x ** e1) ** e2 == x ** (e1 * e2)


def test_decimal_consistent_with_compare():
    rng = random.Random(13)
    for _ in range(150):
        a = _random_radical(rng)
        b = _random_radical(rng)
        if a == b:
            continue
        lo, hi = (a, b) if a < b else (b, a)
        # 30 significant digits separate any two distinct random radicals
        # of this size; compare the renderings as exact rationals.
        assert Fraction(lo.to_decimal(30)) <= Fraction(hi.to_decimal(30))


def test_float_and_str():
    assert abs(float(Radical(2, 2)) - 2 ** 0.5) < 1e-12
    assert str(Radical(Fraction(3, 2))) == "3/2"
    assert str(Radical(Fraction(3, 2), 2)) == "(3/2)^(1/2)"


def test_mixed_operand_arithmetic():
    assert 2 * Radical(2, 2) == Radical(8, 2)
    assert Radical(8, 2) / 2 == Radical(2, 2)
    assert 2 / Radical(2) == Radical(1)
    assert Radical(2, 2) == Radical(Fraction(2), 2)
    assert Radical(4, 2) == 2
    assert Radical(8, 5) != "text"
    with pytest.raises(ValueError):
        Radical(-1)
    with pytest.raises(ValueError):
        Radical(2, 0)
