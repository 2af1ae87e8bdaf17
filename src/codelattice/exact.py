"""Exact arithmetic on non-negative radicals (p/q)**(1/r).

Every invariant this library computes is a single radical of a rational
number, so this small kernel is all the number theory the rest of the code
needs: exact products, rational powers, a total-order comparison, and
correctly rounded decimal rendering.  No floating point is used anywhere.

Rationals are plain ``fractions.Fraction`` values (arbitrary-precision,
always gcd-reduced with a positive denominator).
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering
from math import isqrt, lcm
from operator import index

__all__ = ["Radical", "integer_root", "exact_root", "positional"]


def integer_root(n: int, k: int) -> int:
    """Largest x >= 0 with x**k <= n, for n >= 0 and k >= 1."""
    if n < 0:
        raise ValueError("negative radicand")
    if k < 1:
        raise ValueError("root must be positive")
    if k == 1 or n in (0, 1):
        return n
    if k == 2:
        return isqrt(n)
    # Newton iteration on integers, seeded from above.
    x = 1 << ((n.bit_length() + k - 1) // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x ** k > n:
        x -= 1
    return x


def exact_root(n: int, k: int) -> int | None:
    """x with x**k == n, or None if n is not a perfect k-th power."""
    x = integer_root(n, k)
    return x if x ** k == n else None


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def positional(m: int, t: int, digits: int) -> str:
    """The decimal string of m * 10**(t - digits), where m has `digits`
    digits: t of them before the decimal point (none if t <= 0)."""
    digs = str(m)
    if t >= digits:
        return digs + "0" * (t - digits)
    if t >= 1:
        return digs[:t] + "." + digs[t:]
    return "0." + "0" * (-t) + digs


@total_ordering
class Radical:
    """A non-negative real number radicand**(1/root), kept canonical.

    Canonical form has a minimal root: whenever the radicand is a perfect
    p-th power for a prime p dividing the root, the root is reduced.  Two
    radicals are equal as reals iff their canonical forms coincide, so
    comparison and hashing are structural; a rational radical (root 1)
    equals and hashes as its radicand.  Instances are immutable and
    safe to share between threads.  `<=` and `>=` come from
    `total_ordering`; `>` is written out, as propagation uses it on every
    step.
    """

    __slots__ = ("radicand", "root")

    def __init__(self, radicand, root: int = 1):
        radicand = Fraction(radicand)
        if radicand < 0:
            raise ValueError("radicand must be non-negative")
        root = index(root)
        if root < 1:
            raise ValueError("root must be a positive integer")
        if radicand == 0 or radicand == 1:
            root = 1
        else:
            for p in _prime_factors(root):
                while root % p == 0:
                    num = exact_root(radicand.numerator, p)
                    if num is None:
                        break
                    den = exact_root(radicand.denominator, p)
                    if den is None:
                        break
                    radicand = Fraction(num, den)
                    root //= p
        self.radicand = radicand
        self.root = root

    # -- conversions -------------------------------------------------

    def as_triple(self) -> tuple[int, int, int]:
        """(numerator, denominator, root) of the canonical form."""
        return (self.radicand.numerator, self.radicand.denominator, self.root)

    def is_rational(self) -> bool:
        return self.root == 1

    def __float__(self) -> float:
        return float(self.to_decimal(17))

    # -- comparison --------------------------------------------------

    @staticmethod
    def _coerce(other) -> "Radical":
        if isinstance(other, Radical):
            return other
        if isinstance(other, (int, Fraction)):
            return Radical(other)
        return NotImplemented  # type: ignore[return-value]

    def _cmp(self, other: "Radical") -> int:
        m = lcm(self.root, other.root)
        a = self.radicand ** (m // self.root)
        b = other.radicand ** (m // other.root)
        return (a > b) - (a < b)

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.radicand == other.radicand and self.root == other.root

    def __hash__(self):
        # a rational radical equals its radicand, so it hashes alike
        if self.root == 1:
            return hash(self.radicand)
        return hash((self.radicand, self.root))

    def __lt__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._cmp(other) < 0

    def __gt__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._cmp(other) > 0

    # -- arithmetic --------------------------------------------------

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        m = lcm(self.root, other.root)
        return Radical(
            self.radicand ** (m // self.root) * other.radicand ** (m // other.root),
            m,
        )

    __rmul__ = __mul__

    def __pow__(self, exponent):
        e = Fraction(exponent)
        if e == 0:
            return Radical(1)
        base = self.radicand
        u, v = e.numerator, e.denominator
        if u < 0:
            if base == 0:
                raise ZeroDivisionError("zero radical raised to a negative power")
            base = 1 / base
            u = -u
        return Radical(base ** u, self.root * v)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other ** -1

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self ** -1

    # -- decimal rendering -------------------------------------------

    def _cmp_pow10(self, k: int) -> int:
        """Sign of (self - 10**k)."""
        if k >= 0:
            rhs = Fraction(10) ** (k * self.root)
        else:
            rhs = Fraction(1, 10 ** (-k * self.root))
        return (self.radicand > rhs) - (self.radicand < rhs)

    def to_decimal(self, digits: int = 6) -> str:
        """Positional decimal string with `digits` significant digits.

        Rounding is to nearest, ties away from zero, decided by exact
        integer comparisons.
        """
        if digits < 1:
            raise ValueError("digits must be >= 1")
        if self.radicand == 0:
            return "0"
        # t is the unique integer with 10**(t-1) <= self < 10**t.
        t = 0
        if self._cmp_pow10(0) >= 0:
            while self._cmp_pow10(t) >= 0:
                t += 1
        else:
            while self._cmp_pow10(t - 1) < 0:
                t -= 1
        s = digits - t
        scaled = self.radicand * Fraction(10) ** (s * self.root)
        p, q = scaled.numerator, scaled.denominator
        r = self.root
        # floor((p/q)**(1/r)), which is floor(floor(p/q)**(1/r))
        m = integer_root(p // q, r)
        # round half up on the exact value
        if (2 * m + 1) ** r * q <= p * 2 ** r:
            m += 1
        if m >= 10 ** digits:
            m //= 10
            t += 1
        return positional(m, t, digits)

    # -- display -----------------------------------------------------

    def __str__(self) -> str:
        if self.root == 1:
            return str(self.radicand)
        return f"({self.radicand})^(1/{self.root})"

    def __repr__(self) -> str:
        return f"Radical({self.radicand!r}, {self.root})"
