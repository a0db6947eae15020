"""Exact polynomial arithmetic over the rationals, plus Legendre polynomials.

A polynomial is immutable and canonical: coefficients are reduced rationals
(ascending powers), trailing zeros are stripped, and every operation is
exact. Internally the coefficients are integer numerators over one shared
positive denominator, so products and antiderivatives stay in integer
arithmetic; rationals only appear at the interface.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Union

Rational = Fraction
RationalLike = Union[int, Fraction]


def _canonical(den: int, nums: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    # strip trailing zeros, force den > 0, divide out the common factor
    n = len(nums)
    while n and nums[n - 1] == 0:
        n -= 1
    nums = nums[:n]
    if not nums:
        return 1, ()
    if den < 0:
        den = -den
        nums = tuple(-c for c in nums)
    g = den
    for c in nums:
        g = gcd(g, c)
        if g == 1:
            return den, nums
    return den // g, tuple(c // g for c in nums)


class Poly:
    """Polynomial with exact rational coefficients, ascending powers of x."""

    __slots__ = ("_den", "_nums")

    def __init__(self, coefficients: Iterable[RationalLike] = ()):
        coeffs = [Fraction(c) for c in coefficients]
        den = 1
        for c in coeffs:
            den = den * c.denominator // gcd(den, c.denominator)
        nums = tuple(c.numerator * (den // c.denominator) for c in coeffs)
        self._den, self._nums = _canonical(den, nums)

    @classmethod
    def _raw(cls, den: int, nums: tuple[int, ...]) -> "Poly":
        # trusted constructor for already-normalized internals
        p = object.__new__(cls)
        p._den, p._nums = _canonical(den, nums)
        return p

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        """Coefficients as reduced fractions, constant term first."""
        return tuple(Fraction(c, self._den) for c in self._nums)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self._nums) - 1

    def __bool__(self) -> bool:
        return bool(self._nums)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self._den == other._den and self._nums == other._nums

    def __hash__(self) -> int:
        return hash((self._den, self._nums))

    def __repr__(self) -> str:
        return f"Poly([{', '.join(str(c) for c in self.coefficients)}])"

    def __neg__(self) -> "Poly":
        return Poly._raw(self._den, tuple(-c for c in self._nums))

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self._nums, other._nums
        if len(a) < len(b):
            a, b = b, a
            da, db = other._den, self._den
        else:
            da, db = self._den, other._den
        out = [c * db for c in a]
        for i, c in enumerate(b):
            out[i] += c * da
        return Poly._raw(da * db, tuple(out))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: Union["Poly", RationalLike]) -> "Poly":
        if isinstance(other, Poly):
            if not self._nums or not other._nums:
                return ZERO
            out = [0] * (len(self._nums) + len(other._nums) - 1)
            for i, ca in enumerate(self._nums):
                if ca:
                    for j, cb in enumerate(other._nums):
                        out[i + j] += ca * cb
            return Poly._raw(self._den * other._den, tuple(out))
        c = Fraction(other)
        return Poly._raw(self._den * c.denominator,
                         tuple(n * c.numerator for n in self._nums))

    __rmul__ = __mul__

    def __call__(self, x: RationalLike) -> Fraction:
        """Evaluate exactly at a rational point."""
        if not self._nums:
            return Fraction(0)
        x = Fraction(x)
        a, b = x.numerator, x.denominator
        acc = 0
        pw = 1  # b ** (degree - i) as i runs down
        for c in reversed(self._nums):
            acc = acc * a + c * pw
            pw *= b
        return Fraction(acc, self._den * (pw // b))

    def derivative(self) -> "Poly":
        """Formal derivative."""
        nums = tuple(i * c for i, c in enumerate(self._nums))[1:]
        return Poly._raw(self._den, nums)

    def antiderivative(self) -> "Poly":
        """Antiderivative with zero constant term."""
        if not self._nums:
            return ZERO
        scale = lcm(*range(1, len(self._nums) + 1))
        nums = (0,) + tuple(c * (scale // (i + 1))
                            for i, c in enumerate(self._nums))
        return Poly._raw(self._den * scale, nums)

    def antiderivative_from(self, lower: RationalLike) -> "Poly":
        """Antiderivative F with F(lower) = 0."""
        f = self.antiderivative()
        return f - Poly([f(lower)])


ZERO = Poly()
ONE = Poly([1])
X = Poly([0, 1])


@lru_cache(maxsize=None)
def legendre(n: int) -> Poly:
    """Legendre polynomial P_n on [-1, 1], normalized by P_n(1) = 1."""
    if n < 0 or not isinstance(n, int):
        raise ValueError(f"Legendre degree must be a nonnegative integer, got {n!r}")
    if n == 0:
        return ONE
    if n == 1:
        return X
    # (n) P_n = (2n - 1) x P_{n-1} - (n - 1) P_{n-2}
    return (X * legendre(n - 1)) * Fraction(2 * n - 1, n) \
        - legendre(n - 2) * Fraction(n - 1, n)
