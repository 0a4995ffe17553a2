"""Exact scalar arithmetic: rationals and real quadratic fields Q(sqrt(d)).

Every geometry module computes over these scalars.  A scalar is an ``int``,
a ``fractions.Fraction`` or a :class:`QuadRat`; the three types mix freely
in arithmetic as long as at most one square-free discriminant is involved.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm, sqrt
from typing import Union


class MixedDiscriminantError(ValueError):
    """Arithmetic between two genuinely irrational values of different fields."""


def frac(x) -> Fraction:
    """Coerce an int, string ("p/q") or Fraction to a Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n > 0 as s**2 * d with d square-free; returns (s, d)."""
    if n <= 0:
        raise ValueError("positive integer required")
    s, d, p = 1, 1, 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        s *= p ** (e // 2)
        if e % 2:
            d *= p
        p += 1 if p == 2 else 2
    return s, d * n


Scalar = Union[int, Fraction, "QuadRat"]

_ZERO, _ONE = Fraction(0), Fraction(1)


class QuadRat:
    """An element a + b*sqrt(d) of the real quadratic field Q(sqrt(d)).

    d is a square-free integer > 1, fixed per value; a and b are reduced
    rationals.  Values with b == 0 are rational and interoperate with any
    discriminant.  All operations are exact; instances are immutable.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d: int):
        a, b = frac(a), frac(b)
        if b != 0:
            if d <= 1:
                raise ValueError("discriminant must be an integer > 1")
            s, d0 = squarefree_decompose(d)
            if s != 1:
                b, d = b * s, d0
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    @classmethod
    def _make(cls, a: Fraction, b: Fraction, d: int) -> "QuadRat":
        """Trusted constructor for arithmetic results: a and b are already
        Fractions and d is already square-free whenever b != 0."""
        self = object.__new__(cls)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)
        return self

    def __setattr__(self, *_):
        raise AttributeError("QuadRat is immutable")

    # -- construction helpers -------------------------------------------

    @staticmethod
    def sqrt(n) -> Scalar:
        """sqrt(n) for a non-negative rational n, as an exact scalar."""
        n = frac(n)
        if n < 0:
            raise ValueError("negative radicand")
        if n == 0:
            return Fraction(0)
        # sqrt(p/q) = sqrt(p*q)/q
        s, d = squarefree_decompose(n.numerator * n.denominator)
        coeff = Fraction(s, n.denominator)
        if d == 1:
            return coeff
        return QuadRat(0, coeff, d)

    def _coerce(self, other) -> "QuadRat | None":
        if isinstance(other, QuadRat):
            if other.b == 0:
                return QuadRat._make(other.a, _ZERO,
                                     self.d if self.b else other.d)
            if self.b != 0 and self.d != other.d:
                raise MixedDiscriminantError(
                    f"cannot mix sqrt({self.d}) with sqrt({other.d})")
            return other
        if isinstance(other, Fraction):
            return QuadRat._make(other, _ZERO, self.d)
        if isinstance(other, int):
            return QuadRat._make(Fraction(other), _ZERO, self.d)
        return None

    # -- field structure --------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if self.b != 0:
            raise ValueError(f"{self} is irrational")
        return self.a

    def conjugate(self) -> "QuadRat":
        return QuadRat._make(self.a, -self.b, self.d)

    def norm(self) -> Fraction:
        """Field norm a**2 - d*b**2 (multiplicative, rational)."""
        return self.a * self.a - self.b * self.b * self.d

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self.d if self.b else o.d
        return QuadRat._make(self.a + o.a, self.b + o.b, d)

    __radd__ = __add__

    def __neg__(self):
        return QuadRat._make(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self.d if self.b else o.d
        return QuadRat._make(self.a - o.a, self.b - o.b, d)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self.d if self.b else o.d
        return QuadRat._make(self.a * o.a + self.b * o.b * d,
                             self.a * o.b + self.b * o.a, d)

    __rmul__ = __mul__

    def inverse(self) -> "QuadRat":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(d))")
        return QuadRat._make(self.a / n, -self.b / n, self.d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        base = self if k >= 0 else self.inverse()
        out = QuadRat._make(_ONE, _ZERO, self.d)
        k = abs(k)
        while k:                      # repeated squaring
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    # -- comparisons -------------------------------------------------------

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(d)."""
        if self.b == 0:
            return (self.a > 0) - (self.a < 0)
        if self.a == 0:
            return 1 if self.b > 0 else -1
        if self.a > 0 and self.b > 0:
            return 1
        if self.a < 0 and self.b < 0:
            return -1
        # opposite signs: compare a**2 with d*b**2
        lhs, rhs = self.a * self.a, self.b * self.b * self.d
        if lhs == rhs:
            return 0  # unreachable for square-free d > 1
        bigger_rational = lhs > rhs
        return (1 if bigger_rational else -1) if self.a > 0 else \
               (-1 if bigger_rational else 1)

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except MixedDiscriminantError:
            return False  # sqrt(d) never lies in Q(sqrt(d')) for d != d'
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __le__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() <= 0

    def __gt__(self, other):
        return not self <= other

    def __ge__(self, other):
        return not self < other

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __abs__(self):
        return self if self.sign() >= 0 else -self

    def __float__(self):
        return float(self.a) + float(self.b) * sqrt(self.d)

    def __floor__(self) -> int:
        """Exact floor, without floats: write the value as (A + B sqrt(d))/D
        with integers A, B, D; isqrt gives the floor of B sqrt(d), which is
        irrational whenever B != 0."""
        den = lcm(self.a.denominator, self.b.denominator)
        num_a = self.a.numerator * (den // self.a.denominator)
        num_b = self.b.numerator * (den // self.b.denominator)
        root = isqrt(num_b * num_b * self.d)
        if num_b < 0:
            root = -root - 1
        return (num_a + root) // den

    def __repr__(self):
        return f"QuadRat({self.a!r}, {self.b!r}, {self.d})"

    def __str__(self):
        return format_scalar(self)


def quad_arith(x: QuadRat, y: QuadRat, op: str) -> QuadRat:
    """Field arithmetic in Q(sqrt(d)); both operands must share one field."""
    ops = {"add": x.__add__, "sub": x.__sub__,
           "mul": x.__mul__, "div": x.__truediv__}
    if op not in ops:
        raise ValueError(f"unknown operation {op!r}")
    out = ops[op](y)
    if out is NotImplemented:
        raise TypeError(f"cannot {op} {x!r} and {y!r}")
    return out


def galois_conjugate(x: Scalar) -> Scalar:
    """The automorphism sqrt(d) -> -sqrt(d); fixes rationals."""
    if isinstance(x, QuadRat):
        return x.conjugate()
    return x


def scalar_is_rational(x: Scalar) -> bool:
    return not (isinstance(x, QuadRat) and x.b != 0)


def as_exact(x) -> Scalar:
    """Coerce to an exact scalar; rejects floats."""
    if isinstance(x, QuadRat):
        return x
    return frac(x)


def format_scalar(x: Scalar) -> str:
    """Canonical rendering "a + b√d" with reduced fractions."""
    if not isinstance(x, QuadRat) or x.b == 0:
        q = x.a if isinstance(x, QuadRat) else frac(x)
        return str(q)
    root = f"√{x.d}"
    if abs(x.b) == 1:
        bpart = root
    else:
        bpart = f"{abs(x.b)}{root}"
    sign = "-" if x.b < 0 else "+"
    if x.a == 0:
        return f"-{bpart}" if x.b < 0 else bpart
    return f"{x.a} {sign} {bpart}"
