"""Exact scalar arithmetic: rationals and real quadratic fields Q(sqrt(d)).

Every geometry module computes over these scalars.  A scalar is an ``int``,
a ``fractions.Fraction`` or a :class:`QuadRat`; the three types mix freely
in arithmetic as long as at most one square-free discriminant is involved.
`power` is the one repeated-squaring loop, for any associative product:
powers of `QuadRat`, of integer matrices and of rotations go through it.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import count
from math import gcd, isqrt, lcm, sqrt
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


def power(x, n: int, mul, one):
    """x**n for n >= 0 by repeated squaring, with mul the product and one
    its identity.  It multiplies once per set bit of n and squares once per
    bit below the highest, so n = 2**k takes k + 1 products."""
    out = one
    while n:
        if n & 1:
            out = mul(out, x)
        n >>= 1
        if n:
            x = mul(x, x)
    return out


# Factoring: trial division below _TRIAL_BOUND, then Miller-Rabin and
# Pollard's rho on what is left.  The Miller-Rabin bases below are the first
# 13 primes, which decide primality for every n < FACTOR_LIMIT (Sorenson and
# Webster 2015); a larger cofactor is refused rather than guessed at.
_TRIAL_BOUND = 1000
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
FACTOR_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for odd 41 < n < FACTOR_LIMIT."""
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_factor(n: int) -> int:
    """A proper divisor of the odd composite n: Pollard's rho with Brent's
    cycle finding and batched gcds (Pollard 1975, Brent 1980)."""
    for c in count(1):
        y, power, g, acc = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(power):
                y = (y * y + c) % n
            k = 0
            while k < power and g == 1:
                saved = y
                for _ in range(min(128, power - k)):
                    y = (y * y + c) % n
                    acc = acc * abs(x - y) % n
                g = gcd(acc, n)
                k += 128
            power *= 2
        if g == n:
            # the batch overshot the collision: redo it one step at a time
            g = 1
            while g == 1:
                saved = (saved * saved + c) % n
                g = gcd(abs(x - saved), n)
        if g != n:
            return g


def _factorize(n: int) -> dict[int, int]:
    """{prime: exponent} for an integer n > 0."""
    factors: dict[int, int] = {}
    p = 2
    while p < _TRIAL_BOUND and p * p <= n:
        while n % p == 0:
            n //= p
            factors[p] = factors.get(p, 0) + 1
        p += 1 if p == 2 else 2
    if n == 1:
        return factors
    if n >= FACTOR_LIMIT:
        raise ValueError(
            f"cannot factor: the part {n} without prime factors below "
            f"{_TRIAL_BOUND} is not below the factoring limit {FACTOR_LIMIT}")
    pending = [n]                     # no prime factor below p remains
    while pending:
        m = pending.pop()
        if p * p > m or _is_prime(m):
            factors[m] = factors.get(m, 0) + 1
        else:
            f = _rho_factor(m)
            pending += [f, m // f]
    return factors


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n > 0 as s**2 * d with d square-free; returns (s, d).

    Raises ValueError when the part of n left after trial division is not
    below FACTOR_LIMIT, so every call ends in bounded time (about a second
    for the worst case below the limit, two primes near 1.8e12)."""
    if n <= 0:
        raise ValueError("positive integer required")
    s = d = 1
    for p, e in _factorize(n).items():
        s *= p ** (e // 2)
        if e % 2:
            d *= p
    return s, d


Scalar = Union[int, Fraction, "QuadRat"]

_HASH_MODULUS = sys.hash_info.modulus


class QuadRat:
    """An element a + b*sqrt(d) of the real quadratic field Q(sqrt(d)).

    d is a square-free integer > 1, fixed per value.  The value is stored
    over one common denominator as integers (p + q*sqrt(d))/r with r > 0 and
    gcd(p, q, r) == 1, so every value has exactly one (p, q, r); a and b are
    the reduced rationals p/r and q/r.  Values with b == 0 are rational and
    interoperate with any discriminant.  All operations are exact;
    instances are immutable.
    """

    # _hash is set on the first hash() call; p, q, r, d by the constructors
    __slots__ = ("p", "q", "r", "d", "_hash")

    def __init__(self, a, b, d: int):
        a, b = frac(a), frac(b)
        if b != 0:
            if d <= 1:
                raise ValueError("discriminant must be an integer > 1")
            s, d0 = squarefree_decompose(d)
            if s != 1:
                b, d = b * s, d0
        r = lcm(a.denominator, b.denominator)
        _set_p(self, a.numerator * (r // a.denominator))
        _set_q(self, b.numerator * (r // b.denominator))
        _set_r(self, r)
        _set_d(self, d)

    def __setattr__(self, *_):
        raise AttributeError("QuadRat is immutable")

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through the trusted constructor;
        # the default slot restore would go through __setattr__
        return _reduced, (self.p, self.q, self.r, self.d)

    @property
    def a(self) -> Fraction:
        """The rational part p/r, reduced."""
        return Fraction(self.p, self.r)

    @property
    def b(self) -> Fraction:
        """The coefficient q/r of sqrt(d), reduced."""
        return Fraction(self.q, self.r)

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
        if d == 1:
            return Fraction(s, n.denominator)
        return _reduced(0, s, n.denominator, d)     # d is square-free

    def _coerce(self, other) -> "tuple[int, int, int, int] | None":
        """(p, q, r, d) of `other`, with d the field of a result combining
        self and other; None if other is not an exact scalar."""
        if isinstance(other, QuadRat):
            if self.q and other.q and self.d != other.d:
                raise MixedDiscriminantError(
                    f"cannot mix sqrt({self.d}) with sqrt({other.d})")
            return other.p, other.q, other.r, self.d if self.q else other.d
        if isinstance(other, int):
            return other, 0, 1, self.d
        if isinstance(other, Fraction):
            return other.numerator, 0, other.denominator, self.d
        return None

    # -- field structure --------------------------------------------------

    def as_fraction(self) -> Fraction:
        if self.q != 0:
            raise ValueError(f"{self} is irrational")
        return Fraction(self.p, self.r)

    def conjugate(self) -> "QuadRat":
        return _reduced(self.p, -self.q, self.r, self.d)

    def norm(self) -> Fraction:
        """Field norm a**2 - d*b**2 (multiplicative, rational)."""
        return Fraction(self.p * self.p - self.q * self.q * self.d,
                        self.r * self.r)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p, q, r, d = o
        if r == self.r:
            return _reduced(self.p + p, self.q + q, r, d)
        return _reduced(self.p * r + p * self.r, self.q * r + q * self.r,
                        self.r * r, d)

    __radd__ = __add__

    def __neg__(self):
        return _reduced(-self.p, -self.q, self.r, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p, q, r, d = o
        if r == self.r:
            return _reduced(self.p - p, self.q - q, r, d)
        return _reduced(self.p * r - p * self.r, self.q * r - q * self.r,
                        self.r * r, d)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p, q, r, d = o
        return _reduced(self.p * p + self.q * q * d, self.p * q + self.q * p,
                        self.r * r, d)

    __rmul__ = __mul__

    def inverse(self) -> "QuadRat":
        # r/(p + q sqrt d) = r (p - q sqrt d) / (p^2 - d q^2)
        p, q, r = self.p, self.q, self.r
        n = p * p - q * q * self.d
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(d))")
        if n < 0:
            n, r = -n, -r
        return _reduced(r * p, -r * q, n, self.d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # (p1 + q1 s)/r1 / ((p2 + q2 s)/r2)
        #     = r2 (p1 + q1 s)(p2 - q2 s) / (r1 (p2^2 - d q2^2))
        p, q, r, d = o
        n = p * p - q * q * d
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(d))")
        if n < 0:
            n, r = -n, -r
        return _reduced(r * (self.p * p - self.q * q * d),
                        r * (self.q * p - self.p * q), self.r * n, d)

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        base = self if k >= 0 else self.inverse()
        return power(base, abs(k), QuadRat.__mul__, _reduced(1, 0, 1, self.d))

    # -- comparisons -------------------------------------------------------

    def sign(self) -> int:
        """Exact sign of (p + q*sqrt(d))/r, i.e. of p + q*sqrt(d)."""
        p, q = self.p, self.q
        if q == 0:
            return (p > 0) - (p < 0)
        if p == 0 or (p > 0) == (q > 0):
            return 1 if q > 0 else -1
        # opposite signs: the larger of p^2 and d q^2 decides
        # (never equal, since d > 1 is square-free)
        if p * p > q * q * self.d:
            return 1 if p > 0 else -1
        return 1 if q > 0 else -1

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except MixedDiscriminantError:
            return False  # sqrt(d) never lies in Q(sqrt(d')) for d != d'
        if o is None:
            return NotImplemented
        return self.p == o[0] and self.q == o[1] and self.r == o[2]

    def __lt__(self, other):
        diff = self.__sub__(other)
        return diff if diff is NotImplemented else diff.sign() < 0

    def __le__(self, other):
        diff = self.__sub__(other)
        return diff if diff is NotImplemented else diff.sign() <= 0

    def __gt__(self, other):
        return not self <= other

    def __ge__(self, other):
        return not self < other

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:        # first call: compute and keep it
            h = self._numeric_hash()
            _set_hash(self, h)
            return h

    def _numeric_hash(self) -> int:
        # hash(a) when b == 0 and hash((a, b, d)) otherwise, for the
        # Fractions a and b, by the numeric hash rule that Fraction.__hash__
        # follows: +-(|n| * r**-1 mod P), with -1 mapped to -2.  Its value
        # does not depend on n/r being in lowest terms.
        p, q, r = self.p, self.q, self.r
        try:
            dinv = pow(r, -1, _HASH_MODULUS)
        except ValueError:            # r is a multiple of the modulus
            return hash((self.a, self.b, self.d)) if q else hash(self.a)
        h = abs(p) * dinv % _HASH_MODULUS
        h = -2 if p < 0 and h == 1 else (-h if p < 0 else h)
        if q == 0:
            return h
        k = abs(q) * dinv % _HASH_MODULUS
        k = -2 if q < 0 and k == 1 else (-k if q < 0 else k)
        return hash((h, k, self.d))

    def __bool__(self):
        return self.p != 0 or self.q != 0

    def __abs__(self):
        return self if self.sign() >= 0 else -self

    def __float__(self):
        # int / int is correctly rounded, as float(Fraction) is
        return self.p / self.r + self.q / self.r * sqrt(self.d)

    def __floor__(self) -> int:
        """Exact floor, without floats: isqrt gives the floor of q sqrt(d),
        which is irrational whenever q != 0."""
        root = isqrt(self.q * self.q * self.d)
        if self.q < 0:
            root = -root - 1
        return (self.p + root) // self.r

    def __repr__(self):
        return f"QuadRat({self.a!r}, {self.b!r}, {self.d})"

    def __str__(self):
        return format_scalar(self)


_set_p, _set_q, _set_r, _set_d, _set_hash = (
    QuadRat.__dict__[name].__set__ for name in QuadRat.__slots__)
_new = object.__new__


def _reduced(p: int, q: int, r: int, d: int) -> QuadRat:
    """Trusted constructor for arithmetic results: r > 0 and d is
    square-free whenever q != 0; divides out gcd(p, q, r)."""
    g = gcd(p, q, r)
    if g != 1:
        p //= g
        q //= g
        r //= g
    x = _new(QuadRat)
    _set_p(x, p)
    _set_q(x, q)
    _set_r(x, r)
    _set_d(x, d)
    return x


def galois_conjugate(x: Scalar) -> Scalar:
    """The automorphism sqrt(d) -> -sqrt(d); fixes rationals."""
    if isinstance(x, QuadRat):
        return x.conjugate()
    return x


def scalar_is_rational(x: Scalar) -> bool:
    return not (isinstance(x, QuadRat) and x.q != 0)


def integer_rows(vectors, lead: int = 0) \
        -> tuple[int, tuple[int, ...], list[tuple[int, ...]]]:
    """(r, radicands, rows) for exact vectors of one width w: the
    radicands (1, d_1, ..., d_k) of the fields that occur (lead first,
    when given), and each vector as an integer row over the least common
    denominator r on the Q-basis {1, sqrt(d_1), ...}, block j holding the
    sqrt(d_j) coefficients of all w coordinates: (x, y) -> (x_0, y_0, x_1,
    y_1, ...) for x = (x_0 + x_1 sqrt(d_1) + ...) / r.  1 and the
    sqrt(d_i) are linearly independent over Q, so the rows have the
    Q-rank of the vectors.  The one conversion from exact scalars to
    integers: each entry's type is tested once, int, Fraction and QuadRat
    are read directly, anything else goes through `as_exact`, so a string
    parses and a float is a domain error.  With no vectors, r = 1."""
    parts = []
    roots = set()
    width = 0
    for v in vectors:
        width = len(v)
        for x in v:
            t = type(x)
            if t is QuadRat:
                parts.append((x.p, x.q, x.r, x.d))
                if x.q:
                    roots.add(x.d)
                continue
            if t is not int and t is not Fraction:
                x = as_exact(x)
            parts.append((x.numerator, 0, x.denominator, 0))
    r = lcm(*[part[2] for part in parts])
    roots.discard(lead)
    fields = sorted(roots)
    if lead:
        fields.insert(0, lead)
    slot = {d: k * width for k, d in enumerate(fields, 1)}
    size = width * (len(fields) + 1)
    rows = []
    j = width
    for p, q, s, d in parts:
        if j == width:
            row = [0] * size
            rows.append(row)
            j = 0
        m = r // s
        row[j] = p * m
        if q:
            row[slot[d] + j] = q * m
        j += 1
    return r, (1, *fields), list(map(tuple, rows))


def row_scalar(coeffs, radicands, den: int) -> Scalar:
    """sum(c_k sqrt(d_k)) / den for the coefficients c_k of one entry of
    an `integer_rows` row on its radicands, den > 0."""
    roots = [(d, c) for d, c in zip(radicands[1:], coeffs[1:]) if c]
    if len(roots) > 1:
        one_field(roots[0][0], roots[1][0])
    if not roots:
        return Fraction(coeffs[0], den)
    d, c = roots[0]
    return _reduced(coeffs[0], c, den, d)


def cross_parts(radicands: tuple[int, ...], u: tuple[int, ...],
                v: tuple[int, ...]) -> dict[int, int]:
    """r^2 cross(u, v) for two `integer_rows` rows over r, as {d: c} for
    the nonzero terms c sqrt(d).

    The cross product is the sum over k, l of (u_x,k v_y,l - u_y,k v_x,l)
    sqrt(d_k d_l), with sqrt(d_k d_l) = g sqrt(d_k d_l / g^2) for g =
    gcd(d_k, d_l).  Square roots of distinct square-free integers are
    linearly independent over Q, so the vectors are parallel exactly when
    no term is left; no two fields are multiplied as QuadRat values, which
    would refuse sqrt(2) sqrt(3)."""
    coeffs = {}
    for k, dk in enumerate(radicands):
        for l, dl in enumerate(radicands):
            c = u[2 * k] * v[2 * l + 1] - u[2 * k + 1] * v[2 * l]
            if c:
                g = gcd(dk, dl)
                d = dk * dl // (g * g)
                coeffs[d] = coeffs.get(d, 0) + c * g
    return {d: c for d, c in coeffs.items() if c}


def one_field(a: int, b: int) -> None:
    """Refuse, as QuadRat arithmetic does, to combine irrational values of
    Q(sqrt(a)) and Q(sqrt(b)), a != b (0 stands for a rational value)."""
    if a and b and a != b:
        raise MixedDiscriminantError(f"cannot mix sqrt({a}) with sqrt({b})")


def as_exact(x) -> Scalar:
    """Coerce to an exact scalar; a float is a domain error."""
    if isinstance(x, QuadRat):
        return x
    try:
        return frac(x)
    except TypeError:
        raise ValueError(f"exact entries required, not {x!r}") from None


def format_scalar(x: Scalar) -> str:
    """Canonical rendering "a + b√d" with reduced fractions."""
    if not isinstance(x, QuadRat) or x.q == 0:
        q = x.a if isinstance(x, QuadRat) else frac(x)
        return str(q)
    a, b = x.a, x.b
    root = f"√{x.d}"
    if abs(b) == 1:
        bpart = root
    else:
        bpart = f"{abs(b)}{root}"
    sign = "-" if b < 0 else "+"
    if a == 0:
        return f"-{bpart}" if b < 0 else bpart
    return f"{a} {sign} {bpart}"
