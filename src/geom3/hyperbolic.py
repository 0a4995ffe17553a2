"""Mobius actions on the upper half-plane and the trace trichotomy.

Matrices are normalized to det 1 and canonicalized up to sign, i.e. they
represent classes in PSL2.  Every map is exact: a float entry is read as
the binary rational it is, and a map is held as its primitive integer
matrix (A B; C D), of any determinant AD - BC > 0, so its products,
inverses, identity test, class and commutation test are integer
arithmetic, with no tolerance; its entries are built only when read.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .descriptors import FloatRangeError, _Frozen, _setattr, to_float

ELLIPTIC = "Elliptic"
PARABOLIC = "Parabolic"
HYPERBOLIC = "Hyperbolic"

REAL_LINE = "RealLine"
CIRCLE = "Circle"


class IdentityClassError(ValueError):
    """The identity has no isometry class and no centralizer type."""


class BoundaryPoint(_Frozen):
    """Point of the boundary RP^1: a real number or infinity."""

    __slots__ = _fields = ("x", "infinite")

    def __init__(self, x: float = 0.0, infinite: bool = False):
        _set_x(self, x)
        _set_infinite(self, infinite)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.x, self.infinite) == (other.x, other.infinite)
        return NotImplemented

    def __hash__(self):
        return hash((self.x, self.infinite))

    @classmethod
    def inf(cls) -> "BoundaryPoint":
        return cls(0.0, True)

    def to_json(self):
        return {"boundary": "inf" if self.infinite else self.x}


_set_x, _set_infinite = (BoundaryPoint.__dict__[name].__set__
                         for name in BoundaryPoint.__slots__)

FixedPoint = Union[BoundaryPoint, complex]


class MobiusMap:
    """(a b; c d) acting on the upper half-plane, det normalized to 1.

    An int or a Fraction entry is read as it is, any other entry as the
    exact binary rational of its float.  The map is its one primitive
    integer matrix (A, B, C, D) of determinant Delta = AD - BC > 0 and the
    canonical PSL2 sign (positive trace, or at trace 0 a positive first
    nonzero entry): a = A / sqrt(Delta) and so on.  `a`, `b`, `c`, `d` and
    `entries()` are built when first read: reduced Fractions when Delta is
    a square, floats computed from the integers otherwise; an entry beyond
    the float range raises FloatRangeError.
    """

    __slots__ = ("_ints", "_entries")

    def __init__(self, a, b, c, d):
        fracs = []
        for v in (a, b, c, d):
            if not isinstance(v, (int, Fraction)):
                v = float(v)
                if not math.isfinite(v):
                    raise ValueError("finite entries required")
            fracs.append(Fraction(v))
        den = math.lcm(*(f.denominator for f in fracs))
        A, B, C, D = (f.numerator * (den // f.denominator) for f in fracs)
        if A * D - B * C <= 0:
            raise ValueError("positive determinant required")
        _set_ints(self, A, B, C, D)

    @classmethod
    def identity(cls) -> "MobiusMap":
        return _set_ints(object.__new__(cls), 1, 0, 0, 1)

    def entries(self):
        if self._entries is None:
            ints = self._ints
            det = ints[0] * ints[3] - ints[1] * ints[2]
            q = math.isqrt(det)
            try:
                if q * q == det:
                    max(map(abs, ints)) / q     # OverflowError past the range
                    self._entries = tuple(Fraction(x, q) for x in ints)
                else:
                    roots = (_sqrt_ratio(x * x, det) for x in ints)
                    self._entries = tuple(
                        r / s * (-1 if x < 0 else 1)
                        for x, (r, s) in zip(ints, roots))
            except OverflowError:
                raise FloatRangeError(
                    "an entry lies beyond the float range") from None
        return self._entries

    a = property(lambda self: self.entries()[0])
    b = property(lambda self: self.entries()[1])
    c = property(lambda self: self.entries()[2])
    d = property(lambda self: self.entries()[3])

    def trace(self):
        a, _, _, d = self.entries()
        return a + d

    def compose(self, other: "MobiusMap") -> "MobiusMap":
        A, B, C, D = self._ints
        E, F, G, H = other._ints
        return _set_ints(object.__new__(MobiusMap),
                         A * E + B * G, A * F + B * H,
                         C * E + D * G, C * F + D * H)

    def inverse(self) -> "MobiusMap":
        A, B, C, D = self._ints
        return _set_ints(object.__new__(MobiusMap), D, -B, -C, A)

    def is_identity(self) -> bool:
        A, B, C, D = self._ints
        return B == C == 0 and A == D

    def __repr__(self):
        return f"MobiusMap({self.a}, {self.b}, {self.c}, {self.d})"


def _set_ints(m: MobiusMap, A, B, C, D) -> MobiusMap:
    """Make m the map of the integer matrix (A B; C D), AD - BC > 0: divided
    by the gcd of its entries, signed to a positive trace, or at trace 0 to
    a positive first nonzero entry."""
    g = math.gcd(A, B, C, D)
    if A + D < 0 or (A + D == 0 and (A or B or C or D) < 0):
        g = -g
    if g != 1:
        A, B, C, D = A // g, B // g, C // g, D // g
    m._ints = (A, B, C, D)
    m._entries = None
    return m


def _sqrt_ratio(x: int, y: int) -> tuple[int, int]:
    """sqrt(x / y) for integers x >= 0 and y > 0, to within an ulp of its
    float, as (root, 2^e): the integer square root of x / y scaled by 4^e
    to at least 128 bits."""
    e = max(0, 130 - x.bit_length() + y.bit_length()) // 2
    return math.isqrt((x << 2 * e) // y), 1 << e


def mobius_apply(m: MobiusMap, z: complex) -> complex:
    """(A z + B) / (C z + D) from the integer matrix and the exact value of
    z, each coordinate rounded once; preserves the upper half-plane."""
    z = complex(z)
    if not (math.isfinite(z.real) and 0 < z.imag < math.inf):
        raise ValueError("point must lie in the upper half-plane")
    A, B, C, D = m._ints
    x, y = Fraction(z.real), Fraction(z.imag)
    den = C * x + D
    norm = den * den + C * C * y * y
    return _upper_point(((A * x + B) * den + A * C * y * y) / norm,
                       (A * D - B * C) * y / norm, "the image")


def _upper_point(x: Fraction, y: Fraction, what: str) -> complex:
    """x + iy for y > 0, each coordinate rounded once (`to_float`, so x is
    never -0.0 and FloatRangeError names `what` when one lies beyond the
    float range)."""
    return complex(to_float(x, what=what), to_float(y, what=what))


class IsometryClass(_Frozen):
    _fields = ("tag", "fixed_set")

    def __init__(self, tag: str, fixed_set: tuple[FixedPoint, ...]):
        _setattr(self, "tag", tag)
        _setattr(self, "fixed_set", fixed_set)

    def to_json_dict(self) -> dict:
        pts = []
        for p in self.fixed_set:
            if isinstance(p, BoundaryPoint):
                pts.append(p.to_json())
            else:
                pts.append([p.real, p.imag])
        return {"class": self.tag, "fixed_set": pts}


_FIXED = "a fixed point"


def classify_isometry(m: MobiusMap) -> IsometryClass:
    """Trace trichotomy with fixed points from c z^2 + (d - a) z - b = 0.

    The class is the sign of (A + D)^2 - 4 Delta, and the fixed points are
    computed from the integers, rounded to floats (never -0.0); a fixed
    point beyond the float range, one that overflows or a nonzero one that
    rounds to 0, raises FloatRangeError.
    """
    if m.is_identity():
        raise IdentityClassError("the identity carries no class")
    A, b, c, D = m._ints
    p = A - D
    disc = p * p + 4 * b * c        # (A + D)^2 - 4 Delta
    kind = HYPERBOLIC if disc > 0 else PARABOLIC if disc == 0 else ELLIPTIC
    if not c:
        if kind == PARABOLIC:
            return IsometryClass(PARABOLIC, (BoundaryPoint.inf(),))
        return IsometryClass(HYPERBOLIC, (
            BoundaryPoint(to_float(-b, p, _FIXED)), BoundaryPoint.inf()))
    if kind == PARABOLIC:
        return IsometryClass(PARABOLIC, (
            BoundaryPoint(to_float(p, 2 * c, _FIXED)),))
    # half the distance of the fixed points, or the elliptic one's height
    root, scale = _sqrt_ratio(abs(disc), 4 * c * c)
    if kind == ELLIPTIC:
        return IsometryClass(ELLIPTIC, (complex(
            to_float(p, 2 * c, _FIXED), to_float(root, scale, _FIXED)),))
    # the root away from zero, from the midpoint and half the distance
    # rounded: neither is reported, so either may round to 0, and a
    # midpoint that does leaves far = +-half, rounded by the rule; the
    # other root, exactly -b / (c far), from their product, which does not
    # cancel
    try:
        mid = p / (2 * c) + 0.0
        far = mid + math.copysign(
            root / scale if mid else to_float(root, scale, _FIXED), mid)
        num, den = far.as_integer_ratio()
    except OverflowError:       # far overflows, or a part of it does
        raise FloatRangeError(
            f"{_FIXED} lies beyond the float range") from None
    near = to_float(-b * den, c * num, _FIXED)
    return IsometryClass(HYPERBOLIC, (
        BoundaryPoint(min(far, near)), BoundaryPoint(max(far, near))))


def commute_test(m1: MobiusMap, m2: MobiusMap) -> tuple[bool, bool]:
    """(m1 and m2 commute, their fixed sets are equal), each computed
    independently and exactly: m1 m2 and m2 m1 have the same integer
    matrix, and the traceless parts (a - d, b, c) are proportional, as the
    fixed points are the roots of c z^2 + (d - a) z - b.
    """
    if m1.is_identity() or m2.is_identity():
        raise IdentityClassError("commutation test needs non-identity maps")
    commutes = m1.compose(m2)._ints == m2.compose(m1)._ints
    (A, B, C, D), (E, F, G, H) = m1._ints, m2._ints
    # (A - D, B, C) x (E - H, F, G) = 0
    proportional = ((A - D) * F == B * (E - H)
                    and (A - D) * G == C * (E - H) and B * G == C * F)
    return commutes, proportional


def centralizer_type(m: MobiusMap) -> dict:
    """Centralizer of a non-identity map: a circle or a real line."""
    cls = classify_isometry(m)
    if cls.tag == ELLIPTIC:
        return {"type": CIRCLE, "generator": "rotation"}
    generator = "diagonal" if cls.tag == HYPERBOLIC \
        else "upper-triangular nilpotent"
    return {"type": REAL_LINE, "generator": generator}


def hn_quotient_isometry_verdict(dim: int) -> dict:
    """Fact record: finite-covolume hyperbolic quotients have finite isometry
    groups, of order Vol(F_Gamma)/Vol(F_Lambda); no circle can act."""
    if dim < 2:
        raise ValueError("hyperbolic spaces start at dimension 2")
    return {
        "verdict": "FiniteIsometryGroup",
        "dim": dim,
        "normalizer": "discrete",
        "order_formula": "Vol(F_Gamma) / Vol(F_Lambda)",
        "circle_action_possible": False,
    }


def expm_sl2(x: tuple[tuple[float, float], tuple[float, float]],
             t: float) -> MobiusMap:
    """exp(t X) for traceless X, via X^2 = -det(X) I."""
    (p, q), (r, s) = x
    if abs(p + s) > 1e-12:
        raise ValueError("traceless matrix required")
    det = p * s - q * r
    if det < -1e-15:
        w = math.sqrt(-det)
        ch, sh = math.cosh(t * w), math.sinh(t * w) / w
    elif det > 1e-15:
        w = math.sqrt(det)
        ch, sh = math.cos(t * w), math.sin(t * w) / w
    else:
        return MobiusMap(1.0 + t * p, t * q, t * r, 1.0 + t * s)
    return MobiusMap(ch + sh * p, sh * q, sh * r, ch + sh * s)
