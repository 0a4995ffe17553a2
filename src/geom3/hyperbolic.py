"""Mobius actions on the upper half-plane and the trace trichotomy.

Matrices are normalized to det 1 and canonicalized up to sign, i.e. they
represent classes in PSL2.  A map with rational entries is held as its
primitive integer matrix (A B; C D), of any determinant AD - BC > 0, so
its products, inverses, identity test, class and commutation test are
integer arithmetic; its entries are built only when read.  Only a map with
float entries reads a tolerance (default 1e-9, override with the GEOM3_TOL
environment variable); the CLI reads every matrix exactly.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

ELLIPTIC = "Elliptic"
PARABOLIC = "Parabolic"
HYPERBOLIC = "Hyperbolic"

REAL_LINE = "RealLine"
CIRCLE = "Circle"


def float_tolerance() -> float:
    """GEOM3_TOL if set (a finite float >= 0), else 1e-9."""
    value = os.environ.get("GEOM3_TOL")
    if not value:
        return 1e-9
    try:
        tol = float(value)
        if math.isfinite(tol) and tol >= 0:
            return tol
    except ValueError:
        pass
    raise ValueError(f"GEOM3_TOL must be a finite float >= 0, not {value!r}")


class IdentityClassError(ValueError):
    """The identity has no isometry class and no centralizer type."""


class BoundaryImageError(ValueError):
    """The requested point maps to the boundary circle."""


@dataclass(frozen=True)
class BoundaryPoint:
    """Point of the boundary RP^1: a real number or infinity."""

    x: float = 0.0
    infinite: bool = False

    @classmethod
    def inf(cls) -> "BoundaryPoint":
        return cls(0.0, True)

    def chordal_distance(self, other: "BoundaryPoint") -> float:
        if self.infinite and other.infinite:
            return 0.0
        if self.infinite:
            return 1.0 / math.sqrt(1.0 + other.x * other.x)
        if other.infinite:
            return 1.0 / math.sqrt(1.0 + self.x * self.x)
        return abs(self.x - other.x) / math.sqrt(
            (1.0 + self.x * self.x) * (1.0 + other.x * other.x))

    def to_json(self):
        return {"boundary": "inf" if self.infinite else self.x}


FixedPoint = Union[BoundaryPoint, complex]


class MobiusMap:
    """(a b; c d) acting on the upper half-plane, det normalized to 1.

    An exact map is its one primitive integer matrix (A, B, C, D) of
    determinant Delta = AD - BC > 0 and the canonical PSL2 sign (positive
    trace, or at trace 0 a positive first nonzero entry): a = A / sqrt(Delta)
    and so on.  `a`, `b`, `c`, `d` and `entries()` are built when first
    read: reduced Fractions when Delta is a square, floats computed from the
    integers otherwise.  A float map keeps its float entries, with the same
    sign.
    """

    __slots__ = ("_ints", "_entries", "exact")

    def __init__(self, a, b, c, d):
        if all(isinstance(v, (int, Fraction)) for v in (a, b, c, d)):
            fracs = [Fraction(v) for v in (a, b, c, d)]
            den = math.lcm(*(f.denominator for f in fracs))
            A, B, C, D = (f.numerator * (den // f.denominator) for f in fracs)
            if A * D - B * C <= 0:
                raise ValueError("positive determinant required")
            _set_exact(self, A, B, C, D)
        else:
            _set_float(self, float(a), float(b), float(c), float(d))

    @classmethod
    def identity(cls) -> "MobiusMap":
        return _set_exact(object.__new__(cls), 1, 0, 0, 1)

    def entries(self):
        if self._entries is None:
            ints = self._ints
            det = ints[0] * ints[3] - ints[1] * ints[2]
            q = math.isqrt(det)
            if q * q == det:
                self._entries = tuple(Fraction(x, q) for x in ints)
            else:
                self._entries = tuple(
                    _sqrt_ratio(x * x, det) * (-1 if x < 0 else 1)
                    for x in ints)
        return self._entries

    a = property(lambda self: self.entries()[0])
    b = property(lambda self: self.entries()[1])
    c = property(lambda self: self.entries()[2])
    d = property(lambda self: self.entries()[3])

    def trace(self):
        a, _, _, d = self.entries()
        return a + d

    def compose(self, other: "MobiusMap") -> "MobiusMap":
        if self.exact and other.exact:
            A, B, C, D = self._ints
            E, F, G, H = other._ints
            return _set_exact(object.__new__(MobiusMap),
                              A * E + B * G, A * F + B * H,
                              C * E + D * G, C * F + D * H)
        # a float factor: __init__'s 1/sqrt(det) rescale of the
        # (Fraction times float) entries sets the float bits
        a, b, c, d = self.entries()
        e, f, g, h = other.entries()
        return MobiusMap(a * e + b * g, a * f + b * h,
                         c * e + d * g, c * f + d * h)

    def inverse(self) -> "MobiusMap":
        if self.exact:
            A, B, C, D = self._ints
            return _set_exact(object.__new__(MobiusMap), D, -B, -C, A)
        a, b, c, d = self._entries
        return MobiusMap(d, -b, -c, a)

    def is_identity(self) -> bool:
        if self.exact:
            A, B, C, D = self._ints
            return B == C == 0 and A == D
        a, b, c, d = self._entries
        tol = float_tolerance()
        return (abs(a - 1) <= tol and abs(d - 1) <= tol
                and abs(b) <= tol and abs(c) <= tol)

    def projective_distance(self, other: "MobiusMap") -> float:
        """Frobenius distance to +-other, the PSL2 identification
        (`math.dist` scales, so no square overflows)."""
        p = [float(x) for x in self.entries()]
        q = [float(x) for x in other.entries()]
        return min(math.dist(p, q), math.dist(p, [-x for x in q]))

    def __repr__(self):
        return f"MobiusMap({self.a}, {self.b}, {self.c}, {self.d})"


def _canonical_sign(a, b, c, d):
    """The representative of +-(a b; c d) with positive trace, or at trace 0
    with a positive first nonzero entry."""
    tr = a + d
    if tr < 0 or (tr == 0 and (a or b or c or d) < 0):
        return -a, -b, -c, -d
    return a, b, c, d


def _set_exact(m: MobiusMap, A, B, C, D) -> MobiusMap:
    """Make m the exact map of the integer matrix (A B; C D), AD - BC > 0."""
    g = math.gcd(A, B, C, D)
    if g != 1:
        A, B, C, D = A // g, B // g, C // g, D // g
    m._ints = _canonical_sign(A, B, C, D)
    m._entries = None
    m.exact = True
    return m


def _set_float(m: MobiusMap, a: float, b: float, c: float, d: float):
    """Make m the float map (a b; c d) / sqrt(det)."""
    if not all(map(math.isfinite, (a, b, c, d))):
        raise ValueError("finite entries required")
    det = a * d - b * c
    if not sys.float_info.min <= abs(det) < math.inf:
        # a*d or b*c under- or overflowed (det 0, subnormal, inf or NaN):
        # retry with the entries scaled by a power of two, which is exact;
        # the normalization to det 1 below divides it out
        _, exp = math.frexp(max(map(abs, (a, b, c, d))))
        a, b, c, d = (math.ldexp(x, -exp) for x in (a, b, c, d))
        det = a * d - b * c
    if not det > 0:
        raise ValueError("positive determinant required")
    scale = 1.0 / math.sqrt(det)
    m._ints = None
    m._entries = _canonical_sign(a * scale, b * scale, c * scale, d * scale)
    m.exact = False


def _sqrt_ratio(x: int, y: int) -> float:
    """sqrt(x / y) for integers x >= 0 and y > 0, to within an ulp: the
    integer square root of x / y scaled to at least 128 bits."""
    e = max(0, 130 - x.bit_length() + y.bit_length()) // 2
    return math.isqrt((x << 2 * e) // y) / (1 << e)


def mobius_apply(m: MobiusMap, z: complex) -> complex:
    """(a z + b) / (c z + d); preserves the upper half-plane."""
    z = complex(z)
    if z.imag <= 0:
        raise ValueError("point must lie in the upper half-plane")
    den = complex(m.c) * z + complex(m.d)
    if abs(den) < 1e-300:
        raise BoundaryImageError("point maps to the boundary at infinity")
    return (complex(m.a) * z + complex(m.b)) / den


@dataclass(frozen=True)
class IsometryClass:
    tag: str
    fixed_set: tuple[FixedPoint, ...]

    def to_json_dict(self) -> dict:
        pts = []
        for p in self.fixed_set:
            if isinstance(p, BoundaryPoint):
                pts.append(p.to_json())
            else:
                pts.append([p.real, p.imag])
        return {"class": self.tag, "fixed_set": pts}


def classify_isometry(m: MobiusMap) -> IsometryClass:
    """Trace trichotomy with fixed points from c z^2 + (d - a) z - b = 0.

    An exact map is classified by the sign of (A + D)^2 - 4 Delta, and its
    fixed points are computed from its integers; a float map compares its
    trace with 2 to within the tolerance.
    """
    if m.is_identity():
        raise IdentityClassError("the identity carries no class")
    if m.exact:
        A, b, c, D = m._ints
        p = A - D
        disc = p * p + 4 * b * c        # (A + D)^2 - 4 Delta
        kind = (HYPERBOLIC if disc > 0 else
                PARABOLIC if disc == 0 else ELLIPTIC)
        # half the distance of the fixed points, or the elliptic one's height
        half = _sqrt_ratio(abs(disc), 4 * c * c) if c else 0.0
    else:
        tol = float_tolerance()
        a, b, c, d = m._entries
        p = a - d
        gap = abs(a + d) - 2.0
        kind = (HYPERBOLIC if gap > tol else
                PARABOLIC if gap >= -tol else ELLIPTIC)
        if abs(c) <= 1e-15:
            if kind == ELLIPTIC:
                raise RuntimeError("elliptic maps always have c != 0")
            c = 0
            if abs(p) <= tol:
                kind = PARABOLIC
        half = math.sqrt(abs((a + d) ** 2 - 4.0)) / (2 * abs(c)) if c else 0.0
    if not c:
        if kind == PARABOLIC:
            return IsometryClass(PARABOLIC, (BoundaryPoint.inf(),))
        return IsometryClass(HYPERBOLIC, _sorted_boundary(
            (BoundaryPoint.inf(), BoundaryPoint(b / -p))))
    mid = p / (2 * c)
    if kind == PARABOLIC:
        return IsometryClass(PARABOLIC, (BoundaryPoint(mid),))
    if kind == ELLIPTIC:
        return IsometryClass(ELLIPTIC, (complex(mid, half),))
    # the root away from zero; the other from their product -b/c, which
    # does not cancel
    far = mid + math.copysign(half, mid)
    return IsometryClass(HYPERBOLIC, _sorted_boundary(
        (BoundaryPoint(far), BoundaryPoint(-b / c / far))))


def _sorted_boundary(points):
    def key(p):
        return (1, 0.0) if p.infinite else (0, p.x)
    return tuple(sorted(points, key=key))


def fixed_sets_equal(c1: IsometryClass, c2: IsometryClass) -> bool:
    tol = 1e-6          # chordal distance; relative for an interior point
    if len(c1.fixed_set) != len(c2.fixed_set):
        return False
    interior1 = [p for p in c1.fixed_set if not isinstance(p, BoundaryPoint)]
    interior2 = [p for p in c2.fixed_set if not isinstance(p, BoundaryPoint)]
    if len(interior1) != len(interior2):
        return False
    if interior1:
        z1, z2 = interior1[0], interior2[0]
        return abs(z1 - z2) <= tol * (1.0 + abs(z1))
    b1 = [p for p in c1.fixed_set if isinstance(p, BoundaryPoint)]
    b2 = [p for p in c2.fixed_set if isinstance(p, BoundaryPoint)]
    if len(b1) == 1:
        return b1[0].chordal_distance(b2[0]) <= tol
    direct = (b1[0].chordal_distance(b2[0]) <= tol
              and b1[1].chordal_distance(b2[1]) <= tol)
    crossed = (b1[0].chordal_distance(b2[1]) <= tol
               and b1[1].chordal_distance(b2[0]) <= tol)
    return direct or crossed


def commute_test(m1: MobiusMap, m2: MobiusMap) -> tuple[bool, bool]:
    """(commute, fixed_sets_equal), each computed independently.

    For two exact maps both answers are exact: m1 m2 and m2 m1 have the
    same integer matrix, and the traceless parts (a - d, b, c) are
    proportional, as the fixed points are the roots of c z^2 + (d - a) z
    - b.  Otherwise the maps commute when m1 m2 and m2 m1 lie within
    tol |m1| |m2| (Frobenius norms) of each other in PSL2, a bound that
    scales with the maps as the rounding error of their products does,
    and the fixed sets are compared by `fixed_sets_equal`.
    """
    if m1.is_identity() or m2.is_identity():
        raise IdentityClassError("commutation test needs non-identity maps")
    if m1.exact and m2.exact:
        commutes = m1.compose(m2)._ints == m2.compose(m1)._ints
        (A, B, C, D), (E, F, G, H) = m1._ints, m2._ints
        # (A - D, B, C) x (E - H, F, G) = 0
        proportional = ((A - D) * F == B * (E - H)
                        and (A - D) * G == C * (E - H) and B * G == C * F)
        return commutes, proportional
    tol = float_tolerance()
    size = math.prod(math.hypot(*map(float, m.entries())) for m in (m1, m2))
    commutes = (m1.compose(m2).projective_distance(m2.compose(m1))
                <= tol * size)
    sets_equal = fixed_sets_equal(classify_isometry(m1), classify_isometry(m2))
    return commutes, sets_equal


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
