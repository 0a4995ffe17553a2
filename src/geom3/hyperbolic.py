"""Mobius actions on the upper half-plane and the trace trichotomy.

Matrices are normalized to det 1 and canonicalized up to sign, i.e. they
represent classes in PSL2.  Classification uses the exact sign of the
trace when the entries are exact rationals, and a tolerance (default 1e-9,
override with the GEOM3_TOL environment variable) otherwise.
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


def _is_exact(*vals) -> bool:
    return all(isinstance(v, (int, Fraction)) for v in vals)


class MobiusMap:
    """(a b; c d) acting on the upper half-plane, det normalized to 1."""

    __slots__ = ("a", "b", "c", "d", "exact")

    def __init__(self, a, b, c, d):
        exact = _is_exact(a, b, c, d)
        if exact:
            a, b, c, d = Fraction(a), Fraction(b), Fraction(c), Fraction(d)
            det = a * d - b * c
            if det <= 0:
                raise ValueError("positive determinant required")
            if det != 1:
                num_s, num_ok = _exact_sqrt(det.numerator)
                den_s, den_ok = _exact_sqrt(det.denominator)
                if num_ok and den_ok:
                    scale = Fraction(den_s, num_s)
                    a, b, c, d = a * scale, b * scale, c * scale, d * scale
                else:
                    a, b, c, d = (float(a), float(b), float(c), float(d))
                    exact = False
        if not exact:
            a, b, c, d = float(a), float(b), float(c), float(d)
            if not all(map(math.isfinite, (a, b, c, d))):
                raise ValueError("finite entries required")
            det = a * d - b * c
            if not sys.float_info.min <= abs(det) < math.inf:
                # a*d or b*c under- or overflowed (det 0, subnormal, inf or
                # NaN): retry with the entries scaled by a power of two, which
                # is exact; the normalization to det 1 below divides it out
                _, exp = math.frexp(max(map(abs, (a, b, c, d))))
                a, b, c, d = (math.ldexp(x, -exp) for x in (a, b, c, d))
                det = a * d - b * c
            if not det > 0:
                raise ValueError("positive determinant required")
            scale = 1.0 / math.sqrt(det)
            a, b, c, d = a * scale, b * scale, c * scale, d * scale
        self._set_canonical(a, b, c, d, exact)

    def _set_canonical(self, a, b, c, d, exact: bool) -> None:
        """Store det-1 entries with the canonical sign of the PSL2 class."""
        tr = a + d
        flip = tr < 0
        if tr == 0:
            for entry in (a, b, c, d):
                if entry != 0:
                    flip = entry < 0
                    break
        if flip:
            a, b, c, d = -a, -b, -c, -d
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "exact", exact)

    @classmethod
    def identity(cls) -> "MobiusMap":
        return cls(1, 0, 0, 1)

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def trace(self):
        return self.a + self.d

    def compose(self, other: "MobiusMap") -> "MobiusMap":
        entries = (self.a * other.a + self.b * other.c,
                   self.a * other.b + self.b * other.d,
                   self.c * other.a + self.d * other.c,
                   self.c * other.b + self.d * other.d)
        if self.exact and other.exact:
            # Fractions of det 1 multiply to Fractions of det 1: nothing
            # for __init__ to wrap, check or rescale
            product = object.__new__(MobiusMap)
            product._set_canonical(*entries, True)
            return product
        # a float factor: __init__'s 1/sqrt(det) rescale sets the float bits
        return MobiusMap(*entries)

    def inverse(self) -> "MobiusMap":
        return MobiusMap(self.d, -self.b, -self.c, self.a)

    def is_identity(self, tol: float | None = None) -> bool:
        if self.exact:
            return (self.a == 1 and self.d == 1
                    and self.b == 0 and self.c == 0)
        tol = float_tolerance() if tol is None else tol
        return (abs(self.a - 1) <= tol and abs(self.d - 1) <= tol
                and abs(self.b) <= tol and abs(self.c) <= tol)

    def projective_distance(self, other: "MobiusMap") -> float:
        """Frobenius distance to +-other, the PSL2 identification."""
        plus = minus = 0.0
        for p, q in zip(self.entries(), other.entries()):
            plus += (float(p) - float(q)) ** 2
            minus += (float(p) + float(q)) ** 2
        return math.sqrt(min(plus, minus))

    def __repr__(self):
        return f"MobiusMap({self.a}, {self.b}, {self.c}, {self.d})"


def _exact_sqrt(n: int) -> tuple[int, bool]:
    r = math.isqrt(n)
    return r, r * r == n


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


def classify_isometry(m: MobiusMap, tol: float | None = None) -> IsometryClass:
    """Trace trichotomy with fixed points from c z^2 + (d - a) z - b = 0."""
    if m.is_identity(tol):
        raise IdentityClassError("the identity carries no class")
    tol = float_tolerance() if tol is None else tol
    tr = m.trace()
    if m.exact:
        disc = tr * tr - 4
        kind = (HYPERBOLIC if disc > 0 else
                PARABOLIC if disc == 0 else ELLIPTIC)
    else:
        gap = abs(tr) - 2.0
        kind = (HYPERBOLIC if gap > tol else
                PARABOLIC if gap >= -tol else ELLIPTIC)
    a, b, c, d = (float(v) for v in m.entries())
    if abs(c) <= 1e-15:
        if kind == ELLIPTIC:
            raise RuntimeError("elliptic maps always have c != 0")
        if abs(a - d) <= tol or kind == PARABOLIC:
            return IsometryClass(PARABOLIC, (BoundaryPoint.inf(),))
        return IsometryClass(
            HYPERBOLIC,
            _sorted_boundary((BoundaryPoint.inf(),
                              BoundaryPoint(b / (d - a)))))
    disc_f = (a + d) ** 2 - 4.0
    if kind == HYPERBOLIC:
        root = math.sqrt(max(disc_f, 0.0))
        z1 = (a - d - root) / (2 * c)
        z2 = (a - d + root) / (2 * c)
        return IsometryClass(
            HYPERBOLIC, _sorted_boundary((BoundaryPoint(z1),
                                          BoundaryPoint(z2))))
    if kind == PARABOLIC:
        return IsometryClass(PARABOLIC, (BoundaryPoint((a - d) / (2 * c)),))
    root = math.sqrt(max(4.0 - (a + d) ** 2, 0.0))
    z = complex((a - d) / (2 * c), root / (2 * abs(c)))
    return IsometryClass(ELLIPTIC, (z,))


def _sorted_boundary(points):
    def key(p):
        return (1, 0.0) if p.infinite else (0, p.x)
    return tuple(sorted(points, key=key))


def fixed_sets_equal(c1: IsometryClass, c2: IsometryClass,
                     tol: float = 1e-6) -> bool:
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


def commute_test(m1: MobiusMap, m2: MobiusMap,
                 tol: float | None = None) -> tuple[bool, bool]:
    """(commute, fixed_sets_equal), each computed independently."""
    if m1.is_identity() or m2.is_identity():
        raise IdentityClassError("commutation test needs non-identity maps")
    tol = float_tolerance() if tol is None else tol
    comm = m1.compose(m2).compose(m1.inverse()).compose(m2.inverse())
    commutes = comm.projective_distance(MobiusMap.identity()) <= math.sqrt(tol)
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


def hn_quotient_isometry_verdict(dim: int,
                                 lattice_kind: str = "finite_covolume") -> dict:
    """Fact record: finite-covolume hyperbolic quotients have finite isometry
    groups, of order Vol(F_Gamma)/Vol(F_Lambda); no circle can act."""
    if dim < 2:
        raise ValueError("hyperbolic spaces start at dimension 2")
    if lattice_kind != "finite_covolume":
        raise ValueError(f"unsupported lattice kind {lattice_kind!r}")
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
