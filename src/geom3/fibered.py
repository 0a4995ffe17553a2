"""Fibered geometries: the unit tangent bundle of the hyperbolic plane with
its Sasaki metric, discrete groups of S^2 x R, and the circle-extension
shape shared by the quotients of both hyperbolic fibrations.

Tangent vectors to T H^2 are stored through the identification
H^2 x C = T H^2; (X, Z) is the derivative of a curve (z(t), w(t)).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from .algebra import power
from .descriptors import (IsoDescriptor, _Frozen, _setattr, brief_text,
                          to_float)
from .hyperbolic import MobiusMap, _sqrt_ratio, _upper_point
from .intmat import SearchCapError, closure, mat3_mul, transpose


def christoffel_h2(p: complex, i: int, j: int, k: int) -> float:
    """Christoffel symbol Gamma^k_{ij} of ds^2 = (dx^2 + dy^2)/y^2 at p.

    The nonzero symbols are Gamma^1_{12} = Gamma^1_{21} = Gamma^2_{22}
    = -1/y and Gamma^2_{11} = 1/y; FloatRangeError when 1/y overflows.
    """
    p = complex(p)
    if p.imag <= 0:
        raise ValueError("point must lie in the upper half-plane")
    for idx in (i, j, k):
        if idx not in (1, 2):
            raise ValueError("indices range over {1, 2}")
    if k == 2 and i == j == 1:
        return to_float(1 / _exact(p)[1])
    if k == 2 and i == j == 2 or k == 1 and i != j:
        return to_float(-1 / _exact(p)[1])
    return 0.0


class TangentVector(_Frozen):
    """Vector (X, Z) tangent to T H^2 at the point (base_z, base_w)."""

    _fields = ("base_z", "base_w", "vec_X", "vec_Z")

    def __init__(self, base_z: complex, base_w: complex, vec_X: complex,
                 vec_Z: complex):
        if complex(base_z).imag <= 0:
            raise ValueError("base point must lie in the upper half-plane")
        _setattr(self, "base_z", base_z)
        _setattr(self, "base_w", base_w)
        _setattr(self, "vec_X", vec_X)
        _setattr(self, "vec_Z", vec_Z)

    def to_json_dict(self) -> dict:
        def pair(c):
            c = complex(c)
            return [c.real, c.imag]
        return {"z": pair(self.base_z), "w": pair(self.base_w),
                "X": pair(self.vec_X), "Z": pair(self.vec_Z)}


def _exact(c) -> tuple[Fraction, Fraction]:
    """The real and imaginary parts of the number c, as exact Fractions."""
    c = complex(c)
    return Fraction(c.real), Fraction(c.imag)


def _correction(t: TangentVector) -> tuple[Fraction, Fraction]:
    """The connection term X^j v^i Gamma^k_{ij} d_k, exactly."""
    y = _exact(t.base_z)[1]
    (v1, v2), (x1, x2) = _exact(t.base_w), _exact(t.vec_X)
    return -(v1 * x2 + v2 * x1) / y, (v1 * x1 - v2 * x2) / y


def _inner(t1: TangentVector, t2: TangentVector) -> Fraction:
    """The Sasaki inner product, exactly: (X1 . X2 + a1 . a2) / y^2 for
    a = Z + the connection term and the height y of the base point."""
    if _exact(t1.base_z) != _exact(t2.base_z):
        raise ValueError("vectors must share the base point")
    y = _exact(t1.base_z)[1]
    (x1, x2), (u1, u2) = _exact(t1.vec_X), _exact(t2.vec_X)
    (a1, a2), (b1, b2) = ([z + c for z, c in zip(_exact(t.vec_Z),
                                                 _correction(t))]
                          for t in (t1, t2))
    return (x1 * u1 + x2 * u2 + a1 * b1 + a2 * b2) / (y * y)


def sasaki_inner(t1: TangentVector, t2: TangentVector) -> float:
    """Sasaki inner product of two vectors at the same base point, rounded
    once; FloatRangeError when it lies beyond the float range."""
    return to_float(_inner(t1, t2))


def sasaki_norm(t: TangentVector) -> float:
    """The Sasaki norm, computed exactly and rounded once;
    FloatRangeError when it lies beyond the float range."""
    inner = _inner(t, t)
    return to_float(*_sqrt_ratio(inner.numerator, inner.denominator))


def hv_decompose(t: TangentVector) -> tuple[TangentVector, TangentVector]:
    """(horizontal, vertical): (X, -corr) + (0, Z + corr) = (X, Z) for the
    connection term corr, each coordinate computed exactly and rounded
    once; FloatRangeError when one lies beyond the float range."""
    (c1, c2), (z1, z2) = _correction(t), _exact(t.vec_Z)
    horizontal = TangentVector(t.base_z, t.base_w, t.vec_X,
                               complex(to_float(-c1), -to_float(c2)))
    vertical = TangentVector(t.base_z, t.base_w, 0j,
                             complex(to_float(z1 + c1), to_float(z2 + c2)))
    return horizontal, vertical


def unit_tangent_embed(m: MobiusMap) -> tuple[complex, complex]:
    """Orbit map of the base point (i, 1) of the unit tangent bundle: z =
    (AC + BD + Delta i) / n and w = Delta (D - C i)^2 / n^2 from the integer
    matrix, n = C^2 + D^2, each coordinate rounded once (`to_float`);
    |w| = Im z."""
    A, B, C, D = m._ints
    delta, n = A * D - B * C, C * C + D * D
    z = _upper_point(Fraction(A * C + B * D, n), Fraction(delta, n),
                     "an entry")
    return z, complex(to_float(delta * (D * D - C * C), n * n, "an entry"),
                      to_float(-2 * delta * C * D, n * n, "an entry"))


SL2_BASIS = (((1, 0), (0, -1)), ((0, 1), (-1, 0)), ((0, 1), (1, 0)))


def frame_at_identity() -> list[TangentVector]:
    """Derivatives of t -> phi(exp(t X_j)) at t = 0, in closed form: for X
    = (p q; r -p), z' = (q + r) + 2p i and w' = 2p - 2r i at (i, 1).

    They are (2i, 2), (0, 2i), (2, -2i); their halves form a
    Sasaki-orthonormal frame at (i, 1).
    """
    return [TangentVector(1j, 1 + 0j, complex(q + r, 2 * p),
                          complex(2 * p, -2 * r))
            for (p, q), (r, _) in SL2_BASIS]


# -- S^2 x R ------------------------------------------------------------------

class NonDiscreteShiftError(ValueError):
    """The group is not discrete: its shifts are dense in R, or infinitely
    many of its elements act trivially on the R factor."""


# Once every element of an exact F has an integer trace, its orders divide
# 12, and a finitely generated linear group of bounded exponent is finite
# (Burnside): F is a finite subgroup of GL(3, Q), of at most 48 elements
# (the signed permutations).  Float rotation parts can have any finite
# order; more than BALL_CAP elements are taken as a sign of it.
_EXACT_CAP = 48
BALL_CAP = 4000


def _near_identity(m, atol: float) -> bool:
    """numpy.allclose(m, I, atol=atol) for a 3x3 matrix in floats:
    |m_ij - I_ij| <= atol + 1e-5 |I_ij| everywhere; NaN and inf fail."""
    return all(abs(float(m[i][j]) - (i == j)) <= atol + 1e-5 * (i == j)
               for i in range(3) for j in range(3))


class S2RIsometry(_Frozen):
    """Element (rot, shift, flip) of O(3) x (R x| Z_2); rot is 3x3
    orthogonal, exact when its entries are ints and Fractions and taken as
    floats otherwise; shift a float, an int or a Fraction."""

    __slots__ = _fields = ("rot", "shift", "flip")

    def __init__(self, rot: tuple, shift, flip: int = 1):
        if flip not in (1, -1):
            raise ValueError("flip must be +1 or -1")
        if len(rot) != 3 or any(len(row) != 3 for row in rot):
            raise ValueError("rotation part must be a 3x3 matrix")
        if _rational(rot):
            orthogonal = mat3_mul(rot, transpose(rot)) == S2R_ROT_ID
        else:
            orthogonal = _near_identity(mat3_mul(rot, transpose(rot)), 1e-12)
        if not orthogonal:
            raise ValueError("rotation part must be orthogonal")
        _set_rot(self, rot)
        _set_shift(self, shift)
        _set_flip(self, flip)

    @classmethod
    def _make(cls, rot: tuple, shift, flip: int) -> "S2RIsometry":
        """Trusted constructor for products and inverses of checked
        elements, which are orthogonal 3x3 matrices with flip +-1."""
        self = _new(cls)
        _set_rot(self, rot)
        _set_shift(self, shift)
        _set_flip(self, flip)
        return self

    def compose(self, other: "S2RIsometry") -> "S2RIsometry":
        return S2RIsometry._make(mat3_mul(self.rot, other.rot),
                                 self.flip * other.shift + self.shift,
                                 self.flip * other.flip)

    def inverse(self) -> "S2RIsometry":
        return S2RIsometry._make(transpose(self.rot),
                                 -self.flip * self.shift, self.flip)


_set_rot, _set_shift, _set_flip = (S2RIsometry.__dict__[name].__set__
                                   for name in S2RIsometry.__slots__)
_new = object.__new__

S2R_ROT_ID = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def s2r_rotation_z(angle: float) -> tuple:
    c, s = math.cos(angle), math.sin(angle)
    return ((c, -s, 0.0), (s, c, 0.0), (0.0, 0.0, 1.0))


TRIVIAL_L = "TrivialL"
LAMBDA_Z = "LambdaZ"
LAMBDA_Z_SEMIDIRECT = "LambdaZSemidirectZ2"


class S2RDecomposition(_Frozen):
    """1 -> F -> Gamma -> L.  L is trivial, lam Z, or with a flip lam Z
    x| Z_2 (Z_2 alone when lam is None); f_elements lists F, the rotation
    parts of the elements that act trivially on R, and f_order_bound is
    |F|; twist is the rotation part of one element of shift lam."""

    _fields = ("l_type", "lam", "f_order_bound", "f_elements", "twist")

    def __init__(self, l_type: str, lam: object, f_order_bound: int,
                 f_elements: tuple, twist: Optional[tuple]):
        _setattr(self, "l_type", l_type)
        _setattr(self, "lam", lam)
        _setattr(self, "f_order_bound", f_order_bound)
        _setattr(self, "f_elements", f_elements)
        _setattr(self, "twist", twist)

    def to_json_dict(self) -> dict:
        """FloatRangeError when lam overflows a float or rounds to 0."""
        lam = (self.lam if self.lam is None
               else to_float(self.lam, what="lambda"))
        return {"l_type": self.l_type, "lambda": lam,
                "f_order_bound": self.f_order_bound}


def _rational(rot) -> bool:
    """Whether every entry is an int or a Fraction: an exact rotation."""
    return all(isinstance(v, (int, Fraction)) for row in rot for v in row)


def _rot_key(rot) -> tuple:
    """The rotation's entries rounded to 9 digits: float products that
    agree up to rounding are one element."""
    (a0, a1, a2), (a3, a4, a5), (a6, a7, a8) = rot
    return (round(float(a0), 9), round(float(a1), 9), round(float(a2), 9),
            round(float(a3), 9), round(float(a4), 9), round(float(a5), 9),
            round(float(a6), 9), round(float(a7), 9), round(float(a8), 9))


def _exact_key(rot) -> tuple:
    """The rotation's exact entries."""
    r0, r1, r2 = rot
    return (*r0, *r1, *r2)


def _finite_key(rot) -> tuple:
    """`_exact_key` of an element of an exact F, which lies over the shift
    0; NonDiscreteShiftError when its trace is no integer, since it then
    has infinite order (Niven)."""
    if _trace_den(rot) > 1:
        raise NonDiscreteShiftError(
            "an element over the shift 0 has a non-integer trace, which no "
            "rotation part of finite order has")
    return _exact_key(rot)


def _rot_pow(rot, n: int) -> tuple:
    """rot**n; rot is orthogonal, so rot**-1 is its transpose."""
    if n < 0:
        rot, n = transpose(rot), -n
    return power(rot, n, mat3_mul, S2R_ROT_ID)


def _trace_den(rot) -> int:
    """delta(rot) for an exact rot: the denominator of tr rot, and so of 2
    cos theta = det(rot) tr(rot) - 1 for the rotation det(rot) rot."""
    return (rot[0][0] + rot[1][1] + rot[2][2]).denominator


def _shift_generator(elements: list, exact: bool, reduce):
    """(twist, lam, kernel): (twist, lam), lam > 0, generates the shifts
    of the group G of O(3) x R that elements (rot, shift) generate, and G
    with the elements of shift 0 that kernel lists by their rotation
    parts; twist and lam are None when every shift is 0.

    Euclid's algorithm on the elements themselves, from the smallest shift
    (a negative shift enters as its inverse): each Nielsen move a <- a b^-q
    keeps the group, reduce(a_rot, b_rot, q) is its rotation part, and an
    element whose shift reaches 0 joins the kernel.  Exact shifts are
    Fractions.  A float shift of at most 1e-12 counts as 0, a ratio r
    within 1e-9 (1 + r) of an integer as a multiple, and a remainder below
    1e-9 max |s| proves the shifts dense in R (NonDiscreteShiftError).
    """
    zero = 0 if exact else 1e-12
    kernel = [rot for rot, s in elements if abs(s) <= zero]
    support = sorted(((rot, s) if s > 0 else (transpose(rot), -s)
                      for rot, s in elements if abs(s) > zero),
                     key=lambda el: el[1])
    if not support:
        return None, None, kernel
    floor = 0 if exact else 1e-9 * support[-1][1]

    def divides(b, a):
        if exact:
            return a % b == 0
        ratio = a / b
        return abs(ratio - round(ratio)) <= 1e-9 * (1 + ratio)

    t_rot, lam = support[0]
    for rot, a in support[1:]:
        while not divides(lam, a):
            q = int(a // lam)
            rot, t_rot = t_rot, reduce(rot, t_rot, q)
            a, lam = lam, a - q * lam
            if lam < floor:
                raise NonDiscreteShiftError(
                    "the shifts have no common period: Euclid's remainder "
                    f"fell to {lam}")
        kernel.append(reduce(rot, t_rot, round(a / lam)))
    return t_rot, lam, kernel


def _exact_reduction(rots: list):
    """reduce(x, b, q) = x b^-q for `_shift_generator` on Gamma+, whose
    generators have the exact rotation parts rots; NonDiscreteShiftError
    where Gamma+ is not discrete.  Write R' = det(R) R (-I is central) and
    delta(R) for the denominator of 2 cos theta = tr R' - 1 (`_trace_den`).
    - Niven: R has finite order exactly when delta(R) = 1 (2 cos theta is
      then an algebraic integer), and its order then divides 12 (2 cos
      theta in {0, +-1, +-2}): b^-q is b^(-q mod 12).
    - Axis: let g in Gamma+ have delta(g) > 1, so R'_g has infinite order
      about an axis a.  If K is finite, the commutators [h, g^N] of shift 0
      take finitely many values, so h commutes with some g^D, D != 0, and
      R'_h fixes a, as R'_g^D is no half-turn.  So a generator with delta
      > 1 commutes with all others, which then commute, or Gamma+ is not
      discrete.  If none has, neither has any element of a discrete
      Gamma+: all would commute with it, and commuting rotations of finite
      order generate a finite group.
    - Height: in that commuting case a discrete Gamma+ is K x| <t>, each h
      = k t^m, m = s_h / lam, with R'_k of finite order about a.  delta(h)
      is the Mahler measure of e^(i theta_h), the leading coefficient of v
      z^2 - u z + v for 2 cos theta_h = u / v, so the Weil height gives
      delta(h) = delta(t)^|m|.  A step x <- x b^-q, q = floor(s_x / s_b),
      then has delta(b)^q <= delta(x): Gamma+ is not discrete when q
      (bitlen delta(b) - 1) >= bitlen delta(x), and otherwise b^q has
      fewer than 2 bitlen delta(x) bits of height.
    """
    wild = next((r for r in rots if _trace_den(r) > 1), None)
    if wild is not None and any(mat3_mul(r, wild) != mat3_mul(wild, r)
                                for r in rots):
        raise NonDiscreteShiftError(
            "a rotation part of non-integer trace does not commute with "
            "every other one: infinitely many elements act trivially on R")

    def reduce(x, b, q):
        den = _trace_den(b)
        if den == 1:
            q %= 12
        elif wild is None or \
                q * (den.bit_length() - 1) >= _trace_den(x).bit_length():
            raise NonDiscreteShiftError(
                "a power of an element of non-integer trace outgrows the "
                "trace denominators of a discrete group: infinitely many "
                "elements act trivially on R")
        return mat3_mul(x, _rot_pow(b, -q))
    return reduce


def _twist_closure(rots: list, twist, key, cap: int) -> list:
    """The least group that contains rots and is closed under conjugation
    by twist (None: no conjugation), its elements told apart by key, which
    may refuse one: `intmat.closure` closes the generators, then their
    conjugates join them, until a step adds nothing."""
    gens = list({key(r): r for r in rots}.values())
    new = gens
    while True:
        try:
            group = closure(S2R_ROT_ID, gens, mat3_mul, key, cap=cap)[0]
        except SearchCapError:
            raise NonDiscreteShiftError(
                f"more than {cap} rotation parts act trivially on R: "
                "they form an infinite group") from None
        if twist is None:
            return group
        inv, keys = transpose(twist), {key(r) for r in group}
        new = [r for r in (mat3_mul(mat3_mul(twist, g), inv) for g in new)
               if key(r) not in keys]
        if not new:
            return group
        gens += new


def s2r_decompose(gens: Sequence[S2RIsometry],
                  word_bound: int = 8) -> S2RDecomposition:
    """Split a discrete group of S^2 x R into 1 -> F -> Gamma -> L.

    Let p map Gamma to Isom(R).  O(3) is compact, so Gamma is discrete
    exactly when p(Gamma) is discrete and K = ker p is finite; then L =
    p(Gamma) and F is K.  Both come out of closed forms, not a search:

    - with a flip, the flip-free elements form a subgroup Gamma+ of index
      2 with transversal {1, r}, r the first flipping generator; its
      Schreier generators h_j are g and r g r^-1 for g flip-free, g r^-1
      and r g for g flipping.  Without a flip, the h_j are the generators;
    - L = lam Z (with a flip, lam Z x| Z_2): Euclid's algorithm on the h_j
      themselves (`_shift_generator`) ends in t of shift lam and elements
      k_i of shift 0 with Gamma+ = <t, k_i>;
    - K is generated by the t^n k_i t^-n, so F is the least group that
      contains the rotation parts of the k_i and is normalized by the
      twist R_t, the rotation part of t (`_twist_closure`).

    Exact rotations are compared exactly and take no float and no large
    power (`_exact_reduction`); the closure stops at the first element of F
    whose trace is no integer (`_finite_key`).  Float ones are compared
    rounded to 9 digits.  NonDiscreteShiftError reports such an element (of
    infinite order), the rules of `_exact_reduction`, shifts that are dense
    in R, or an F of more than 48 exact or BALL_CAP float elements.

    lam is None when Gamma+ shifts nothing; otherwise an int when every
    shift is an int, a Fraction when every shift is exact, a float
    otherwise.  `word_bound` is kept for compatibility and must be >= 0;
    no answer depends on it.
    """
    if not gens:
        raise ValueError("at least one generator required")
    if word_bound < 0:
        raise ValueError("word_bound must be >= 0")
    r = next((g for g in gens if g.flip == -1), None)
    plus = list(gens)
    if r is not None:
        r_inv = r.inverse()
        plus = [h for g in gens
                for h in ((g, r.compose(g).compose(r_inv)) if g.flip == 1
                          else (g.compose(r_inv), r.compose(g)))]
    exact = all(isinstance(g.shift, (int, Fraction)) for g in gens)
    floats = not all(_rational(g.rot) for g in gens)
    twist, lam, kernel = _shift_generator(
        [(h.rot, Fraction(h.shift) if exact else float(h.shift))
         for h in plus], exact,
        (lambda x, b, q: mat3_mul(x, _rot_pow(b, -q))) if floats
        else _exact_reduction([h.rot for h in plus]))
    if lam is not None and all(isinstance(g.shift, int) for g in gens):
        lam = int(lam)
    f = (_twist_closure(kernel, twist, _rot_key, BALL_CAP) if floats
         else _twist_closure(kernel, twist, _finite_key, _EXACT_CAP))
    if r is not None:
        l_type = LAMBDA_Z_SEMIDIRECT
    elif lam is None:
        l_type = TRIVIAL_L
    else:
        l_type = LAMBDA_Z
    return S2RDecomposition(l_type, lam, len(f), tuple(f), twist)


SO3_X_S1 = "SO3xS1"
S1_X_S1 = "S1xS1"
S1_ONLY = "S1"


def _det3(r) -> float:
    return (r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
            - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
            + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0]))


def s2r_quotient_identity_component(dec: S2RDecomposition) -> str:
    """Identity component of the quotient isometry group.

    The circle from the R factor always survives; what is left of SO(3) is
    the centralizer of the holonomy data (the twist and the finite part, r
    as -r when det r < 0, since -I is central): all of it when every r is
    I, else a circle when the others share the first one's axis, as two
    rotations do when they commute and are not two different half-turns.
    Products are compared under the split's key."""
    if dec.lam is None:
        raise ValueError("compact quotient required "
                         "(lambda is None: p(Gamma) is finite)")
    mats = list(dec.f_elements)
    if dec.twist is not None:
        mats.append(dec.twist)
    key = _exact_key if all(map(_rational, mats)) else _rot_key
    one = key(S2R_ROT_ID)
    holonomy = []
    for rot in mats:
        if _det3(rot) < 0:
            rot = tuple(tuple(-v for v in row) for row in rot)
        if key(rot) != one:
            holonomy.append(rot)
    if not holonomy:
        return SO3_X_S1
    r0 = holonomy[0]
    half_turn = key(mat3_mul(r0, r0)) == one
    for s in holonomy[1:]:
        if key(mat3_mul(r0, s)) != key(mat3_mul(s, r0)) or (
                half_turn and key(mat3_mul(s, s)) == one
                and key(s) != key(r0)):
            return S1_ONLY
    return S1_X_S1


def psl2_quotient_isometry(geometry: str = "sl2r") -> IsoDescriptor:
    """Circle-extension shape for quotients fibering over the hyperbolic
    plane; the finite quotient can be any finite group."""
    if geometry not in ("psl2", "sl2r", "h2xr"):
        raise ValueError(f"unknown fibered geometry {brief_text(geometry)}")
    finite = {"structure": "unspecified finite group F",
              "order": None,
              "realizable": "every finite group occurs for some lattice"}
    return IsoDescriptor(geometry=geometry, identity_component="S1",
                         circle_factor="S1", finite_part=finite,
                         notes=("finite extension of the circle",))
