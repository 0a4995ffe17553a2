"""Heisenberg group over exact scalars and isometry groups of its quotients.

Points carry the global coordinates (x, y, z) of the unipotent upper
triangular matrix with rows (1, x, z), (0, 1, y), (0, 0, 1), so
(x, y, z) (u, v, w) = (x + u, y + v, z + w + x v).  The isometry group
splits as the group itself (left translations) extended by O(2); the
O(2) part is restricted to the finite-order rotations and reflections that
are exactly representable over Q or Q(sqrt(3)), which are precisely the
ones that can stabilize a planar lattice.

An orthogonal matrix A acts as the group automorphism

    (v, z)  |->  (A v, det(A) * (z - v1*v2/2) + (Av)1*(Av)2/2),

the unique isometric lift: in the shifted coordinate Z = z - x*y/2 the
group law is symmetric under A and the action is linear.

The library multiplies in one coordinate system only, the lattice frame
of the lattice generated by (u, r), (v, s) and the central (0, 0, lam/n),
with B = (u v) and lam = cross(u, v):

    k = B^-1 (x, y),   zeta = (z - x*y/2) * 2n / lam.

There the group law is zeta'' = zeta + zeta' + n cross(k, k'), the
lattice is {k in Z^2, zeta - (k1 alpha + k2 beta + n k1 k2) in 2Z} with
alpha = (r - u1 u2/2) 2n / lam and beta = (s - v1 v2/2) 2n / lam, and a
point symmetry R acts as (k, zeta) |-> (M k, det(M) zeta) for the integer
matrix M = B^-1 R B.  `_LatticeFrame` scales k and zeta by fixed integers
so that every lift, closure, coset and extension check is integer
arithmetic (in Z[sqrt(d)] when alpha, beta or the basis form are
irrational); global coordinates serve the oracles of tests/support.py.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd, lcm
from operator import add, sub
from typing import Optional, Sequence

from .algebra import (
    QuadRat,
    Scalar,
    _reduced,
    as_exact,
    cross_parts,
    format_scalar,
    integer_rows,
    one_field,
    row_scalar,
    scalar_is_rational,
)
from .descriptors import IsoDescriptor, _Frozen, _setattr, brief
from .intmat import (
    MAT2_ID,
    Mat2,
    SearchCapError,
    Vec2,
    ZSpan,
    _zmul,
    closure,
    congruence_solutions,
    mat2_apply,
    mat2_det,
    mat2_mul,
    vec2_cross,
    zsqrt_apply,
    zsqrt_mul,
)
from .plane import POINT_GROUP_CAP, PlanarPointGroup, planar_point_group

HALF = Fraction(1, 2)


# -- points -------------------------------------------------------------------

class HeisPoint(_Frozen):
    """Group element with global coordinates (x, y, z), all exact."""

    __slots__ = _fields = ("x", "y", "z")

    def __init__(self, x: Scalar, y: Scalar, z: Scalar):
        _set_x(self, x)
        _set_y(self, y)
        _set_z(self, z)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.x, self.y, self.z) == (other.x, other.y, other.z)
        return NotImplemented

    def __hash__(self):
        return hash((self.x, self.y, self.z))

    @classmethod
    def of(cls, x, y, z) -> "HeisPoint":
        return cls(as_exact(x), as_exact(y), as_exact(z))

    def planar(self) -> Vec2:
        return (self.x, self.y)

    def to_json(self):
        return list(map(format_scalar, (self.x, self.y, self.z)))


_set_x, _set_y, _set_z = (HeisPoint.__dict__[name].__set__
                          for name in HeisPoint.__slots__)

HEIS_ID = HeisPoint(Fraction(0), Fraction(0), Fraction(0))


def heis_commutator(g: HeisPoint, h: HeisPoint) -> HeisPoint:
    """Central element (0, 0, area of the projected vectors)."""
    return HeisPoint(Fraction(0), Fraction(0),
                     g.x * h.y - h.x * g.y)


def heis_conjugate(g: HeisPoint, t: HeisPoint) -> HeisPoint:
    """g t g^{-1} = (t1, t2, t3 + x*t2 - y*t1) for g = (x, y, .)."""
    return HeisPoint(t.x, t.y, t.z + g.x * t.y - g.y * t.x)


# -- the O(2) part ------------------------------------------------------------

# Order k of a rotation by its trace 2 cos(2 pi / k) = t + u sqrt(d), as
# (t, u, d), d = 0 if rational: over a quadratic field, order 5, 10 or 24
# would need a sine of degree 4, and order 8 lies outside Q and Q(sqrt(3)).
_ORDER_BY_TRACE = {(2, 0, 0): 1, (-2, 0, 0): 2, (-1, 0, 0): 3, (0, 0, 0): 4,
                   (1, 0, 0): 6, (0, 1, 3): 12, (0, -1, 3): 12,
                   (0, 1, 2): 8, (0, -1, 2): 8}
_INFINITE_ORDER = "rotation part must have finite order dividing 12"


def _matrix_order(m: Mat2) -> int:
    """Order of the integer matrix B^-1 R B of an orthogonal R in a
    lattice basis B: det -1 is a reflection, and for det 1 the trace
    decides."""
    return _order(mat2_det(m) == -1, (m[0][0] + m[1][1], 0, 0))


def _order(reflection: bool, trace) -> int:
    if reflection:
        return 2
    order = _ORDER_BY_TRACE.get(trace)
    if order is None:
        raise ValueError(_INFINITE_ORDER)
    if 12 % order:
        raise ValueError(f"order {order} is not exactly representable")
    return order


@functools.lru_cache(maxsize=256)
def _linear_group(rots: tuple) -> tuple[int, int, tuple, tuple]:
    """(D, d, F, edges): the group F that exact linear parts generate, over
    D on {1, sqrt(d)} (d = 0 when all are rational), and the edges of its
    breadth-first walk; the one exact form of a linear part, which
    `HeisIsometry` checks as the group of (rot,).

    A matrix f is its two `integer_rows` rows (a_00, a_01, b_00, b_01,
    a_10, ...) for f_ij = (a_ij + b_ij sqrt(d)) / D.  `intmat.closure`
    gives F breadth-first from I and the edges (f, i, f g_i, first visit),
    so the first len(rots) give each generator g_i.  Linear parts over two
    fields raise MixedDiscriminantError; each generator, in order, passes
    the orthogonality check and then the order check (`_linear_order`),
    each product the order check alone (products of orthogonal matrices
    are orthogonal), and F has at most POINT_GROUP_CAP elements.  A finite
    F stays over D: its rotations have entries in Z or 1/2 Z[sqrt(3)],
    its reflections are one of them times a generator.

    Cached on the rotation tuples: `HeisIsometry` admits exact entries
    only, and equal exact values, such as 1, Fraction(1) and QuadRat(1, 0,
    5), give equal rows.  Failures are not cached.
    """
    D, rad, cols = integer_rows([c for rot in rots for c in zip(*rot)])
    if len(rad) > 2:
        one_field(*rad[1:3])
    d = rad[1] if len(rad) > 1 else 0
    pad = () if d else (0, 0)
    gens = [cols[k] + pad + cols[k + 1] + pad for k in range(0, len(cols), 2)]
    ident = (D, 0, 0, 0, 0, D, 0, 0)
    for g_t in gens:   # g stored as g^T: both checks answer as for g
        if zsqrt_mul(g_t, g_t, d, D) != ident:
            raise ValueError("rotation part must be orthogonal")
        _linear_order(g_t, d, D)

    def mul(f, g_t):
        f_rot = zsqrt_mul(f, g_t, d, D)
        _linear_order(f_rot, d, D)
        return f_rot

    try:
        elements, edges = closure(ident, gens, mul, cap=POINT_GROUP_CAP)
    except SearchCapError:
        raise ValueError("linear parts generate too large a group") from None
    return D, d, tuple(elements), tuple(edges)


def _linear_order(f, d: int, D: int) -> int:
    """The order of an orthogonal linear part over D, by its determinant
    and trace; None is a product not over D, of infinite order."""
    if f is None:
        raise ValueError(_INFINITE_ORDER)
    t, u = f[0] + f[5], f[2] + f[7]
    det = f[0] * f[5] - f[1] * f[4] + d * (f[2] * f[7] - f[3] * f[6])
    return _order(det == -D * D,
                  None if t % D or u % D else (t // D, u // D, u and d))


ROT_PI = ((-1, 0), (0, -1))
ROT_PI_2 = ((0, -1), (1, 0))
ROT_PI_3: Mat2 = ((HALF, QuadRat(0, -HALF, 3)),
                  (QuadRat(0, HALF, 3), HALF))
REFLECT = ((1, 0), (0, -1))


class HeisIsometry(_Frozen):
    """Isometry p |-> trans * sigma_rot(p); rot orthogonal of finite order,
    checked in integers by `_linear_group`, whose cache the dichotomy
    shares."""

    __slots__ = _fields = ("rot", "trans")

    def __init__(self, rot: Mat2, trans: HeisPoint):
        for x in (*rot[0], *rot[1]):   # 1.0 would pass as 1
            if not isinstance(x, (int, Fraction, QuadRat)):
                raise ValueError(f"exact entries required, not {x!r}")
        _linear_group((tuple(map(tuple, rot)),))
        _set_rot(self, rot)
        _set_trans(self, trans)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.rot, self.trans) == (other.rot, other.trans)
        return NotImplemented

    def __hash__(self):
        return hash((self.rot, self.trans))

    @classmethod
    def translation(cls, p: HeisPoint) -> "HeisIsometry":
        return cls(MAT2_ID, p)

    @classmethod
    def point_symmetry(cls, rot: Mat2) -> "HeisIsometry":
        return cls(rot, HEIS_ID)

    def planar_part(self) -> tuple[Mat2, Vec2]:
        """Induced isometry of the plane: p |-> rot p + w."""
        return self.rot, self.trans.planar()


_set_rot, _set_trans = (HeisIsometry.__dict__[name].__set__
                        for name in HeisIsometry.__slots__)


# -- lattices -----------------------------------------------------------------

class NilLattice(_Frozen):
    """Lattice generated by (u, r), (v, s) and the central (0, 0, lam/n)."""

    _fields = ("u", "v", "r", "s", "n", "lam")

    def __init__(self, u: Vec2, v: Vec2, r: Scalar, s: Scalar, n: int,
                 lam: Scalar):
        _setattr(self, "u", u)
        _setattr(self, "v", v)
        _setattr(self, "r", r)
        _setattr(self, "s", s)
        _setattr(self, "n", n)
        _setattr(self, "lam", lam)

    def generators(self) -> list[HeisPoint]:
        return [HeisPoint(self.u[0], self.u[1], self.r),
                HeisPoint(self.v[0], self.v[1], self.s),
                HeisPoint(Fraction(0), Fraction(0), self.center_step())]

    def center_step(self) -> Scalar:
        return self.lam * Fraction(1, self.n)

    @functools.cached_property
    def point_group(self) -> "PlanarPointGroup":
        """`planar_point_group` of the projected lattice, read once per
        lattice (not a field: eq, hash and repr ignore it); the group
        itself is computed once per exact basis, and shared."""
        return planar_point_group(self.u, self.v)

    def to_json_dict(self) -> dict:
        return {
            "u": list(map(format_scalar, self.u)),
            "v": list(map(format_scalar, self.v)),
            "r": format_scalar(self.r),
            "s": format_scalar(self.s),
            "n": self.n,
            "lambda": format_scalar(self.lam),
        }


def nil_lattice_make(u, v, r=0, s=0, n: int = 1) -> NilLattice:
    """Validated lattice descriptor; u, v must be linearly independent."""
    u = (as_exact(u[0]), as_exact(u[1]))
    v = (as_exact(v[0]), as_exact(v[1]))
    lam = vec2_cross(u, v)
    if lam == 0:
        raise ValueError("u and v are linearly dependent")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError("n must be a positive integer")
    return NilLattice(u, v, as_exact(r), as_exact(s), n, lam)


def lattice_hz() -> NilLattice:
    return nil_lattice_make((1, 0), (0, 1))


def lattice_gp(p: int) -> NilLattice:
    return nil_lattice_make((1, 0), (0, 1), n=p)


def lattice_hex(p: int) -> NilLattice:
    u = (HALF, QuadRat(0, HALF, 3))
    return nil_lattice_make(u, (1, 0), n=p)


def nil_center_intersection(lat: NilLattice) -> Scalar:
    """Positive generator of (lattice) intersect Z(H)."""
    return abs(lat.center_step())


class NilNormalizer(_Frozen):
    """Normalizer in the group: planar lattice refined by n, full line in z;
    index is the index of the projected lattice refinement."""

    _fields = ("lattice", "planar_u", "planar_v", "index")

    def __init__(self, lattice: NilLattice, planar_u: Vec2, planar_v: Vec2,
                 index: int):
        _setattr(self, "lattice", lattice)
        _setattr(self, "planar_u", planar_u)
        _setattr(self, "planar_v", planar_v)
        _setattr(self, "index", index)

    def to_json_dict(self) -> dict:
        return {
            "planar_u": list(map(format_scalar, self.planar_u)),
            "planar_v": list(map(format_scalar, self.planar_v)),
            "z": "R",
            "index": self.index,
        }


def nil_normalizer(lat: NilLattice) -> NilNormalizer:
    """Translations normalizing the lattice: (k/n) u + (l/n) v, any z.

    Conjugation shifts z-levels by the cross product with the projection,
    so the planar part is constrained to the n-fold refinement of the
    projected lattice while the z-axis is free.
    """
    inv_n = Fraction(1, lat.n)
    return NilNormalizer(
        lattice=lat,
        planar_u=(lat.u[0] * inv_n, lat.u[1] * inv_n),
        planar_v=(lat.v[0] * inv_n, lat.v[1] * inv_n),
        index=lat.n ** 2,
    )


# -- the lattice frame ---------------------------------------------------------

def _quotient(x, m: int) -> Optional[int]:
    """x / m if x, an int or an element of Z[sqrt(d)], is an integer
    multiple of m; else None."""
    if isinstance(x, int):
        q, rem = divmod(x, m)
        return None if rem else q
    if x.q or x.r != 1 or x.p % m:
        return None
    return x.p // m


class _LatticeFrame:
    """The lattice frame of one lattice (see the module docstring), scaled
    to integers.

    With w = B j, the basis form n w1 w2 / lam is a j1^2 + c j1 j2 + b j2^2
    for a = n u1 u2 / lam, b = n v1 v2 / lam, c = n (u1 v2 + u2 v1) / lam.
    One `integer_rows` writes u, v, (r, s) over e as U, V, (r', s') in
    Z[sqrt(d)]; L = lam e^2 = U1 V2 - U2 V1, and alpha = n (2 e r' - U1 U2)
    / L, beta, a = n U1 U2 / L, b and c are integer numerators over N(L).
    D is the least positive integer with D alpha, D beta integral and G
    the least with G a, G b, G c integral.  A Heisenberg element is the
    pair (K, W) = (P k, C zeta) for the scales P = 2 n D and C = P^2 G, so

        (K, W) (K', W') = (K + K', W + W' + h cross(K, K')),  h = G n,

    the lattice is {K in P Z^2, W - C base(K / P) in 2 C Z} with
    base(k) = k1 alpha + k2 beta + n k1 k2, and an isometry
    p |-> t sigma_R(p) is the triple (M, K, W) of M = B^-1 R B and t.
    Lifts, and every product and residual below, have integral
    coordinates: ints for rational alpha, beta, a, b, c (every `Gp:N` and
    `hex:N`), elements of Z[sqrt(d)] otherwise, by the same code.  For
    entries over two fields the five values are QuadRat products, which
    refuse two fields where they meet them; MixedDiscriminantError then
    names the least two left among the values, which a lift would add.

    Frames are equal, and hash alike, when their integers are: n, D n, h
    and the entries D alpha, D beta, G a, G b, G c, from which P, C and
    the central coordinates follow.  Each is an int or an element of
    Z[sqrt(d)], so no Fraction or float enters the hash.
    """

    __slots__ = ("n", "dn", "P", "C", "h", "ra", "rb", "qa", "qb",
                 "qc", "ca", "cb", "cn", "_key")

    def __init__(self, lat: NilLattice):
        n = lat.n
        e, rad, rows = integer_rows((lat.u, lat.v, (lat.r, lat.s)))
        d = rad[-1]                     # 1 when every entry is rational
        if len(rad) > 2:                # two fields: the QuadRat products
            (u1, u2), (v1, v2), scale = lat.u, lat.v, Fraction(n) / lat.lam
            a, b = scale * u1 * u2, scale * v1 * v2
            c = scale * (u1 * v2 + u2 * v1)
            norm, rad, (row,) = integer_rows(((
                2 * scale * lat.r - a, 2 * scale * lat.s - b, a, b, c),))
            one_field(*(*rad, 0, 0)[1:3])
            d, nums = rad[-1], list(zip(row, row[5:] or (0,) * 5))
        else:
            (u1, u2), (v1, v2), (r, s) = (((w[0], w[2]), (w[1], w[3])) for w
                                          in ((*row, 0, 0) for row in rows))
            uu, vv, uv, vu = (_zmul(x, y, d) for x, y in (
                (u1, u2), (v1, v2), (u1, v2), (u2, v1)))
            l0, l1 = uv[0] - vu[0], uv[1] - vu[1]          # L
            norm = l0 * l0 - d * l1 * l1
            nums = [_zmul(x, (n * l0, -n * l1), d) for x in (
                (2 * e * r[0] - uu[0], 2 * e * r[1] - uu[1]),
                (2 * e * s[0] - vv[0], 2 * e * s[1] - vv[1]),
                uu, vv, (uv[0] + vu[0], uv[1] + vu[1]))]
        dens = [norm // gcd(p, q, norm) for p, q in nums]
        D, G = lcm(*dens[:2]), lcm(*dens[2:])
        # D alpha, D beta (the lift's system), G a, G b, G c (its center)
        self.ra, self.rb, self.qa, self.qb, self.qc = [
            _reduced(p * m // norm, q * m // norm, 1, d) if q else
            p * m // norm for (p, q), m in zip(nums, (D, D, G, G, G))]
        self.n, self.dn, self.h = n, D * n, G * n
        self.P = P = 2 * n * D
        self.C = P * P * G
        # C alpha, C beta, C n: the central coordinates of lattice words
        self.ca, self.cb = 2 * n * P * G * self.ra, 2 * n * P * G * self.rb
        self.cn = self.C * n
        self._key = (n, self.dn, self.h, self.ra, self.rb, self.qa, self.qb,
                     self.qc)

    def __eq__(self, other):
        if other.__class__ is not _LatticeFrame:
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def residual(self, k, w):
        """C base(K / P) - W, or None when K is not in P Z^2."""
        k1, k2 = _quotient(k[0], self.P), _quotient(k[1], self.P)
        if k1 is None or k2 is None:
            return None
        return self.ca * k1 + self.cb * k2 + self.cn * k1 * k2 - w

    def contains(self, k, w) -> bool:
        need = self.residual(k, w)
        return need is not None and _quotient(need, 2 * self.C) is not None

    def compose(self, x, y):
        (m, k, w), (m2, k2, w2) = x, y
        mk = mat2_apply(m, k2)
        return (mat2_mul(m, m2), (k[0] + mk[0], k[1] + mk[1]),
                w + mat2_det(m) * w2 + self.h * (k[0] * mk[1] - k[1] * mk[0]))

    def inverse(self, x):
        m, k, w = x
        det = mat2_det(m)
        m_inv = ((det * m[1][1], -det * m[0][1]),
                 (-det * m[1][0], det * m[0][0]))
        mk = mat2_apply(m_inv, k)
        return m_inv, (-mk[0], -mk[1]), -det * w

    def difference(self, x, y):
        """Translation part (K, W) of x y^-1, for x, y with one linear
        part: t_x t_y^-1."""
        (_, k, w), (_, k2, w2) = x, y
        return ((k[0] - k2[0], k[1] - k2[1]),
                w - w2 - self.h * (k[0] * k2[1] - k[1] * k2[0]))

    def lift(self, m: Mat2):
        """The lift (M, K, W) of the point symmetry with lattice matrix
        M = m, verified by conjugating every lattice generator.

        Its translation t conjugates each generator (e_i, alpha_i), with
        alpha_1 = alpha and alpha_2 = beta, exactly onto the lattice word
        over M e_i: cross(k, M e_i) = (base(M e_i) - det alpha_i) / 2n, a
        2 x 2 system of determinant det M = +-1.  Its central part is
        zeta = -det (a j1^2 + c j1 j2 + b j2^2) for j = M^-1 k: the lift is
        sigma_R after the translation (w, 0), w = B j.  Closure verdicts
        depend on this choice of central part, so it must not change.
        """
        det = mat2_det(m)
        (m11, m12), (m21, m22) = m
        rhs1 = (self.ra * m11 + self.rb * m21 + self.dn * m11 * m21
                - det * self.ra)
        rhs2 = (self.ra * m12 + self.rb * m22 + self.dn * m12 * m22
                - det * self.rb)
        k = (det * (m11 * rhs2 - m12 * rhs1), det * (m21 * rhs2 - m22 * rhs1))
        j1 = det * (m22 * k[0] - m12 * k[1])
        j2 = det * (m11 * k[1] - m21 * k[0])
        lift = (m, k, -det * (self.qa * j1 * j1 + self.qc * j1 * j2
                              + self.qb * j2 * j2))
        # t sigma(g) t^-1 = (M K_g, det W_g + 2 h cross(K, M K_g))
        for kg, wg in (((self.P, 0), self.ca), ((0, self.P), self.cb),
                       ((0, 0), 2 * self.C)):
            mk = mat2_apply(m, kg)
            if not self.contains(mk, det * wg + 2 * self.h * (
                    k[0] * mk[1] - k[1] * mk[0])):
                raise AssertionError("lift verification failed")
        return lift


# -- quotient isometry groups -------------------------------------------------

def _coset_constraints(frame: _LatticeFrame, k: Vec2, pairs) -> bool:
    """Whether some translation (tau, z), tau = B k / n, conjugates Y into
    lattice * phi for every pair (Y, phi) of frame isometries with equal
    linear parts.

    The residual q = t Y t^-1 phi^-1 for t = (tau, zeta = 0) is a
    translation, and its planar part must lie in the projected lattice.
    Conjugating Y by the central (0, 0, z) as well multiplies q by
    (0, 0, (1 - det) z): for a det 1 linear part z drops out, so the
    central residual must be 0 (mod 2 C, the frame's lam/n); for det -1 it
    shifts by 2 z, so those residuals must agree (mod 2 C), and z = c/2
    then works for their common value c.
    """
    step = frame.P // frame.n               # K of B k / n is 2 D k
    t = (MAT2_ID, (step * k[0], step * k[1]), 0)
    t_inv = (MAT2_ID, (-t[1][0], -t[1][1]), 0)
    reversing = []
    for y, phi in pairs:
        conj = frame.compose(frame.compose(t, y), t_inv)
        need = frame.residual(*frame.difference(conj, phi))
        if need is None:
            return False
        if mat2_det(y[0]) == -1:
            reversing.append(need)
        elif _quotient(need, 2 * frame.C) is None:
            return False
    return all(_quotient(c - reversing[0], 2 * frame.C) is not None
               for c in reversing[1:])


def _point_group_generators(mats: Sequence[Mat2]) -> list[Mat2]:
    """Generators of a finite group F of lattice matrices, the integer
    matrices B^-1 R B of orthogonal R in a lattice basis B: its rotation
    of largest order (`_matrix_order`), unless that is I, and its first
    reflection, if any.

    Every finite subgroup of O(2) is cyclic or dihedral, so these generate
    F; for F = {I} the list is empty.
    """
    order, rot = max(((_matrix_order(m), m) for m in mats
                      if mat2_det(m) == 1), key=lambda pair: pair[0])
    gens = [rot] if order > 1 else []
    return gens + [m for m in mats if mat2_det(m) == -1][:1]


def _lift_group_closes(frame: _LatticeFrame, lifts: dict, gens) -> bool:
    """Whether the lifts L(f), f in F, keyed by lattice matrix, form a
    group modulo the lattice.

    Checks L(a) L(g) in lattice * L(ag) for a != I in F and g among the
    generators of F only.  That suffices: the lifts normalize the lattice,
    so by induction on the length of a word b in the generators, with
    b = b' g,

        L(a) L(b) in lattice * L(a) L(b') L(g)
                  in lattice * L(ab') L(g)  in lattice * L(ab).
    """
    group = {MAT2_ID: (MAT2_ID, (0, 0), 0), **lifts}
    for a in lifts.values():
        for g in gens:
            prod = frame.compose(a, lifts[g])
            target = group.get(prod[0])
            if target is None or not frame.contains(
                    *frame.difference(prod, target)):
                return False
    return True


def _normalizing_cosets(frame: _LatticeFrame, pairs):
    """Yield each k in (Z/n)^2 for which some translation (tau, z),
    tau = B k / n, conjugates Y into lattice * phi for every pair (Y, phi)
    of frame isometries with equal linear parts M.

    The planar part of (tau, z) Y (tau, z)^-1 phi^-1 is
    (I - R) tau + w_Y - w_phi, which in lattice coordinates is
    (I - M) k / n + c for c = B^-1 (w_Y - w_phi); it is a lattice vector
    exactly when

        (I - M) k = -n c  (mod n),

    which needs n c integral.  Each solution is checked exactly by
    `_coset_constraints` only when the caller asks for the next one.
    """
    n = frame.n
    rows, rhs = [], []
    for y, phi in pairs:
        nc = [_quotient(n * (a - b), frame.P) for a, b in zip(y[1], phi[1])]
        if nc[0] is None or nc[1] is None:
            return
        m = y[0]
        rows += ((1 - m[0][0], -m[0][1]), (-m[1][0], 1 - m[1][1]))
        rhs += [-nc[0], -nc[1]]
    for k in congruence_solutions(rows, rhs, n):
        if _coset_constraints(frame, k, pairs):
            yield k


def _extends_to_group_normalizer(frame: _LatticeFrame, m: Mat2,
                                 lifts: dict, gens) -> bool:
    """Whether a translate t * base of the lift base of the point symmetry
    with lattice matrix m normalizes the group generated by the lattice
    and the adjoined lifts.

    base normalizes the lattice (`_LatticeFrame.lift` verifies it), so
    t * base does exactly when t = (tau, z) has tau = B k / n for some k in
    (Z/n)^2 (see `nil_normalizer`).  It must also conjugate each generator
    lift phi into lattice * phi', where phi' is the lift with the linear
    part of Y = base phi base^-1; by the argument of `_lift_group_closes`
    the generators suffice.  That is, t must conjugate Y into
    lattice * phi': one of the `_normalizing_cosets` of the pairs (Y, phi').
    """
    base = frame.lift(m)
    base_inv = frame.inverse(base)
    pairs = []
    for g in gens:
        y = frame.compose(frame.compose(base, lifts[g]), base_inv)
        match = lifts.get(y[0])
        if match is None:
            return False
        pairs.append((y, match))
    return any(True for _ in _normalizing_cosets(frame, pairs))


@functools.lru_cache(maxsize=256)
def _adjoined_counts(frame: _LatticeFrame, group: tuple,
                     basis_matrices: Optional[tuple]):
    """(admissible, extending) of `nil_quotient_isometry` for the group F
    of lattice matrices, identity first, adjoined to the frame's lattice;
    None when the lifts of F do not close over it.  basis_matrices is the
    lattice's point group, or None when F is all of it.

    This reads only the frame's integers and F, so it is cached on them
    (`_LatticeFrame` hashes by value): a lattice and its dilate
    (t u, t v, t^2 r, t^2 s, n), t rational, share one entry.  Failures
    are not cached.
    """
    gens = _point_group_generators(group)
    lifts = {m: frame.lift(m) for m in group[1:]}
    if not _lift_group_closes(frame, lifts, gens):
        return None
    own = [(lifts[g], lifts[g]) for g in gens]
    admissible = sum(1 for _ in _normalizing_cosets(frame, own))
    if basis_matrices is None:
        return admissible, len(group)
    in_group = set(group)
    return admissible, sum(
        m in in_group or _extends_to_group_normalizer(frame, m, lifts, gens)
        for m in basis_matrices)


def nil_quotient_isometry(lat: NilLattice,
                          extra=None) -> IsoDescriptor:
    """Isometry group of the quotient by the lattice (plus adjoined maps).

    For a plain lattice the answer is the extension of the circle acting on
    the central fiber by (Z_n x Z_n) |x Aut of the projected lattice.
    Adjoining orientation reversing point symmetries quantizes the circle
    down to Z_2 and shrinks the finite part.

    With maps adjoined, everything runs in the lattice frame
    (`_LatticeFrame`), on the lattice matrices M = B^-1 R B of the
    adjoined finite group F, B = (u v).  Every condition is checked on at
    most two generators g of F (`_point_group_generators`) and the lattice
    conditions are solved as congruences mod n (following Zassenhaus's
    algorithm for space groups):

    - closure: L(a) L(g) in lattice * L(ag) for a in F (`_lift_group_closes`);
    - one solver, `_normalizing_cosets`, for the translations (tau, z),
      tau = B k / n in the projected refinement, that conjugate each of a
      list of isometries Y into lattice * phi: a congruence
      (I - M_Y) k = rhs (mod n) for the planar part, whose solutions
      (prod gcd(d_i, n) of them, d the Smith diagonal of the stacked
      matrices) are each checked exactly on the central part.  There a
      central (0, 0, z) drops out for det 1 and shifts the residual by 2 z
      for det -1, so z = c/2 for the common det -1 residual c serves all;
    - admissible cosets: the solutions for the pairs (L(g), L(g));
    - extending point symmetries m: whether the pairs
      (base L(g) base^-1, L(m g m^-1)), base the lift of m, have a solution
      (`_extends_to_group_normalizer`).

    The two counts are computed once per frame and F (`_adjoined_counts`);
    the frame (one `integer_rows` of u, v, (r, s)) is built on every call,
    so a lattice over two fields is refused every time, and the "does not
    close" error names the lattice of the call.  The plain law is pinned
    by r / lam and s / lam, divided only when r, s or lam is irrational.
    """
    pg = lat.point_group
    group = [MAT2_ID] if extra is None else pg.subgroup(extra)

    # with no map adjoined there is no condition: all n^2 translation
    # cosets are admissible and every point symmetry extends
    admissible, extending = lat.n ** 2, pg.order
    if len(group) > 1:
        counts = _adjoined_counts(
            _LatticeFrame(lat), tuple(group),
            None if len(group) == pg.order else pg.basis_matrices)
        if counts is None:
            fmt = functools.partial(format_scalar, num=brief)
            u, v = (", ".join(map(fmt, w)) for w in (lat.u, lat.v))
            raise ValueError(
                f"adjoined point group does not close over the lattice "
                f"u = ({u}), v = ({v}), r = {fmt(lat.r)}, "
                f"s = {fmt(lat.s)}, n = {brief(lat.n)}: a product of "
                f"two lifted point symmetries is not a lattice element "
                f"times a lift")
        admissible, extending = counts
    has_reflection = any(mat2_det(m) == -1 for m in group)

    point_quotient = extending // len(group)
    finite_order = admissible * point_quotient

    if extra is None:
        law_pinned = all(map(scalar_is_rational, (lat.r, lat.s, lat.lam))) \
            or all(scalar_is_rational(x / lat.lam) for x in (lat.r, lat.s))
        structure = (f"(Z_{lat.n} x Z_{lat.n}) |x {pg.tag}"
                     if lat.n > 1 else pg.tag)
        finite = {
            "order": finite_order,
            "translation_part": [lat.n, lat.n],
            "point_group": pg.tag,
            "structure": structure if law_pinned else
            f"order {finite_order}, generators reported",
        }
        notes = () if law_pinned else (
            "offsets r, s are not rational multiples of lambda; "
            "finite part reported by generators and order only",)
        return IsoDescriptor(geometry="nil", identity_component="S1",
                             circle_factor="S1", finite_part=finite,
                             notes=notes)

    if has_reflection:
        total = 2 * finite_order
        label = {1: "trivial", 2: "Z2"}.get(total, f"order {total}")
        finite = {
            "order": total,
            "translation_cosets": admissible,
            "point_quotient": point_quotient,
            "circle_quantized_to": 2,
            "structure": label,
        }
        return IsoDescriptor(geometry="nil", identity_component="trivial",
                             circle_factor=2, finite_part=finite,
                             total_order=total)

    finite = {
        "order": finite_order,
        "translation_cosets": admissible,
        "point_quotient": point_quotient,
        "structure": f"order {finite_order}",
    }
    return IsoDescriptor(geometry="nil", identity_component="S1",
                         circle_factor="S1", finite_part=finite)


# -- projection dichotomy -----------------------------------------------------

DISCRETE_PROJECTION = "DiscreteProjection"
FIXES_POINT = "AbelianFixesPoint"
FIXES_LINE = "AbelianFixesLine"
NON_DISCRETE_INPUT = "NonDiscreteInput"


class DichotomyResult(_Frozen):
    _fields = ("kind", "point", "direction", "witness")

    def __init__(self, kind: str, point: Optional[Vec2] = None,
                 direction: Optional[Vec2] = None,
                 witness: Optional[HeisPoint] = None):
        _setattr(self, "kind", kind)
        _setattr(self, "point", point)
        _setattr(self, "direction", direction)
        _setattr(self, "witness", witness)

    def to_json_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        for key, v in (("point", self.point), ("direction", self.direction)):
            if v is not None:
                out[key] = list(map(format_scalar, v))
        if self.witness is not None:
            out["central_witness"] = self.witness.to_json()
        return out


def nil_projection_dichotomy(gens: Sequence[HeisIsometry],
                             word_bound: int = 6) -> DichotomyResult:
    """Classify the projected action on the plane of a discrete group.

    Decided exactly by one Reidemeister-Schreier pass (Magnus, Karrass and
    Solitar, Combinatorial Group Theory, section 2.3) over the projected
    group P, `_schreier_translations`: the linear parts generate a finite
    group F, P has one element s_f = (f, w_f) over each f in F, and the
    translation subgroup T has index |F| in P.  The linear parts are
    converted and F is closed by `_linear_group`, one cache on the exact
    entries, shared with `HeisIsometry`'s check and with failures not
    cached, so a call converts its translations once and walks only them.
    The verdict follows from |F| and the span of T:

    =================  ====================================================
    T                  verdict
    =================  ====================================================
    0, F = {I, sigma}  AbelianFixesLine: sigma is a reflection and fixes
                       its axis pointwise; direction (-b, a) for the
                       first nonzero row (a, b) of I - sigma
    0, otherwise       AbelianFixesPoint: P = {s_f} is finite and fixes
                       the centroid of the orbit sum(w_f) / |F| of the
                       origin, unique unless F = {I}, which gives (0, 0)
    spans one line     AbelianFixesLine: F preserves the line of T, and P
                       an affine line parallel to it (see
                       `_invariant_direction` for the vector reported)
    spans the plane,   DiscreteProjection: T is a lattice and P is
    Z-rank 2           crystallographic
    spans the plane,   NonDiscreteInput
    Z-rank >= 3
    =================  ====================================================

    The pass runs in integers and gives T's generators as integer rows on
    a Q-basis {1, sqrt(d_1), ...}; the invariant line is read off the
    walk's integer generators too, and scalars are rebuilt only for the
    point, direction or covolume reported.  Whether T spans the plane, or
    an axis is parallel to T, is read off the rows (`cross_parts`) without
    multiplying two fields, so the answer does not depend on the order of
    the generators when sqrt(2) and sqrt(3) mix; `_lattice_covolume`
    reads T's Z-rank and covolume off the echelon basis of the rows that
    the lattice kernel `intmat.ZSpan` builds, with no Smith normal form.
    For a lattice, the witness (0, 0, c) is the commutator of lifts of a
    positively oriented basis of T: c > 0 is its covolume, |cross(e_1,
    e_2)| for any basis e_1, e_2 of T.  Z-rank 3 or more is more than a
    discrete subgroup of the Heisenberg group (Hirsch length at most 3)
    projects to; this covers every set whose linear parts hold a rotation
    of order 12, which no planar lattice admits.

    The linear parts must lie over one Q(sqrt(d)), and irrational ones
    need translations over it too; under rational ones the translations
    may mix fields.  A reported value over two fields is refused: a point
    or direction with MixedDiscriminantError, a covolume such as sqrt(3) +
    sqrt(6) with ValueError (sqrt(2) sqrt(3) gives sqrt(6)).  Linear parts
    that generate an infinite group raise ValueError, also when every
    generator fixes one point.  Out of scope: discreteness along the
    center; (0, 0, sqrt(3)) adjoined to (1, 0, 0) and (0, 1, 0) gives a
    non-discrete group with the verdict DiscreteProjection.  `word_bound`
    is kept for compatibility and must be >= 0; no verdict depends on it.
    """
    if word_bound < 0:
        raise ValueError("word_bound must be >= 0")
    planar = [g.planar_part() for g in gens]
    transversal, rows, radicands, D, r, generators = \
        _schreier_translations(planar)

    if not rows:
        f = list(transversal)[-1]
        if len(transversal) == 2 and f != (-D, 0, 0, 0, 0, -D, 0, 0):
            fixed = ((D - f[0], -f[1], -f[2], -f[3]),
                     (-f[4], D - f[5], -f[6], -f[7]))     # I - sigma
            a, b = _vector(next(v for v in fixed if any(v)), radicands, D)
            return DichotomyResult(FIXES_LINE, direction=(-b, a))
        total = [sum(column) for column in zip(*transversal.values())]
        return DichotomyResult(FIXES_POINT, point=_vector(
            total, radicands, r * len(transversal)))

    if not any(cross_parts(radicands, rows[0], row) for row in rows):
        return DichotomyResult(FIXES_LINE, direction=_invariant_direction(
            generators, rows[0], radicands, D, r // D))

    covolume = _lattice_covolume(rows, radicands, r)
    if covolume is None:
        return DichotomyResult(NON_DISCRETE_INPUT)
    return DichotomyResult(DISCRETE_PROJECTION,
                           witness=HeisPoint(Fraction(0), Fraction(0),
                                             covolume))


def _schreier_translations(planar):
    """The Reidemeister-Schreier pass in integers: the transversal {f:
    w_f}, the nonzero Schreier translations, the radicands, the
    denominators D of linear parts and r of those vectors, and the
    generators as integer pairs (g_i, w_i), w_i over r / D.

    F and the edges of its walk come from `_linear_group`, once per set of
    exact linear parts.  A call converts its translations once, to
    `integer_rows` rows with the field Q(sqrt(d)) of the linear parts
    first, and walks them along those edges: s_f = (f, w_f) is the first
    element met over f, and every other edge s_f g_i gives the translation
    w_f + f w_i - w_{f R_i}.  The linear parts must lie over one field and
    close to a finite F before the translations are converted.  Irrational
    linear parts need vectors over their field, since Z[sqrt(d)] holds no
    sqrt(d) sqrt(e): MixedDiscriminantError after the closure.  Rational
    linear parts act block by block, so vectors may mix any fields.
    """
    D, d, elements, edges = _linear_group(tuple(tuple(map(tuple, rot))
                                                for rot, _ in planar))
    r, rad, rows = integer_rows([w for _, w in planar], d)
    if d and len(rad) > 2:
        one_field(d, rad[2])
    ws = [(0,) * (2 * len(rad))]
    out = []
    for k, i, j, first in edges:
        image = tuple(map(add, ws[k], zsqrt_apply(elements[k], rows[i], d)))
        if first:
            ws.append(image)
        elif any(t := tuple(map(sub, image, ws[j]))):
            out.append(t)
    generators = [(elements[j], w) for (_, _, j, _), w in zip(edges, rows)]
    return dict(zip(elements, ws)), out, rad, D, D * r, generators


def _vector(row, rad, den: int) -> Vec2:
    return row_scalar(row[0::2], rad, den), row_scalar(row[1::2], rad, den)


def _cross_value(r: int, parts: dict[int, int]) -> Scalar:
    """The cross product sum(c sqrt(d)) / r^2 of `cross_parts`; no single
    Q(sqrt(d)) holds two irrational terms, such as sqrt(3) + sqrt(6)."""
    roots = sorted(d for d in parts if d != 1)
    if len(roots) > 1:
        raise ValueError(
            f"the covolume of the projected translations has terms in "
            f"{' + '.join(f'sqrt({d})' for d in roots)}: it lies in no "
            f"single Q(sqrt(d))")
    rad = (1, *roots)
    return row_scalar([parts.get(d, 0) for d in rad], rad, r * r)


def _lattice_covolume(rows, radicands, r: int) -> Optional[Scalar]:
    """Covolume of the Z-span T of `integer_rows` rows over r that span
    the plane, or None when T has Z-rank 3 or more.

    Two rows t_a = a e_1 + b e_2 and t_b = c e_1 + d e_2 of T have
    cross(t_a, t_b) = (ad - bc) cross(e_1, e_2), so the covolume is
    |cross(e_1, e_2)| for the echelon basis e_1, e_2 of `ZSpan`, read off
    `cross_parts` like any cross product of two rows.
    """
    span = ZSpan(rows)
    if span.rank > 2:
        return None
    return abs(_cross_value(r, cross_parts(radicands, *span.basis)))


def _invariant_direction(generators, t0, rad, D: int, r: int) -> Vec2:
    """Direction of a line preserved by a planar group whose translations
    are nonzero and parallel to the row t0, read off the walk's integer
    generators (f, w): f over D, w over r, on the radicands rad.

    F then lies in {I, -I, sigma, -sigma} for a reflection sigma whose
    axis is parallel or perpendicular to t0.  The vector reported is the
    first one met: the translation part of a generator with linear part
    I, or the axis of a reflection generator (the first nonzero column of
    D I + sigma) or its perpendicular, whichever is parallel to t0
    (`cross_parts`).  With neither, the generators have linear parts I
    (and no translation) or -I, and w_i - w_j for two -I generators lies
    in T: the first nonzero one is reported.
    """
    one, minus = (D, 0, 0, 0, 0, D, 0, 0), (-D, 0, 0, 0, 0, -D, 0, 0)
    width = len(t0)
    minus_ws = []
    for f, w in generators:
        if f == one:
            if any(w):
                return _vector(w, rad, r)
        elif f == minus:
            minus_ws.append(w)
        else:
            axis = (D + f[0], f[4], f[2], f[6])
            if not any(axis):
                axis = (f[1], D + f[5], f[3], f[7])
            axis = axis[:width] + (0,) * (width - 4)
            a, b = _vector(axis, rad, D)
            return (-b, a) if cross_parts(rad, axis, t0) else (a, b)
    diffs = (tuple(map(sub, a, b)) for i, a in enumerate(minus_ws)
             for b in minus_ws[i + 1:])
    return _vector(next(t for t in diffs if any(t)), rad, r)


INFINITE_VOLUME = "InfiniteVolume"
FINITE_VOLUME_POSSIBLE = "FiniteVolumePossible"


def nil_volume_verdict(result: DichotomyResult) -> str:
    """Fixed point or line forces infinite volume of the quotient."""
    if result.kind == NON_DISCRETE_INPUT:
        raise ValueError("no volume verdict for a non-discrete input group")
    if result.kind in (FIXES_POINT, FIXES_LINE):
        return INFINITE_VOLUME
    return FINITE_VOLUME_POSSIBLE
