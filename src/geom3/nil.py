"""Heisenberg group over exact scalars and isometry groups of its quotients.

Points carry the global coordinates (x, y, z) of the unipotent upper
triangular matrix with rows (1, x, z), (0, 1, y), (0, 0, 1).  The isometry
group splits as the group itself (left translations) extended by O(2); the
O(2) part is restricted to the finite-order rotations and reflections that
are exactly representable over Q or Q(sqrt(3)), which are precisely the
ones that can stabilize a planar lattice.

An orthogonal matrix A acts as the group automorphism

    (v, z)  |->  (A v, det(A) * (z - v1*v2/2) + (Av)1*(Av)2/2),

the unique isometric lift: in the shifted coordinate Z = z - x*y/2 the
group law is symmetric under A and the action is linear.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

from .algebra import QuadRat, Scalar, as_exact, format_scalar, scalar_is_rational
from .descriptors import IsoDescriptor
from .intmat import (
    MAT2_ID,
    Mat2,
    SearchCapError,
    Vec2,
    congruence_solutions,
    gauss_reduce,
    mat2_apply,
    mat2_det,
    mat2_eq,
    mat2_inv,
    mat2_mul,
    mat2_transpose,
    vec2_cross,
    vec2_dot,
    vec2_sub,
    word_ball,
)

HALF = Fraction(1, 2)

# Cap of the point-group searches: the largest exactly representable point
# group is D12.  Point groups are keyed by their matrices (tuples of rows;
# a QuadRat with b = 0 hashes as its rational part, so hashing agrees
# with ==).
POINT_GROUP_CAP = 24


def _is_integral(x: Scalar) -> bool:
    if isinstance(x, int):
        return True
    if isinstance(x, Fraction):
        return x.denominator == 1
    if isinstance(x, QuadRat):
        return x.b == 0 and x.a.denominator == 1
    return False


def _to_int(x: Scalar) -> int:
    if isinstance(x, QuadRat):
        return int(x.a)
    return int(x)


# -- points -------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class HeisPoint:
    """Group element with global coordinates (x, y, z), all exact."""

    x: Scalar
    y: Scalar
    z: Scalar

    @classmethod
    def of(cls, x, y, z) -> "HeisPoint":
        return cls(as_exact(x), as_exact(y), as_exact(z))

    def planar(self) -> Vec2:
        return (self.x, self.y)

    def is_identity(self) -> bool:
        return self.x == 0 and self.y == 0 and self.z == 0

    def to_json(self):
        return [format_scalar(self.x), format_scalar(self.y),
                format_scalar(self.z)]


HEIS_ID = HeisPoint(Fraction(0), Fraction(0), Fraction(0))


def heis_mul(g: HeisPoint, h: HeisPoint) -> HeisPoint:
    """(x,y,z)*(u,v,w) = (x+u, y+v, z+w+x*v)."""
    return HeisPoint(g.x + h.x, g.y + h.y, g.z + h.z + g.x * h.y)


def heis_inv(g: HeisPoint) -> HeisPoint:
    return HeisPoint(-g.x, -g.y, g.x * g.y - g.z)


def heis_pow(g: HeisPoint, k: int) -> HeisPoint:
    """g**k = (k x, k y, k z + C(k,2) x y), valid for every integer k."""
    binom = k * (k - 1) // 2
    return HeisPoint(k * g.x, k * g.y, k * g.z + binom * g.x * g.y)


def heis_commutator(g: HeisPoint, h: HeisPoint) -> HeisPoint:
    """Central element (0, 0, area of the projected vectors)."""
    return HeisPoint(Fraction(0), Fraction(0),
                     g.x * h.y - h.x * g.y)


def heis_conjugate(g: HeisPoint, t: HeisPoint) -> HeisPoint:
    """g t g^{-1} = (t1, t2, t3 + x*t2 - y*t1) for g = (x, y, .)."""
    return HeisPoint(t.x, t.y, t.z + g.x * t.y - g.y * t.x)


# -- the O(2) part ------------------------------------------------------------

def rot_apply(rot: Mat2, p: HeisPoint) -> HeisPoint:
    """Apply the isometric automorphism attached to an orthogonal matrix."""
    det = mat2_det(rot)
    w = mat2_apply(rot, (p.x, p.y))
    z = det * (p.z - p.x * p.y * HALF) + w[0] * w[1] * HALF
    return HeisPoint(w[0], w[1], z)


def _orthogonal_order(rot: Mat2) -> int:
    """Order of an exactly representable orthogonal matrix.

    The representable finite rotations over Q and Q(sqrt(3)) have order
    dividing 12; the crystallographic orders {1, 2, 3, 4, 6} are the ones
    that can stabilize a lattice, but words in such rotations about
    different centers may still pass through order-12 elements.

    The check runs once per matrix value: the rotation parts met in one
    computation form a small finite group, so products keep hitting the
    cache.  A matrix that fails raises every time (exceptions are not
    cached).
    """
    return _cached_order(tuple(map(tuple, rot)))


@functools.lru_cache(maxsize=256)
def _cached_order(rot: Mat2) -> int:
    if not mat2_eq(mat2_mul(mat2_transpose(rot), rot), MAT2_ID):
        raise ValueError("rotation part must be orthogonal")
    power = rot
    for k in range(1, 13):
        if mat2_eq(power, MAT2_ID):
            if 12 % k:
                raise ValueError(f"order {k} is not exactly representable")
            return k
        power = mat2_mul(power, rot)
    raise ValueError("rotation part must have finite order dividing 12")


ROT_PI = ((-1, 0), (0, -1))
ROT_PI_2 = ((0, -1), (1, 0))
ROT_PI_3: Mat2 = ((HALF, QuadRat(0, -HALF, 3)),
                  (QuadRat(0, HALF, 3), HALF))
REFLECT = ((1, 0), (0, -1))


@dataclass(frozen=True, slots=True)
class HeisIsometry:
    """Isometry p |-> trans * sigma_rot(p); rot orthogonal of finite order."""

    rot: Mat2
    trans: HeisPoint

    def __post_init__(self):
        _orthogonal_order(self.rot)

    @classmethod
    def translation(cls, p: HeisPoint) -> "HeisIsometry":
        return cls(MAT2_ID, p)

    @classmethod
    def point_symmetry(cls, rot: Mat2) -> "HeisIsometry":
        return cls(rot, HEIS_ID)

    def apply(self, p: HeisPoint) -> HeisPoint:
        return heis_mul(self.trans, rot_apply(self.rot, p))

    def compose(self, other: "HeisIsometry") -> "HeisIsometry":
        return HeisIsometry(mat2_mul(self.rot, other.rot),
                            heis_mul(self.trans,
                                     rot_apply(self.rot, other.trans)))

    def inverse(self) -> "HeisIsometry":
        rot_inv = mat2_transpose(self.rot)
        return HeisIsometry(rot_inv, rot_apply(rot_inv, heis_inv(self.trans)))

    def conjugate_translation(self, h: HeisPoint) -> HeisPoint:
        """phi L_h phi^{-1} = L_{trans * sigma(h) * trans^{-1}}."""
        return heis_conjugate(self.trans, rot_apply(self.rot, h))

    def is_identity(self) -> bool:
        return mat2_eq(self.rot, MAT2_ID) and self.trans.is_identity()

    def planar_part(self) -> tuple[Mat2, Vec2]:
        """Induced isometry of the plane: p |-> rot p + w."""
        return self.rot, self.trans.planar()


HEIS_ISO_ID = HeisIsometry(MAT2_ID, HEIS_ID)


# -- lattices -----------------------------------------------------------------

@dataclass(frozen=True)
class NilLattice:
    """Lattice generated by (u, r), (v, s) and the central (0, 0, lam/n)."""

    u: Vec2
    v: Vec2
    r: Scalar
    s: Scalar
    n: int
    lam: Scalar

    def generators(self) -> list[HeisPoint]:
        return [HeisPoint(self.u[0], self.u[1], self.r),
                HeisPoint(self.v[0], self.v[1], self.s),
                HeisPoint(Fraction(0), Fraction(0), self.center_step())]

    def center_step(self) -> Scalar:
        lam = self.lam
        if isinstance(lam, int):
            lam = Fraction(lam)
        return lam / self.n

    @property
    def basis(self) -> Mat2:
        """B = (u v), the planar basis as columns."""
        return ((self.u[0], self.v[0]), (self.u[1], self.v[1]))

    @functools.cached_property
    def basis_inv(self) -> Mat2:
        """B^-1, computed once per lattice (not a field: eq, hash and repr
        ignore it)."""
        return mat2_inv(self.basis)

    def planar_coords(self, w: Vec2) -> Optional[tuple[Scalar, Scalar]]:
        """Coordinates (k, l) with k u + l v = w, or None if non-integral."""
        k, l = mat2_apply(self.basis_inv, w)
        if _is_integral(k) and _is_integral(l):
            return (_to_int(k), _to_int(l))
        return None

    def word_z(self, k: int, l: int) -> Scalar:
        """z coordinate of (u,r)^k (v,s)^l."""
        return (k * self.r + l * self.s
                + (k * (k - 1) // 2) * self.u[0] * self.u[1]
                + (l * (l - 1) // 2) * self.v[0] * self.v[1]
                + k * l * self.u[0] * self.v[1])

    def contains(self, p: HeisPoint) -> bool:
        coords = self.planar_coords(p.planar())
        if coords is None:
            return False
        resid = (p.z - self.word_z(*coords)) / self.center_step()
        return _is_integral(resid)

    def to_json_dict(self) -> dict:
        return {
            "u": [format_scalar(self.u[0]), format_scalar(self.u[1])],
            "v": [format_scalar(self.v[0]), format_scalar(self.v[1])],
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
    if not isinstance(n, int) or n < 1:
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


@dataclass(frozen=True)
class NilNormalizer:
    """Normalizer in the group: planar lattice refined by n, full line in z."""

    lattice: NilLattice
    planar_u: Vec2
    planar_v: Vec2
    index: int                      # index of the projected lattice refinement

    def planar_generators(self) -> list[HeisPoint]:
        return [HeisPoint(self.planar_u[0], self.planar_u[1], Fraction(0)),
                HeisPoint(self.planar_v[0], self.planar_v[1], Fraction(0))]

    def to_json_dict(self) -> dict:
        return {
            "planar_u": [format_scalar(self.planar_u[0]),
                         format_scalar(self.planar_u[1])],
            "planar_v": [format_scalar(self.planar_v[0]),
                         format_scalar(self.planar_v[1])],
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


# -- planar point groups ------------------------------------------------------

_PG_TAGS = {2: "C2", 4: "D2", 8: "D4", 12: "D6"}


@dataclass(frozen=True)
class PlanarPointGroup:
    """Full orthogonal stabilizer of a planar lattice."""

    tag: str
    elements: tuple[Mat2, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def rotations(self) -> list[Mat2]:
        return [m for m in self.elements if mat2_det(m) == 1]

    def has_reflection(self) -> bool:
        return any(mat2_det(m) == -1 for m in self.elements)


def _supported_planar_scalar(x: Scalar) -> bool:
    return scalar_is_rational(x) or (isinstance(x, QuadRat) and x.d == 3)


def planar_point_group(u, v) -> PlanarPointGroup:
    """Orthogonal stabilizer of the lattice Z u + Z v, computed exactly.

    Every stabilizing map is pinned down by the images of a Gauss-reduced
    basis u', v' (see `gauss_reduce`): lattice vectors with the norms and
    the inner product of u', v'.  In a reduced basis, a u' + b v' with
    |b| >= 2, or with |b| = 1 and |a| >= 2, is longer than v', so both
    images have coordinates in {-1, 0, 1}^2 except an image m u' of v'
    with m >= 2; that one cannot occur, since the inverse map would send
    u' to v'/m, which is not a lattice vector.  So there are O(1)
    candidates and no float enters.  Each candidate pair is verified
    orthogonal before being admitted.  The elements are ordered by the
    coordinates of their images of u and v in the basis u, v.
    """
    u = (as_exact(u[0]), as_exact(u[1]))
    v = (as_exact(v[0]), as_exact(v[1]))
    if vec2_cross(u, v) == 0:
        raise ValueError("u and v are linearly dependent")
    for x in (*u, *v):
        if not _supported_planar_scalar(x):
            raise ValueError("planar scalars must lie in Q or Q(sqrt(3))")
    ru, rv, p = gauss_reduce(u, v)
    g11, g12, g22 = vec2_dot(ru, ru), vec2_dot(ru, rv), vec2_dot(rv, rv)

    def form(a, b) -> Scalar:       # inner product in reduced coordinates
        return (a[0] * b[0] * g11 + (a[0] * b[1] + a[1] * b[0]) * g12
                + a[1] * b[1] * g22)

    small = [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)]
    images_u = [w for w in small if form(w, w) == g11]
    images_v = [w for w in small if form(w, w) == g22]
    # reduced coordinates -> coordinates in the basis u, v: conjugate by p
    det = mat2_det(p)                   # +-1, so p^-1 = det * adj(p)
    p_inv = ((det * p[1][1], -det * p[0][1]),
             (-det * p[1][0], det * p[0][0]))
    coords = []
    for iu in images_u:
        for iv in images_v:
            if form(iu, iv) == g12:
                c = mat2_mul(mat2_mul(p, ((iu[0], iv[0]), (iu[1], iv[1]))),
                             p_inv)
                coords.append((c[0][0], c[1][0], c[0][1], c[1][1]))
    basis_inv = mat2_inv(((u[0], v[0]), (u[1], v[1])))
    found: list[Mat2] = []
    for ku, lu, kv, lv in sorted(coords):
        iu = (ku * u[0] + lu * v[0], ku * u[1] + lu * v[1])
        iv = (kv * u[0] + lv * v[0], kv * u[1] + lv * v[1])
        t = mat2_mul(((iu[0], iv[0]), (iu[1], iv[1])), basis_inv)
        if mat2_eq(mat2_mul(mat2_transpose(t), t), MAT2_ID):
            found.append(t)
    order = len(found)
    if order not in _PG_TAGS:
        raise RuntimeError(f"unexpected stabilizer order {order}")
    return PlanarPointGroup(_PG_TAGS[order], tuple(found))


# -- lifting point symmetries to lattice normalizers --------------------------

def lift_point_symmetry(lat: NilLattice, rot: Mat2) -> HeisIsometry:
    """Find a translation correction making rot normalize the lattice.

    Solves the linear system cross(w, u) = c_u, cross(w, v) = c_v where the
    c-values are forced by membership of the rotated generators; always
    solvable because u, v span the plane.  The result is verified by
    conjugating every lattice generator.
    """
    det = mat2_det(rot)
    step = lat.center_step()
    targets = []
    for vec, off in ((lat.u, lat.r), (lat.v, lat.s)):
        img = mat2_apply(rot, vec)
        coords = lat.planar_coords(img)
        if coords is None:
            raise ValueError("rotation does not preserve the projected lattice")
        eta = (img[0] * img[1] - det * vec[0] * vec[1]) * HALF
        targets.append(det * (lat.word_z(*coords) - eta) - off)
    mat = ((lat.u[1], -lat.u[0]), (lat.v[1], -lat.v[0]))
    w1, w2 = mat2_apply(mat2_inv(mat), (targets[0], targets[1]))
    w = HeisPoint(w1, w2, Fraction(0))
    iso = HeisIsometry(rot, rot_apply(rot, w))
    for gen in lat.generators():
        if not lat.contains(iso.conjugate_translation(gen)):
            raise AssertionError("lift verification failed")
    return iso


# -- quotient isometry groups -------------------------------------------------

def _coset_constraints(lat: NilLattice, tau: Vec2, pairs) -> bool:
    """Whether some translation (tau, z) conjugates Y into lattice * phi for
    every pair (Y, phi) of isometries with equal rotation parts.

    The residual q = (tau, 0) Y (tau, 0)^-1 phi^-1 is a translation, and its
    planar part must lie in the projected lattice.  Conjugating Y by the
    central (0, 0, z) as well multiplies q by (0, 0, (1 - det) z): for a
    det 1 rotation part z drops out, so the central residual must be 0
    (mod lam/n); for det -1 it shifts by 2 z, so those residuals must agree
    (mod lam/n), and z = c/2 then works for their common value c.
    """
    step = lat.center_step()
    t0 = HeisPoint(tau[0], tau[1], Fraction(0))
    t0_inv = heis_inv(t0)
    reversing = []
    for y, phi in pairs:
        q = heis_mul(heis_mul(heis_mul(t0, y.trans), rot_apply(y.rot, t0_inv)),
                     heis_inv(phi.trans))
        coords = lat.planar_coords(q.planar())
        if coords is None:
            return False
        need = lat.word_z(*coords) - q.z
        if mat2_det(y.rot) == -1:
            reversing.append(need)
        elif not _is_integral(need / step):
            return False
    return all(_is_integral((c - reversing[0]) / step) for c in reversing[1:])


def _point_group_generators(mats: Sequence[Mat2]) -> list[Mat2]:
    """Generators of a finite group F of orthogonal matrices: its rotation
    of largest order, unless that is I, and its first reflection, if any.

    Every finite subgroup of O(2) is cyclic or dihedral, so these generate
    F; for F = {I} the list is empty.
    """
    rot = max((m for m in mats if mat2_det(m) == 1), key=_orthogonal_order)
    gens = [rot] if _orthogonal_order(rot) > 1 else []
    return gens + [m for m in mats if mat2_det(m) == -1][:1]


def _identity_minus_lattice_matrix(lat: NilLattice, rot: Mat2) -> Mat2:
    """I - M for M = B^-1 rot B, rot in the coordinates of the basis
    B = (u v): an integer matrix when rot preserves the projected lattice."""
    m = mat2_mul(mat2_mul(lat.basis_inv, rot), lat.basis)
    if not all(_is_integral(x) for row in m for x in row):
        raise ValueError("rotation does not preserve the projected lattice")
    return ((1 - _to_int(m[0][0]), -_to_int(m[0][1])),
            (-_to_int(m[1][0]), 1 - _to_int(m[1][1])))


def _lift_group_closes(lat: NilLattice, lifts: dict, gens) -> bool:
    """Whether the lifts L(f), f in F, form a group modulo the lattice.

    Checks L(a) L(g) in lattice * L(ag) for a != I in F and g among the
    generators of F only.  That suffices: the lifts normalize the lattice,
    so by induction on the length of a word b in the generators, with
    b = b' g,

        L(a) L(b) in lattice * L(a) L(b') L(g)
                  in lattice * L(ab') L(g)  in lattice * L(ab).
    """
    inverses = {MAT2_ID: HEIS_ISO_ID}
    inverses.update((m, lift.inverse()) for m, lift in lifts.items())
    for a in lifts.values():
        for g in gens:
            prod = a.compose(lifts[g])
            target = inverses.get(prod.rot)
            if target is None or not lat.contains(
                    prod.compose(target).trans):
                return False
    return True


def _normalizing_cosets(lat: NilLattice, pairs):
    """Yield each tau = B k / n, k in (Z/n)^2, for which some translation
    (tau, z) conjugates Y into lattice * phi for every pair (Y, phi) with
    equal rotation parts R_Y.

    The planar part of (tau, z) Y (tau, z)^-1 phi^-1 is
    (I - R_Y) tau + w_Y - w_phi, so with M = B^-1 R_Y B and
    c = B^-1 (w_Y - w_phi) it is a lattice vector exactly when

        (I - M) k = -n c  (mod n),

    which needs n c integral.  Each solution is checked exactly by
    `_coset_constraints` only when the caller asks for the next one.
    """
    rows, rhs = [], []
    for y, phi in pairs:
        c = mat2_apply(lat.basis_inv,
                       vec2_sub(y.trans.planar(), phi.trans.planar()))
        if not all(_is_integral(lat.n * x) for x in c):
            return
        rows += _identity_minus_lattice_matrix(lat, y.rot)
        rhs += [-_to_int(lat.n * x) for x in c]
    for k, l in congruence_solutions(rows, rhs, lat.n):
        tau = mat2_apply(lat.basis, (Fraction(k, lat.n), Fraction(l, lat.n)))
        if _coset_constraints(lat, tau, pairs):
            yield tau


def _extends_to_group_normalizer(lat: NilLattice, rot: Mat2,
                                 extra_lifts: dict, gens) -> bool:
    """Whether a translate t * base of the lift base of rot normalizes the
    group generated by the lattice and the adjoined lifts.

    base normalizes the lattice (`lift_point_symmetry` verifies it), so
    t * base does exactly when t = (tau, z) has tau = B k / n for some k in
    (Z/n)^2 (see `nil_normalizer`).  It must also conjugate each generator
    lift phi into lattice * phi', where phi' is the lift with the rotation
    part of Y = base phi base^-1; by the argument of `_lift_group_closes`
    the generators suffice.  That is, t must conjugate Y into
    lattice * phi': one of the `_normalizing_cosets` of the pairs (Y, phi').
    """
    try:
        base = lift_point_symmetry(lat, rot)
    except ValueError:
        return False
    base_inv = base.inverse()
    pairs = []
    for g in gens:
        y = base.compose(extra_lifts[g]).compose(base_inv)
        match = extra_lifts.get(y.rot)
        if match is None:
            return False
        pairs.append((y, match))
    return any(True for _ in _normalizing_cosets(lat, pairs))


def nil_quotient_isometry(lat: NilLattice,
                          extra=None) -> IsoDescriptor:
    """Isometry group of the quotient by the lattice (plus adjoined maps).

    For a plain lattice the answer is the extension of the circle acting on
    the central fiber by (Z_n x Z_n) |x Aut of the projected lattice.
    Adjoining orientation reversing point symmetries quantizes the circle
    down to Z_2 and shrinks the finite part.

    With maps adjoined, every condition is checked on at most two
    generators g of the adjoined finite group F (`_point_group_generators`)
    and the lattice conditions are solved as congruences mod n (following
    Zassenhaus's algorithm for space groups):

    - closure: L(a) L(g) in lattice * L(ag) for a in F (`_lift_group_closes`);
    - one solver, `_normalizing_cosets`, for the translations (tau, z),
      tau = B k / n in the projected refinement, B = (u v), that conjugate
      each of a list of isometries Y into lattice * phi: a congruence
      (I - B^-1 R_Y B) k = rhs (mod n) for the planar part, whose solutions
      (prod gcd(d_i, n) of them, d the Smith diagonal of the stacked
      matrices) are each checked exactly on the central part.  There a
      central (0, 0, z) drops out for det 1 and shifts the residual by 2 z
      for det -1, so z = c/2 for the common det -1 residual c serves all;
    - admissible cosets: the solutions for the pairs (L(g), L(g));
    - extending point symmetries m: whether the pairs
      (base L(g) base^-1, L(m g m^-1)), base the lift of m, have a solution
      (`_extends_to_group_normalizer`).
    """
    pg = planar_point_group(lat.u, lat.v)

    if extra is None:
        extra_mats: list[Mat2] = [MAT2_ID]
    else:
        mats = extra.elements if isinstance(extra, PlanarPointGroup) else extra
        try:
            extra_mats = list(word_ball(MAT2_ID, tuple(mats), mat2_mul,
                                        tuple, cap=POINT_GROUP_CAP))
        except SearchCapError:
            raise ValueError(
                "adjoined set generates too large a group") from None
        if not set(extra_mats) <= set(pg.elements):
            raise ValueError("adjoined point group does not normalize "
                             "the lattice")

    # the word ball yields the identity first
    extra_lifts = {m: lift_point_symmetry(lat, m) for m in extra_mats[1:]}
    gens = _point_group_generators(extra_mats)
    if gens and not _lift_group_closes(lat, extra_lifts, gens):
        u, v = (", ".join(map(format_scalar, w)) for w in (lat.u, lat.v))
        raise ValueError(
            f"adjoined point group does not close over the lattice "
            f"u = ({u}), v = ({v}), r = {format_scalar(lat.r)}, "
            f"s = {format_scalar(lat.s)}, n = {lat.n}: a product of two "
            f"lifted point symmetries is not a lattice element times a lift")

    has_reflection = any(mat2_det(m) == -1 for m in extra_lifts)

    # admissible translation cosets of the projected refinement: with no
    # map adjoined there is no condition, so all n^2 of them
    if gens:
        own = [(extra_lifts[g], extra_lifts[g]) for g in gens]
        admissible = sum(1 for _ in _normalizing_cosets(lat, own))
    else:
        admissible = lat.n ** 2

    # point symmetries extending to the full group; with nothing adjoined,
    # the lift of each one normalizes the lattice
    if not gens or len(extra_mats) == pg.order:
        extending = pg.order
    else:
        extra_set = set(extra_mats)
        extending = sum(
            m in extra_set
            or _extends_to_group_normalizer(lat, m, extra_lifts, gens)
            for m in pg.elements)

    point_quotient = extending // len(extra_mats)
    finite_order = admissible * point_quotient

    law_pinned = (scalar_is_rational(lat.r / lat.lam)
                  and scalar_is_rational(lat.s / lat.lam))
    if extra is None:
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


@dataclass(frozen=True)
class DichotomyResult:
    kind: str
    point: Optional[Vec2] = None
    direction: Optional[Vec2] = None
    witness: Optional[HeisPoint] = None

    def to_json_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.point is not None:
            out["point"] = [format_scalar(self.point[0]),
                            format_scalar(self.point[1])]
        if self.direction is not None:
            out["direction"] = [format_scalar(self.direction[0]),
                                format_scalar(self.direction[1])]
        if self.witness is not None:
            out["central_witness"] = self.witness.to_json()
        return out


def nil_projection_dichotomy(gens: Sequence[HeisIsometry],
                             word_bound: int = 6) -> DichotomyResult:
    """Classify the projected action on the plane of a discrete group.

    Decided exactly by one Reidemeister-Schreier pass (Magnus, Karrass and
    Solitar, Combinatorial Group Theory, section 2.3) over the projected
    group P:

    - the linear parts R_i generate a finite group F of at most 24
      elements; a breadth-first search over F that carries the planar
      affine part gives one element s_f = (f, w_f) of P over each f in F;
    - the translation subgroup T has index |F| in P and is generated by
      the translation parts of s_f g_i s_{f R_i}^-1.

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

    The Z-rank of T is the dimension of its Q-span (each coordinate
    a + b sqrt(d) read as (a, b), so T lies in Q^4).  For a lattice, the
    witness (0, 0, c) is the commutator of lifts of a positively oriented
    basis of T, so c > 0 is the covolume of T: every area cross(t_i, t_j)
    lies in c Z, and together they generate it.  With Z-rank 3 or more,
    the input group is not discrete: its translations would project onto
    a subgroup of that rank of the plane, more than a discrete subgroup of
    the Heisenberg group (Hirsch length at most 3) can carry.  This covers
    every set whose linear parts hold a rotation of order 12, which no
    planar lattice admits.

    Linear parts that generate an infinite group raise ValueError, also
    when every generator fixes one point.

    Out of scope: discreteness along the center.  For example (0, 0,
    sqrt(3)) adjoined to (1, 0, 0) and (0, 1, 0) gives a group that is not
    discrete, but its projection is, and the verdict is
    DiscreteProjection.

    `word_bound` is kept for compatibility and must be >= 0; no verdict
    depends on it.
    """
    if word_bound < 0:
        raise ValueError("word_bound must be >= 0")
    planar = [g.planar_part() for g in gens]
    transversal, translations = _schreier_translations(planar)

    if not translations:
        if len(transversal) == 2:
            sigma = list(transversal)[1]
            if mat2_det(sigma) == -1:
                rows = ((1 - sigma[0][0], -sigma[0][1]),
                        (-sigma[1][0], 1 - sigma[1][1]))
                a, b = next(r for r in rows if r[0] or r[1])
                return DichotomyResult(FIXES_LINE, direction=(-b, a))
        inv = Fraction(1, len(transversal))
        point = (sum(w[0] for w in transversal.values()) * inv,
                 sum(w[1] for w in transversal.values()) * inv)
        return DichotomyResult(FIXES_POINT, point=point)

    t0 = translations[0]
    if all(vec2_cross(t0, t) == 0 for t in translations):
        return DichotomyResult(FIXES_LINE,
                               direction=_invariant_direction(planar, t0))

    covolume = _translation_covolume(translations)
    if covolume is None:
        return DichotomyResult(NON_DISCRETE_INPUT)
    return DichotomyResult(DISCRETE_PROJECTION,
                           witness=HeisPoint(Fraction(0), Fraction(0),
                                             covolume))


def _schreier_translations(planar) -> tuple[dict, list[Vec2]]:
    """Transversal {f: w_f} and the nonzero generators of the translation
    subgroup of the planar group.

    Breadth-first over the linear parts: the first element met over each
    linear part f is its transversal element s_f = (f, w_f), and every
    other edge s_f g_i gives the Schreier generator s_f g_i s_{f R_i}^-1,
    the translation by w_f + f w_i - w_{f R_i}.  Every new linear part
    passes the order check, and at most POINT_GROUP_CAP are admitted.
    """
    queue = [(MAT2_ID, (Fraction(0), Fraction(0)))]
    transversal = dict(queue)
    out = []
    for f, w_f in queue:                 # grows while it is walked
        for rot, w in planar:
            f_rot = mat2_mul(f, rot)
            fw = mat2_apply(f, w)
            image = (w_f[0] + fw[0], w_f[1] + fw[1])
            w_next = transversal.get(f_rot)
            if w_next is None:
                _orthogonal_order(f_rot)
                if len(transversal) == POINT_GROUP_CAP:
                    raise ValueError("linear parts generate too large a group")
                transversal[f_rot] = image
                queue.append((f_rot, image))
            else:
                t = vec2_sub(image, w_next)
                if t[0] or t[1]:
                    out.append(t)
    return transversal, out


def _translation_covolume(translations: list[Vec2]) -> Optional[Scalar]:
    """Covolume of the group the translations generate if it is a lattice,
    None if its Q-span has dimension 3 or more.  The translations must
    span the plane.

    Each t_i is written as alpha_i t_a + beta_i t_b in a basis t_a, t_b of
    the plane taken from the list.  The Q-span has dimension 2 exactly
    when every alpha_i, beta_i is rational; then cross(t_i, t_j) =
    (alpha_i beta_j - alpha_j beta_i) cross(t_a, t_b), and the covolume is
    the gcd of these areas.
    """
    ts = list(dict.fromkeys(translations))
    t_a = ts[0]
    t_b = next(t for t in ts if vec2_cross(t_a, t) != 0)
    area = vec2_cross(t_a, t_b)
    coords = []
    for t in ts:
        for x in (vec2_cross(t, t_b) / area, vec2_cross(t_a, t) / area):
            if not scalar_is_rational(x):
                return None
            coords.append(x.as_fraction() if isinstance(x, QuadRat) else x)
    den = lcm(*(x.denominator for x in coords))
    ints = [x.numerator * (den // x.denominator) for x in coords]
    pairs = list(zip(ints[::2], ints[1::2]))
    minors = gcd(*(a * d - b * c for i, (a, b) in enumerate(pairs)
                   for c, d in pairs[i + 1:]))
    return abs(area) * Fraction(minors, den * den)


def _invariant_direction(planar, t0: Vec2) -> Vec2:
    """Direction of a line preserved by a planar group whose translations
    are nonzero and parallel to t0.

    F then lies in {I, -I, sigma, -sigma} for a reflection sigma whose
    axis is parallel or perpendicular to t0.  The vector reported is the
    first one met: the translation part of a generator with linear part
    I, or the axis of a reflection generator or its perpendicular,
    whichever is parallel to t0.  With neither, the generators have linear
    parts I (and no translation) or -I, and w_i - w_j for two -I
    generators lies in T: the first nonzero one is reported.
    """
    minus_ws = []
    for rot, w in planar:
        if mat2_eq(rot, MAT2_ID):
            if w[0] or w[1]:
                return w
        elif mat2_det(rot) == -1:
            axis = _reflection_axis(rot)
            return axis if vec2_cross(axis, t0) == 0 else (-axis[1], axis[0])
        else:
            minus_ws.append(w)
    diffs = (vec2_sub(a, b) for i, a in enumerate(minus_ws)
             for b in minus_ws[i + 1:])
    return next(d for d in diffs if d[0] or d[1])


def _reflection_axis(rot: Mat2) -> Vec2:
    plus = ((rot[0][0] + 1, rot[0][1]), (rot[1][0], rot[1][1] + 1))
    col0 = (plus[0][0], plus[1][0])
    col1 = (plus[0][1], plus[1][1])
    return col0 if (col0[0] != 0 or col0[1] != 0) else col1


INFINITE_VOLUME = "InfiniteVolume"
FINITE_VOLUME_POSSIBLE = "FiniteVolumePossible"


def nil_volume_verdict(result: DichotomyResult) -> str:
    """Fixed point or line forces infinite volume of the quotient."""
    if result.kind == NON_DISCRETE_INPUT:
        raise ValueError("no volume verdict for a non-discrete input group")
    if result.kind in (FIXES_POINT, FIXES_LINE):
        return INFINITE_VOLUME
    return FINITE_VOLUME_POSSIBLE
