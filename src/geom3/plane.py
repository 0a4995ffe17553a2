"""Planar lattices: the Gauss-reduced basis and the point group.

The point group of a lattice in the plane, its full orthogonal
stabilizer, serves two geometries: a Nil lattice's projected lattice has
it (`nil.NilLattice.point_group`), and the point groups adjoined to a Nil
quotient are its subgroups; `euclid iso` reads it for a planar crystal's
lattice, and the group of the crystal's point generators as its subgroup.

`point_group_of_rows` computes it once per basis, in integers, from the
`algebra.integer_rows` rows of u and v: `ZsqrtBasis` holds them as a
matrix over Z[sqrt(d)] with its Gram matrix, `gauss_reduce` reduces the
Gram matrix, a six-row table on the reduced Gram matrix (`_STABILIZERS`)
gives the stabilizer, and `ZsqrtBasis.isometries` writes each element
from the reduced basis.  `PlanarPointGroup.subgroup` reads the group that
given matrices generate off the lattice matrices, and closes it with
`intmat.closure`.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import isqrt
from operator import add, sub

from .algebra import _reduced, integer_rows, one_field
from .descriptors import _Frozen, _setattr
from .intmat import MAT2_ID, Mat2, SearchCapError, _zmul, closure, mat2_mul

# Cap of the point-group closures: the largest exactly representable point
# group is D12.  `nil._linear_group` keys the elements of a group by their
# integer rows, and `PlanarPointGroup.subgroup` by their matrices (tuples
# of rows; a QuadRat with b = 0 hashes as its rational part, so hashing
# agrees with ==).
POINT_GROUP_CAP = 24


# -- planar bases over Z[sqrt(d)] ---------------------------------------------

def _zsign(x, d: int) -> int:
    """Sign of p + q sqrt(d): p^2 = d q^2 only for 0, d being square-free."""
    p, q = x
    return (p > 0) - (p < 0) if p * p > d * q * q else (q > 0) - (q < 0)


def gauss_reduce(gram, d: int) -> tuple[tuple, Mat2]:
    """Lagrange-Gauss reduction of a planar lattice basis, in integers.

    gram is (g11, g12, g22), the Gram matrix of the basis over Z[sqrt(d)],
    each entry a pair (p, q) for p + q sqrt(d).  Returns (gram', p): p is
    an integer matrix of determinant +-1 and gram' the Gram matrix of the
    basis u' = p00 u + p10 v, v' = p01 u + p11 v, with g'11 <= g'22 and
    -g'11 <= 2 g'12 < g'11 (Cohen, A Course in Computational Algebraic
    Number Theory, Alg. 1.3.14; a half rounds up, so 2 g'12 = g'11 never
    remains).  The nearest integer to g12 / g11 is the floor of
    (2 g12 + g11) conj(g11) / (2 N(g11)), for the norm N and the conjugate
    conj of Z[sqrt(d)], with isqrt for the floor of q sqrt(d): no float
    enters, whatever the size of the entries, and d = 0 (every q = 0) is
    the rational case.
    """
    (g11, g12, g22), (p00, p01, p10, p11) = gram, (1, 0, 0, 1)
    while True:
        if _zsign((g22[0] - g11[0], g22[1] - g11[1]), d) < 0:
            g11, g22 = g22, g11
            p00, p01, p10, p11 = p01, p00, p11, p10
        a, b = g11
        x, y = _zmul((2 * g12[0] + a, 2 * g12[1] + b), (a, -b), d)
        n = 2 * (a * a - d * b * b)
        if n < 0:
            x, y, n = -x, -y, -n
        root = isqrt(d * y * y)
        q = (x + (root if y >= 0 else -root - 1)) // n
        if q == 0:
            return (g11, g12, g22), ((p00, p01), (p10, p11))
        g12, old = (g12[0] - q * a, g12[1] - q * b), g12
        g22 = (g22[0] - q * (old[0] + g12[0]), g22[1] - q * (old[1] + g12[1]))
        p01 -= q * p00
        p11 -= q * p10


class ZsqrtBasis:
    """A planar basis over Z or Z[sqrt(d)], from the `algebra.integer_rows`
    rows (radicands, rows) of its vectors u, v.

    The rows are the columns of a matrix B over Z[sqrt(d)] (d = 0 when
    every entry is rational), kept as `b`, its entries in row order, each
    a pair (p, q) for p + q sqrt(d); `det` is det(B) as such a pair, (0,
    0) when u and v are dependent.  B is the basis (u v) scaled by its
    common denominator, which no result below depends on: the Gram matrix
    only scales, and B M B^-1 does not change.  Two fields raise
    MixedDiscriminantError, as their scalar product does.  `isometries`
    builds the planar point groups.
    """

    def __init__(self, radicands, rows):
        if len(radicands) > 2:
            one_field(*radicands[1:3])
        self.d = d = radicands[1] if len(radicands) > 1 else 0
        (u0, u1, p0, p1), (v0, v1, q0, q1) = ((*row, 0, 0)[:4]
                                              for row in rows)
        self.b = b00, b01, b10, b11 = (u0, p0), (v0, q0), (u1, p1), (v1, q1)
        self.det = tuple(map(sub, _zmul(b00, b11, d), _zmul(b01, b10, d)))

    def gram(self) -> tuple:
        """(g11, g12, g22) of B^T B, the Gram matrix of B's columns."""
        (b00, b01, b10, b11), d = self.b, self.d
        return (tuple(map(add, _zmul(b00, b00, d), _zmul(b10, b10, d))),
                tuple(map(add, _zmul(b00, b01, d), _zmul(b10, b11, d))),
                tuple(map(add, _zmul(b01, b01, d), _zmul(b11, b11, d))))

    def isometries(self, p, g11, g12, mats) -> list[Mat2]:
        """B' C B'^-1 for each C of mats, a group of integer matrices
        keeping the Gram matrix g11, g12 of the reduced basis B' = (u' v')
        = B p (see `gauss_reduce`): a rational entry is a Fraction, an
        irrational one a QuadRat of Q(sqrt(d)), each distinct one built
        once.

        As complex numbers C sends u' to w = c0 u' + c1 v', (c0, c1) its
        first column.  A rotation multiplies by w conj(u') / g11 = (c0 g11
        + c1 (g12 + i det B')) / g11; a reflection is z |-> (a + ib)
        conj(z), a + ib = (c0 u'^2 + c1 v'u') / g11, with u'^2 = 2 u'_x u'
        - g11 and v'u' = 2 u'_x v' - (g12 + i det B').  A quotient by g11
        is a product with its conjugate over its norm.
        """
        ((b0, r0), (b1, r1), (b2, r2), (b3, r3)), d = self.b, self.d
        (p00, p01), (p10, p11) = p
        e = p00 * p11 - p01 * p10           # det B' = e det B
        det = (e * self.det[0], e * self.det[1])
        twice = (2 * (p00 * b0 + p10 * b1), 2 * (p00 * r0 + p10 * r1))
        (x0, x1), xy, (v0, v1), (w0, w1) = [_zmul(twice, w, d) for w in (
            (p00 * b0 + p10 * b1, p00 * r0 + p10 * r1),      # 2 u'_x u'_x
            (p00 * b2 + p10 * b3, p00 * r2 + p10 * r3),      # 2 u'_x u'_y
            (p01 * b0 + p11 * b1, p01 * r0 + p11 * r1),      # 2 u'_x v'_x
            (p01 * b2 + p11 * b3, p01 * r2 + p11 * r3))]     # 2 u'_x v'_y
        # Re and Im of the u' and v' terms: a rotation's, a reflection's
        parts = [g11, (0, 0), g12, det, (x0 - g11[0], x1 - g11[1]), xy,
                 (v0 - g12[0], v1 - g12[1]), (w0 - det[0], w1 - det[1])]
        n, b = g11
        if b:
            inv = (n, -b) if n * n > d * b * b else (-n, b)
            n = abs(n * n - d * b * b)
            parts = [_zmul(x, inv, d) for x in parts]
        turn, flip, keys = parts[:4], parts[4:], []
        for (c0, e01), (c1, e11) in mats:
            rot = c0 * e11 > e01 * c1
            (x0, x1), (y0, y1), (s0, s1), (t0, t1) = turn if rot else flip
            keys.append(((c0 * x0 + c1 * s0, c0 * x1 + c1 * s1),
                         (c0 * y0 + c1 * t0, c0 * y1 + c1 * t1), rot))
        # -I is in mats, so the negated pairs are among these keys
        made = {}
        for x, y, _ in keys:
            made[x] = made[y] = None
        for x, y in made:
            made[x, y] = _reduced(x, y, n, d) if y else Fraction(x, n)
        return [((made[x], made[-y[0], -y[1]]), (made[y], made[x])) if rot
                else ((made[x], made[y]), (made[y], made[-x[0], -x[1]]))
                for x, y, rot in keys]


# -- planar point groups ------------------------------------------------------

_PG_TAGS = {2: "C2", 4: "D2", 8: "D4", 12: "D6"}


def _stabilizer(*gens) -> tuple[tuple[Mat2, Mat2], ...]:
    """The pairs (C, -C) of the group that -I and gens generate."""
    neg = ((-1, 0), (0, -1))
    group = closure(MAT2_ID, (neg,) + gens, mat2_mul, cap=POINT_GROUP_CAP)[0]
    return tuple((m, mat2_mul(neg, m)) for m in group if m > mat2_mul(neg, m))


# The stabilizer of a Gauss-reduced basis u', v' in its own coordinates
# (columns: the images of u' and v'), keyed by g12 = 0, g11 = g22 and 2 g12
# = -g11 (`gauss_reduce` leaves -g11 <= 2 g12 < g11).
_SWAP = ((0, 1), (1, 0))
_STABILIZERS = {
    (True, True, False): _stabilizer(_SWAP, ((1, 0), (0, -1))),     # D4
    (True, False, False): _stabilizer(((1, 0), (0, -1))),           # D2
    (False, True, True): _stabilizer(_SWAP, ((1, -1), (1, 0))),     # D6
    (False, True, False): _stabilizer(_SWAP),                       # D2
    (False, False, True): _stabilizer(((1, -1), (0, -1))),          # D2
    (False, False, False): _stabilizer(),                           # C2
}


class PlanarPointGroup(_Frozen):
    """Full orthogonal stabilizer of a planar lattice.

    basis_matrices holds, for each element R, the integer matrix B^-1 R B
    in the basis B = (u v) the group was computed from (not compared, not
    shown: not in `_fields`, so copy and pickle pass it on themselves).
    """

    _fields = ("tag", "elements")

    def __init__(self, tag: str, elements: tuple[Mat2, ...],
                 basis_matrices: tuple[Mat2, ...] = ()):
        _setattr(self, "tag", tag)
        _setattr(self, "elements", elements)
        _setattr(self, "basis_matrices", basis_matrices)

    def __reduce__(self):
        return PlanarPointGroup, (self.tag, self.elements, self.basis_matrices)

    @property
    def order(self) -> int:
        return len(self.elements)

    def subgroup(self, mats) -> list[Mat2]:
        """The group that the orthogonal matrices mats (or the elements of
        a PlanarPointGroup) generate, as lattice matrices, identity first.

        When every matrix lies in this group, its lattice matrix is read
        off `basis_matrices`.  Otherwise the group is not in this one: it
        is "too large" when the closure of the matrices themselves passes
        POINT_GROUP_CAP, and it does not normalize the lattice otherwise.
        The whole group is its own lattice matrices, identity first.
        """
        if mats is self:
            return [MAT2_ID] + [m for m in self.basis_matrices if m != MAT2_ID]
        mats = tuple(mats.elements if isinstance(mats, PlanarPointGroup)
                     else mats)
        # found by ==, not by hash: hashing Fraction entries costs more here
        in_basis = list(zip(self.elements, self.basis_matrices))
        moves = tuple(next((b for r, b in in_basis if r == rows), None)
                      for rows in (tuple(map(tuple, m)) for m in mats))
        if None in moves:
            try:
                closure(MAT2_ID, mats, mat2_mul, cap=POINT_GROUP_CAP)
            except SearchCapError:
                raise ValueError(
                    "adjoined set generates too large a group") from None
            raise ValueError("adjoined point group does not normalize "
                             "the lattice")
        return closure(MAT2_ID, moves, mat2_mul, cap=POINT_GROUP_CAP)[0]


def planar_point_group(u, v) -> PlanarPointGroup:
    """Orthogonal stabilizer of the lattice Z u + Z v, computed exactly:
    `point_group_of_rows` on the `integer_rows` of u and v, so no float
    enters (a float entry is a domain error)."""
    _, radicands, rows = integer_rows((u, v))
    return point_group_of_rows(radicands, tuple(rows))


@functools.lru_cache(maxsize=256)
def point_group_of_rows(radicands: tuple, rows: tuple) -> PlanarPointGroup:
    """`planar_point_group` of the basis B = (u v) whose `integer_rows`,
    over any common denominator, are radicands and rows.

    All is integer arithmetic over Z[sqrt(3)] (`ZsqrtBasis`).  A
    Gauss-reduced basis u', v' (see `gauss_reduce`), with -g11 <= 2 g12 <
    g11 <= g22, has one of six stabilizers, read off three exact equalities
    (`_STABILIZERS`): D4 for g12 = 0 = g11 - g22, D2 for g12 = 0, D6 for
    -2 g12 = g11 = g22, D2 for g11 = g22 or -2 g12 = g11, and C2 otherwise.
    The elements are ordered by the coordinates of their images of u and v
    in the basis u, v, and each comes with its integer matrix M = p C p^-1
    in that basis (once for each pair +-C, -M being the matrix of -C), for
    C in reduced coordinates and u', v' = (u v) p; the element itself is
    read off the reduced basis (`ZsqrtBasis.isometries`), its rational
    entries Fractions and the others QuadRats of Q(sqrt(3)).

    Scaling u and v together changes neither, so every `Gp:N` shares the
    group of Z^2, every `hex:N` that of the hexagonal lattice, and `euclid`
    passes its lattice's integer rows as they are.  The key holds no
    scalars (their hash equates a float with an int): (1/2, 0), (0, 1/2)
    shares the entry of Z^2, and a value keys alike as an int, a Fraction,
    a rational QuadRat or a string.  Failures are not cached.
    """
    if radicands not in ((1,), (1, 3)):
        raise ValueError("planar scalars must lie in Q or Q(sqrt(3))")
    basis = ZsqrtBasis(radicands, rows)
    if basis.det == (0, 0):
        raise ValueError("u and v are linearly dependent")
    (g11, g12, g22), p = gauss_reduce(basis.gram(), basis.d)
    # M = p C p^-1 in the basis u, v: p^-1 = det * adj(p), det = +-1
    (a, b), (c, e) = p
    det = a * e - b * c
    q00, q01, q10, q11 = det * e, -det * b, -det * c, det * a
    found = []
    row = g12 == (0, 0), g11 == g22, (-2 * g12[0], -2 * g12[1]) == g11
    for mat, neg in _STABILIZERS[row]:
        (c00, c01), (c10, c11) = mat
        x0, x1 = a * c00 + b * c10, c * c00 + e * c10
        y0, y1 = a * c01 + b * c11, c * c01 + e * c11
        m00, m10 = x0 * q00 + y0 * q10, x1 * q00 + y1 * q10
        m01, m11 = x0 * q01 + y0 * q11, x1 * q01 + y1 * q11
        found += ((m00, m10, m01, m11), mat), ((-m00, -m10, -m01, -m11), neg)
    found.sort()
    in_basis = tuple([((ku, kv), (lu, lv)) for (ku, lu, kv, lv), _ in found])
    return PlanarPointGroup(_PG_TAGS[len(found)], tuple(basis.isometries(
        p, g11, g12, [mat for _, mat in found])), in_basis)
