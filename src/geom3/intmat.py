"""Integer matrices: lattices, the Smith normal form, 2x2 matrices.

`ZSpan` is the one lattice kernel: the rank, an echelon basis and the
integer coordinates of the Z-span of integer rows, built by Euclid steps
with no transform.  The Nil dichotomy reads the rank and covolume of the
projected translations off it, and Euclid's translation lattices, ranks
and coinvariants go through it.  `snf` is the Smith normal form of any
m x n integer matrix, with its unimodular transforms, where a transform
or the elementary divisors are the answer: Sol reads its cokernel
Z^2/(I - A^n)Z^2 and the holonomy's action on it off one `snf`, Euclid
its planar finite order, and the adjoined Nil cosets go through
`congruence_solutions`.  Exact scalars reach these kernels through one
conversion to integers, `algebra.integer_rows`.  `int_mat_pow` is a
closed form in the trace and determinant, with no matrix product.

The helpers the geometry modules share live here too: 2x2/vector
arithmetic over exact scalars, 2x2 matrices over Z[sqrt(d)] acting on
integer rows (the Nil Schreier walk), the product `_zmul` in Z[sqrt(d)]
that Sol's Galois check, the Nil lattice frame and `plane`'s planar bases
run on, the n x n matrix product and its unrolled 3x3 case `mat3_mul`
(the S^2 x R rotations), and `closure`, the breadth-first walk that
builds every finite group geom3 closes: the Nil linear parts
(`nil._linear_group`, whose edges the Schreier walk reads), the subgroups
of a planar point group (`plane.PlanarPointGroup.subgroup`: the adjoined
Nil point groups and Euclid's planar point generators) and the kernel F
of an S^2 x R group (`fibered._twist_closure`).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Optional

from .algebra import Scalar
from .descriptors import _Frozen

Mat2 = tuple[tuple[Scalar, Scalar], tuple[Scalar, Scalar]]
Vec2 = tuple[Scalar, Scalar]


# -- generic 2x2 arithmetic over any exact scalar field ----------------------

def mat2_mul(m: Mat2, n: Mat2) -> Mat2:
    return ((m[0][0] * n[0][0] + m[0][1] * n[1][0],
             m[0][0] * n[0][1] + m[0][1] * n[1][1]),
            (m[1][0] * n[0][0] + m[1][1] * n[1][0],
             m[1][0] * n[0][1] + m[1][1] * n[1][1]))


def mat2_apply(m: Mat2, v: Vec2) -> Vec2:
    return (m[0][0] * v[0] + m[0][1] * v[1],
            m[1][0] * v[0] + m[1][1] * v[1])


def mat2_det(m: Mat2) -> Scalar:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def mat2_inv(m: Mat2) -> Mat2:
    det = mat2_det(m)
    if det == 0:
        raise ZeroDivisionError("singular 2x2 matrix")
    if isinstance(det, int):
        det = Fraction(det)
    return ((m[1][1] / det, -m[0][1] / det),
            (-m[1][0] / det, m[0][0] / det))


MAT2_ID: Mat2 = ((1, 0), (0, 1))


# -- 2x2 matrices over Z[sqrt(d)] acting on integer rows ---------------------

def zsqrt_apply(m, w, d: int) -> list:
    """m w for a 2x2 matrix m over Z[sqrt(d)] and an integer row w.

    m is its two rows on {1, sqrt(d)}: (a_00, a_01, b_00, b_01, a_10,
    a_11, b_10, b_11) for m_ij = a_ij + b_ij sqrt(d).  w is (x_0, y_0,
    x_1, y_1, ...) on a Q-basis {1, sqrt(d), ...}, as `algebra.integer_rows`
    writes it with d first (d = 0 for a rational m).  The rational part of
    m acts on each block (x_k, y_k), and its sqrt(d) part moves the first
    two blocks into each other; where it is nonzero, the later blocks of w
    must be 0."""
    a0, a1, b0, b1, a2, a3, b2, b3 = m
    out = []
    for k in range(0, len(w), 2):
        x, y = w[k], w[k + 1]
        out += (a0 * x + a1 * y, a2 * x + a3 * y)
    if d:
        x, y, u, v = w[:4]
        out[0] += d * (b0 * u + b1 * v)
        out[1] += d * (b2 * u + b3 * v)
        out[2] += b0 * x + b1 * y
        out[3] += b2 * x + b3 * y
    return out


def zsqrt_mul(m, n_t, d: int, den: int) -> Optional[tuple[int, ...]]:
    """m n / den for two such matrices, from the rows of n^T (so m m^T
    for n_t = m), or None when an entry of m n is not a multiple of den."""
    prod = zsqrt_apply(n_t, m[:4], d) + zsqrt_apply(n_t, m[4:], d)
    if any(map(den.__rmod__, prod)):
        return None
    return tuple(map(den.__rfloordiv__, prod))


# -- products in Z[sqrt(d)] --------------------------------------------------

def _zmul(x, y, d: int) -> tuple[int, int]:
    """(p, q) of x y for x, y in Z[sqrt(d)] given as pairs (p, q)."""
    return x[0] * y[0] + d * x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def mat3_mul(a, b) -> tuple:
    """Product of two 3x3 matrices over any scalars, as row tuples:
    `matmul` unrolled.  Each entry adds its three terms left to right, as
    `sum` does for floats before Python 3.12, so float entries agree bit
    for bit up to the sign of a zero (`sum` starts at the int 0)."""
    (a0, a1, a2), (a3, a4, a5), (a6, a7, a8) = a
    (b0, b1, b2), (b3, b4, b5), (b6, b7, b8) = b
    return ((a0 * b0 + a1 * b3 + a2 * b6, a0 * b1 + a1 * b4 + a2 * b7,
             a0 * b2 + a1 * b5 + a2 * b8),
            (a3 * b0 + a4 * b3 + a5 * b6, a3 * b1 + a4 * b4 + a5 * b7,
             a3 * b2 + a4 * b5 + a5 * b8),
            (a6 * b0 + a7 * b3 + a8 * b6, a6 * b1 + a7 * b4 + a8 * b7,
             a6 * b2 + a7 * b5 + a8 * b8))


def matmul(a, b) -> tuple:
    """Product of two n x n matrices over any scalars, as row tuples."""
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n))
                       for j in range(n)) for i in range(n))


def transpose(a) -> tuple:
    return tuple(zip(*a))


def vec2_cross(u: Vec2, v: Vec2) -> Scalar:
    """Scalar cross product u1*v2 - u2*v1 (signed area)."""
    return u[0] * v[1] - u[1] * v[0]


# -- breadth-first closures ---------------------------------------------------

class SearchCapError(ValueError):
    """A closure grew past its cap."""


def closure(identity, gens, mul, key=tuple, *, cap: int):
    """(elements, edges): the finite group that gens generate under mul.

    The elements come breadth-first from identity, and the edges (k, i, j,
    first) are the products elements[k] gens[i] = elements[j] in the order
    the walk meets them, first marking the edge that adds elements[j]; so
    the first len(gens) edges give each generator, and the first edges are
    a spanning tree of the walk (Magnus, Karrass and Solitar, 2.3).  Each
    product is keyed and its key hashed once.  Raises SearchCapError when a
    (cap + 1)-th element would join.
    """
    elements = [identity]
    index = {key(identity): 0}
    edges = []
    for k, f in enumerate(elements):     # grows while it is walked
        for i, g in enumerate(gens):
            h = mul(f, g)
            size = len(elements)
            j = index.setdefault(key(h), size)
            if j == size:
                if size == cap:
                    raise SearchCapError(f"closure exceeds {cap} elements")
                elements.append(h)
            edges.append((k, i, j, j == size))
    return elements, edges


# -- integer matrices ---------------------------------------------------------

class IntMat2(_Frozen):
    """A 2x2 integer matrix."""

    __slots__ = _fields = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        for entry in (a, b, c, d):
            if not isinstance(entry, int) or isinstance(entry, bool):
                raise TypeError("integer entries required")
        _set_a(self, a)
        _set_b(self, b)
        _set_c(self, c)
        _set_d(self, d)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.a, self.b, self.c, self.d)
                    == (other.a, other.b, other.c, other.d))
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    @classmethod
    def from_rows(cls, rows) -> "IntMat2":
        (a, b), (c, d) = rows
        return cls(int(a), int(b), int(c), int(d))

    @classmethod
    def identity(cls) -> "IntMat2":
        return cls(1, 0, 0, 1)

    def rows(self) -> Mat2:
        return ((self.a, self.b), (self.c, self.d))

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def trace(self) -> int:
        return self.a + self.d

    def __matmul__(self, other: "IntMat2") -> "IntMat2":
        return IntMat2.from_rows(mat2_mul(self.rows(), other.rows()))

    def __sub__(self, other: "IntMat2") -> "IntMat2":
        return IntMat2(self.a - other.a, self.b - other.b,
                       self.c - other.c, self.d - other.d)


_set_a, _set_b, _set_c, _set_d = (IntMat2.__dict__[name].__set__
                                  for name in IntMat2.__slots__)


def int_mat_pow(a: IntMat2, n: int) -> IntMat2:
    """Exact n-th power, n >= 0 (n = 0 gives the identity), in closed form.

    By Cayley-Hamilton, A^n = s_n A + (s_(n+1) - t s_n) I for t = tr A
    and the Lucas sequence s_0 = 0, s_1 = 1, s_(k+1) = t s_k - det(A)
    s_(k-1), which holds for every A, singular too.  The pair (s_k,
    s_(k+1)) is doubled once per bit of n: s_2k = s_k (2 s_(k+1) - t s_k)
    and s_(2k+1) = s_(k+1)^2 - det(A) s_k^2.  No matrix product runs.
    """
    if n < 0:
        raise ValueError("non-negative exponent required")
    t, det = a.trace(), a.det()
    s, s1 = 0, 1
    for bit in bin(n)[2:]:
        s, s1 = s * (2 * s1 - t * s), s1 * s1 - det * s * s
        if bit == "1":
            s, s1 = s1, t * s1 - det * s
    c = s1 - t * s
    return IntMat2(s * a.a + c, s * a.b, s * a.c, s * a.d + c)


def snf(rows) -> tuple[tuple[int, ...], tuple, tuple]:
    """Smith normal form of an m x n integer matrix, given by its rows.

    Returns (d, u, v): the diagonal d1 | d2 | ... (min(m, n) entries, all
    >= 0) and unimodular u (m x m) and v (n x n), as row tuples, with
    u @ rows @ v = diag(d).  At each pivot, Euclid steps run down its
    column and then along its row, each against the first nonzero entry;
    then an entry further on that the pivot does not divide has its column
    added to the pivot's, and the pivot is settled again (Cohen, A Course
    in Computational Algebraic Number Theory, 2.4).  u follows from that
    order, and sol reads it: the order is part of the output.  Each Euclid
    down a column runs on its two pivots as plain integers, and the 2x2
    transform its steps compose acts once on the two rows of the matrix
    and of u.
    """
    a = [list(row) for row in rows]
    m, n = len(a), len(a[0]) if a else 0
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def euclid_rows(t, i):
        # while y: row_i -= (y // x) row_t (when x), then swap rows t and
        # i (when y), on the pivots x = a[t][t], y = a[i][t] alone; the
        # 2x2 transform of those steps acts once on the rows of a and u
        x, y = a[t][t], a[i][t]
        p, q, r, s = 1, 0, 0, 1
        while y:
            if x:
                k = y // x
                y -= k * x
                r, s = r - k * p, s - k * q
            if y:
                x, y, p, q, r, s = y, x, r, s, p, q
        for w in (a, u):
            wt, wi = w[t], w[i]
            for k in range(len(wt)):
                b, c = wt[k], wi[k]
                wt[k], wi[k] = p * b + q * c, r * b + s * c

    def col_op(i, j, q):  # col_i -= q * col_j, tracked in v
        for w in (a, v):
            for row in w:
                row[i] -= q * row[j]

    def swap_rows(i, j):
        for w in (a, u):
            w[i], w[j] = w[j], w[i]

    def swap_cols(i, j):
        for w in (a, v):
            for row in w:
                row[i], row[j] = row[j], row[i]

    for t in range(min(m, n)):
        while True:
            for i in range(t + 1, m):     # Euclid down column t
                if a[i][t]:
                    euclid_rows(t, i)
            p = a[t][t]
            j = next((j for j in range(t + 1, n) if a[t][j]), None)
            if j is not None:             # then along row t
                if p:
                    col_op(j, t, a[t][j] // p)
                if a[t][j]:
                    swap_cols(t, j)
                continue
            # row and column t are clear; p must divide the rest
            ij = next(((i, j) for i in range(t + 1, m)
                       for j in range(t + 1, n)
                       if (a[i][j] % p if p else a[i][j])), None)
            if ij is None:
                break
            i, j = ij
            if p:
                col_op(t, j, -1)          # col_t += col_j
            else:
                swap_rows(t, i)
                swap_cols(t, j)
        if a[t][t] < 0:
            for w in (a, v):
                for row in w:
                    row[t] = -row[t]
    return (tuple(a[t][t] for t in range(min(m, n))),
            tuple(map(tuple, u)), tuple(map(tuple, v)))


class ZSpan:
    """The Z-span of integer rows, as an echelon basis built with no
    transform.

    Euclid steps on whole rows (Cohen, A Course in Computational Algebraic
    Number Theory, 2.4) keep one basis row for each leading column: where
    a basis row b leads in the leading column c of a new row w, w becomes
    the basis row there and b - (b_c // w_c) w goes on, until the
    remainder leads in a column of its own or is 0.  Repeated rows are
    skipped; any generating set will do, zero rows and no rows too.
    `basis` holds the rows in order of their leading columns, so `rank`
    is their number and `coords` solves for one coordinate per column.
    """

    def __init__(self, rows):
        pivots = {}                     # leading column: row
        for w in dict.fromkeys(map(tuple, rows)):
            while True:
                for c, x in enumerate(w):
                    if x:
                        break
                else:
                    break               # w reduced to 0
                b = pivots.get(c)
                if b is None:
                    pivots[c] = w
                    break
                q = b[c] // w[c]        # one Euclid step on column c
                pivots[c], w = w, [x - q * y for x, y in zip(b, w)]
        self._leads = sorted(pivots)
        self.basis = tuple(tuple(pivots[c]) for c in self._leads)
        self.rank = len(self.basis)

    def coords(self, w) -> Optional[tuple[int, ...]]:
        """Integer coordinates of the integer vector w in `basis`, or None
        off the span: column by column, the basis row leading there is
        the only one left to clear it, and a remainder it leaves there is
        left at the end."""
        out = []
        for c, b in zip(self._leads, self.basis):
            q = w[c] // b[c]
            w = [x - q * y for x, y in zip(w, b)]
            out.append(q)
        return None if any(w) else tuple(out)


def congruence_solutions(rows, rhs, n: int) -> list[tuple[int, int]]:
    """Every k in (Z/n)^2 with rows @ k = rhs (mod n), in ascending order.

    rows is an m x 2 integer matrix and rhs has m entries.  With
    u @ rows @ v = diag(d) from `snf`, the system becomes d_i j_i = (u rhs)_i
    (mod n) in j = v^-1 k, with 0 = (u rhs)_i (mod n) for the rows past
    the diagonal.  The i-th equation has gcd(d_i, n) solutions or none, so
    there are prod gcd(d_i, n) solutions or none at all.  With no rows
    every k solves.
    """
    if not rows:
        return [(k, l) for k in range(n) for l in range(n)]
    d, u, v = snf(rows)
    c = [sum(x * y for x, y in zip(row, rhs)) for row in u]
    if any(ci % n for ci in c[2:]):
        return []
    if len(d) == 1:                     # a single row: j_2 is free
        d = (d[0], 0)
        c.append(0)
    coords = []
    for di, ci in zip(d, c):
        g = gcd(di, n)
        if ci % g:
            return []
        step = n // g
        j0 = ci // g * pow(di // g, -1, step) % step
        coords.append(range(j0, n, step))
    return sorted(((v[0][0] * j1 + v[0][1] * j2) % n,
                   (v[1][0] * j1 + v[1][1] * j2) % n)
                  for j1 in coords[0] for j2 in coords[1])

