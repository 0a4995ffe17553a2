"""Sol geometry: the group R^2 x| R with diag(e^t, e^{-t}) twist.

Lattices come from hyperbolic SL2(Z) matrices A; their quotient isometry
groups are finite and computed exactly through the cokernel of I - A^n,
read off `intmat.snf`.  The normalizer and the (trivial) centralizer are
integer arithmetic on A too, and so is the rational structure: d comes
from the primitive discriminant of A alone, the eigenvalues and the
eigenbasis B are integer formulas in its entries, and the Galois check
is a pair of integer eigen-equations over Z[sqrt(d)] for each row of B
and of its conjugate; only the answer is built as Q(sqrt(d)) scalars.
Points support two scalar modes: floats with arbitrary t, and an exact
mode where e^t is a power of a fixed quadratic unit.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from . import intmat
from .algebra import QuadRat, _reduced, squarefree_decompose
from .descriptors import (
    OUTPUT_DIGIT_LIMIT,
    IsoDescriptor,
    _Frozen,
    _setattr,
    brief,
    check_output_size,
    to_float,
)
from .intmat import (IntMat2, Mat2, Vec2, _zmul, int_mat_pow, mat2_det,
                     mat2_inv)


class SolPoint(_Frozen):
    """Point (x, y, t) of the matrix with rows (e^t,0,x),(0,e^-t,y),(0,0,1).

    Float mode stores t directly.  Exact mode tracks t = k * log(unit) via
    the integer k, with unit a norm-one element of a real quadratic field,
    so e^t = unit**k stays exact.
    """

    _fields = ("x", "y", "level", "unit")

    def __init__(self, x, y, level, unit: Optional[QuadRat] = None):
        # level is the float t, or the integer k in exact mode
        _setattr(self, "x", x)
        _setattr(self, "y", y)
        _setattr(self, "level", level)
        _setattr(self, "unit", unit)

    @classmethod
    def exact(cls, x, y, k: int, unit: QuadRat) -> "SolPoint":
        if unit.norm() != 1:
            raise ValueError("exact mode requires a unit of norm 1")
        return cls(x, y, int(k), unit)

    @property
    def is_exact(self) -> bool:
        return self.unit is not None

    @property
    def t(self):
        if self.is_exact:
            return self.level * math.log(float(self.unit))
        return self.level

    def scale(self):
        """e^t, exact in exact mode."""
        if self.is_exact:
            return self.unit ** self.level
        return math.exp(self.level)

    def scale_inv(self):
        if self.is_exact:
            return self.unit ** (-self.level)
        return math.exp(-self.level)


def _check_modes(g: SolPoint, h: SolPoint):
    if g.is_exact != h.is_exact:
        raise ValueError("mixed float/exact Sol points")
    if g.is_exact and g.unit != h.unit:
        raise ValueError("exact Sol points must share the same unit")


def sol_mul(g: SolPoint, h: SolPoint) -> SolPoint:
    """(x,y,t)(u,v,s) = (x + e^t u, y + e^{-t} v, t + s)."""
    _check_modes(g, h)
    return SolPoint(g.x + g.scale() * h.x,
                    g.y + g.scale_inv() * h.y,
                    g.level + h.level, g.unit)


def sol_inv(g: SolPoint) -> SolPoint:
    return SolPoint(-g.scale_inv() * g.x, -g.scale() * g.y,
                    -g.level, g.unit)


def sol_fixed_line(g: SolPoint) -> tuple:
    """Axis {(p, q, s)} translated by g; requires t != 0.

    p = x / (1 - e^t), q = y / (1 - e^{-t}); in float mode each is
    `_over_one_minus_exp`, rounded once.
    """
    if g.level == 0:
        raise ValueError("t = 0: no transverse fixed line")
    if g.is_exact:
        return g.x / (1 - g.scale()), g.y / (1 - g.scale_inv())
    return (_over_one_minus_exp(g.x, g.level),
            _over_one_minus_exp(g.y, -g.level))


def _over_one_minus_exp(x: float, t: float) -> float:
    """x / (1 - e^t) for t != 0, from the floats x and expm1(t) or exp(-t/4)
    exactly and rounded once (`to_float`).

    1 - e^t is -expm1(t), which does not cancel for small t.  Past the
    range of expm1 (t > 709.78), x / (1 - e^t) is -x e^-t to within a
    factor 1 + e^-t, taken as the fourth power of e^(-t/4) (t/4 is exact).
    That factor is 0.0 only below 2^-1074, where x e^-t is below 2^-3000;
    2^-1074 stands in for it, which keeps a nonzero x nonzero and still
    rounds to 0.
    """
    try:
        value = Fraction(x) / Fraction(-math.expm1(t))
    except OverflowError:
        factor = Fraction(math.exp(-t / 4) or math.ulp(0.0))
        value = -Fraction(x) * factor ** 4
    return to_float(value, what="a coordinate of the fixed line")


# -- lattices ------------------------------------------------------------------

class SolLattice(_Frozen):
    """Gamma_{A^n} = Z^2 x|_{A^n} Z for a hyperbolic A in SL2(Z).

    Checked when built: det A = 1, tr A > 2 and n a positive integer.
    """

    _fields = ("a", "n")

    def __init__(self, a: IntMat2, n: int):
        det, t = a.det(), a.trace()
        if det != 1:
            raise ValueError(f"determinant {det} != 1")
        if t < -2:
            raise ValueError(f"trace {t} < -2: A is hyperbolic, but only "
                             f"trace > 2 is supported")
        if t <= 2:
            raise ValueError(f"trace {t} <= 2: no hyperbolic holonomy")
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValueError("power must be a positive integer")
        _setattr(self, "a", a)
        _setattr(self, "n", n)

    def holonomy(self) -> IntMat2:
        return int_mat_pow(self.a, self.n)

    def to_json_dict(self) -> dict:
        return {"matrix": [[self.a.a, self.a.b], [self.a.c, self.a.d]],
                "power": self.n}


def sol_lattice_make(a: IntMat2, n: int = 1) -> SolLattice:
    return SolLattice(a, n)


class SolNormalizer(_Frozen):
    """N = Z x|_A Lambda_n with Lambda_n = (I - A^n)^{-1} Z^2: basis is a
    rational basis of Lambda_n, and index is [Lambda_n : Z^2] =
    |det(I - A^n)|."""

    _fields = ("lattice", "basis", "index")

    def __init__(self, lattice: SolLattice, basis: tuple[Vec2, Vec2],
                 index: int):
        _setattr(self, "lattice", lattice)
        _setattr(self, "basis", basis)
        _setattr(self, "index", index)

    def to_json_dict(self) -> dict:
        check_output_size(self.basis)
        return {
            "basis": [[str(self.basis[0][0]), str(self.basis[0][1])],
                      [str(self.basis[1][0]), str(self.basis[1][1])]],
            "index": self.index,
            "z_factor": "generated by the holonomy matrix",
        }


# the bits of 10^OUTPUT_DIGIT_LIMIT, the least integer past the output limit
_LIMIT_BITS = (10 ** OUTPUT_DIGIT_LIMIT).bit_length()


def _refuse_a_huge_power(lat: SolLattice) -> None:
    """ValueError, before A^n is computed, when a lower bound from n and
    t = tr A already puts |2 - tr A^n| past the output limit.

    lam > t - 1 >= 2^k for k = bitlen(t - 1) - 1, since t > 2, so
    |2 - tr A^n| = lam^n + lam^-n - 2 > 2^(kn) - 2 >= 2^(kn - 1): at
    least kn bits.  That integer is the normalizer's index and divides
    the isometry group's order.  A power the bound leaves open is checked
    exactly by `check_output_size` once A^n is known.
    """
    bits = lat.n * ((lat.a.trace() - 1).bit_length() - 1)
    if bits > _LIMIT_BITS:
        raise ValueError(
            f"exact answer has at least {brief(bits)} bits, more than the "
            f"{OUTPUT_DIGIT_LIMIT}-digit output limit for one integer")


def sol_normalizer_lattice(lat: SolLattice) -> SolNormalizer:
    """Translations normalizing the lattice; always finite index over Z^2."""
    _refuse_a_huge_power(lat)
    hol = lat.holonomy()
    m = ((1 - hol.a, -hol.b), (-hol.c, 1 - hol.d))         # I - A^n
    det = mat2_det(m)                # = 2 - tr(A^n), nonzero for trace > 2
    inv = mat2_inv(m)
    basis = ((inv[0][0], inv[1][0]), (inv[0][1], inv[1][1]))
    return SolNormalizer(lat, basis, abs(det))


def sol_quotient_isometry(lat: SolLattice) -> IsoDescriptor:
    """Finite isometry group (Lambda_n / Z^2) x|_A Z_n of the quotient.

    The cokernel structure comes from the Smith normal form of I - A^n;
    its order is cross-checked against det(I - A^n) = 2 - tr(A^n).  An
    order past the output limit is refused before the Smith normal form,
    whose Euclid steps grow quadratically in n, and before A^n when a
    bound from n and tr A decides it; every invariant divides the order,
    so none is past the limit either.
    """
    _refuse_a_huge_power(lat)
    hol = lat.holonomy()
    det_order = abs(2 - hol.trace())
    order = det_order * lat.n
    check_output_size(order)
    (d1, d2), u, _ = intmat.snf(((1 - hol.a, -hol.b), (-hol.c, 1 - hol.d)))
    if d1 * d2 != det_order:
        raise RuntimeError(
            f"cokernel order {d1 * d2} contradicts determinant "
            f"formula {det_order}")
    invariants = [d for d in (d1, d2) if d != 1]
    action = _cokernel_action(lat.a, u, (d1, d2))
    structure = _structure_label(invariants, lat.n)
    finite = {
        "abelian_invariants": invariants,
        "cyclic_extension": lat.n,
        "order": order,
        "action_on_invariants": action,
        "structure": structure,
    }
    return IsoDescriptor(geometry="sol", identity_component="trivial",
                         finite_part=finite, total_order=order)


def _cokernel_action(a: IntMat2, u: Mat2, diagonal: tuple[int, int]) -> list:
    """Action of the holonomy on Z_{d1} x Z_{d2}: U A U^-1 for the SNF
    transform U, its rows reduced mod d_i (each d_i >= 1), in integers:
    U^-1 = det(U) adj(U), det(U) = +-1."""
    (p, q), (r, s) = u
    det = p * s - q * r
    rows = [(det * (x * s - y * r), det * (y * p - x * q)) for x, y in (
        (p * a.a + q * a.c, p * a.b + q * a.d),
        (r * a.a + s * a.c, r * a.b + s * a.d))]       # the rows of U A
    return [[x % d for x in row] for row, d in zip(rows, diagonal) if d != 1]


def _structure_label(invariants: list[int], n: int) -> str:
    if not invariants and n == 1:
        return "trivial"
    core = " x ".join(f"Z{d}" for d in invariants) if invariants else "trivial"
    if n == 1:
        return core
    if not invariants:
        return f"Z{n}"
    if len(invariants) == 1:
        return f"{core} x| Z{n}"
    return f"({core}) x| Z{n}"


def sol_centralizer(lat: SolLattice) -> dict:
    """Centralizer of the lattice: always trivial, by integer checks on A.

    The steps: (1, 0) has both eigencoordinates nonzero, since c = 0 with
    det A = 1 would force a = d = +-1 and tr A = +-2; tr A > 2 makes A's
    eigenvalue lam > 1, so lam^k = 1 only for k = 0; then conjugation by
    the holonomy step kills both planar coordinates.  Every `SolLattice`
    has passed those checks when it was built.
    """
    if lat.a.c == 0:
        raise RuntimeError("(1, 0) is an eigenvector of a hyperbolic matrix")
    return {"group": "trivial", "verified": True, "steps": [
        "planar vector (1, 0) has nonzero eigencoordinates",
        "unit power lam^k fixes a nonzero coordinate only for k = 0",
        "conjugation by the holonomy step kills both coordinates"]}


def _left_eigen(a: IntMat2, row, ev, d: int) -> bool:
    """Whether 2 row a = ev row, for a row (x, y) and ev = 2 lam over
    Z[sqrt(d)], each entry a pair (p, q) for p + q sqrt(d)."""
    x, y = row
    return ((2 * (a.a * x[0] + a.c * y[0]), 2 * (a.a * x[1] + a.c * y[1]))
            == _zmul(ev, x, d)
            and (2 * (a.b * x[0] + a.d * y[0]), 2 * (a.b * x[1] + a.d * y[1]))
            == _zmul(ev, y, d))


def sol_q_structure(a: IntMat2) -> dict:
    """Rational structure behind the lattice: diagonalize over Q(sqrt(d)).

    Returns the square-free field parameter, exact eigenvalues, the change
    of basis B with B a B^{-1} diagonal, and whether the entrywise Galois
    conjugate of B diagonalizes a onto the conjugate eigenvalues (lam_inv,
    lam).  All of it is integer formulas on a = ((a, b), (c, e)), t = a + e.

    t^2 - 4 = (a - e)^2 + 4bc = g^2 disc(f) for g = gcd(b, c, a - e) and
    the primitive binary quadratic form f = (c, e - a, -b) / g (Buchmann
    and Vollmer, Binary Quadratic Forms, 2007), so only disc(f) is
    factored, (s, d) its square-free decomposition; a power A^n has the
    disc(f) of A.  With S = g s, lam = (t + S sqrt(d)) / 2 and lam_inv =
    (t - S sqrt(d)) / 2.  b = 0 with det 1 would force a = e = +-1, so b
    != 0, and B has the rows

        ((dS - (e - a) sqrt(d)) / (2b dS), sqrt(d) / (dS)),
        ((a - e - S sqrt(d)) / 2, b),

    the left eigenvectors of a, det B = 1.  The Galois check takes B over
    the one denominator 2|b|dS as integer pairs over Z[sqrt(d)]: det B is
    not 0, and 2 (row_i B) a = (t +- S sqrt(d)) (row_i B) for both rows,
    which is B a B^-1 = diag(lam, lam_inv); then the same with sqrt(d)
    negated and the eigenvalues swapped.
    """
    if a.det() != 1:
        raise ValueError("determinant 1 required")
    t = a.trace()
    if t < -2:
        raise ValueError(f"trace {t} < -2: matrix is hyperbolic, but only "
                         f"trace > 2 is supported")
    if t <= 2:
        raise ValueError(f"trace {t} <= 2: matrix is not hyperbolic")
    b, m = a.b, a.a - a.d
    g = math.gcd(b, a.c, m)
    s, d = squarefree_decompose((t * t - 4) // (g * g))
    s *= g
    ds, sign = d * s, 1 if b > 0 else -1
    h = ds * abs(b)                 # B's denominator is 2h
    rows = (((sign * ds, sign * m), (0, 2 * abs(b))),
            ((h * m, -h * s), (2 * h * b, 0)))
    conj = tuple(tuple((p, -q) for p, q in row) for row in rows)

    def diagonalizes(rows, root) -> bool:
        (u, v), (w, z) = rows
        return (_zmul(u, z, d) != _zmul(v, w, d)
                and _left_eigen(a, rows[0], (t, root), d)
                and _left_eigen(a, rows[1], (t, -root), d))

    def matrix(rows) -> Mat2:
        return tuple(tuple(_reduced(p, q, 2 * h, d) if q
                           else Fraction(p, 2 * h) for p, q in row)
                     for row in rows)

    return {
        "d": d,
        "eigenvalues": (_reduced(t, s, 2, d), _reduced(t, -s, 2, d)),
        "basis": matrix(rows),
        "basis_conjugate": matrix(conj),
        "galois_pair_check": diagonalizes(rows, s) and diagonalizes(conj, -s),
    }
