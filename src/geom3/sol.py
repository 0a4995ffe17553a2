"""Sol geometry: the group R^2 x| R with diag(e^t, e^{-t}) twist.

Lattices come from hyperbolic SL2(Z) matrices A; their quotient isometry
groups are finite and computed exactly through the cokernel of I - A^n,
read off `intmat.snf`.  The normalizer and the (trivial) centralizer are
integer arithmetic on A too; only the eigen-data work in Q(sqrt(d)): the
unit lam = (t + sqrt(t^2 - 4)) / 2 for t = tr A, and the eigenbasis B
of the rational structure, whose Galois check conjugates A by B and by
its conjugate in integers over Z[sqrt(d)] (`intmat.ZsqrtBasis`).
Points support two scalar modes: floats with arbitrary t, and an exact
mode where e^t is a power of a fixed quadratic unit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import intmat
from .algebra import QuadRat, integer_rows, row_scalar
from .descriptors import IsoDescriptor, check_output_size
from .intmat import IntMat2, Mat2, Vec2, ZsqrtBasis, int_mat_pow, mat2_inv


@dataclass(frozen=True)
class SolPoint:
    """Point (x, y, t) of the matrix with rows (e^t,0,x),(0,e^-t,y),(0,0,1).

    Float mode stores t directly.  Exact mode tracks t = k * log(unit) via
    the integer k, with unit a norm-one element of a real quadratic field,
    so e^t = unit**k stays exact.
    """

    x: object
    y: object
    level: object                    # float t, or integer k in exact mode
    unit: Optional[QuadRat] = None

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

    p = x / (1 - e^t), q = y / (1 - e^{-t}).
    """
    if g.level == 0:
        raise ValueError("t = 0: no transverse fixed line")
    one = Fraction(1) if g.is_exact else 1.0
    p = g.x / (one - g.scale())
    q = g.y / (one - g.scale_inv())
    return (p, q)


# -- lattices ------------------------------------------------------------------

@dataclass(frozen=True)
class SolLattice:
    """Gamma_{A^n} = Z^2 x|_{A^n} Z for a hyperbolic A in SL2(Z).

    Checked when built: det A = 1, tr A > 2 and n a positive integer.
    """

    a: IntMat2
    n: int

    def __post_init__(self):
        det, t = self.a.det(), self.a.trace()
        if det != 1:
            raise ValueError(f"determinant {det} != 1")
        if t < -2:
            raise ValueError(f"trace {t} < -2: A is hyperbolic, but only "
                             f"trace > 2 is supported")
        if t <= 2:
            raise ValueError(f"trace {t} <= 2: no hyperbolic holonomy")
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError("power must be a positive integer")

    def holonomy(self) -> IntMat2:
        return int_mat_pow(self.a, self.n)

    def to_json_dict(self) -> dict:
        return {"matrix": [[self.a.a, self.a.b], [self.a.c, self.a.d]],
                "power": self.n}


def sol_lattice_make(a: IntMat2, n: int = 1) -> SolLattice:
    return SolLattice(a, n)


@dataclass(frozen=True)
class SolNormalizer:
    """N = Z x|_A Lambda_n with Lambda_n = (I - A^n)^{-1} Z^2."""

    lattice: SolLattice
    basis: tuple[Vec2, Vec2]        # rational basis of Lambda_n
    index: int                      # [Lambda_n : Z^2] = |det(I - A^n)|

    def to_json_dict(self) -> dict:
        check_output_size(self.basis)
        return {
            "basis": [[str(self.basis[0][0]), str(self.basis[0][1])],
                      [str(self.basis[1][0]), str(self.basis[1][1])]],
            "index": self.index,
            "z_factor": "generated by the holonomy matrix",
        }


def sol_normalizer_lattice(lat: SolLattice) -> SolNormalizer:
    """Translations normalizing the lattice; always finite index over Z^2."""
    hol = lat.holonomy()
    m = IntMat2.identity() - hol
    det = m.det()                    # = 2 - tr(A^n), nonzero for trace > 2
    inv = mat2_inv(m.rows())
    basis = ((inv[0][0], inv[1][0]), (inv[0][1], inv[1][1]))
    return SolNormalizer(lat, basis, abs(det))


def sol_quotient_isometry(lat: SolLattice) -> IsoDescriptor:
    """Finite isometry group (Lambda_n / Z^2) x|_A Z_n of the quotient.

    The cokernel structure comes from the Smith normal form of I - A^n;
    its order is cross-checked against det(I - A^n) = 2 - tr(A^n).  An
    order past the output limit is refused before the Smith normal form,
    whose Euclid steps grow quadratically in n; every invariant divides
    it, so none is past the limit either.
    """
    hol = lat.holonomy()
    det_order = abs(2 - hol.trace())
    order = det_order * lat.n
    check_output_size(order)
    (d1, d2), u, _ = intmat.snf((IntMat2.identity() - hol).rows())
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
    transform U, its rows reduced mod d_i (each d_i >= 1)."""
    u = IntMat2.from_rows(u)
    det_u = u.det()
    u_inv = IntMat2(u.d * det_u, -u.b * det_u, -u.c * det_u, u.a * det_u)
    rows = (u @ a @ u_inv).rows()
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


def _unit(t: int) -> QuadRat:
    """The eigenvalue lam = (t + sqrt(t^2 - 4)) / 2 > 1 of trace t > 2."""
    return (QuadRat.sqrt(t * t - 4) + t) / 2


def _eigen_data(a: IntMat2) -> tuple[tuple[QuadRat, QuadRat], Mat2]:
    """Exact eigenvalues and eigenbasis of a hyperbolic SL2(Z) matrix.

    Requires det a = 1 and tr a > 2.  Returns ((lam, lam_inv), basis) where
    the columns of basis are eigenvectors, det(basis) = 1 and
    basis^{-1} @ a @ basis = diag(lam, lam_inv) exactly in Q(sqrt(d)).
    """
    if a.det() != 1:
        raise ValueError("determinant 1 required")
    t = a.trace()
    if t < -2:
        raise ValueError(f"trace {t} < -2: matrix is hyperbolic, but only "
                         f"trace > 2 is supported")
    if t <= 2:
        raise ValueError(f"trace {t} <= 2: matrix is not hyperbolic")
    lam = _unit(t)
    lam_inv = t - lam
    if a.b:
        cols = [(a.b, ev - a.a) for ev in (lam, lam_inv)]
    else:               # c != 0: else a = d = +-1 and tr a = +-2
        cols = [(ev - a.d, a.c) for ev in (lam, lam_inv)]
    (u0, u1), (v0, v1) = cols
    det = u0 * v1 - v0 * u1     # the second column scaled to det(basis) = 1
    return (lam, lam_inv), ((u0, v0 / det), (u1, v1 / det))


def sol_q_structure(a: IntMat2) -> dict:
    """Rational structure behind the lattice: diagonalize over Q(sqrt(d)).

    Returns the square-free field parameter, exact eigenvalues, the change
    of basis B with B a B^{-1} diagonal, and whether the entrywise Galois
    conjugate of B diagonalizes a onto the conjugate eigenvalues (lam_inv,
    lam).  B = adj(E) = E^-1 for the eigenbasis E, det(E) = 1; B and its
    conjugate are read off the `integer_rows` of B's columns, the
    conjugate's with the sqrt(d) block negated, and each check is one
    integer conjugation B a adj(B) / det(B) over Z[sqrt(d)].
    """
    (lam, lam_inv), ((e00, e01), (e10, e11)) = _eigen_data(a)
    r, rad, rows = integer_rows(((e11, -e10), (-e01, e00)))
    rows_conj = [row[:2] + tuple(-x for x in row[2:]) for row in rows]

    def matrix(cols) -> Mat2:
        return tuple(tuple(row_scalar(col[i::2], rad, r) for col in cols)
                     for i in (0, 1))

    def diagonalizes(cols, ev, ev_inv) -> bool:
        return ZsqrtBasis(rad, cols).conjugates([a.rows()])[0] == (
            (ev, 0), (0, ev_inv))

    return {
        "d": lam.d,
        "eigenvalues": (lam, lam_inv),
        "basis": matrix(rows),
        "basis_conjugate": matrix(rows_conj),
        "galois_pair_check": (diagonalizes(rows, lam, lam_inv)
                              and diagonalizes(rows_conj, lam_inv, lam)),
    }
