"""Fibered geometries: the unit tangent bundle of the hyperbolic plane with
its Sasaki metric, discrete groups of S^2 x R, and the circle-extension
shape shared by the quotients of both hyperbolic fibrations.

Tangent vectors to T H^2 are stored through the identification
H^2 x C = T H^2; (X, Z) is the derivative of a curve (z(t), w(t)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .descriptors import IsoDescriptor
from .hyperbolic import MobiusMap, expm_sl2
from .intmat import SearchCapError, matmul, transpose, word_ball


def christoffel_h2(p: complex, i: int, j: int, k: int) -> float:
    """Christoffel symbol Gamma^k_{ij} of ds^2 = (dx^2 + dy^2)/y^2 at p.

    The nonzero symbols are Gamma^1_{12} = Gamma^1_{21} = Gamma^2_{22}
    = -1/y and Gamma^2_{11} = 1/y.
    """
    p = complex(p)
    if p.imag <= 0:
        raise ValueError("point must lie in the upper half-plane")
    for idx in (i, j, k):
        if idx not in (1, 2):
            raise ValueError("indices range over {1, 2}")
    y = p.imag
    if k == 1 and {i, j} == {1, 2}:
        return -1.0 / y
    if k == 2 and i == 2 and j == 2:
        return -1.0 / y
    if k == 2 and i == 1 and j == 1:
        return 1.0 / y
    return 0.0


@dataclass(frozen=True)
class TangentVector:
    """Vector (X, Z) tangent to T H^2 at the point (base_z, base_w)."""

    base_z: complex
    base_w: complex
    vec_X: complex
    vec_Z: complex

    def __post_init__(self):
        if complex(self.base_z).imag <= 0:
            raise ValueError("base point must lie in the upper half-plane")

    def to_json_dict(self) -> dict:
        def pair(c):
            c = complex(c)
            return [c.real, c.imag]
        return {"z": pair(self.base_z), "w": pair(self.base_w),
                "X": pair(self.vec_X), "Z": pair(self.vec_Z)}


def _correction(t: TangentVector) -> complex:
    """The connection term X^j v^i Gamma^k_{ij} d_k as a complex number."""
    y = complex(t.base_z).imag
    v, x = complex(t.base_w), complex(t.vec_X)
    c1 = -(v.real * x.imag + v.imag * x.real) / y
    c2 = (v.real * x.real - v.imag * x.imag) / y
    return complex(c1, c2)


def sasaki_inner(t1: TangentVector, t2: TangentVector) -> float:
    """Sasaki inner product of two vectors at the same base point."""
    if abs(complex(t1.base_z) - complex(t2.base_z)) > 1e-12:
        raise ValueError("vectors must share the base point")
    y = complex(t1.base_z).imag
    a1 = complex(t1.vec_Z) + _correction(t1)
    a2 = complex(t2.vec_Z) + _correction(t2)
    x1, x2 = complex(t1.vec_X), complex(t2.vec_X)
    return ((x1 * x2.conjugate()).real + (a1 * a2.conjugate()).real) / (y * y)


def sasaki_norm(t: TangentVector) -> float:
    return math.sqrt(max(sasaki_inner(t, t), 0.0))


def hv_decompose(t: TangentVector) -> tuple[TangentVector, TangentVector]:
    """(horizontal, vertical): (X, -corr) + (0, Z + corr) = (X, Z)."""
    corr = _correction(t)
    horizontal = TangentVector(t.base_z, t.base_w, t.vec_X, -corr)
    vertical = TangentVector(t.base_z, t.base_w, 0j, complex(t.vec_Z) + corr)
    return horizontal, vertical


def unit_tangent_embed(m: MobiusMap) -> tuple[complex, complex]:
    """Orbit map of the base point (i, 1) of the unit tangent bundle."""
    a, b, c, d = (complex(float(v)) for v in m.entries())
    den = c * 1j + d
    return ((a * 1j + b) / den, 1.0 / (den * den))


def tangent_action(m: MobiusMap, zw: tuple[complex, complex]) \
        -> tuple[complex, complex]:
    """Induced action on T H^2: (z, w) -> ((az+b)/(cz+d), w/(cz+d)^2)."""
    z, w = complex(zw[0]), complex(zw[1])
    a, b, c, d = (complex(float(v)) for v in m.entries())
    den = c * z + d
    return ((a * z + b) / den, w / (den * den))


SL2_BASIS = (
    ((1.0, 0.0), (0.0, -1.0)),
    ((0.0, 1.0), (-1.0, 0.0)),
    ((0.0, 1.0), (1.0, 0.0)),
)

_FRAME_DISPLAY = ((2j, 2 + 0j), (0j, 2j), (2 + 0j, -2j))


def frame_at_identity(step: float = 1e-6,
                      check_tol: float = 1e-5) -> list[TangentVector]:
    """Derivatives of t -> phi(exp(t X_j)) at t = 0, by central differences.

    The three results must agree with (2i, 2), (0, 2i), (2, -2i) within
    check_tol; their halves form a Sasaki-orthonormal frame at (i, 1).
    """
    out = []
    for j, x in enumerate(SL2_BASIS):
        zp, wp = unit_tangent_embed(expm_sl2(x, step))
        zm, wm = unit_tangent_embed(expm_sl2(x, -step))
        dz = (zp - zm) / (2 * step)
        dw = (wp - wm) / (2 * step)
        ref_z, ref_w = _FRAME_DISPLAY[j]
        if abs(dz - ref_z) > check_tol or abs(dw - ref_w) > check_tol:
            raise AssertionError(
                f"numerical frame vector {j + 1} drifted from the closed form")
        out.append(TangentVector(1j, 1 + 0j, dz, dw))
    return out


# -- S^2 x R ------------------------------------------------------------------

class NonDiscreteShiftError(ValueError):
    """The projected shift set is not discrete within the word bound."""


# A word ball larger than this is taken as a sign of a non-discrete group.
BALL_CAP = 4000


def _near_identity(m, atol: float) -> bool:
    """numpy.allclose(m, I, atol=atol) for a 3x3 float matrix:
    |m_ij - I_ij| <= atol + 1e-5 |I_ij| everywhere; NaN and inf fail."""
    return all(abs(m[i][j] - (i == j)) <= atol + 1e-5 * (i == j)
               for i in range(3) for j in range(3))


def _unit(v) -> list[float]:
    n = math.hypot(*v)
    return [x / n for x in v]


@dataclass(frozen=True)
class S2RIsometry:
    """Element (rot, shift, flip) of O(3) x (R x| Z_2)."""

    rot: tuple            # 3x3 orthogonal, rows of floats or Fractions
    shift: object         # float or Fraction
    flip: int = 1

    def __post_init__(self):
        if self.flip not in (1, -1):
            raise ValueError("flip must be +1 or -1")
        r = self.matrix()
        if len(r) != 3 or any(len(row) != 3 for row in r):
            raise ValueError("rotation part must be a 3x3 matrix")
        gram = [[sum(r[i][k] * r[j][k] for k in range(3)) for j in range(3)]
                for i in range(3)]
        if not _near_identity(gram, 1e-12):
            raise ValueError("rotation part must be orthogonal")

    @classmethod
    def _make(cls, rot: tuple, shift, flip: int) -> "S2RIsometry":
        """Trusted constructor for products and inverses of checked
        elements, which are orthogonal 3x3 matrices with flip +-1."""
        self = object.__new__(cls)
        object.__setattr__(self, "rot", rot)
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "flip", flip)
        return self

    def matrix(self) -> list[list[float]]:
        return [[float(v) for v in row] for row in self.rot]

    def compose(self, other: "S2RIsometry") -> "S2RIsometry":
        return S2RIsometry._make(matmul(self.rot, other.rot),
                                 self.flip * other.shift + self.shift,
                                 self.flip * other.flip)

    def inverse(self) -> "S2RIsometry":
        return S2RIsometry._make(transpose(self.rot),
                                 -self.flip * self.shift, self.flip)

    def key(self):
        return (tuple(round(float(v), 9) for row in self.rot for v in row),
                round(float(self.shift), 9), self.flip)


S2R_ROT_ID = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def s2r_rotation_z(angle: float) -> tuple:
    c, s = math.cos(angle), math.sin(angle)
    return ((c, -s, 0.0), (s, c, 0.0), (0.0, 0.0, 1.0))


TRIVIAL_L = "TrivialL"
LAMBDA_Z = "LambdaZ"
LAMBDA_Z_SEMIDIRECT = "LambdaZSemidirectZ2"


@dataclass(frozen=True)
class S2RDecomposition:
    l_type: str
    lam: object
    f_order_bound: int
    f_elements: tuple
    twist: Optional[tuple]          # rotation part over the minimal shift

    def to_json_dict(self) -> dict:
        return {"l_type": self.l_type,
                "lambda": float(self.lam) if self.lam is not None else None,
                "f_order_bound": self.f_order_bound}


def _ball(gens: Sequence[S2RIsometry], bound: int) -> list[S2RIsometry]:
    """The word ball that `word_ball` builds with `S2RIsometry.compose` and
    `S2RIsometry.key`: the same elements in the same order, bit for bit.

    A ball holds few distinct rotation parts, so each product of one with a
    move's rotation is computed once, from the entries `compose` would
    multiply.  Rotations are interned by the reprs of their entries, which
    tell 1, 1.0, Fraction(1) and -0.0 apart, so no product changes type; a
    table maps the ids of two interned factors to their interned product,
    and each interned rotation keeps its rounded key.  `interned` keeps the
    tuples alive, so their ids are not reused.
    """
    interned = {}           # entry reprs -> rotation
    rot_keys = {}           # id(rotation) -> its part of S2RIsometry.key
    products = {}           # (id(rotation), id(move.rot)) -> interned product

    def intern(rot):
        rot = interned.setdefault(tuple(repr(v) for row in rot for v in row),
                                  rot)
        if id(rot) not in rot_keys:
            rot_keys[id(rot)] = tuple(round(float(v), 9)
                                      for row in rot for v in row)
        return rot

    def compose(el, mv):
        pair = (id(el.rot), id(mv.rot))
        rot = products.get(pair)
        if rot is None:
            rot = products[pair] = intern(matmul(el.rot, mv.rot))
        return S2RIsometry._make(rot, el.flip * mv.shift + el.shift,
                                 el.flip * mv.flip)

    def key(el):
        return rot_keys[id(el.rot)], round(float(el.shift), 9), el.flip

    # as row tuples: a product interned to a list-valued rotation would be
    # a list, where `compose` returns tuples
    moves = [S2RIsometry._make(intern(tuple(map(tuple, h.rot))), h.shift,
                               h.flip) for g in gens for h in (g, g.inverse())]
    identity = S2RIsometry(intern(S2R_ROT_ID), 0)
    try:
        return list(word_ball(identity, moves, compose, key, bound,
                              cap=BALL_CAP))
    except SearchCapError:
        raise NonDiscreteShiftError("word ball keeps growing; projected "
                                    "group looks non-discrete") from None


def s2r_decompose(gens: Sequence[S2RIsometry],
                  word_bound: int = 8) -> S2RDecomposition:
    """Split a discrete group of S^2 x R into 1 -> F -> Gamma -> L.

    L is read off the projected shifts of all words up to the bound: the
    minimal positive shift generates, and every other shift must be one of
    its integer multiples (otherwise the input contradicts discreteness).
    F collects the rotation parts of shift-free, flip-free words.
    """
    if not gens:
        raise ValueError("at least one generator required")
    if word_bound < 0:
        raise ValueError("word_bound must be >= 0")
    ball = _ball(gens, word_bound)
    exact = all(isinstance(g.shift, (int, Fraction)) for g in gens)
    shifts = [el.shift for el in ball]
    positive = sorted({float(s) for s in shifts if float(s) > 1e-12})
    lam = None
    if positive:
        lam = min(positive)
        for s in positive:
            ratio = s / lam
            if abs(ratio - round(ratio)) > 1e-9 * (1 + ratio):
                raise NonDiscreteShiftError(
                    f"shift {s} is not a multiple of the minimal shift {lam}")
        if exact:
            lam_exact = None
            for el in ball:
                if abs(float(el.shift) - lam) < 1e-12:
                    lam_exact = el.shift
                    break
            lam = lam_exact
    flip_present = any(el.flip == -1 for el in ball)
    f_rotations = []
    seen = set()
    for el in ball:
        if abs(float(el.shift)) <= 1e-12 and el.flip == 1:
            k = el.key()[0]
            if k not in seen:
                seen.add(k)
                f_rotations.append(el.rot)
    twist = None
    if lam is not None:
        for el in ball:
            if el.flip == 1 and abs(float(el.shift) - float(lam)) < 1e-12:
                twist = el.rot
                break
    if lam is None and not flip_present:
        l_type = TRIVIAL_L
    elif flip_present:
        l_type = LAMBDA_Z_SEMIDIRECT
    else:
        l_type = LAMBDA_Z
    return S2RDecomposition(l_type, lam, len(f_rotations),
                            tuple(f_rotations), twist)


SO3_X_S1 = "SO3xS1"
S1_X_S1 = "S1xS1"
S1_ONLY = "S1"


def _axis_of(r) -> Optional[list[float]]:
    """Rotation axis of r in SO(3), or None for +-identity."""
    if _near_identity(r, 1e-9):
        return None
    anti = [r[2][1] - r[1][2], r[0][2] - r[2][0], r[1][0] - r[0][1]]
    if math.hypot(*anti) > 1e-9:
        return _unit(anti)
    # angle pi: columns of r + I span the axis; take the first longest
    cols = [[r[i][j] + (i == j) for i in range(3)] for j in range(3)]
    return _unit(max(cols, key=lambda c: math.hypot(*c)))


def _det3(r) -> float:
    return (r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
            - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
            + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0]))


def _cross(a, b) -> list[float]:
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0]]


def s2r_quotient_identity_component(dec: S2RDecomposition) -> str:
    """Identity component of the quotient isometry group.

    The circle from the R factor always survives; what is left of SO(3) is
    the centralizer of the holonomy data (the twist and the finite part).
    """
    if dec.l_type == TRIVIAL_L or dec.lam is None or float(dec.lam) <= 0:
        raise ValueError("compact quotient required (nontrivial L)")
    holonomy = []
    mats = list(dec.f_elements)
    if dec.twist is not None:
        mats.append(dec.twist)
    for rot in mats:
        r = [[float(v) for v in row] for row in rot]
        if _det3(r) < 0:
            r = [[-v for v in row] for row in r]   # -I is central
        if _near_identity(r, 1e-9):
            continue
        holonomy.append(r)
    if not holonomy:
        return SO3_X_S1
    axes = [_axis_of(r) for r in holonomy]
    first = axes[0]
    if all(math.hypot(*_cross(first, ax)) < 1e-9 for ax in axes[1:]):
        return S1_X_S1
    return S1_ONLY


def psl2_quotient_isometry(geometry: str = "sl2r",
                           lattice_kind: str = "finite_covolume") \
        -> IsoDescriptor:
    """Circle-extension shape for quotients fibering over the hyperbolic
    plane; the finite quotient can be any finite group."""
    if geometry not in ("psl2", "sl2r", "h2xr"):
        raise ValueError(f"unknown fibered geometry {geometry!r}")
    if lattice_kind != "finite_covolume":
        raise ValueError(f"unsupported lattice kind {lattice_kind!r}")
    finite = {"structure": "unspecified finite group F",
              "order": None,
              "realizable": "every finite group occurs for some lattice"}
    return IsoDescriptor(geometry=geometry, identity_component="S1",
                         circle_factor="S1", finite_part=finite,
                         notes=("finite extension of the circle",))
