"""Euclidean crystallographic input and the spherical lookup tables.

Crystallographic groups are given by exact rational orthogonal point
generators together with a translation lattice basis; only split (i.e.
symmorphic) extensions are supported for the Betti computation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Optional, Sequence

from .algebra import frac
from .descriptors import IsoDescriptor
from .intmat import (
    SearchCapError,
    matmul,
    snf,
    transpose,
    word_ball,
)

Matrix = tuple[tuple[Fraction, ...], ...]
Vector = tuple[Fraction, ...]


class NonSymmorphicError(ValueError):
    """Non-integral vector systems are out of the supported range."""


def _to_matrix(rows, dim: int) -> Matrix:
    out = tuple(tuple(frac(v) for v in row) for row in rows)
    if len(out) != dim or any(len(r) != dim for r in out):
        raise ValueError(f"{dim}x{dim} matrix expected")
    return out


def _mat_apply(a: Matrix, v: Vector) -> Vector:
    n = len(a)
    return tuple(sum(a[i][k] * v[k] for k in range(n)) for i in range(n))


def _identity(n: int) -> Matrix:
    return tuple(tuple(Fraction(int(i == j)) for j in range(n))
                 for i in range(n))


def _rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank over Q: the number of nonzero Smith divisors of the rows, each
    row scaled to integers by the lcm of its denominators."""
    scaled = []
    for row in rows:
        row = [Fraction(x) for x in row]
        den = math.lcm(*(x.denominator for x in row))
        scaled.append([int(x * den) for x in row])
    return sum(1 for d in snf(scaled)[0] if d)


def _solve_rational(columns: Sequence[Vector], target: Vector) \
        -> Optional[list[Fraction]]:
    """Coefficients x with sum x_i columns_i = target, or None."""
    nrows = len(target)
    ncols = len(columns)
    aug = [[columns[j][i] for j in range(ncols)] + [target[i]]
           for i in range(nrows)]
    pivots = []
    prow = 0
    for col in range(ncols):
        pivot = None
        for r in range(prow, nrows):
            if aug[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        aug[prow], aug[pivot] = aug[pivot], aug[prow]
        pv = aug[prow][col]
        aug[prow] = [v / pv for v in aug[prow]]
        for r in range(nrows):
            if r != prow and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [aug[r][k] - f * aug[prow][k]
                          for k in range(ncols + 1)]
        pivots.append(col)
        prow += 1
    for r in range(prow, nrows):
        if aug[r][ncols] != 0:
            return None
    x = [Fraction(0)] * ncols
    for idx, col in enumerate(pivots):
        x[col] = aug[idx][ncols]
    return x


@dataclass(frozen=True)
class CrystalGroup:
    """Discrete subgroup of E(d) given by point generators and translations."""

    dim: int
    point_gens: tuple[Matrix, ...]
    trans_basis: tuple[Vector, ...]
    vector_system: Optional[tuple[Vector, ...]] = None

    def lattice_coords(self, v: Vector) -> Optional[list[Fraction]]:
        return _solve_rational(self.trans_basis, v)


def crystal_group_make(point_gens, trans_basis, vector_system=None,
                       dim: Optional[int] = None) -> CrystalGroup:
    """Validated crystallographic descriptor.

    Point generators must be exactly orthogonal and map every lattice
    basis vector back into the lattice.
    """
    basis = tuple(tuple(frac(v) for v in vec) for vec in trans_basis)
    if dim is None:
        dim = len(basis[0]) if basis else (len(point_gens[0])
                                           if point_gens else 0)
    if dim not in (2, 3):
        raise ValueError("dimension must be 2 or 3")
    gens = tuple(_to_matrix(g, dim) for g in point_gens)
    ident = _identity(dim)
    for g in gens:
        if matmul(transpose(g), g) != ident:
            raise ValueError("point generators must be orthogonal")
    for vec in basis:
        if len(vec) != dim:
            raise ValueError("translation vectors must match the dimension")
    for g in gens:
        for vec in basis:
            coeffs = _solve_rational(basis, _mat_apply(g, vec))
            if coeffs is None or any(c.denominator != 1 for c in coeffs):
                raise ValueError("point generators must preserve the "
                                 "translation lattice")
    vs = None
    if vector_system is not None:
        vs = tuple(tuple(frac(v) for v in vec) for vec in vector_system)
        if len(vs) != len(gens):
            raise ValueError("one translation part per point generator")
    return CrystalGroup(dim, gens, basis, vs)


def translation_rank(g: CrystalGroup) -> int:
    return _rank(list(g.trans_basis))


INFINITE_VOLUME = "InfiniteVolume"
FINITE_VOLUME_COMPACT = "FiniteVolumeCompact"


def euclid_volume_verdict(g: CrystalGroup) -> str:
    """Rank three translations are the only finite-volume (compact) case."""
    if g.dim != 3:
        raise ValueError("volume verdict is for dimension 3")
    return FINITE_VOLUME_COMPACT if translation_rank(g) == 3 \
        else INFINITE_VOLUME


def _check_split(g: CrystalGroup):
    if g.vector_system is None:
        return
    for vec in g.vector_system:
        coeffs = g.lattice_coords(vec)
        if coeffs is None or any(c.denominator != 1 for c in coeffs):
            raise NonSymmorphicError(
                "non-integral vector system: non-symmorphic groups are "
                "not supported")


def point_gens_in_lattice_basis(g: CrystalGroup) -> list[list[list[int]]]:
    """Each point generator rewritten in lattice coordinates (integral)."""
    out = []
    for gen in g.point_gens:
        cols = []
        for vec in g.trans_basis:
            coeffs = _solve_rational(g.trans_basis, _mat_apply(gen, vec))
            cols.append([int(c) for c in coeffs])
        # columns are images of basis vectors
        mat = [[cols[j][i] for j in range(g.dim)] for i in range(g.dim)]
        out.append(mat)
    return out


def betti_identity_component(g: CrystalGroup) -> tuple[int, str]:
    """First Betti number and the torus it spans in the quotient isometries.

    Computed as the dimension of the subspace of Q^d fixed by every point
    generator; for split groups this equals the free rank of the
    abelianization (see coinvariant_rank for the integral cross-check).
    """
    if translation_rank(g) != g.dim:
        raise ValueError("full-rank translation lattice required")
    _check_split(g)
    rows = []
    ident = _identity(g.dim)
    for gen in g.point_gens:
        for i in range(g.dim):
            rows.append([gen[i][j] - ident[i][j] for j in range(g.dim)])
    betti = g.dim - _rank(rows) if rows else g.dim
    torus = {0: "trivial", 1: "S1", 2: "T2", 3: "T3"}[betti]
    return betti, torus


def coinvariant_rank(g: CrystalGroup) -> int:
    """Free rank of Z^d / <(sigma - 1) v>: d minus the nonzero Smith divisors.

    The relation matrix is assembled in lattice coordinates, where the
    point action is integral; this is the abelianization-rank oracle for
    betti_identity_component.
    """
    if translation_rank(g) != g.dim:
        raise ValueError("full-rank translation lattice required")
    _check_split(g)
    rows = []
    for mat in point_gens_in_lattice_basis(g):
        for i in range(g.dim):
            rows.append([mat[i][j] - (1 if i == j else 0)
                         for j in range(g.dim)])
    if not rows:
        return g.dim
    return g.dim - sum(1 for d in snf(rows)[0] if d)


def _planar_point_group(g: CrystalGroup):
    """Point group of the lattice spanned by the first two vectors."""
    from .nil import planar_point_group   # no other euclid code needs nil
    u, v, *further = g.trans_basis
    for w in further:
        coeffs = _solve_rational((u, v), w)
        if coeffs is None or any(c.denominator != 1 for c in coeffs):
            raise ValueError("translation vectors after the first two must "
                             "be integer combinations of them")
    return planar_point_group(u, v)


def euclid_quotient_isometry(g: CrystalGroup) -> IsoDescriptor:
    """Identity component is the Betti torus; the finite part is computed
    exactly for the planar lattice and lattice-with-full-point-group cases
    and reported as not computed otherwise."""
    betti, torus = betti_identity_component(g)
    if g.dim == 2 and not g.point_gens:
        pg = _planar_point_group(g)
        finite = {"order": pg.order, "structure": pg.tag,
                  "point_group": pg.tag}
        return IsoDescriptor(geometry="euclid", identity_component=torus,
                             finite_part=finite)
    if g.dim == 2:
        pg = _planar_point_group(g)
        in_basis = point_gens_in_lattice_basis(g)
        closure = _integer_group_closure(in_basis)
        if len(closure) == pg.order and betti == 0:
            rows = []
            for mat in closure:
                for i in range(2):
                    rows.append([(1 if i == j else 0) - mat[i][j]
                                 for j in range(2)])
            order = math.prod(max(d, 1) for d in snf(rows)[0])
            finite = {"order": order,
                      "structure": {1: "trivial", 2: "Z2"}.get(
                          order, f"order {order}"),
                      "translation_solutions": order,
                      "point_quotient": 1}
            return IsoDescriptor(geometry="euclid",
                                 identity_component="trivial",
                                 finite_part=finite, total_order=order)
    finite = {"order": None, "structure": "finite, order not computed"}
    return IsoDescriptor(geometry="euclid", identity_component=torus,
                         finite_part=finite,
                         notes=("finite part computed only for the planar "
                                "worked cases",))


# A safety bound: the point group of a lattice has at most 48 elements.
CLOSURE_CAP = 96


def _integer_group_closure(mats: list) -> list:
    """Group generated by nonempty integer matrices, sorted."""
    n = len(mats[0])
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    try:
        group = sorted(word_ball(ident, mats, matmul, tuple, cap=CLOSURE_CAP))
    except SearchCapError:
        raise ValueError("point group closure too large") from None
    return [list(map(list, m)) for m in group]


# -- spherical and S^2 x R lookup data ----------------------------------------

def _load_table() -> dict:
    text = resources.files("geom3").joinpath(
        "data/spherical_components.json").read_text()
    return json.loads(text)


def spherical_components_lookup(query: str) -> list[dict]:
    """Static classification rows; query a family tag or "all"."""
    table = _load_table()
    families = table["families"]
    if query == "all":
        return [row for rows in families.values() for row in rows]
    if query not in families:
        raise ValueError(f"unknown lookup family {query!r}")
    return list(families[query])


def lookup_table_version() -> int:
    return _load_table()["version"]


# -- presets -------------------------------------------------------------------

def preset_crystal(name: str) -> CrystalGroup:
    half = Fraction(1, 2)
    presets = {
        "Z2": lambda: crystal_group_make([], [(1, 0), (0, 1)]),
        "Z2xD4": lambda: crystal_group_make(
            [((0, -1), (1, 0)), ((1, 0), (0, -1))], [(1, 0), (0, 1)]),
        "Z3": lambda: crystal_group_make(
            [], [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
        "Z3xD4xy": lambda: crystal_group_make(
            [((0, -1, 0), (1, 0, 0), (0, 0, 1)),
             ((1, 0, 0), (0, -1, 0), (0, 0, 1))],
            [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
        "screw": lambda: crystal_group_make(
            [((0, -1, 0), (1, 0, 0), (0, 0, 1))], [(0, 0, 1)], dim=3),
        "slab": lambda: crystal_group_make(
            [], [(1, 0, 0), (0, 1, 0)], dim=3),
        "centered": lambda: crystal_group_make(
            [], [(1, 0), (half, half)], dim=2),
    }
    if name not in presets:
        raise ValueError(f"unknown crystal preset {name!r}")
    return presets[name]()
