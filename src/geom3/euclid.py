"""Euclidean crystallographic input.

Crystallographic groups are given by exact rational orthogonal point
generators together with translation vectors that generate the lattice
(a basis or any other generating set).  `algebra.integer_rows` writes
the vectors as integer rows over their common denominator, and the
lattice kernel `intmat.ZSpan` takes those rows as they are and reads
rank, echelon basis and integer coordinates off Euclid steps on the rows;
ranks and coinvariants go through it too, and only the planar finite
order reads a Smith normal form, for its elementary divisors.  The
lattice is kept as those integer rows and no Fraction basis is built: a
point generator acts on the rows as an integer matrix over its own
denominator, and the planar point group is read off the rows by
`plane.point_group_of_rows`.  With no point generators the Betti torus is
the whole space.  Only split (i.e. symmorphic) extensions are supported
for the Betti computation.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from typing import Optional

from .algebra import frac, integer_rows
from .descriptors import IsoDescriptor, _Frozen, _setattr, brief_text
from .intmat import ZSpan, matmul, snf, transpose

Matrix = tuple[tuple[Fraction, ...], ...]
Vector = tuple[Fraction, ...]


class NonSymmorphicError(ValueError):
    """Non-integral vector systems are out of the supported range."""


def _rational(v) -> Fraction:
    """An exact entry (int, Fraction or "p/q"); a float is a domain error."""
    try:
        return frac(v)
    except TypeError:
        raise ValueError(
            f"exact rational entries required, not {v!r}") from None


def _to_matrix(rows, dim: int) -> Matrix:
    out = tuple(tuple(_rational(v) for v in row) for row in rows)
    if len(out) != dim or any(len(r) != dim for r in out):
        raise ValueError(f"{dim}x{dim} matrix expected")
    return out


def _identity(n: int) -> Matrix:
    return tuple(tuple(Fraction(int(i == j)) for j in range(n))
                 for i in range(n))


def _integer_span(vectors) -> tuple[int, ZSpan]:
    """(D, the Z-span of D * vectors) for D the least common denominator of
    the rational vectors."""
    den, _, rows = integer_rows(vectors)
    return den, ZSpan(rows)


class CrystalGroup(_Frozen):
    """Discrete subgroup of E(d) given by point generators and translations."""

    _fields = ("dim", "point_gens", "trans_basis", "vector_system")

    def __init__(self, dim: int, point_gens: tuple[Matrix, ...],
                 trans_basis: tuple[Vector, ...],
                 vector_system: Optional[tuple[Vector, ...]] = None):
        _setattr(self, "dim", dim)
        _setattr(self, "point_gens", point_gens)
        _setattr(self, "trans_basis", trans_basis)
        _setattr(self, "vector_system", vector_system)

    @functools.cached_property
    def _lattice(self) -> tuple[int, ZSpan]:
        """The translation lattice as (D, the Z-span of D * trans_basis),
        built once per group (not a field: eq, hash and repr ignore it)."""
        return _integer_span(self.trans_basis)

    def lattice_coords(self, v: Vector) -> Optional[tuple[int, ...]]:
        """Integer coordinates of v in the lattice basis, or None."""
        if len(v) != self.dim:
            raise ValueError("vector must match the dimension")
        den, span = self._lattice
        r, _, (row,) = integer_rows((tuple(map(_rational, v)),))
        if den % r:
            return None
        return span.coords([x * (den // r) for x in row])


def crystal_group_make(point_gens, trans_basis, vector_system=None,
                       dim: Optional[int] = None) -> CrystalGroup:
    """Validated crystallographic descriptor.

    The translation vectors may be any generating set of the lattice.
    Point generators must be exactly orthogonal and map every lattice
    vector back into the lattice.
    """
    basis = tuple(tuple(_rational(v) for v in vec) for vec in trans_basis)
    if dim is None:
        dim = len(basis[0]) if basis else (len(point_gens[0])
                                           if point_gens else 0)
    if dim not in (2, 3):
        raise ValueError("dimension must be 2 or 3")
    gens = tuple(_to_matrix(g, dim) for g in point_gens)
    ident = _identity(dim) if gens else None
    for g in gens:
        if matmul(transpose(g), g) != ident:
            raise ValueError("point generators must be orthogonal")
    for vec in basis:
        if len(vec) != dim:
            raise ValueError("translation vectors must match the dimension")
    vs = None
    if vector_system is not None:
        vs = tuple(tuple(_rational(v) for v in vec)
                   for vec in vector_system)
    group = CrystalGroup(dim, gens, basis, vs)
    point_gens_in_lattice_basis(group)
    if vs is not None:
        if len(vs) != len(gens):
            raise ValueError("one translation part per point generator")
        if any(len(vec) != dim for vec in vs):
            raise ValueError("translation parts must match the dimension")
    return group


def translation_rank(g: CrystalGroup) -> int:
    return g._lattice[1].rank


INFINITE_VOLUME = "InfiniteVolume"
FINITE_VOLUME_COMPACT = "FiniteVolumeCompact"


def euclid_volume_verdict(g: CrystalGroup) -> str:
    """Rank three translations are the only finite-volume (compact) case."""
    if g.dim != 3:
        raise ValueError("volume verdict is for dimension 3")
    return FINITE_VOLUME_COMPACT if translation_rank(g) == 3 \
        else INFINITE_VOLUME


def _check_split(g: CrystalGroup):
    if translation_rank(g) != g.dim:
        raise ValueError("full-rank translation lattice required")
    if g.vector_system is not None and any(
            g.lattice_coords(vec) is None for vec in g.vector_system):
        raise NonSymmorphicError("non-integral vector system: "
                                 "non-symmorphic groups are not supported")


def _minus_identity(mats) -> list:
    """The rows of M - I for every square matrix M in mats, stacked."""
    return [[x - (i == j) for j, x in enumerate(row)]
            for m in mats for i, row in enumerate(m)]


def point_gens_in_lattice_basis(g: CrystalGroup) -> list[list[list[int]]]:
    """Each point generator as an integer matrix in the lattice basis;
    ValueError if one does not preserve the lattice.

    The basis is the span's integer rows b over D, and a generator the
    integer matrix G over its denominator e, so the image of b / D is
    G b / (e D): a lattice vector exactly when e divides G b, and then
    its coordinates are those of G b / e in the span."""
    span = g._lattice[1]
    out = []
    for gen in g.point_gens:
        e, _, rows = integer_rows(gen)
        # columns are the coordinates of the images of the basis vectors
        images = [[sum(map(operator.mul, row, b)) for row in rows]
                  for b in span.basis]
        cols = [None if any(x % e for x in w) else
                span.coords([x // e for x in w]) for w in images]
        if None in cols:
            raise ValueError("point generators must preserve the "
                             "translation lattice")
        out.append([list(row) for row in zip(*cols)])
    return out


def betti_identity_component(g: CrystalGroup) -> tuple[int, str]:
    """First Betti number and the torus it spans in the quotient isometries.

    Computed as the dimension of the subspace of Q^d fixed by every point
    generator; for split groups this equals the free rank of the
    abelianization (see coinvariant_rank for the integral cross-check).
    """
    _check_split(g)
    betti = g.dim
    if g.point_gens:
        betti -= _integer_span(_minus_identity(g.point_gens))[1].rank
    torus = {0: "trivial", 1: "S1", 2: "T2", 3: "T3"}[betti]
    return betti, torus


def coinvariant_rank(g: CrystalGroup) -> int:
    """Free rank of Z^d / <(sigma - 1) v>: d minus the rank of the relations.

    The relation matrix is assembled in lattice coordinates, where the
    point action is integral; this is the abelianization-rank oracle for
    betti_identity_component.
    """
    _check_split(g)
    rows = _minus_identity(point_gens_in_lattice_basis(g))
    return g.dim - ZSpan(rows).rank


def euclid_quotient_isometry(g: CrystalGroup) -> IsoDescriptor:
    """Identity component is the Betti torus; the finite part is computed
    exactly for the planar lattice and lattice-with-full-point-group cases
    and reported as not computed otherwise."""
    betti, torus = betti_identity_component(g)
    if g.dim == 2:
        from .plane import point_group_of_rows  # only a planar lattice needs it
        pg = point_group_of_rows((1,), g._lattice[1].basis)
        if not g.point_gens:
            finite = {"order": pg.order, "structure": pg.tag,
                      "point_group": pg.tag}
            return IsoDescriptor(geometry="euclid",
                                 identity_component=torus,
                                 finite_part=finite)
        # the group of the point generators, in the lattice basis
        group = pg.subgroup(g.point_gens)
        if len(group) == pg.order and betti == 0:
            rows = _minus_identity(group)
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
        raise ValueError(f"unknown crystal preset {brief_text(name)}")
    return presets[name]()
