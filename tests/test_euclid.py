"""Crystallographic ranks, Betti numbers with their integral oracle, the
translation lattice under changes of generating set, the planar worked
isometry groups, and the lookup tables.  The lattice kernel itself
(`intmat.ZSpan`) is tested against its oracles in test_intmat.py."""

import itertools
import json
from fractions import Fraction

import pytest

from geom3.descriptors import canonical_json
from geom3.euclid import (
    FINITE_VOLUME_COMPACT,
    INFINITE_VOLUME,
    NonSymmorphicError,
    betti_identity_component,
    coinvariant_rank,
    crystal_group_make,
    euclid_quotient_isometry,
    euclid_volume_verdict,
    lookup_table_version,
    preset_crystal,
    spherical_components_lookup,
    translation_rank,
)
from geom3.nil import planar_point_group
from support import euclid_quotient_isometry_by_word_ball

HALF = Fraction(1, 2)

ROT90 = ((0, -1), (1, 0))
REFL_Y = ((1, 0), (0, -1))
SWAP = ((0, 1), (1, 0))
MINUS2 = ((-1, 0), (0, -1))

ROT90_Z = ((0, -1, 0), (1, 0, 0), (0, 0, 1))
REFL_Z = ((1, 0, 0), (0, 1, 0), (0, 0, -1))
MINUS3 = ((-1, 0, 0), (0, -1, 0), (0, 0, -1))
CYCLE = ((0, 0, 1), (1, 0, 0), (0, 1, 0))
FLIPXY = ((-1, 0, 0), (0, -1, 0), (0, 0, 1))

Z2_BASIS = [(1, 0), (0, 1)]
RECT_BASIS = [(1, 0), (0, 2)]
CENTERED_BASIS = [(1, 0), (HALF, HALF)]
Z3_BASIS = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
RECT3_BASIS = [(1, 0, 0), (0, 1, 0), (0, 0, 2)]


def test_translation_rank():
    assert translation_rank(preset_crystal("Z3")) == 3
    assert translation_rank(preset_crystal("screw")) == 1
    assert translation_rank(preset_crystal("slab")) == 2
    assert translation_rank(preset_crystal("Z2")) == 2


def test_rank_is_basis_invariant():
    g1 = crystal_group_make([], [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    # unimodular change of basis
    g2 = crystal_group_make([], [(1, 1, 0), (0, 1, 0), (3, 2, 1)])
    assert translation_rank(g1) == translation_rank(g2) == 3
    g3 = crystal_group_make([], [(1, 1, 0), (2, 2, 0)], dim=3)
    assert translation_rank(g3) == 1


def test_volume_verdict():
    assert euclid_volume_verdict(preset_crystal("screw")) == INFINITE_VOLUME
    assert euclid_volume_verdict(preset_crystal("slab")) == INFINITE_VOLUME
    assert euclid_volume_verdict(preset_crystal("Z3")) \
        == FINITE_VOLUME_COMPACT
    with pytest.raises(ValueError):
        euclid_volume_verdict(preset_crystal("Z2"))


def test_validation():
    with pytest.raises(ValueError):
        crystal_group_make([((1, 1), (0, 1))], Z2_BASIS)   # not orthogonal
    with pytest.raises(ValueError):
        crystal_group_make([ROT90], RECT_BASIS)   # does not preserve lattice


@pytest.mark.parametrize("args", [
    ([], [(0.5, 0), (0, 1)]),                          # translation
    ([((1.0, 0), (0, 1))], [(1, 0), (0, 1)]),          # point generator
    ([REFL_Y], [(1, 0), (0, 1)], [(0.5, 0)]),          # vector system
    ([], [(1, 0), (0, 1)], None, None, (0.5, 0)),      # lattice_coords
])
def test_float_entries_are_a_domain_error(args):
    # a float once escaped as algebra.frac's TypeError (in lattice_coords
    # as an AttributeError), an internal error; a fifth entry is the
    # vector handed to lattice_coords
    with pytest.raises(ValueError, match="exact rational entries required"):
        crystal_group_make(*args[:4]).lattice_coords(*args[4:])


def test_betti_examples():
    assert betti_identity_component(preset_crystal("Z3")) == (3, "T3")
    assert betti_identity_component(preset_crystal("Z2xD4")) \
        == (0, "trivial")
    assert betti_identity_component(preset_crystal("Z3xD4xy")) == (1, "S1")


def test_non_symmorphic_rejected():
    g = crystal_group_make([REFL_Y], Z2_BASIS, vector_system=[(HALF, 0)])
    with pytest.raises(NonSymmorphicError):
        betti_identity_component(g)
    # integral vector systems are the split case and pass
    g2 = crystal_group_make([REFL_Y], Z2_BASIS, vector_system=[(1, 0)])
    assert betti_identity_component(g2) == (1, "S1")


GRID = [
    ([], Z2_BASIS),
    ([MINUS2], Z2_BASIS),
    ([REFL_Y], Z2_BASIS),
    ([SWAP], Z2_BASIS),
    ([ROT90], Z2_BASIS),
    ([ROT90, REFL_Y], Z2_BASIS),
    ([REFL_Y, ((-1, 0), (0, 1))], Z2_BASIS),
    ([], RECT_BASIS),
    ([MINUS2], RECT_BASIS),
    ([REFL_Y], RECT_BASIS),
    ([], CENTERED_BASIS),
    ([SWAP], CENTERED_BASIS),
    ([MINUS2], CENTERED_BASIS),
    ([], Z3_BASIS),
    ([MINUS3], Z3_BASIS),
    ([ROT90_Z], Z3_BASIS),
    ([ROT90_Z, ((1, 0, 0), (0, -1, 0), (0, 0, 1))], Z3_BASIS),
    ([REFL_Z], Z3_BASIS),
    ([CYCLE], Z3_BASIS),
    ([FLIPXY], Z3_BASIS),
    ([CYCLE, MINUS3], Z3_BASIS),
    ([], RECT3_BASIS),
    ([ROT90_Z], RECT3_BASIS),
    ([REFL_Z], RECT3_BASIS),
    ([ROT90_Z, REFL_Z], RECT3_BASIS),
]


def test_betti_agrees_with_abelianization_rank_on_grid():
    assert len(GRID) >= 20
    for gens, basis in GRID:
        g = crystal_group_make(gens, basis)
        betti, _ = betti_identity_component(g)
        assert betti == coinvariant_rank(g), (gens, basis)


def test_quotient_isometry_z2():
    d = euclid_quotient_isometry(preset_crystal("Z2"))
    assert d.identity_component == "T2"
    assert d.finite_part["structure"] == "D4"
    assert d.finite_part["order"] == 8


def test_quotient_isometry_z2_d4():
    d = euclid_quotient_isometry(preset_crystal("Z2xD4"))
    assert d.identity_component == "trivial"
    assert d.total_order == 2
    assert d.finite_part["structure"] == "Z2"


def test_planar_finite_part_reads_every_translation_vector():
    # (2,0), (0,1), (3,0) generate Z^2, whose group is D4 of order 8; the
    # first two alone span an index-2 sublattice, whose group is D2
    for basis in ([(2, 0), (0, 1), (3, 0)], [(2, 0), (3, 0), (0, 1)],
                  [(1, 0), (0, 1), (3, -2)]):
        d = euclid_quotient_isometry(crystal_group_make([], basis))
        assert d.finite_part == {"order": 8, "structure": "D4",
                                 "point_group": "D4"}


def test_quotient_isometry_z3():
    d = euclid_quotient_isometry(preset_crystal("Z3"))
    assert d.identity_component == "T3"
    assert d.finite_part["order"] is None


def test_lookup_families():
    rows = spherical_components_lookup(
        "spherical-orbifold-orientation-preserving")
    assert sorted(r["identity_component"] for r in rows) \
        == ["S1", "S1xS1", "trivial"]
    man = spherical_components_lookup("spherical-manifold")
    assert {"SO(4)", "SO(3)", "O(4)", "O(2)", "O(2)xO(2)", "S1 x_Z2 S1"} \
        <= {r["identity_component"] for r in man}
    acts = spherical_components_lookup("s2xr-free-finite-actions")
    assert sorted(r["data"]["group"] for r in acts) \
        == ["D_n", "Z/p", "Z/pxZ/2"]
    tollefson = spherical_components_lookup("s2xr-manifolds")
    assert len(tollefson) == 4
    with pytest.raises(ValueError):
        spherical_components_lookup("not-a-family")


def test_lookup_round_trip_bit_exact():
    rows = spherical_components_lookup("all")
    blob = canonical_json(rows)
    again = canonical_json(json.loads(blob))
    assert blob == again
    assert isinstance(lookup_table_version(), int)


def _combination(coeffs, vectors, dim):
    return tuple(sum(c * v[j] for c, v in zip(coeffs, vectors))
                 for j in range(dim))


def _lattice_readings(gens, vectors):
    g = crystal_group_make(gens, vectors)
    return (translation_rank(g), betti_identity_component(g),
            coinvariant_rank(g),
            canonical_json(euclid_quotient_isometry(g).to_json_dict()))


UNIMODULAR = {2: [((1, 0), (0, 1)), ((0, 1), (1, 0)), ((1, 3), (0, 1)),
                  ((2, 1), (1, 1)), ((-1, 2), (1, -1))],
              3: [((0, 0, 1), (1, 0, 0), (0, 1, 0)),
                  ((1, 2, 0), (0, 1, 0), (0, -3, 1)),
                  ((2, 1, 1), (1, 1, 0), (1, 0, 0))]}


def test_readings_ignore_the_choice_of_generating_set():
    for gens, basis in GRID:
        expected = _lattice_readings(gens, basis)
        dim = len(basis)
        for m in UNIMODULAR[dim]:
            changed = [_combination(row, basis, dim) for row in m]
            assert _lattice_readings(gens, changed) == expected, \
                (gens, changed)
        redundant = [*basis, _combination((2, -1, 3), basis, dim)]
        assert _lattice_readings(gens, redundant) == expected, \
            (gens, redundant)


SWAP_XY = ((0, 1, 0), (1, 0, 0), (0, 0, 1))


def test_point_generators_see_the_lattice_not_the_vectors():
    # (2,2,0), (3,3,0), (0,0,1) generate Z(1,1,0) + Z(0,0,1), which the
    # swap preserves
    g = crystal_group_make([SWAP_XY], [(2, 2, 0), (3, 3, 0), (0, 0, 1)])
    assert translation_rank(g) == 2
    assert g.lattice_coords((1, 1, 0)) is not None
    assert g.lattice_coords((1, 0, 0)) is None
    # (2,0), (0,1), (1,0) generate Z^2, which diag(1, -1) preserves
    g = crystal_group_make([REFL_Y], [(2, 0), (0, 1), (1, 0)])
    assert betti_identity_component(g) == (1, "S1") \
        == betti_identity_component(crystal_group_make([REFL_Y], Z2_BASIS))
    assert coinvariant_rank(g) == 1
    # a vector off (1/D) Z^d, D the common denominator of the translation
    # vectors, is off the lattice before the kernel sees it
    g = crystal_group_make([], [(HALF, 0), (0, 1)])
    assert g.lattice_coords((Fraction(3, 2), 2)) is not None
    assert g.lattice_coords((Fraction(1, 6), 0)) is None
    # a lattice that the swap does not preserve is still refused
    with pytest.raises(ValueError, match="preserve the translation"):
        crystal_group_make([SWAP_XY], [(2, 2, 0), (3, 0, 0), (0, 0, 1)])


def test_empty_and_zero_translation_vectors():
    g = crystal_group_make([ROT90], [])
    assert g.dim == 2 and translation_rank(g) == 0
    assert g.lattice_coords((0, 0)) == ()
    assert g.lattice_coords((1, 0)) is None
    with pytest.raises(ValueError, match="full-rank"):
        betti_identity_component(g)
    for vectors in ([(1, 0), (0, 0), (0, 1)], [(0, 0), (1, 0), (0, 1)]):
        g = crystal_group_make([], vectors)
        assert translation_rank(g) == 2
        assert euclid_quotient_isometry(g).finite_part \
            == {"order": 8, "structure": "D4", "point_group": "D4"}
        g = crystal_group_make([ROT90, REFL_Y], vectors)
        assert euclid_quotient_isometry(g).to_json_dict() \
            == euclid_quotient_isometry(preset_crystal("Z2xD4")).to_json_dict()
    g = crystal_group_make([], [(0, 0, 0)])
    assert translation_rank(g) == 0


def test_vectors_must_match_the_dimension():
    with pytest.raises(ValueError, match="translation parts must match"):
        crystal_group_make([REFL_Y], Z2_BASIS, vector_system=[(HALF,)])
    g = crystal_group_make([], Z2_BASIS)
    for v in ((1,), (1, 0, 5)):
        with pytest.raises(ValueError, match="must match the dimension"):
            g.lattice_coords(v)


# bases of D4 (four of them), D2 and C2 lattices
SWEEP_BASES = [[(1, 0), (0, 1)], [(2, 1), (1, 1)], [(3, 1), (1, 2)],
               [(1, 0), (HALF, HALF)], [(1, 0), (0, 2)],
               [(1, 0), (Fraction(1, 3), 1)]]


def test_planar_finite_part_matches_the_word_ball_oracle():
    # every one-, two- and three-element generating set in each point group
    seen = 0
    for basis in SWEEP_BASES:
        elements = planar_point_group(*basis).elements
        for k in (1, 2, 3):
            for gens in itertools.combinations(elements, k):
                g = crystal_group_make(gens, basis)
                assert euclid_quotient_isometry(g) \
                    == euclid_quotient_isometry_by_word_ball(g), (basis, gens)
                seen += 1
    assert seen == 4 * (8 + 28 + 56) + (4 + 6 + 4) + (2 + 1) == 385
