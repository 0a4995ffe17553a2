"""Heisenberg arithmetic, lattices, normalizers and quotient isometries."""

import functools
import itertools
import operator
import random
import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from geom3 import algebra, intmat, nil, plane, selfcheck
from geom3.algebra import (
    MixedDiscriminantError,
    QuadRat,
    cross_parts,
    scalar_is_rational,
)
from geom3.cli import _nil_generators
from geom3.descriptors import canonical_json
from geom3.intmat import (
    MAT2_ID,
    closure,
    mat2_apply,
    mat2_det,
    mat2_inv,
    mat2_mul,
    vec2_cross,
)
from geom3.nil import (
    DISCRETE_PROJECTION,
    FINITE_VOLUME_POSSIBLE,
    FIXES_LINE,
    FIXES_POINT,
    HALF,
    HEIS_ID,
    INFINITE_VOLUME,
    REFLECT,
    ROT_PI,
    ROT_PI_2,
    ROT_PI_3,
    NON_DISCRETE_INPUT,
    POINT_GROUP_CAP,
    DichotomyResult,
    HeisIsometry,
    HeisPoint,
    _extends_to_group_normalizer,
    _INFINITE_ORDER,
    _LatticeFrame,
    _adjoined_counts,
    _lattice_covolume,
    _lift_group_closes,
    _linear_group,
    _matrix_order,
    _normalizing_cosets,
    _point_group_generators,
    _schreier_translations,
    _vector,
    heis_commutator,
    heis_conjugate,
    lattice_gp,
    lattice_hex,
    lattice_hz,
    nil_center_intersection,
    nil_lattice_make,
    nil_normalizer,
    nil_projection_dichotomy,
    nil_quotient_isometry,
    nil_volume_verdict,
    planar_point_group,
)
from geom3.plane import gauss_reduce, point_group_of_rows
from support import (
    SIGNED_PERMUTATIONS,
    clear_nil_caches,
    coset_count_by_loop,
    covolume_by_minors,
    covolume_by_zspan,
    deadline,
    dichotomy_by_fixed_sets,
    dichotomy_by_zspan,
    entry_records,
    extends_by_scan,
    frame_isometry,
    frame_point,
    global_lift,
    global_quotient_isometry,
    heis_inv,
    heis_mul,
    invariant_direction_by_scalars,
    iso_compose,
    iso_conjugate_translation,
    iso_inverse,
    iso_is_identity,
    lattice_contains,
    lattice_frame_by_fractions,
    lift_group_closes_by_pairs,
    mat2_eq,
    mat2_transpose,
    matrix_order_by_powers,
    nil_caches,
    off_form_entries,
    planar_coords,
    planar_point_group_by_candidates,
    point_group_by_box,
    point_group_elements_by_products,
    rationals_as_fractions,
    rot_apply,
    schreier_translations_by_scalars,
    vec2_dot,
    word_ball,
    zsqrt_basis,
)


def as_matrix(p: HeisPoint):
    return ((Fraction(1), p.x, p.z),
            (Fraction(0), Fraction(1), p.y),
            (Fraction(0), Fraction(0), Fraction(1)))


def mat3_mul(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(3))
                       for j in range(3)) for i in range(3))


def from_matrix(m) -> HeisPoint:
    return HeisPoint(m[0][1], m[1][2], m[0][2])


def random_point(rng) -> HeisPoint:
    return HeisPoint.of(Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                        Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                        Fraction(rng.randint(-9, 9), rng.randint(1, 4)))


def test_mul_matches_matrix_multiplication():
    rng = random.Random(7)
    for _ in range(60):
        g, h = random_point(rng), random_point(rng)
        expected = from_matrix(mat3_mul(as_matrix(g), as_matrix(h)))
        assert heis_mul(g, h) == expected


def test_mul_examples():
    assert heis_mul(HeisPoint.of(1, 0, 0), HeisPoint.of(0, 1, 0)) \
        == HeisPoint.of(1, 1, 1)
    g = HeisPoint.of(2, 3, 5)
    assert heis_mul(g, heis_inv(g)) == HeisPoint.of(0, 0, 0)
    p = HeisPoint.of(4, -1, 7)
    assert heis_mul(HeisPoint.of(0, 0, 3), p) == HeisPoint.of(4, -1, 10)


def test_group_axioms_random():
    rng = random.Random(11)
    e = HeisPoint.of(0, 0, 0)
    for _ in range(40):
        g, h, k = (random_point(rng) for _ in range(3))
        assert heis_mul(heis_mul(g, h), k) == heis_mul(g, heis_mul(h, k))
        assert heis_mul(g, e) == g and heis_mul(e, g) == g
        assert heis_mul(g, heis_inv(g)) == e


def test_quadratic_scalars_work():
    r3 = QuadRat(0, 1, 3)
    g = HeisPoint(Fraction(1, 2), r3 / 2, Fraction(0))
    h = heis_mul(g, g)
    assert h.x == 1 and h.y == r3
    assert h.z == r3 / 4


def test_commutator_is_projected_area():
    rng = random.Random(13)
    for _ in range(40):
        g, h = random_point(rng), random_point(rng)
        direct = heis_mul(heis_mul(g, h),
                          heis_mul(heis_inv(g), heis_inv(h)))
        assert heis_commutator(g, h) == direct
    assert heis_commutator(HeisPoint.of(1, 0, 0), HeisPoint.of(0, 1, 0)) \
        == HeisPoint.of(0, 0, 1)
    g = HeisPoint.of(2, 1, 7)
    assert heis_commutator(g, g) == HeisPoint.of(0, 0, 0)
    assert heis_commutator(HeisPoint.of(2, 1, 7), HeisPoint.of(4, 2, -3)) \
        == HeisPoint.of(0, 0, 0)


def test_center_commutes():
    rng = random.Random(17)
    c = HeisPoint.of(0, 0, Fraction(5, 3))
    for _ in range(20):
        g = random_point(rng)
        assert heis_mul(c, g) == heis_mul(g, c)


def test_conjugation_examples():
    assert heis_conjugate(HeisPoint.of(Fraction(1, 2), 0, 0),
                          HeisPoint.of(0, 1, 0)) \
        == HeisPoint.of(0, 1, Fraction(1, 2))
    assert heis_conjugate(HeisPoint.of(3, 4, 9),
                          HeisPoint.of(0, 0, 5)) == HeisPoint.of(0, 0, 5)
    g, t = HeisPoint.of(2, -3, 1), HeisPoint.of(5, 7, -2)
    assert heis_conjugate(g, t) == HeisPoint.of(5, 7, -2 + 2 * 7 - (-3) * 5)
    # conjugation agrees with g t g^{-1}
    assert heis_conjugate(g, t) == heis_mul(heis_mul(g, t), heis_inv(g))


# -- lattices -------------------------------------------------------------------

def test_lattice_make():
    hz = lattice_hz()
    assert hz.lam == 1 and hz.n == 1
    g2 = lattice_gp(2)
    assert g2.n == 2
    with pytest.raises(ValueError):
        nil_lattice_make((1, 0), (2, 0))
    with pytest.raises(ValueError):
        nil_lattice_make((1, 0), (0, 1), n=0)


def test_a_bool_is_not_a_lattice_refinement():
    # bool is a subclass of int, but True would print as "true"
    with pytest.raises(ValueError, match="^n must be a positive integer$"):
        lattice_gp(True)


def test_lattice_membership():
    hz = lattice_hz()
    assert lattice_contains(hz, HeisPoint.of(3, -2, 5))
    assert not lattice_contains(hz, HeisPoint.of(Fraction(1, 2), 0, 0))
    g2 = lattice_gp(2)
    assert lattice_contains(g2, HeisPoint.of(1, 1, Fraction(5, 2)))
    assert not lattice_contains(g2, HeisPoint.of(1, 1, Fraction(1, 3)))
    lat = nil_lattice_make((1, 0), (0, 1), r=Fraction(1, 3), s=0, n=2)
    assert lattice_contains(lat, HeisPoint.of(1, 0, Fraction(1, 3)))
    assert lattice_contains(
        lat, HeisPoint.of(1, 0, Fraction(1, 3) + Fraction(1, 2)))
    assert not lattice_contains(lat, HeisPoint.of(1, 0, 0))


def test_center_intersection():
    assert nil_center_intersection(lattice_hz()) == 1
    assert nil_center_intersection(lattice_gp(3)) == Fraction(1, 3)
    assert nil_center_intersection(lattice_hex(2)) \
        == QuadRat(0, Fraction(1, 4), 3)   # sqrt(3)/(2p) with p = 2


def test_normalizer_shapes():
    n_hz = nil_normalizer(lattice_hz())
    assert n_hz.planar_u == (1, 0) and n_hz.planar_v == (0, 1)
    assert n_hz.index == 1
    n_g3 = nil_normalizer(lattice_gp(3))
    assert n_g3.planar_u == (Fraction(1, 3), 0)
    assert n_g3.index == 9
    n_hex = nil_normalizer(lattice_hex(2))
    assert n_hex.planar_u == (Fraction(1, 4), QuadRat(0, Fraction(1, 4), 3))
    assert n_hex.index == 4


def test_normalizer_conjugation_closure():
    for lat in (lattice_hz(), lattice_gp(2), lattice_hex(2),
                nil_lattice_make((1, 0), (0, 1), r=Fraction(1, 3), n=2)):
        nrm = nil_normalizer(lat)
        gens = [HeisPoint.of(*nrm.planar_u, 0), HeisPoint.of(*nrm.planar_v, 0),
                HeisPoint.of(0, 0, Fraction(1, 7))]
        for t in gens:
            for gamma in lat.generators():
                assert lattice_contains(lat, heis_conjugate(t, gamma))


def test_normalizer_identity_component_is_the_center_direction():
    # the connected part of the normalizer is the z-axis: a vertical
    # translation centralizes every lattice generator
    for lat in (lattice_hz(), lattice_hex(3)):
        z = HeisPoint.of(0, 0, Fraction(3, 7))
        for gamma in lat.generators():
            assert heis_conjugate(z, gamma) == gamma


# -- planar point groups ---------------------------------------------------------

def brute_force_point_group_order(u, v) -> int:
    """Independent enumeration over images of the two shortest classes."""
    from geom3.intmat import mat2_apply, mat2_inv

    basis_inv = mat2_inv(((u[0], v[0]), (u[1], v[1])))
    cands = []
    for k in range(-6, 7):
        for m in range(-6, 7):
            w = (k * u[0] + m * v[0], k * u[1] + m * v[1])
            cands.append(w)
    count = 0
    for iu in cands:
        if vec2_dot(iu, iu) != vec2_dot(u, u):
            continue
        for iv in cands:
            if vec2_dot(iv, iv) != vec2_dot(v, v):
                continue
            if vec2_dot(iu, iv) != vec2_dot(u, v):
                continue
            t = mat2_mul(((iu[0], iv[0]), (iu[1], iv[1])), basis_inv)
            if mat2_eq(mat2_mul(mat2_transpose(t), t), MAT2_ID):
                count += 1
    return count


def test_point_group_tags():
    assert planar_point_group((1, 0), (0, 1)).tag == "D4"
    hexa = planar_point_group(
        (Fraction(1, 2), QuadRat(0, Fraction(1, 2), 3)), (1, 0))
    assert hexa.tag == "D6"
    generic = planar_point_group((1, 0), (Fraction(1, 3), Fraction(7, 5)))
    assert generic.tag == "C2"
    assert planar_point_group((1, 0), (0, 2)).tag == "D2"


def test_point_group_matches_bruteforce():
    for u, v in (((1, 0), (0, 1)),
                 ((1, 0), (Fraction(1, 3), Fraction(7, 5))),
                 ((1, 0), (0, 2)),
                 ((2, 1), (1, -1))):
        u = (Fraction(u[0]), Fraction(u[1]))
        v = (Fraction(v[0]), Fraction(v[1]))
        assert planar_point_group(u, v).order \
            == brute_force_point_group_order(u, v)


def test_point_group_is_a_group_preserving_the_lattice():
    lat = lattice_hex(1)
    pg = planar_point_group(lat.u, lat.v)
    assert any(mat2_eq(m, ROT_PI) for m in pg.elements)
    for a in pg.elements:
        assert abs(mat2_det(a)) == 1
        for b in pg.elements:
            prod = mat2_mul(a, b)
            assert any(mat2_eq(prod, m) for m in pg.elements)
        for vec in (lat.u, lat.v):
            from geom3.intmat import mat2_apply
            assert planar_coords(lat, mat2_apply(a, vec)) is not None


def test_point_group_rejects_unsupported_field():
    with pytest.raises(ValueError):
        planar_point_group((1, 0), (QuadRat(0, 1, 2), 1))
    # documented output change: the field test comes before the
    # independence test, so these raised "linearly dependent" and
    # "cannot mix sqrt(2) with sqrt(5)"
    sqrt2, sqrt5 = QuadRat(0, 1, 2), QuadRat(0, 1, 5)
    for u, v in (((sqrt2, 0), (2 * sqrt2, 0)), ((sqrt2, 1), (sqrt5, 1))):
        with pytest.raises(ValueError, match=re.escape("Q(sqrt(3))")):
            planar_point_group(u, v)


# -- lifts and quotient isometries -----------------------------------------------

def test_lift_point_symmetry_hexagonal():
    lat = lattice_hex(1)
    for rot in (ROT_PI_3, REFLECT):
        iso = global_lift(lat, rot)
        for gamma in lat.generators():
            assert lattice_contains(lat, iso_conjugate_translation(iso, gamma))


def test_lift_rejects_wrong_rotation():
    with pytest.raises(ValueError):
        global_lift(lattice_hz(), ROT_PI_3)


def test_quotient_isometry_square():
    d = nil_quotient_isometry(lattice_hz())
    assert d.identity_component == "S1"
    assert d.circle_factor == "S1"
    assert d.finite_part["order"] == 8
    assert d.finite_part["structure"] == "D4"


def test_quotient_isometry_square_with_d4_adjoined():
    pg = planar_point_group((1, 0), (0, 1))
    d = nil_quotient_isometry(lattice_hz(), extra=pg)
    assert d.identity_component == "trivial"
    assert d.circle_factor == 2
    assert d.total_order == 2
    assert d.finite_part["structure"] == "Z2"


def test_quotient_isometry_gp_orders():
    for p in (1, 2, 3):
        d = nil_quotient_isometry(lattice_gp(p))
        assert d.finite_part["order"] == 8 * p * p
        assert d.finite_part["point_group"] == "D4"
        assert d.finite_part["translation_part"] == [p, p]


def test_quotient_isometry_hexagonal():
    for p in (1, 2):
        d = nil_quotient_isometry(lattice_hex(p))
        assert d.identity_component == "S1"
        assert d.finite_part["point_group"] == "D6"
        assert d.finite_part["order"] == 12 * p * p


def test_quotient_isometry_generic_lattice_offsets():
    # offsets that are not rational multiples of lambda: generators+order only
    lat = nil_lattice_make((1, 0), (0, 1), r=QuadRat(0, Fraction(1, 5), 2),
                           s=0, n=1)
    d = nil_quotient_isometry(lat)
    assert d.finite_part["order"] == 8      # n = 1, point group D4
    assert "generators reported" in d.finite_part["structure"]
    assert d.notes


def test_quotient_isometry_rejects_foreign_point_group():
    hexa = planar_point_group(
        (Fraction(1, 2), QuadRat(0, Fraction(1, 2), 3)), (1, 0))
    with pytest.raises(ValueError,
                       match="^adjoined point group does not normalize "
                             "the lattice$"):
        nil_quotient_isometry(lattice_hz(), extra=hexa)


def test_isometry_composition_model():
    # phi L_h phi^{-1} = L_{sigma(g h g^{-1})} for phi = sigma after L_g
    rng = random.Random(23)
    for rot in (ROT_PI_2, REFLECT, ROT_PI_3):
        g = HeisPoint(Fraction(1, 2), Fraction(-1, 3), Fraction(2))
        phi = HeisIsometry(rot, rot_apply(rot, g))
        for _ in range(10):
            h = random_point(rng)
            lhs = iso_conjugate_translation(phi, h)
            rhs = rot_apply(rot, heis_mul(heis_mul(g, h), heis_inv(g)))
            assert lhs == rhs
    ident = HeisIsometry(MAT2_ID, HeisPoint.of(0, 0, 0))
    phi = HeisIsometry(ROT_PI_3, HeisPoint.of(1, 2, 3))
    assert iso_is_identity(iso_compose(phi, iso_inverse(phi)))


def test_rotation_automorphism_property():
    rng = random.Random(29)
    for rot in (ROT_PI_2, ROT_PI_3, REFLECT, ROT_PI):
        for _ in range(15):
            g, h = random_point(rng), random_point(rng)
            assert rot_apply(rot, heis_mul(g, h)) \
                == heis_mul(rot_apply(rot, g), rot_apply(rot, h))


def test_quarter_turn_matches_closed_form():
    # m(n, m, p) = (-m, n, p - n m)
    rng = random.Random(31)
    for _ in range(20):
        p = random_point(rng)
        img = rot_apply(ROT_PI_2, p)
        assert img == HeisPoint(-p.y, p.x, p.z - p.x * p.y)


def test_reflection_matches_closed_form():
    rng = random.Random(37)
    for _ in range(20):
        p = random_point(rng)
        assert rot_apply(REFLECT, p) == HeisPoint(p.x, -p.y, -p.z)


# -- dichotomy -------------------------------------------------------------------

def test_dichotomy_lattice_generators():
    gens = [HeisIsometry.translation(HeisPoint.of(1, 0, 0)),
            HeisIsometry.translation(HeisPoint.of(0, 1, 0))]
    res = nil_projection_dichotomy(gens)
    assert res.kind == DISCRETE_PROJECTION
    assert res.witness is not None and res.witness.z != 0
    assert nil_volume_verdict(res) == FINITE_VOLUME_POSSIBLE


def test_dichotomy_twisted_rotation():
    gens = [HeisIsometry(ROT_PI_2, HeisPoint.of(0, 0, Fraction(1, 2)))]
    res = nil_projection_dichotomy(gens)
    assert res.kind == FIXES_POINT
    assert res.point == (0, 0)
    assert nil_volume_verdict(res) == INFINITE_VOLUME


def test_dichotomy_fixed_line_example():
    gens = [HeisIsometry.translation(HeisPoint.of(1, 0, 1)),
            HeisIsometry.translation(HeisPoint.of(Fraction(1, 3), 0, 1)),
            HeisIsometry.point_symmetry(ROT_PI)]
    res = nil_projection_dichotomy(gens)
    assert res.kind == FIXES_LINE
    assert res.direction[1] == 0 and res.direction[0] != 0
    assert nil_volume_verdict(res) == INFINITE_VOLUME


def test_dichotomy_off_origin_rotation():
    t = HeisIsometry.translation(HeisPoint.of(1, 0, 0))
    rot = HeisIsometry.point_symmetry(ROT_PI_2)
    conj = iso_compose(iso_compose(t, rot), iso_inverse(t))
    res = nil_projection_dichotomy([conj])
    assert res.kind == FIXES_POINT
    assert res.point == (Fraction(1), Fraction(0))


def test_dichotomy_p4_is_decided_at_every_word_bound():
    # a quarter turn and a translation: a p4 group, whose translations are
    # Z^2, so the witness is their commutator (0, 0, 1) however short the
    # bound (no word of length 1 is central)
    gens = [HeisIsometry.point_symmetry(ROT_PI_2),
            HeisIsometry.translation(HeisPoint.of(1, 0, 0))]
    for bound in (0, 1, 8):
        res = nil_projection_dichotomy(gens, word_bound=bound)
        assert res.kind == DISCRETE_PROJECTION
        assert res.witness == HeisPoint.of(0, 0, 1)
        assert nil_volume_verdict(res) == FINITE_VOLUME_POSSIBLE


def test_dichotomy_order_12_linear_part_is_non_discrete():
    # rotations of orders 6 and 4 about different centers: their linear
    # parts generate an order-12 rotation, which no infinite discrete
    # planar group holds, and no point is fixed
    t = HeisIsometry.translation(HeisPoint.of(1, 0, 0))
    rot_far = iso_compose(iso_compose(
        t, HeisIsometry.point_symmetry(ROT_PI_2)), iso_inverse(t))
    gens = [HeisIsometry.point_symmetry(ROT_PI_3), rot_far]
    for bound in (0, 4, 8):
        res = nil_projection_dichotomy(gens, word_bound=bound)
        assert res.kind == NON_DISCRETE_INPUT
        assert res.to_json_dict() == {"kind": "NonDiscreteInput"}
    with pytest.raises(ValueError, match="non-discrete"):
        nil_volume_verdict(res)
    # the same rotations about one center fix it
    same = [HeisIsometry.point_symmetry(ROT_PI_3),
            HeisIsometry.point_symmetry(ROT_PI_2)]
    assert nil_projection_dichotomy(same).kind == FIXES_POINT
    # two reflections whose axes meet at pi/12 generate D12
    half = Fraction(1, 2)
    refl_30 = ((half, QuadRat(0, half, 3)), (QuadRat(0, half, 3), -half))
    refl_45 = ((0, 1), (1, 0))
    gens = [HeisIsometry.point_symmetry(refl_30),
            HeisIsometry(refl_45, HeisPoint.of(1, 0, 0))]
    assert nil_projection_dichotomy(gens).kind == NON_DISCRETE_INPUT


def test_dichotomy_hexagonal_witness_is_the_covolume():
    # a sixth turn and a translation (a p6 group): the translations are the
    # hexagonal lattice on (1, 0), (1/2, sqrt(3)/2), of covolume sqrt(3)/2,
    # at every word bound (the old search needed words of length 7)
    gens = [HeisIsometry.point_symmetry(ROT_PI_3),
            HeisIsometry.translation(HeisPoint.of(1, 0, 0))]
    with deadline(2):
        results = [nil_projection_dichotomy(gens, word_bound=bound)
                   for bound in (0, 6, 8)]
    for res in results:
        assert res.kind == DISCRETE_PROJECTION
        assert res.witness == HeisPoint.of(0, 0, QuadRat(0, HALF, 3))


def test_dichotomy_central_generators_fix_everything():
    gens = [HeisIsometry.translation(HeisPoint.of(0, 0, 1))]
    res = nil_projection_dichotomy(gens)
    assert res.kind == FIXES_POINT


def test_dichotomy_two_half_turns():
    # half turns about (0,0) and (1/2, 0): infinite dihedral on the x-axis
    t = HeisIsometry.translation(HeisPoint.of(1, 0, 0))
    r0 = HeisIsometry.point_symmetry(ROT_PI)
    r1 = iso_compose(iso_compose(t, r0), iso_inverse(t))
    res = nil_projection_dichotomy([r0, r1])
    assert res.kind == FIXES_LINE
    assert res.direction[1] == 0
    assert nil_volume_verdict(res) == INFINITE_VOLUME


def test_rotation_order_validation():
    half_r3 = QuadRat(0, Fraction(1, 2), 3)
    # rotation by pi/6: order 12, exactly representable over Q(sqrt(3))
    order12 = ((half_r3, Fraction(-1, 2)), (Fraction(1, 2), half_r3))
    iso = HeisIsometry.point_symmetry(order12)
    assert iso_compose(iso, iso).rot == ROT_PI_3
    # but it stabilizes no planar lattice
    with pytest.raises(ValueError):
        global_lift(lattice_hex(1), order12)
    with pytest.raises(ValueError):
        HeisIsometry.point_symmetry(((1, 1), (0, 1)))   # not orthogonal
    scaled = ((Fraction(3, 5), Fraction(-4, 5)),
              (Fraction(4, 5), Fraction(3, 5)))          # infinite order
    with pytest.raises(ValueError):
        HeisIsometry.point_symmetry(scaled)


def test_quotient_isometry_gp_with_d4_adjoined():
    # no worked value: sanity only — adjoining the full point group leaves
    # a finite group, and the half-shift symmetry survives
    pg = planar_point_group((1, 0), (0, 1))
    d = nil_quotient_isometry(lattice_gp(3), extra=pg)
    assert d.identity_component == "trivial"
    assert d.total_order == 2


def test_serialization_shapes():
    lat = lattice_hex(2)
    blob = lat.to_json_dict()
    assert set(blob) == {"u", "v", "r", "s", "n", "lambda"}
    assert blob["n"] == 2
    d = nil_quotient_isometry(lattice_gp(2)).to_json_dict()
    assert d["identity_component"] == "S1"
    assert d["finite_part"]["order"] == 32


# rational reflections whose axes, (3, 4) and (2, 1), lie off every D12 axis
REFLECT_34 = ((Fraction(-7, 25), Fraction(24, 25)),
              (Fraction(24, 25), Fraction(7, 25)))
REFLECT_21 = ((Fraction(3, 5), Fraction(4, 5)),
              (Fraction(4, 5), Fraction(-3, 5)))

TOO_LARGE = "^adjoined set generates too large a group$"
NOT_NORMALIZING = "^adjoined point group does not normalize the lattice$"


def not_closing(u: str, v: str, r, n: int) -> str:
    return "^" + re.escape(
        f"adjoined point group does not close over the lattice u = ({u}), "
        f"v = ({v}), r = {r}, s = 0, n = {n}: a product of two lifted "
        f"point symmetries is not a lattice element times a lift") + "$"


@pytest.mark.parametrize("lat, extra, message", [
    # lattice matrices B^-1 R B integral but off the point group
    (lattice_hz(), [((1, 1), (0, 1))], TOO_LARGE),
    (lattice_hz(), [((2, 0), (0, 1))], TOO_LARGE),
    (nil_lattice_make((1, 0), (0, 2)), [((0, HALF), (2, 0))],
     NOT_NORMALIZING),
    # B^-1 R B not integral: the word ball over R itself decides
    (lattice_hz(), [REFLECT_34, REFLECT], TOO_LARGE),
    (lattice_hz(), [ROT_PI_3], NOT_NORMALIZING),
    *[(lattice_hex(n), [ROT_PI_3], not_closing("1/2, 1/2√3", "1, 0", 0, n))
      for n in (1, 2, 3)],
    (nil_lattice_make((1, 0), (0, 1), r=Fraction(1, 3)),
     planar_point_group((1, 0), (0, 1)),
     not_closing("1, 0", "0, 1", "1/3", 1)),
], ids=["shear", "stretch", "swap-scaled", "reflect34-reflect",
        "hz-rot-pi-3", "hex1-rot-pi-3", "hex2-rot-pi-3", "hex3-rot-pi-3",
        "offset-third-full"])
def test_adjoined_errors_and_their_order(lat, extra, message):
    with pytest.raises(ValueError, match=message):
        nil_quotient_isometry(lat, extra=extra)
    with pytest.raises(ValueError, match=message):
        global_quotient_isometry(lat, extra)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_lift_group_that_does_not_close_raises_alike_when_warm(n):
    # the cache holds the verdict, not the error: the warm call raises
    # the same text
    clear_nil_caches()
    texts = []
    for _ in range(2):
        with pytest.raises(ValueError) as err:
            nil_quotient_isometry(lattice_hex(n), extra=[ROT_PI_3])
        texts.append(str(err.value))
    assert texts[0] == texts[1]
    assert _adjoined_counts.cache_info()[:2] == (1, 1)      # hits, misses


def test_infinite_order_product_raises_every_time():
    # both reflections have order 2; their product is a rotation of
    # infinite order, and the memoised order check must reject it on every
    # call, not only the first.  So a trusted constructor for products
    # must still check the rotation parts it has not seen.
    for reflection in (REFLECT_34, REFLECT_21):
        a = HeisIsometry.point_symmetry(reflection)
        b = HeisIsometry.point_symmetry(REFLECT)
        for _ in range(3):
            with pytest.raises(ValueError, match="finite order dividing 12"):
                iso_compose(a, b)
        gens = [a, HeisIsometry(REFLECT, HeisPoint.of(0, 1, 0)),
                HeisIsometry.translation(HeisPoint.of(1, 0, 0))]
        for _ in range(2):
            with pytest.raises(ValueError, match="finite order dividing 12"):
                nil_projection_dichotomy(gens)
        # through the origin, both reflections fix (0, 0); the verdict still
        # needs the group of linear parts, which is infinite, so it raises
        for _ in range(2):
            with pytest.raises(ValueError, match="finite order dividing 12"):
                nil_projection_dichotomy([a, b])


def test_non_orthogonal_rotation_rejected_every_time():
    shear = ((1, 1), (0, 1))
    for _ in range(2):
        with pytest.raises(ValueError, match="orthogonal"):
            HeisIsometry.point_symmetry(shear)


def test_list_valued_rotation_constructs():
    iso = HeisIsometry([[0, -1], [1, 0]], HeisPoint.of(1, 0, 0))
    assert iso.rot == [[0, -1], [1, 0]]
    square = iso_compose(iso, iso)
    assert mat2_eq(square.rot, ROT_PI)
    assert mat2_eq(iso_compose(iso_inverse(iso), iso).rot, MAT2_ID)


def test_dichotomy_rejects_negative_word_bound():
    gens = [HeisIsometry.translation(HeisPoint.of(1, 0, 0))]
    with pytest.raises(ValueError, match="word_bound"):
        nil_projection_dichotomy(gens, word_bound=-1)
    assert nil_projection_dichotomy(gens, word_bound=0).kind == FIXES_LINE


# -- closed forms against the brute forces in support.py ------------------------

HEX = ((HALF, QuadRat(0, HALF, 3)), (1, 0))


def change_basis(u, v, m):
    """The basis (u, v) m: its vectors are k u + l v for the columns of m."""
    return tuple((m[0][j] * u[0] + m[1][j] * v[0],
                  m[0][j] * u[1] + m[1][j] * v[1]) for j in range(2))


@st.composite
def small_unimodular(draw):
    """Products of up to three elementary matrices (entries -1..1) and
    swaps: skew small enough for the brute-force box."""
    m = MAT2_ID
    for _ in range(draw(st.integers(0, 3))):
        q = draw(st.integers(-1, 1))
        m = mat2_mul(m, draw(st.sampled_from(
            [((1, q), (0, 1)), ((1, 0), (q, 1)), ((0, 1), (1, 0))])))
    return m


sides = st.fractions(min_value=HALF, max_value=2, max_denominator=5)


@st.composite
def planar_lattices(draw):
    """Bases of Z^2, the hexagonal lattice, and rational rectangular and
    rhombic lattices (including one whose reflection axis lies off D12)."""
    kind = draw(st.sampled_from(["square", "hex", "rectangular", "rhombic",
                                 "rhombic-34"]))
    if kind == "square":
        return ((1, 0), (0, 1))
    if kind == "hex":
        return HEX
    if kind == "rhombic-34":
        return ((1, 0), (Fraction(3, 5), Fraction(4, 5)))
    a, b = draw(sides), draw(sides)
    if kind == "rectangular":
        return ((a, 0), (0, b))
    return ((a, b), (a, -b))


@settings(max_examples=60, deadline=None)
@given(planar_lattices(), small_unimodular())
def test_point_group_matches_box_enumeration(lattice, m):
    u, v = change_basis(*lattice, m)
    # the same elements in the same order: sorted by the coordinates of the
    # images of u and v, as the box enumeration meets them
    assert planar_point_group(u, v).elements == point_group_by_box(u, v)


@st.composite
def z2_bases(draw):
    """A basis matrix of Z^2 with entries up to about 10^12."""
    a = draw(st.integers(-10**12, 10**12))
    c = draw(st.integers(-10**12, 10**12))
    g = gcd(a, c) or 1
    a, c = (a // g, c // g) if (a, c) != (0, 0) else (1, 0)
    # extended Euclid: a x + c y = 1 makes ((a, -y), (c, x)) unimodular
    r0, r1, x0, x1, y0, y1 = a, c, 1, 0, 0, 1
    while r1:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    x0, y0 = (x0, y0) if r0 == 1 else (-x0, -y0)
    k = draw(st.integers(-10**6, 10**6))
    m = ((a, -y0 + k * a), (c, x0 + k * c))
    if draw(st.booleans()):
        m = ((m[0][1], m[0][0]), (m[1][1], m[1][0]))
    return m


@settings(max_examples=100, deadline=None)
@given(z2_bases())
def test_every_basis_of_z2_gives_the_signed_permutations(m):
    assert abs(mat2_det(m)) == 1
    u, v = (m[0][0], m[1][0]), (m[0][1], m[1][1])
    with deadline(10):
        pg = planar_point_group(u, v)
    assert pg.tag == "D4" and pg.order == 8
    assert set(pg.elements) == SIGNED_PERMUTATIONS


@st.composite
def labelled_bases(draw):
    """The bases of `planar_lattices` skewed by `small_unimodular`, or the
    hexagonal basis skewed by a `z2_bases` matrix, with each rational
    entry kept, or made a rational QuadRat of Q(sqrt(5)) or Q(sqrt(7)):
    bases whose rational entries come in every form a caller can write."""
    if draw(st.booleans()):
        u, v = change_basis(*draw(planar_lattices()), draw(small_unimodular()))
    else:
        u, v = change_basis(*HEX, draw(z2_bases()))
    entries = []
    for x in (*u, *v):
        d = draw(st.sampled_from([0, 5, 7]))
        if d and scalar_is_rational(x):
            x = QuadRat(x.a if isinstance(x, QuadRat) else x, 0, d)
        entries.append(x)
    return tuple(entries[:2]), tuple(entries[2:])


@settings(max_examples=200, deadline=None)
@given(labelled_bases())
@example(((0, QuadRat(1, 0, 5)), (1, QuadRat(0, 1, 3))))
@example(((QuadRat(0, 1, 3), QuadRat(1, 0, 5)), (1, 0)))
def test_point_group_elements_are_those_of_the_scalar_products(basis):
    u, v = basis
    pg = planar_point_group(u, v)
    assert entry_records(pg.elements) == entry_records(rationals_as_fractions(
        point_group_elements_by_products(u, v, pg.basis_matrices)))


@settings(max_examples=100, deadline=None)
@given(labelled_bases())
def test_a_point_group_entry_is_a_fraction_or_irrational(basis):
    assert off_form_entries(planar_point_group(*basis).elements) == []


@pytest.mark.parametrize("p", [1, 2, 3])
def test_a_hexagonal_point_group_entry_is_a_fraction_or_irrational(p):
    clear_nil_caches()
    pg = lattice_hex(p).point_group
    assert pg.tag == "D6"
    assert off_form_entries(pg.elements) == []


def test_point_group_builds_no_scalar_product(monkeypatch):
    bases = [((1, 0), (0, 1)), HEX, ((1, 0), (1000, 1))]
    expected = [planar_point_group(u, v) for u, v in bases]

    def refuse(*args):
        raise AssertionError("scalar arithmetic in the point group")

    clear_nil_caches()          # else every call below is a cache hit
    monkeypatch.setattr(plane, "mat2_mul", refuse)
    for cls in (Fraction, QuadRat):
        for name in ("__mul__", "__rmul__", "__truediv__", "__rtruediv__"):
            monkeypatch.setattr(cls, name, refuse)
    got = [planar_point_group(u, v) for u, v in bases]
    monkeypatch.undo()
    assert point_group_of_rows.cache_info().misses == len(bases)
    assert got == expected
    assert [pg.tag for pg in got] == ["D4", "D6", "D4"]


# -- the point group is computed once per exact basis ------------------------

def _group_record(pg):
    """Everything a caller can read off a point group, each entry's type
    and repr included."""
    return entry_records(pg.elements), pg.basis_matrices, pg.tag


def _relabelled(basis):
    """The basis with each rational entry's label swapped: a Fraction made
    a rational QuadRat of Q(sqrt(7)), a rational QuadRat made a Fraction.
    Equal in value, so it keys the same cache entry."""
    def swap(x):
        if isinstance(x, QuadRat):
            return x if x.q else x.a
        return QuadRat(x, 0, 7)
    return tuple(tuple(map(swap, w)) for w in basis)


@settings(max_examples=100, deadline=None)
@given(labelled_bases())
@example(((0, QuadRat(1, 0, 5)), (1, QuadRat(0, 1, 3))))
@example(((QuadRat(0, 1, 3), QuadRat(1, 0, 5)), (1, 0)))
@example(((QuadRat(1, 0, 5), 0), (0, 1)))
def test_cold_warm_and_fresh_lattice_point_groups_agree(basis):
    u, v = basis
    clear_nil_caches()
    cold = _group_record(planar_point_group(u, v))
    # the same values with other labels go first: they hit the cold
    # call's entry, as the warm calls below do
    planar_point_group(*_relabelled(basis))
    warm = planar_point_group(u, v)
    assert _group_record(warm) == cold
    assert planar_point_group(u, v) is warm
    assert _group_record(nil_lattice_make(u, v).point_group) == cold
    # a rational entry keys as its Fraction, so the twin shares the key
    assert point_group_of_rows.cache_info().currsize == 1


def test_a_relabelled_basis_shares_the_cache_entry_of_its_twin():
    # the scaled twin too: the key drops the common denominator, on which
    # neither the elements nor the basis matrices depend
    for twin in (((QuadRat(1, 0, 5), 0), (0, 1)),
                 ((Fraction(1, 2), 0), (0, Fraction(1, 2)))):
        clear_nil_caches()
        plain = planar_point_group((1, 0), (0, 1))
        hits = point_group_of_rows.cache_info().hits
        labelled = planar_point_group(*twin)
        assert point_group_of_rows.cache_info()[:2] == (hits + 1, 1)
        assert labelled is plain
        assert {type(x) for m in plain.elements for row in m for x in row} \
            == {Fraction}


@pytest.mark.parametrize("u, v, message", [
    ((QuadRat(0, 1, 2), 0), (0, 1),
     "planar scalars must lie in Q or Q(sqrt(3))"),
    ((1, QuadRat(0, 1, 5)), (QuadRat(0, 1, 3), 1),
     "planar scalars must lie in Q or Q(sqrt(3))"),
    ((1, 2), (Fraction(1, 2), 1), "u and v are linearly dependent"),
    ((QuadRat(0, 1, 3), 1), (3, QuadRat(0, 1, 3)),
     "u and v are linearly dependent"),
], ids=["sqrt2", "sqrt5-and-sqrt3", "rational-dependent",
        "sqrt3-dependent"])
def test_a_failed_point_group_raises_on_every_call(u, v, message):
    cached = point_group_of_rows.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ValueError, match=re.escape(message)):
            planar_point_group(u, v)
        assert point_group_of_rows.cache_info().currsize == cached


@pytest.mark.parametrize("u, v, entry", [
    ((0.5, 0), (0, 1), "0.5"),
    ((1.0, 0), (0, 1), "1.0"),         # equal to 1, and hashes like it
    ((1, 0), (0, float("nan")), "nan"),
], ids=["half", "one", "nan"])
def test_a_float_entry_raises_before_any_key(u, v, entry):
    planar_point_group((1, 0), (0, 1))
    info = point_group_of_rows.cache_info()
    with pytest.raises(ValueError, match=re.escape(
            f"exact entries required, not {entry}")):
        planar_point_group(u, v)
    assert point_group_of_rows.cache_info() == info


def test_a_string_entry_keys_as_its_fraction():
    pg = planar_point_group((Fraction(1, 2), 0), (0, 1))
    hits = point_group_of_rows.cache_info().hits
    assert planar_point_group(("1/2", 0), ("0", "1")) is pg
    assert point_group_of_rows.cache_info().hits == hits + 1


offsets = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12),
       st.sampled_from([((1, 0), (0, 1)), HEX, ((1, 0), (0, 2)),
                        ((1, 0), (Fraction(1, 3), Fraction(7, 5)))]),
       offsets, offsets)
def test_coset_count_matches_the_loop(n, basis, r, s):
    lat = nil_lattice_make(*basis, r=r, s=s, n=n)
    loop = coset_count_by_loop(lat)
    assert loop == n * n
    order = planar_point_group(lat.u, lat.v).order
    assert nil_quotient_isometry(lat).finite_part["order"] == loop * order


def test_adjoined_lifts_still_count_cosets_by_the_loop():
    # with the full point group adjoined, Gp:n keeps 1 coset of n^2
    for n in (1, 2, 3):
        lat = lattice_gp(n)
        pg = planar_point_group(lat.u, lat.v)
        lifts = [global_lift(lat, m) for m in pg.elements
                 if not mat2_eq(m, MAT2_ID)]
        d = nil_quotient_isometry(lat, extra=pg)
        assert d.finite_part["translation_cosets"] \
            == coset_count_by_loop(lat, [(l, l) for l in lifts]) == 1


def point_subgroups(pg) -> list[list]:
    """Every subgroup of a planar point group, each as its word ball from
    the identity: every finite subgroup of O(2) has two generators."""
    found = {}
    for pair in itertools.combinations_with_replacement(pg.elements, 2):
        group = list(word_ball(MAT2_ID, pair, mat2_mul, tuple, cap=24))
        found.setdefault(frozenset(group), group)
    return list(found.values())


def offset_lattice(n: int):
    return nil_lattice_make((1, 0), (0, 1), r=Fraction(1, 3),
                            s=Fraction(1, 2), n=n)


LATTICE_FAMILIES = {"Gp": lattice_gp, "hex": lattice_hex,
                    "offset": offset_lattice}
# the (2n)^2 scan is the slow side of the comparison, so extension verdicts
# are compared up to this n only (all 1082 verdicts to n = 6 agree, ~21 s
# on a 2-core Xeon)
SCAN_N_MAX = {"Gp": 4, "hex": 2, "offset": 3}


def frame_lifts(lat, pg, group):
    """The frame, the frame lifts of group (keyed by lattice matrix), the
    lattice matrices of its generators, and the oracle lifts (keyed by
    rotation)."""
    frame = _LatticeFrame(lat)
    in_basis = dict(zip(pg.elements, pg.basis_matrices))
    lifts = {in_basis[m]: frame.lift(in_basis[m]) for m in group[1:]}
    gens = [in_basis[g] for g in _point_group_generators(group)]
    oracle = {m: global_lift(lat, m) for m in group[1:]}
    return frame, lifts, gens, oracle


@pytest.mark.parametrize("family", LATTICE_FAMILIES)
@pytest.mark.parametrize("n", range(1, 7))
def test_generator_checks_match_the_pair_coset_and_scan_oracles(family, n):
    lat = LATTICE_FAMILIES[family](n)
    pg = planar_point_group(lat.u, lat.v)
    groups = point_subgroups(pg)
    assert len(groups) == {"C2": 2, "D2": 5, "D4": 10, "D6": 16}[pg.tag]
    for group in groups:
        frame, lifts, gens, oracle = frame_lifts(lat, pg, group)
        assert len(list(word_ball(MAT2_ID, gens, mat2_mul, tuple,
                                  cap=24))) == len(group)
        closes = lift_group_closes_by_pairs(lat, oracle)
        assert _lift_group_closes(frame, lifts, gens) == closes
        if not closes:
            continue
        if gens:
            own = [(lifts[g], lifts[g]) for g in gens]
            assert sum(1 for _ in _normalizing_cosets(frame, own)) \
                == coset_count_by_loop(lat, [(l, l) for l in oracle.values()])
        if n > SCAN_N_MAX[family]:
            continue
        for r, m in zip(pg.elements, pg.basis_matrices):
            if r not in group:
                assert _extends_to_group_normalizer(frame, m, lifts, gens) \
                    == extends_by_scan(lat, r, oracle)


@pytest.mark.parametrize("family", LATTICE_FAMILIES)
@pytest.mark.parametrize("n", range(1, 7))
def test_extending_symmetries_form_a_group(family, n):
    # the point symmetries whose lifts normalize <lattice, lifts of F> form
    # a group containing F, of order point_quotient * |F|
    lat = LATTICE_FAMILIES[family](n)
    pg = planar_point_group(lat.u, lat.v)
    for group in point_subgroups(pg):
        frame, lifts, gens, _ = frame_lifts(lat, pg, group)
        if not _lift_group_closes(frame, lifts, gens):
            continue
        extending = set(lifts) | {MAT2_ID} | {
            m for m in pg.basis_matrices
            if _extends_to_group_normalizer(frame, m, lifts, gens)}
        assert {mat2_mul(a, b) for a in extending for b in extending} \
            == extending
        d = nil_quotient_isometry(lat, extra=group)
        assert len(extending) == d.finite_part["point_quotient"] * len(group)


def irrational_offset_lattice(n: int):
    return nil_lattice_make((1, 0), (0, 1), r=QuadRat(0, 1, 3),
                            s=Fraction(1, 2), n=n)


def hex_offset_lattice(n: int):
    return nil_lattice_make(*HEX, r=Fraction(1, 3), n=n)


FRAME_FAMILIES = {**LATTICE_FAMILIES,
                  "irrational-offset": irrational_offset_lattice,
                  "hex-offset": hex_offset_lattice}


def answer(call):
    """Canonical JSON of a descriptor, or the text of its domain error."""
    try:
        return canonical_json(call().to_json_dict())
    except ValueError as exc:
        return f"ValueError: {exc}"


def assert_frame_matches_the_global_oracles(lat, groups):
    pg = planar_point_group(lat.u, lat.v)
    frame = _LatticeFrame(lat)
    for r, m in zip(pg.elements, pg.basis_matrices):
        assert frame_isometry(lat, frame, frame.lift(m)) == global_lift(lat, r)
    for group in groups:
        assert answer(lambda: nil_quotient_isometry(lat, extra=group)) \
            == answer(lambda: global_quotient_isometry(lat, group))


@pytest.mark.parametrize("family", [
    "Gp", "hex", "offset", "irrational-offset", "hex-offset"])
@pytest.mark.parametrize("n", range(1, 9))
def test_frame_path_matches_the_global_oracles(family, n):
    # the lifts, and the descriptor or error of every subgroup adjoined
    # (also by two of its elements), equal those of the global-coordinate
    # path the frame replaced
    lat = FRAME_FAMILIES[family](n)
    groups = point_subgroups(planar_point_group(lat.u, lat.v))
    assert_frame_matches_the_global_oracles(
        lat, groups + [group[1:3] for group in groups])


@settings(max_examples=40, deadline=None)
@given(planar_lattices(), small_unimodular(), offsets, offsets,
       st.integers(1, 4), st.randoms(use_true_random=False))
def test_frame_matches_the_global_oracles_on_skewed_bases(
        lattice, m, r, s, n, rng):
    lat = nil_lattice_make(*change_basis(*lattice, m), r=r, s=s, n=n)
    groups = point_subgroups(planar_point_group(lat.u, lat.v))
    assert_frame_matches_the_global_oracles(lat, rng.sample(groups, 2))


def _adjoined_answer(lat, extra):
    """Canonical JSON of the adjoined quotient, or its error kind and text."""
    try:
        return canonical_json(nil_quotient_isometry(lat, extra=extra)
                              .to_json_dict())
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def _dilated(lat, t):
    """The lattice (t u, t v, t^2 r, t^2 s, n): it has the frame of lat."""
    return nil_lattice_make(tuple(t * x for x in lat.u),
                            tuple(t * x for x in lat.v),
                            r=t * t * lat.r, s=t * t * lat.s, n=lat.n)


@settings(max_examples=40, deadline=None)
@given(planar_lattices(), small_unimodular(), offsets, offsets,
       st.integers(1, 4), offsets.filter(bool))
def test_cold_warm_and_dilated_adjoined_quotients_agree(lattice, m, r, s, n,
                                                        t):
    lat = nil_lattice_make(*change_basis(*lattice, m), r=r, s=s, n=n)
    twin = _dilated(lat, t)
    assert _LatticeFrame(twin) == _LatticeFrame(lat)
    pg = lat.point_group
    extras = [(pg, twin.point_group)] + [
        ([g], [g]) for g in pg.elements if not mat2_eq(g, MAT2_ID)]
    for extra, twin_extra in extras:
        clear_nil_caches()
        cold = _adjoined_answer(lat, extra)
        assert _adjoined_answer(lat, extra) == cold
        info = _adjoined_counts.cache_info()
        assert info.currsize == 1
        warm_twin = _adjoined_answer(twin, twin_extra)
        assert _adjoined_counts.cache_info()[:2] == (info.hits + 1,
                                                     info.misses)
        assert _adjoined_counts.cache_info().currsize == 1
        clear_nil_caches()
        assert _adjoined_answer(lat, extra) == cold
        clear_nil_caches()
        assert _adjoined_answer(twin, twin_extra) == warm_twin
        if isinstance(cold, tuple):     # the error names the twin's lattice
            assert warm_twin[0] == cold[0]
        else:                           # a descriptor names no lattice
            assert warm_twin == cold


def frame_lattice_element(frame, a: int, b: int, c: int):
    """A lattice element in frame coordinates: K = P (a, b) and W = C
    base(a, b) + 2 C c (see `_LatticeFrame`)."""
    return (MAT2_ID, (frame.P * a, frame.P * b),
            frame.ca * a + frame.cb * b + frame.cn * a * b + 2 * frame.C * c)


small_ints = st.integers(-3, 3)
# mostly 0, so that a nudged lattice element often stays in the lattice
nudges = st.sampled_from((0, 0, 0, 1, -1, 2))


@st.composite
def near_lattice(draw, frame):
    """(K, W) of a lattice element moved by C c (in the lattice exactly
    for even c) and by a few units of the frame."""
    _, (k1, k2), w = frame_lattice_element(
        frame, draw(small_ints), draw(small_ints), 0)
    c, d1, d2, dw = (draw(small_ints), draw(nudges), draw(nudges),
                     draw(nudges))
    return (k1 + d1, k2 + d2), w + frame.C * c + dw


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(FRAME_FAMILIES)), st.integers(1, 4), st.data())
def test_frame_group_law_matches_the_global_oracles(family, n, data):
    # random lifts times lattice elements, and times elements near the
    # lattice, mapped to global coordinates: the frame's product, inverse,
    # difference and membership test agree with the group law and the
    # lattice membership in global coordinates
    lat = FRAME_FAMILIES[family](n)
    frame = _LatticeFrame(lat)
    matrices = st.sampled_from(lat.point_group.basis_matrices)

    def element(m):
        left = frame_lattice_element(frame, *data.draw(
            st.tuples(small_ints, small_ints, small_ints)))
        right = (MAT2_ID, *data.draw(near_lattice(frame)))
        return frame.compose(frame.compose(left, frame.lift(m)), right)

    def as_global(x):
        return frame_isometry(lat, frame, x)

    x, y = element(data.draw(matrices)), element(data.draw(matrices))
    assert as_global(frame.compose(x, y)) == iso_compose(as_global(x),
                                                         as_global(y))
    assert as_global(frame.inverse(x)) == iso_inverse(as_global(x))
    twin = element(x[0])
    quotient = iso_compose(as_global(x), iso_inverse(as_global(twin)))
    k, w = frame.difference(x, twin)
    assert mat2_eq(quotient.rot, MAT2_ID)
    assert frame_point(lat, frame, k, w) == quotient.trans
    assert frame.contains(k, w) == lattice_contains(lat, quotient.trans)
    k, w = data.draw(near_lattice(frame))
    assert frame.contains(k, w) == lattice_contains(
        lat, frame_point(lat, frame, k, w))


def test_the_lattice_frame_factors_no_discriminant(monkeypatch):
    # D alpha = 2 sqrt(2) is built from its integer pair off integer_rows,
    # not by the public QuadRat constructor, which factors its radicand
    lat = nil_lattice_make((1, 0), (0, 1), r=QuadRat(0, 1, 2))
    expected = (QuadRat(0, 2, 2), 0, 0, 0, 1)

    def refuse(n):
        raise AssertionError("squarefree_decompose in the lattice frame")

    monkeypatch.setattr(algebra, "squarefree_decompose", refuse)
    frame = _LatticeFrame(lat)
    got = (frame.ra, frame.rb, frame.qa, frame.qb, frame.qc)
    monkeypatch.undo()
    assert got == expected
    assert [type(x) for x in got] == [QuadRat, int, int, int, int]


SIGMA = ((HALF, -HALF * QuadRat(0, 1, 3)), (-HALF * QuadRat(0, 1, 3), -HALF))


@pytest.mark.parametrize("lat, extra, order", [
    (lattice_hex(1), SIGMA, 4),
    (lattice_hex(3), SIGMA, 12),
    (offset_lattice(1), REFLECT, 4),
    (offset_lattice(1), ((0, 1), (1, 0)), 4),
    (offset_lattice(2), REFLECT, 16),
], ids=["hex1-sigma", "hex3-sigma", "offset1-reflect", "offset1-swap",
        "offset2-reflect"])
def test_reflections_extend_at_every_central_shift(lat, extra, order):
    # the det -1 conjugates here are repaired only by the central shift
    # z = c/2 for their residual c, neither 0 nor step/2
    d = nil_quotient_isometry(lat, extra=[extra])
    assert d.total_order == d.finite_part["order"] == order
    assert d.finite_part["point_quotient"] == 2


def test_point_group_generators():
    assert _point_group_generators([MAT2_ID]) == []
    assert _point_group_generators([MAT2_ID, REFLECT]) == [REFLECT]
    square = planar_point_group((1, 0), (0, 1)).elements
    gens = _point_group_generators(square)
    assert mat2_det(gens[0]) == 1 and mat2_det(gens[1]) == -1
    assert mat2_eq(mat2_mul(gens[0], gens[0]), ROT_PI)


@pytest.mark.parametrize("extra", [[], [MAT2_ID]])
def test_adjoining_nothing_keeps_every_coset_and_symmetry(extra):
    d = nil_quotient_isometry(lattice_gp(3), extra=extra)
    assert d.identity_component == "S1"
    assert d.finite_part["order"] == 72
    assert d.finite_part["translation_cosets"] == 9
    assert d.finite_part["point_quotient"] == 8


def test_adjoined_maps_take_milliseconds_at_any_n():
    # the earlier pair, coset and (2n)^2 scans took 6.9 s and 49 s here
    lat = lattice_gp(200)
    pg = planar_point_group(lat.u, lat.v)
    with deadline(0.5):
        full = nil_quotient_isometry(lat, extra=pg)
    with deadline(0.5):
        reflect = nil_quotient_isometry(lattice_gp(64), extra=[REFLECT])
    # the values the scans gave: 2 cosets for every even n with the full
    # group; 2n cosets and point quotient 2 for even n with REFLECT
    assert full.total_order == 4
    assert full.finite_part["translation_cosets"] == 2
    assert reflect.total_order == 512
    assert reflect.finite_part["translation_cosets"] == 128
    assert reflect.finite_part["point_quotient"] == 2


def test_lattice_point_group_is_not_a_field():
    lat = lattice_gp(4)
    fresh = lattice_gp(4)
    d = nil_quotient_isometry(lat, extra=lat.point_group)  # fills the cache
    assert "point_group" in vars(lat) and "point_group" not in vars(fresh)
    assert lat == fresh and hash(lat) == hash(fresh)
    assert repr(lat) == repr(fresh)
    assert lat.point_group is lat.point_group
    assert lat.point_group == planar_point_group(lat.u, lat.v)
    assert nil_quotient_isometry(
        fresh, extra=planar_point_group(fresh.u, fresh.v)) == d


def test_large_quotients_take_bounded_time():
    with deadline(10):
        d = nil_quotient_isometry(lattice_gp(100000))
        skewed = planar_point_group((1, 0), (1000, 1))
        wide = planar_point_group((1, 0), (0, Fraction(10) ** 300))
    assert d.finite_part["order"] == 8 * 10**10
    assert d.finite_part["translation_part"] == [100000, 100000]
    assert skewed.tag == "D4" and set(skewed.elements) == SIGNED_PERMUTATIONS
    assert wide.tag == "D2"


# -- orders and point groups without the enumerations ---------------------------

TURN_34 = ((Fraction(3, 5), Fraction(-4, 5)), (Fraction(4, 5), Fraction(3, 5)))


def order_table_cases() -> set:
    """The elements of the point groups of HZ, Gp:1..4, hex:1..3, the
    centered lattice and skewed square and hexagonal bases, the products of
    two elements of each, their lattice matrices, ROT_PI_3 and its products
    with the square lattice's elements (of order 12 among them)."""
    lattices = [lattice_hz(), *map(lattice_gp, range(1, 5)),
                *map(lattice_hex, range(1, 4))]
    bases = [(lat.u, lat.v) for lat in lattices] + [
        ((1, 0), (HALF, HALF)),
        ((1, 0), (1000, 1)),
        change_basis(*HEX, ((7, 1000), (-1, -143)))]
    cases = {ROT_PI_3}
    cases.update(mat2_mul(ROT_PI_3, m) for m in SIGNED_PERMUTATIONS)
    for u, v in bases:
        pg = planar_point_group(u, v)
        cases.update(pg.elements, pg.basis_matrices)
        cases.update(mat2_mul(a, b) for a in pg.elements for b in pg.elements)
    return cases


def _library_orders(m) -> list:
    """The library's routes to the order of m, each a call: an integer
    matrix goes through `_matrix_order`, and an orthogonal one through
    the check of `HeisIsometry.point_symmetry`, its order |<m>| read off
    the group that `_linear_group` closes.  Every case is one or both."""
    routes = []
    if all(type(x) is int for row in m for x in row):
        routes.append(lambda: _matrix_order(m))
    if mat2_eq(mat2_mul(mat2_transpose(m), m), MAT2_ID):
        def closure_order():
            HeisIsometry.point_symmetry(m)
            return len(_linear_group((tuple(map(tuple, m)),))[2])
        routes.append(closure_order)
    assert routes
    return routes


def test_order_table_agrees_with_the_powers():
    cases = order_table_cases()
    assert {matrix_order_by_powers(m) for m in cases} == {1, 2, 3, 4, 6, 12}
    for m in cases:
        for order in _library_orders(m):
            assert order() == matrix_order_by_powers(m)


@pytest.mark.parametrize("m", [
    ((2, 0), (0, 1)),
    ((QuadRat(0, HALF, 2), QuadRat(0, -HALF, 2)),
     (QuadRat(0, HALF, 2), QuadRat(0, HALF, 2))),
    TURN_34,
], ids=["non-orthogonal", "order-8", "infinite-order"])
def test_order_table_raises_as_the_powers_do(m):
    with pytest.raises(ValueError) as powers:
        matrix_order_by_powers(m)
    for order in _library_orders(m):
        with pytest.raises(ValueError) as table:
            order()
        assert type(table.value) is type(powers.value)
        assert str(table.value) == str(powers.value)


exact_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@st.composite
def exact_bases(draw):
    """Rational and Q(sqrt(3)) bases: the lattices of `planar_lattices`
    turned by I, ROT_PI_3 or TURN_34, or random entries, in a basis with
    coefficients up to about 10^12, far beyond `point_group_by_box`."""
    if draw(st.booleans()):
        turn = draw(st.sampled_from([MAT2_ID, ROT_PI_3, TURN_34]))
        u, v = (mat2_apply(turn, w) for w in draw(planar_lattices()))
    else:
        field = draw(st.sampled_from(["Q", "Q(sqrt3)"]))
        entries = [draw(exact_rationals) if field == "Q" else
                   QuadRat(draw(exact_rationals), draw(exact_rationals), 3)
                   for _ in range(4)]
        u, v = entries[:2], entries[2:]
        assume(vec2_cross(u, v) != 0)
    m = MAT2_ID
    for _ in range(draw(st.integers(0, 4))):
        q = draw(st.integers(-1000, 1000))
        m = mat2_mul(m, draw(st.sampled_from(
            [((1, q), (0, 1)), ((1, 0), (q, 1)), ((0, 1), (1, 0))])))
    return change_basis(u, v, m)


@settings(max_examples=200, deadline=None)
@given(exact_bases())
def test_point_group_elements_are_orthogonal_and_closed(basis):
    pg = planar_point_group(*basis)
    b = ((basis[0][0], basis[1][0]), (basis[0][1], basis[1][1]))
    b_inv = mat2_inv(b)
    assert pg.tag == {2: "C2", 4: "D2", 8: "D4", 12: "D6"}[pg.order]
    assert len(pg.basis_matrices) == pg.order
    for t, m in zip(pg.elements, pg.basis_matrices):
        assert mat2_eq(mat2_mul(mat2_transpose(t), t), MAT2_ID)
        assert mat2_eq(t, mat2_mul(mat2_mul(b, m), b_inv))
    group = set(pg.elements)
    assert len(group) == pg.order
    assert {mat2_mul(a, c) for a in group for c in group} == group


def _columns(m):
    return (m[0][0], m[1][0]), (m[0][1], m[1][1])


_R3 = QuadRat(0, HALF, 3)                 # sqrt(3)/2
# bases for each row of plane._STABILIZERS, with g12 of each sign (the
# reduction leaves 2 g12 = -g11, never g11), in both orientations (u, v)
# and (v, u)
TABLE_ROWS = [
    ((1, 0), (0, 1)),                                  # D4
    ((1, 0), (0, 2)),                                  # D2, g12 = 0
    ((1, 0), (HALF, _R3)), ((1, 0), (-HALF, _R3)),     # D6
    ((3, 2), (3, -2)), ((2, 3), (2, -3)),              # D2, g11 = g22
    ((2, 0), (1, 5)), ((2, 0), (-1, 5)),               # D2, 2|g12| = g11
    ((1, 0), (Fraction(1, 3), Fraction(7, 5))),        # C2
    ((1, 0), (Fraction(-1, 3), Fraction(7, 5))),
]


def _with_table_rows(test):
    for u, v in TABLE_ROWS:
        test = example((u, v))(example((v, u))(test))
    return test


@settings(max_examples=300, deadline=None)
@given(st.one_of(exact_bases(), labelled_bases(), z2_bases().map(_columns)))
@_with_table_rows
def test_point_group_table_matches_the_candidate_search(basis):
    clear_nil_caches()
    pg = planar_point_group(*basis)
    oracle = planar_point_group_by_candidates(*basis)
    assert (pg.tag, pg.order) == (oracle.tag, oracle.order)
    assert pg.basis_matrices == oracle.basis_matrices
    assert entry_records(pg.elements) == entry_records(oracle.elements)
    # adjoining the whole group reads it off, as its closure would
    assert pg.subgroup(pg) == closure(MAT2_ID, pg.basis_matrices, mat2_mul,
                                      cap=POINT_GROUP_CAP)[0]


def test_adjoining_the_whole_group_runs_no_closure(monkeypatch):
    pg = planar_point_group(*HEX)
    expected = closure(MAT2_ID, pg.basis_matrices, mat2_mul,
                       cap=POINT_GROUP_CAP)[0]

    def refuse(*args, **kwargs):
        raise AssertionError("closure of the whole group")

    monkeypatch.setattr(plane, "closure", refuse)
    assert pg.subgroup(pg) == expected


def _table_row(gram) -> tuple:
    """The key of plane._STABILIZERS for a reduced Gram matrix."""
    g11, g12, g22 = gram
    return g12 == (0, 0), g11 == g22, (-2 * g12[0], -2 * g12[1]) == g11


def test_every_table_row_is_met():
    tags = [planar_point_group(u, v).tag for u, v in TABLE_ROWS]
    assert tags == ["D4", "D2", "D6", "D6", "D2", "D2", "D2", "D2", "C2",
                    "C2"]
    rows = set()
    for u, v in TABLE_ROWS:
        basis = zsqrt_basis(((u[0], v[0]), (u[1], v[1])))
        rows.add(_table_row(gauss_reduce(basis.gram(), basis.d)[0]))
    assert rows == set(plane._STABILIZERS)


def test_selfcheck_meets_every_table_row(monkeypatch):
    rows = []

    def spy(gram, d):
        out = gauss_reduce(gram, d)
        rows.append(_table_row(out[0]))
        return out

    clear_nil_caches()          # else the point groups are cache hits
    monkeypatch.setattr(plane, "gauss_reduce", spy)
    assert selfcheck.check_point_groups()
    assert set(rows) == set(plane._STABILIZERS)


# -- the exact dichotomy ------------------------------------------------------------

SQRT3 = QuadRat(0, 1, 3)
ROT_PI_6 = ((SQRT3 * HALF, -HALF), (HALF, SQRT3 * HALF))
# all 24 elements of D12: the linear parts that pass the order check
TURNS = [functools.reduce(mat2_mul, [ROT_PI_6] * k, MAT2_ID)
         for k in range(12)]
D12 = tuple(TURNS) + tuple(mat2_mul(m, REFLECT) for m in TURNS)


def _shift(x, y, z=0) -> HeisIsometry:
    return HeisIsometry.translation(HeisPoint.of(x, y, z))


def _about(rot, c, z) -> HeisIsometry:
    """The isometry acting on the plane as rot about the point c."""
    rc = mat2_apply(rot, c)
    return HeisIsometry(rot, HeisPoint.of(c[0] - rc[0], c[1] - rc[1], z))


def _as_fraction(x) -> Fraction:
    return x.as_fraction() if isinstance(x, QuadRat) else Fraction(x)


def _assert_central_witness(res, gens):
    """The witness is a nontrivial element of the center of the Heisenberg
    group: it commutes with every translation part, multiplied out."""
    w = res.witness
    assert w.x == 0 and w.y == 0 and w.z > 0
    assert w != HEIS_ID
    for g in gens:
        assert heis_mul(w, g.trans) == heis_mul(g.trans, w)
        assert heis_conjugate(g.trans, w) == w


def test_dichotomy_decides_the_bounded_search_failures():
    rot4 = HeisIsometry.point_symmetry(ROT_PI_2)
    rot6 = HeisIsometry.point_symmetry(ROT_PI_3)
    third = Fraction(1, 3)
    cases = [
        # translations (1, 0), (0, 1) and their sixth turns: Z-rank 4
        ([rot6, _shift(1, 0), _shift(0, 1)], NON_DISCRETE_INPUT, None),
        ([_shift(1, 0), _shift(SQRT3, 0), _shift(0, 1)],
         NON_DISCRETE_INPUT, None),
        # the quarter turn makes the translations (1/3) Z^2
        ([rot4, _shift(1, 0), _shift(third, 0)], DISCRETE_PROJECTION,
         Fraction(1, 9)),
        ([rot6, _shift(1, 0)], DISCRETE_PROJECTION, SQRT3 * HALF),
        # out of scope: (0, 0, sqrt 3) makes the group non-discrete along
        # the center, but its projection is the lattice Z^2
        ([_shift(1, 0), _shift(0, 1), _shift(0, 0, SQRT3)],
         DISCRETE_PROJECTION, Fraction(1)),
    ]
    for gens, kind, z in cases:
        for bound in (0, 6, 8):
            res = nil_projection_dichotomy(gens, word_bound=bound)
            assert res.kind == kind
            if z is None:
                assert res.witness is None
                with pytest.raises(ValueError, match="non-discrete"):
                    nil_volume_verdict(res)
            else:
                assert res.witness == HeisPoint.of(0, 0, z)
                assert nil_volume_verdict(res) == FINITE_VOLUME_POSSIBLE


def test_translation_spanning_at_most_a_line_fixes_a_point_or_a_line():
    # T = 0 gives the centroid of the orbit of the origin, or the axis of
    # the one reflection; T in one line gives a direction parallel to it
    reflect = HeisIsometry.point_symmetry(REFLECT)
    glide = HeisIsometry(REFLECT, HeisPoint.of(1, 0, 0))
    mirror = HeisIsometry(REFLECT, HeisPoint.of(0, 1, 0))   # about y = 1/2
    cases = [
        ([HeisIsometry.point_symmetry(ROT_PI_2)], FIXES_POINT, (0, 0)),
        ([_about(ROT_PI_3, (1, 2), 0), _shift(0, 0, 1)], FIXES_POINT,
         (1, 2)),
        ([_shift(0, 0, 1), _shift(0, 0, 2)], FIXES_POINT, (0, 0)),
        ([_shift(0, 0, 1), reflect], FIXES_LINE, (-2, 0)),
        ([_shift(1, 0), _shift(2, 0)], FIXES_LINE, (1, 0)),
        # a glide fixes no point: its square is the translation by (2, 0)
        ([glide], FIXES_LINE, (2, 0)),                 # the axis
        ([mirror, _shift(0, 3)], FIXES_LINE, (0, 2)),  # its perpendicular
        ([glide, HeisIsometry(REFLECT, HeisPoint.of(2, 0, 0))], FIXES_LINE,
         (2, 0)),
        ([glide, HeisIsometry.point_symmetry(ROT_PI)], FIXES_LINE, (2, 0)),
        ([_about(ROT_PI, (0, 0), 0), _about(ROT_PI, (0, HALF), 1)],
         FIXES_LINE, (0, -1)),
    ]
    for gens, kind, vec in cases:
        _, ts = schreier_translations_by_scalars(
            [g.planar_part() for g in gens])
        assert all(t[0] * ts[0][1] == t[1] * ts[0][0] for t in ts)
        res = nil_projection_dichotomy(gens)
        assert res.kind == kind
        assert (res.point if kind == FIXES_POINT else res.direction) == vec
        assert res == dichotomy_by_fixed_sets(gens)


def test_dichotomy_is_fast_on_every_golden_input():
    # the golden Nil generator sets, ten times each: under 5 ms a call
    gens_texts = ["rot6;rot4@1,0,0", "rot6;1,0,0", "rot4;1,0,0",
                  "1,0,0;0,1,0", "rot6;1,0,0;0,1,0", "rot4;1,0,0;1/3,0,0",
                  "1,0,1;1/3,0,1;-1", "rot6;rot6@0,0,1"]
    with deadline(0.35):
        for text in gens_texts:
            for _ in range(10):
                nil_projection_dichotomy(_nil_generators(text))


@st.composite
def nil_lattices(draw):
    u, v = change_basis(*draw(planar_lattices()), draw(small_unimodular()))
    return nil_lattice_make(u, v, r=draw(offsets), s=draw(offsets),
                            n=draw(st.integers(1, 3)))


@st.composite
def lattice_groups(draw):
    """A lattice and lifts of a subset of its point group (their closure
    with the lattice is a discrete group)."""
    lat = draw(nil_lattices())
    pg = planar_point_group(lat.u, lat.v)
    mats = draw(st.lists(st.sampled_from(pg.elements), max_size=3))
    gens = [HeisIsometry.translation(g) for g in lat.generators()]
    gens += [global_lift(lat, m) for m in mats]
    return lat, draw(st.permutations(gens)), mats


@settings(max_examples=80, deadline=None)
@given(lattice_groups())
def test_lattice_with_point_symmetries_is_discrete(case):
    lat, gens, mats = case
    res = nil_projection_dichotomy(gens)
    assert res.kind == DISCRETE_PROJECTION
    _assert_central_witness(res, gens)
    # the translations T lie between the projected lattice and its n-fold
    # refinement (they normalize the lattice), so the covolume of T divides
    # |lambda| with a quotient dividing n^2
    index = _as_fraction(abs(lat.lam) / res.witness.z)
    assert index.denominator == 1 and (lat.n ** 2) % index == 0
    if not any(m != MAT2_ID for m in mats):
        # T is the projected lattice: the witness is the commutator of the
        # lattice generators, multiplied out
        a, b = lat.generators()[:2]
        comm = heis_mul(heis_mul(a, b), heis_inv(heis_mul(b, a)))
        assert comm.x == 0 and comm.y == 0
        assert res.witness.z == abs(comm.z)


@settings(max_examples=60, deadline=None)
@given(lattice_groups(), offsets.filter(bool), offsets, offsets)
def test_translation_raising_the_rank_is_non_discrete(case, q, p, z):
    # q sqrt(3) u + p v is not in the Q-span of u, v, so T gets Z-rank 3
    lat, gens, _ = case
    t = tuple(q * SQRT3 * lat.u[i] + p * lat.v[i] for i in range(2))
    res = nil_projection_dichotomy(gens + [_shift(*t, z)])
    assert res.kind == NON_DISCRETE_INPUT and res.witness is None


def test_dichotomy_pins_the_covolume_and_the_rank():
    # T spans the plane: the covolume at Z-rank 2, NonDiscreteInput at
    # Z-rank 3 or 4, also with sqrt(2) and sqrt(3) in one input (columns
    # on 1, sqrt 2 and sqrt 3); the oracle answers alike
    sqrt2 = QuadRat(0, 1, 2)
    cases = [
        ([(HALF, 0), (Fraction(1, 3), Fraction(1, 5)), (0, Fraction(2, 7))],
         "1/210"),
        ([(sqrt2, 0), (0, sqrt2)], "2"),
        ([(sqrt2, 1), (SQRT3, 0)], "√3"),
        ([(1, 0), (0, 1), (SQRT3, 0)], None),
        ([(1, 0), (0, 1), (sqrt2, 0), (0, SQRT3)], None),
    ]
    for ts, witness in cases:
        gens = [_shift(*t) for t in ts]
        res = nil_projection_dichotomy(gens)
        _, translations = schreier_translations_by_scalars(
            [g.planar_part() for g in gens])
        covolume = covolume_by_minors(translations)
        if witness is None:
            assert res.to_json_dict() == {"kind": NON_DISCRETE_INPUT}
            assert covolume is None
        else:
            assert res.to_json_dict() == {"kind": DISCRETE_PROJECTION,
                                          "central_witness": ["0", "0",
                                                              witness]}
            assert res.witness.z == covolume


def test_mixed_fields_give_one_verdict_in_every_order():
    # whether T spans the plane is decided without multiplying sqrt(2) by
    # sqrt(3); the QuadRat cross product refused that product, so each set
    # raised MixedDiscriminantError in some orders only
    sqrt2 = QuadRat(0, 1, 2)
    cases = [
        ([(sqrt2, 0), (0, SQRT3), (1, 0), (0, 1)], NON_DISCRETE_INPUT, None),
        ([(sqrt2, SQRT3), (1, 0)], DISCRETE_PROJECTION, SQRT3),
        ([(sqrt2, SQRT3), (2 * sqrt2, 2 * SQRT3)], FIXES_LINE, None),
    ]
    for ts, kind, witness in cases:
        for order in itertools.permutations(ts):
            res = nil_projection_dichotomy([_shift(*t) for t in order])
            assert res.kind == kind
            assert (res.witness and res.witness.z) == witness
    # the covolume sqrt(2) sqrt(3) is sqrt(6), read off the integer rows;
    # sqrt(3) + sqrt(6) has terms in two fields, so no QuadRat holds it
    for order in itertools.permutations([(sqrt2, 0), (0, SQRT3)]):
        res = nil_projection_dichotomy([_shift(*t) for t in order])
        assert res.kind == DISCRETE_PROJECTION
        assert res.witness == HeisPoint.of(0, 0, QuadRat(0, 1, 6))
    for order in itertools.permutations([(1 + sqrt2, 0), (0, SQRT3)]):
        with pytest.raises(ValueError, match=re.escape(
                "has terms in sqrt(3) + sqrt(6): it lies in no single "
                "Q(sqrt(d))")):
            nil_projection_dichotomy([_shift(*t) for t in order])


def test_translations_over_two_fields_under_rational_linear_parts():
    # documented output change: the first two raised MixedDiscriminantError
    # at the first edge where the scalar walk added sqrt(2) to sqrt(3).  A
    # rational linear part acts on each field's block of an integer row, so
    # the walk holds both; only a reported value over two fields, and a
    # translation off the field of irrational linear parts, are refused
    sqrt2 = QuadRat(0, 1, 2)
    half_turn = HeisIsometry(ROT_PI, HeisPoint.of(sqrt2, 0, 0))
    res = nil_projection_dichotomy([half_turn, _shift(SQRT3, 0), _shift(0, 1)])
    assert res == DichotomyResult(DISCRETE_PROJECTION,
                                  witness=HeisPoint.of(0, 0, SQRT3))
    res = nil_projection_dichotomy([half_turn, _shift(SQRT3, 0)])
    assert res == DichotomyResult(FIXES_LINE, direction=(SQRT3, 0))
    with pytest.raises(MixedDiscriminantError):     # the centroid
        nil_projection_dichotomy(
            [HeisIsometry(ROT_PI_2, HeisPoint.of(sqrt2, SQRT3, 0))])
    with pytest.raises(MixedDiscriminantError, match=re.escape(
            "cannot mix sqrt(3) with sqrt(2)")):
        nil_projection_dichotomy([HeisIsometry.point_symmetry(ROT_PI_3),
                                  _shift(sqrt2, 0)])


def test_offsets_over_two_fields_raise_once_for_adjoined_maps():
    # documented change: the lattice frame refuses offsets over two fields
    # when it is built, naming the fields in ascending order; the lift used
    # to raise, naming them in the order of r and s.  No map adjoined
    # needs no frame, and the lattice answers
    r, s = QuadRat(0, 1, 2), QuadRat(0, 1, 3)
    assert nil_quotient_isometry(nil_lattice_make(
        (1, 0), (0, 1), r=r, s=s, n=2)).finite_part["order"] == 32
    # bases with c = n (u1 v2 + u2 v1) / lam nonzero and zero, offsets over
    # Q(sqrt(2)), Q(sqrt(3)), Q(sqrt(5)), and every non-identity point
    # symmetry adjoined: each call raises, with one message for both
    # orders of r and s
    bases = [((1, 0), (0, 1)), ((2, 0), (0, 1)), ((1, 1), (-1, 1)),
             ((1, 0), (1, 2)), ((3, 0), (1, 1))]
    offsets = {d: [QuadRat(0, 1, d), QuadRat(Fraction(1, 2), -2, d)]
               for d in (2, 3, 5)}
    calls = 0
    for u, v in bases:
        pg = planar_point_group(u, v)
        others = [m for m in pg.elements if m != MAT2_ID]
        for (d, e), n in itertools.product(
                itertools.combinations(offsets, 2), (1, 2)):
            message = re.escape(f"cannot mix sqrt({d}) with sqrt({e})")
            for x, y in itertools.product(offsets[d], offsets[e]):
                for r, s in ((x, y), (y, x)):
                    lat = nil_lattice_make(u, v, r=r, s=s, n=n)
                    for m in others:
                        with pytest.raises(MixedDiscriminantError,
                                           match=message):
                            nil_quotient_isometry(lat, extra=[m])
                        calls += 1
    assert calls == 1104


small = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def planar_scalars(draw):
    q = draw(small)
    return q * SQRT3 if draw(st.booleans()) else q


@st.composite
def isometries(draw):
    """A translation over Q(sqrt(3)) or an element of D12 about a rational
    point, with a rational central part."""
    z = draw(small)
    if draw(st.booleans()):
        return _shift(draw(planar_scalars()), draw(planar_scalars()), z)
    return _about(draw(st.sampled_from(D12)), (draw(small), draw(small)), z)


generator_sets = st.lists(isometries(), min_size=1, max_size=4)


def _verdict(gens):
    """What no change of generators may move: the kind, the witness, and a
    fixed point (unique when a rotation or a pair of axes fixes it)."""
    res = nil_projection_dichotomy(gens)
    if res.kind == DISCRETE_PROJECTION:
        _assert_central_witness(res, gens)
    return res.kind, res.witness, res.point


@settings(max_examples=150, deadline=None)
@given(generator_sets, st.data())
def test_verdict_is_invariant_under_nielsen_moves(gens, data):
    before = _verdict(gens)
    if len(gens) > 1:
        i, j = data.draw(st.permutations(range(len(gens))))[:2]
        moved = list(gens)
        moved[i] = iso_compose(gens[i], gens[j])
        assert _verdict(moved) == before


@settings(max_examples=100, deadline=None)
@given(generator_sets, st.data())
def test_verdict_is_invariant_under_appending_a_product(gens, data):
    word = data.draw(st.lists(st.sampled_from(gens), min_size=1, max_size=4))
    product = functools.reduce(iso_compose, word)
    assert _verdict(gens + [product]) == _verdict(gens)


@settings(max_examples=100, deadline=None)
@given(generator_sets, isometries())
def test_verdict_is_invariant_under_conjugation(gens, h):
    # conjugation moves a fixed point, but keeps the kind and the covolume
    kind, witness, _ = _verdict(gens)
    conj = [iso_compose(iso_compose(h, g), iso_inverse(h)) for g in gens]
    assert _verdict(conj)[:2] == (kind, witness)


# -- the Schreier pass against the fixed-set solvers in support.py ------------------

# a small pool, so that centres and translations repeat or vanish
FEW = st.sampled_from((0, 1, -HALF))


@st.composite
def sign_sets(draw):
    """Linear parts I and -I only, translations often repeated or zero."""
    coord = st.one_of(FEW, planar_scalars())
    return [HeisIsometry(draw(st.sampled_from((MAT2_ID, ROT_PI))),
                         HeisPoint.of(draw(coord), draw(coord), draw(small)))
            for _ in range(draw(st.integers(1, 4)))]


@st.composite
def reflection_sets(draw):
    """One reflection sigma: reflections in lines parallel to its axis,
    glides along them, half turns, and translations along or across."""
    sigma = draw(st.sampled_from(D12[12:]))
    # nonzero columns of I + sigma lie along the axis, of I - sigma across
    plus = ((1 + sigma[0][0], sigma[0][1]), (sigma[1][0], 1 + sigma[1][1]))
    minus = ((1 - sigma[0][0], -sigma[0][1]), (-sigma[1][0], 1 - sigma[1][1]))
    along = next(c for c in zip(*plus) if c[0] or c[1])
    across = next(c for c in zip(*minus) if c[0] or c[1])
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("mirror", "glide", "half", "along",
                                     "across")))
        q = draw(st.one_of(FEW, small))
        c = (draw(FEW), draw(FEW))
        z = draw(small)
        if kind in ("along", "across"):
            t = along if kind == "along" else across
            gens.append(_shift(q * t[0], q * t[1], z))
        elif kind == "half":
            gens.append(_about(ROT_PI, c, z))
        else:
            g = _about(sigma, c, z)
            if kind == "glide":
                g = iso_compose(_shift(q * along[0], q * along[1]), g)
            gens.append(g)
    return gens


@st.composite
def mirror_sets(draw):
    """F = {I, sigma} and T = 0: one reflection in a line, central shifts."""
    sigma = draw(st.sampled_from(D12[12:]))
    c = (draw(small), draw(small))
    gens = [_about(sigma, c, draw(small))
            for _ in range(draw(st.integers(1, 3)))]
    gens += [_shift(0, 0, draw(small)) for _ in range(draw(st.integers(0, 2)))]
    return draw(st.permutations(gens))


@st.composite
def translation_sets(draw):
    """Linear part I only."""
    coord = st.one_of(FEW, planar_scalars())
    return [_shift(draw(coord), draw(coord), draw(small))
            for _ in range(draw(st.integers(1, 4)))]


FAMILIES = {
    "generator_sets": generator_sets,
    "sign_sets": sign_sets(),
    "reflection_sets": reflection_sets(),
    "mirror_sets": mirror_sets(),
    "translation_sets": translation_sets(),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_dichotomy_matches_the_fixed_set_solvers(family, data):
    gens = data.draw(FAMILIES[family])
    # some rotation parts as nested lists, as a library caller may pass them
    listed = data.draw(st.lists(st.booleans(), min_size=len(gens),
                                max_size=len(gens)))
    gens = [HeisIsometry([list(row) for row in g.rot], g.trans) if flag
            else g for g, flag in zip(gens, listed)]
    res = nil_projection_dichotomy(gens)
    expected = dichotomy_by_fixed_sets(gens)
    assert (canonical_json(res.to_json_dict())
            == canonical_json(expected.to_json_dict()))
    if family == "mirror_sets":
        assert res.kind == FIXES_LINE


@pytest.mark.parametrize("family", sorted(set(FAMILIES) - {"mirror_sets"}))
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_witness_is_the_covolume_by_minors(family, data):
    # whenever T spans the plane, not only when no fixed set or invariant
    # line decides first (mirror sets have T = 0)
    gens = data.draw(FAMILIES[family])
    _, ts = schreier_translations_by_scalars(
        [g.planar_part() for g in gens])
    if not ts or not any(vec2_cross(ts[0], t) for t in ts[1:]):
        return
    res = nil_projection_dichotomy(gens)
    covolume = covolume_by_minors(ts)
    assert (res.kind == NON_DISCRETE_INPUT) == (covolume is None)
    if covolume is not None:
        expected = DichotomyResult(DISCRETE_PROJECTION,
                                   witness=HeisPoint(Fraction(0),
                                                     Fraction(0), covolume))
        assert res == expected
        assert (canonical_json(res.to_json_dict())
                == canonical_json(expected.to_json_dict()))


# -- the integer Schreier pass against the scalar one in support.py ---------

SQRT2 = QuadRat(0, 1, 2)
ORDER_12 = tuple(TURNS[k] for k in (1, 5, 7, 11))
PYTHAGOREAN = tuple(((Fraction(a, c), Fraction(b, c)),
                     (Fraction(b, c), Fraction(-a, c)))
                    for a, b, c in ((3, 4, 5), (5, 12, 13)))


@st.composite
def pythagorean_sets(draw):
    """Reflections with entries 3/5, 4/5 or 5/13, 12/13 beside ROT_PI_3
    and ROT_PI_2: one such reflection keeps F finite, two make it
    infinite."""
    mats = draw(st.lists(st.sampled_from(PYTHAGOREAN + (ROT_PI_3, ROT_PI_2)),
                         min_size=1, max_size=3))
    return [_about(m, (draw(small), draw(small)), draw(small)) for m in mats]


mixed_scalars = st.builds(lambda q, root: q * root, small,
                          st.sampled_from((1, SQRT2, SQRT3)))


@st.composite
def mixed_field_sets(draw):
    """Rational linear parts, translations over Q(sqrt(2)) and Q(sqrt(3)):
    some walks mix the two fields in one value, some never do."""
    mats = (MAT2_ID, ROT_PI, ROT_PI_2, REFLECT) + PYTHAGOREAN
    return [HeisIsometry(draw(st.sampled_from(mats)),
                         HeisPoint(draw(mixed_scalars), draw(mixed_scalars),
                                   draw(small)))
            for _ in range(draw(st.integers(1, 4)))]


@st.composite
def order12_sets(draw):
    """A rotation of order 12 among D12 elements and translations."""
    gens = draw(generator_sets)
    gens.insert(draw(st.integers(0, len(gens))),
                _about(draw(st.sampled_from(ORDER_12)),
                       (draw(small), draw(small)), draw(small)))
    return gens


@st.composite
def mixed_discriminant_sets(draw):
    """A rotation part over Q(sqrt(3)) and a translation over Q(sqrt(2))."""
    gens = draw(order12_sets())
    t = (draw(small.filter(bool)) * SQRT2, draw(planar_scalars()))
    gens.insert(draw(st.integers(0, len(gens))),
                HeisIsometry(draw(st.sampled_from(D12)),
                             HeisPoint(*draw(st.permutations(t)), 0)))
    return gens


@st.composite
def over_cap_sets(draw):
    """All of D12 and one reflection more: 25 linear parts."""
    mats = list(D12)
    mats.insert(draw(st.integers(0, 24)), draw(st.sampled_from(PYTHAGOREAN)))
    return [HeisIsometry.point_symmetry(m) for m in mats]


WALK_FAMILIES = {**FAMILIES, "pythagorean_sets": pythagorean_sets(),
                 "mixed_field_sets": mixed_field_sets(),
                 "order12_sets": order12_sets(),
                 "mixed_discriminant_sets": mixed_discriminant_sets(),
                 "over_cap_sets": over_cap_sets()}


# phi: sqrt(2) -> 7/5, sqrt(3) -> 26/15, a Q-linear map of the Q-span of
# 1, sqrt(2), sqrt(3); it commutes with rational linear parts
PHI = {2: Fraction(7, 5), 3: Fraction(26, 15)}


def _phi(x):
    if not isinstance(x, QuadRat):
        return x
    return x.a + (x.b * PHI[x.d] if x.b else 0)


def integer_walk_under_phi(planar):
    """phi of the integer walk, read off its rows, with the translations
    that phi sends to 0 dropped; the linear parts must be rational, so
    their rows have no sqrt(d) part for phi to map."""
    transversal, rows, radicands, D, r, _ = _schreier_translations(planar)
    roots = [1] + [PHI[d] for d in radicands[1:]]

    def phi_row(row, den=r):
        return tuple(Fraction(sum(map(operator.mul, row[i::2], roots)), den)
                     for i in (0, 1))

    return ({(phi_row(f[:4], D), phi_row(f[4:], D)): phi_row(w)
             for f, w in transversal.items()},
            [t for t in map(phi_row, rows) if any(t)])


def scalar_walk_of_phi(planar):
    return schreier_translations_by_scalars(
        [(rot, tuple(map(_phi, w))) for rot, w in planar])


def integer_walk_as_scalars(planar):
    transversal, rows, radicands, D, r, _ = _schreier_translations(planar)
    return ({(_vector(f[:4], radicands, D), _vector(f[4:], radicands, D)):
             _vector(w, radicands, r) for f, w in transversal.items()},
            [_vector(t, radicands, r) for t in rows])


def _walk_outcome(walk, planar):
    """The transversal and translations in order, or the error raised."""
    try:
        transversal, translations = walk(planar)
    except ValueError as e:
        return type(e), str(e)
    return list(transversal.items()), translations


@pytest.mark.parametrize("family", sorted(WALK_FAMILIES))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_integer_walk_matches_the_scalar_walk(family, data):
    planar = [g.planar_part() for g in data.draw(WALK_FAMILIES[family])]
    if family == "mixed_field_sets":
        # a row may hold sqrt(2) and sqrt(3) in one entry, which no QuadRat
        # holds: compare phi of the walk with the walk of phi of the input
        assert (_walk_outcome(integer_walk_under_phi, planar)
                == _walk_outcome(scalar_walk_of_phi, planar))
        return
    got = _walk_outcome(integer_walk_as_scalars, planar)
    if family == "mixed_discriminant_sets":
        # refused before the walk; the scalar walk may meet another error
        # first, such as an infinite order
        assert got[0] is MixedDiscriminantError
        with pytest.raises(ValueError):
            schreier_translations_by_scalars(planar)
        return
    assert got == _walk_outcome(schreier_translations_by_scalars, planar)
    if family == "over_cap_sets":
        assert got == (ValueError, "linear parts generate too large a group")


def test_the_walk_builds_no_quadrat(monkeypatch):
    planar = [g.planar_part() for g in _nil_generators("rot6;1,0,0;0,1,0")]
    expected = _schreier_translations(planar)

    def refuse(*args):
        raise AssertionError("scalar arithmetic or a closure in a warm walk")

    monkeypatch.setattr(algebra, "_reduced", refuse)
    monkeypatch.setattr(QuadRat, "__mul__", refuse)
    monkeypatch.setattr(intmat, "mat2_mul", refuse)
    monkeypatch.setattr(nil, "mat2_mul", refuse)
    monkeypatch.setattr(nil, "zsqrt_mul", refuse)
    monkeypatch.setattr(nil, "_linear_order", refuse)
    assert _schreier_translations(planar) == expected
    assert len(expected[0]) == 6 and len(expected[1]) == 12


def test_orthogonality_is_checked_once_per_generator(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return intmat.zsqrt_mul(*args)

    monkeypatch.setattr(nil, "zsqrt_mul", counting)
    _, _, elements, edges = _linear_group.__wrapped__((ROT_PI_3, REFLECT))
    assert len(elements) == 12 and len(edges) == 12 * 2
    # one f f^T per generator, then one product per edge
    assert len(calls) == 2 + len(edges) == 26


@pytest.mark.parametrize("rots, message", [
    ((ROT_PI_2, ((1, 1), (0, 1))), "rotation part must be orthogonal"),
    ((((1, 1), (0, 1)), TURN_34), "rotation part must be orthogonal"),
    ((TURN_34, ((1, 1), (0, 1))), _INFINITE_ORDER),
    ((REFLECT, ROT_PI_3, TURN_34), _INFINITE_ORDER),
], ids=["shear-second", "shear-first", "infinite-first", "infinite-last"])
def test_generators_fail_at_their_first_check_in_order(rots, message):
    with pytest.raises(ValueError) as e:
        _linear_group.__wrapped__(rots)
    assert str(e.value) == message


# -- F is closed once per set of integer linear parts ------------------------

def _walk_or_error(planar):
    """The walk with its transversal in order, or the error raised."""
    try:
        transversal, *rest = _schreier_translations(planar)
    except ValueError as e:
        return type(e), str(e)
    return list(transversal.items()), *rest


def _refuse(*args):
    raise AssertionError("a warm walk closed F again")


def _closes_by_scalars(planar) -> bool:
    """Whether the scalar walk closes F from the linear parts alone."""
    try:
        schreier_translations_by_scalars([(rot, (0, 0)) for rot, _ in planar])
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("family", sorted(WALK_FAMILIES))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_a_warm_walk_matches_a_cold_one(family, data):
    # the first call meets the cache the earlier examples left, so a key
    # that two sets of linear parts share shows up as a mismatch
    planar = [g.planar_part() for g in data.draw(WALK_FAMILIES[family])]
    first = _walk_or_error(planar)
    clear_nil_caches()
    cold = _walk_or_error(planar)
    assert first == cold
    cached = _linear_group.cache_info().currsize
    # a closure that fails is not cached; one that closes is, also when
    # the translations then fail to convert
    assert cached == _closes_by_scalars(planar)
    if len(cold) == 6:
        assert cached
    with pytest.MonkeyPatch.context() as patch:
        if cached:
            patch.setattr(nil, "zsqrt_mul", _refuse)
            patch.setattr(nil, "_linear_order", _refuse)
        assert _walk_or_error(planar) == cold
    assert _linear_group.cache_info().currsize == cached


@st.composite
def infinite_order_sets(draw):
    """Both Pythagorean reflections among pythagorean_sets: their product
    is a rotation of infinite order."""
    gens = draw(pythagorean_sets())
    for m in PYTHAGOREAN:
        gens.insert(draw(st.integers(0, len(gens))),
                    _about(m, (draw(small), draw(small)), draw(small)))
    return gens


@pytest.mark.parametrize("sets", [over_cap_sets(), infinite_order_sets()],
                         ids=["over-cap", "infinite-order"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_a_failed_closure_raises_on_every_call(sets, data):
    gens = data.draw(sets)
    planar = [g.planar_part() for g in gens]
    cached = _linear_group.cache_info().currsize
    error = _walk_or_error(planar)
    assert error in ((ValueError, "linear parts generate too large a group"),
                     (ValueError, _INFINITE_ORDER))
    for _ in range(2):
        assert _walk_or_error(planar) == error
        with pytest.raises(ValueError, match=re.escape(error[1])):
            nil_projection_dichotomy(gens)
        assert _linear_group.cache_info().currsize == cached


@pytest.mark.parametrize("gens, entry", [
    ([HeisIsometry.translation(HeisPoint(0.5, 0, 0))], "0.5"),
    ([HeisIsometry.translation(HeisPoint(float("nan"), 0, 0))], "nan"),
], ids=["float", "nan"])
def test_float_entries_are_a_domain_error(gens, entry):
    # documented output change: these raised a raw AttributeError
    with pytest.raises(ValueError, match=re.escape(
            f"exact entries required, not {entry}")):
        nil_projection_dichotomy(gens)


@pytest.mark.parametrize("make, entry", [
    (lambda: HeisIsometry(((0.0, -1.0), (1.0, 0.0)), HEIS_ID), "0.0"),
    (lambda: HeisPoint.of(0.5, 0, 0), "0.5"),
    (lambda: nil_lattice_make((0.5, 0), (0, 1)), "0.5"),
    (lambda: planar_point_group((0.5, 0), (0, 1)), "0.5"),
], ids=["float-rotation", "point", "lattice", "point-group"])
def test_float_entries_are_refused_at_construction(make, entry):
    # documented output change: the rotation, equal to ROT_PI_2, was built
    # and refused only by the walk; the others raised TypeError
    with pytest.raises(ValueError, match=re.escape(
            f"exact entries required, not {entry}")):
        make()


def test_linear_parts_over_two_fields_are_refused_before_the_walk():
    # documented output change: the scalar walk raised at its first mixed
    # product, naming the fields in that product's order, or an order
    # error met before it; the radicands now come sorted, up front
    h = QuadRat(0, HALF, 2)
    gens = [HeisIsometry.point_symmetry(m)
            for m in (REFLECT, ((h, h), (h, -h)), ROT_PI_3)]
    with pytest.raises(ValueError) as scalar:
        schreier_translations_by_scalars([g.planar_part() for g in gens])
    assert str(scalar.value) == "order 8 is not exactly representable"
    with pytest.raises(MixedDiscriminantError,
                       match=re.escape("cannot mix sqrt(2) with sqrt(3)")):
        nil_projection_dichotomy(gens)


# -- T's rank and covolume from an echelon basis, with no snf -----------------

def _records(xs) -> list:
    return [(x, type(x), getattr(x, "d", None), repr(x)) for x in xs]


def _dichotomy_outcome(dichotomy, gens):
    """The verdict with the value, type, field and repr of each scalar it
    reports, or the domain error raised."""
    try:
        res = dichotomy(gens)
    except ValueError as e:
        return type(e), str(e)
    w = res.witness
    return res, _records([*(res.point or ()), *(res.direction or ()),
                          *((w.x, w.y, w.z) if w else ())])


@pytest.mark.parametrize("family", sorted(WALK_FAMILIES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_the_echelon_route_matches_the_zspan_route(family, data):
    gens = data.draw(WALK_FAMILIES[family])
    assert (_dichotomy_outcome(nil_projection_dichotomy, gens)
            == _dichotomy_outcome(dichotomy_by_zspan, gens))


@st.composite
def integer_row_sets(draw):
    """(rows, radicands, r) as `integer_rows` gives them: nonzero rows of
    width 2, 4 or 6, integer combinations of 0-4 random rows, so of rank
    0-4, often repeated."""
    radicands = draw(st.sampled_from(((1,), (1, 2), (1, 3), (1, 2, 3),
                                      (1, 3, 5))))
    width = 2 * len(radicands)
    entry = st.integers(-6, 6)
    base = draw(st.lists(st.lists(entry, min_size=width, max_size=width),
                         max_size=4))
    coeffs = st.lists(st.integers(-3, 3), min_size=len(base),
                      max_size=len(base))
    rows = [tuple(sum(c * b[k] for c, b in zip(cs, base))
                  for k in range(width))
            for cs in draw(st.lists(coeffs, min_size=1, max_size=8))]
    return ([row for row in rows if any(row)], radicands,
            draw(st.integers(1, 12)))


def _covolume_outcome(covolume, rows, radicands, r):
    try:
        value = covolume(rows, radicands, r)
    except ValueError as e:
        return type(e), str(e)
    return value if value is None else _records([value])


@settings(max_examples=300, deadline=None)
@given(integer_row_sets())
@example(([(2, 0), (0, 3), (1, 1)], (1,), 2))         # t_0, t_1: index 6
@example(([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)], (1, 3), 1))  # rank 3
@example(([(4, 0, 0, 6), (6, 0, 0, 4), (0, 2, 2, 0)], (1, 3), 5))
@example(([(1, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 1)], (1, 2, 3), 1))  # 2 fields
@example(([(1, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 0, 1)],
          (1, 2, 3), 3))                                # rank 3
def test_the_echelon_covolume_matches_the_zspan_one(case):
    rows, radicands, r = case
    if not rows or not any(cross_parts(radicands, rows[0], row)
                           for row in rows):
        return          # T lies in a line: the dichotomy spans nothing
    assert (_covolume_outcome(_lattice_covolume, *case)
            == _covolume_outcome(covolume_by_zspan, *case))


def _refuse_snf(*args):
    raise AssertionError("a Smith normal form in the dichotomy")


@pytest.mark.parametrize("family", sorted(WALK_FAMILIES))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_the_dichotomy_runs_no_snf(family, data):
    gens = data.draw(WALK_FAMILIES[family])
    expected = _dichotomy_outcome(nil_projection_dichotomy, gens)
    with pytest.MonkeyPatch.context() as patch:
        for module in (intmat, nil):
            for name, obj in list(vars(module).items()):
                if obj is intmat.snf:
                    patch.setattr(module, name, _refuse_snf)
        assert _dichotomy_outcome(nil_projection_dichotomy, gens) == expected


# -- the linear parts are converted once per set ------------------------------

def test_clear_nil_caches_empties_every_cache():
    assert sorted(nil_caches()) == ["nil._adjoined_counts",
                                    "nil._linear_group",
                                    "plane.point_group_of_rows"]
    # bounded, so that a long-lived process cannot grow one without end
    assert all(isinstance(c.cache_info().maxsize, int)
               for c in nil_caches().values())
    nil_projection_dichotomy(_nil_generators("rot6;1,0,0;0,1,0"))
    planar_point_group((1, 0), (0, 1))
    nil_quotient_isometry(lattice_gp(2), extra=[ROT_PI_2])
    assert all(c.cache_info().currsize for c in nil_caches().values())
    clear_nil_caches()
    assert not any(c.cache_info().currsize for c in nil_caches().values())


def _relabelled_rotation(g, labels):
    """g with each rational entry of its rotation relabelled, by the next
    of `labels`, as a Fraction or as a rational QuadRat of Q(sqrt(5)):
    equal in value, so it keys the same cache entry."""
    def relabel(x):
        if not scalar_is_rational(x):
            return x
        x = x.a if isinstance(x, QuadRat) else x
        return QuadRat(x, 0, 5) if next(labels) else Fraction(x)
    return HeisIsometry(tuple(tuple(map(relabel, row)) for row in g.rot),
                        g.trans)


def _walk_and_verdict(gens):
    """The integer walk and the verdict in canonical JSON, or the error."""
    try:
        walk = _walk_or_error([g.planar_part() for g in gens])
        return walk, canonical_json(nil_projection_dichotomy(gens)
                                    .to_json_dict())
    except ValueError as e:
        return type(e), str(e)


@pytest.mark.parametrize("family", sorted(WALK_FAMILIES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_cold_warm_and_relabelled_linear_parts_agree(family, data):
    gens = data.draw(WALK_FAMILIES[family])
    labels = iter(data.draw(st.lists(st.booleans(), min_size=4 * len(gens),
                                     max_size=4 * len(gens))))
    relabelled = [_relabelled_rotation(g, labels) for g in gens]
    clear_nil_caches()
    cold = _walk_and_verdict(gens)
    cached = _linear_group.cache_info().currsize
    assert cached <= 1
    for again in (gens, relabelled):
        hits = _linear_group.cache_info().hits
        assert _walk_and_verdict(again) == cold
        assert _linear_group.cache_info().currsize == cached
        assert _linear_group.cache_info().hits >= hits + cached
    clear_nil_caches()
    assert _walk_and_verdict(relabelled) == cold


def test_a_failed_conversion_raises_on_every_call():
    h = QuadRat(0, HALF, 2)
    gens = [HeisIsometry.point_symmetry(m)
            for m in (((h, h), (h, -h)), ROT_PI_3)]
    clear_nil_caches()
    for _ in range(2):
        with pytest.raises(MixedDiscriminantError,
                           match=re.escape("cannot mix sqrt(2) with sqrt(3)")):
            nil_projection_dichotomy(gens)
        assert _linear_group.cache_info().currsize == 0


def test_a_float_translation_raises_after_a_warm_hit():
    nil_projection_dichotomy([HeisIsometry(ROT_PI_2, HeisPoint.of(1, 0, 0))])
    hits = _linear_group.cache_info().hits
    with pytest.raises(ValueError, match=re.escape(
            "exact entries required, not 0.5")):
        nil_projection_dichotomy(
            [HeisIsometry(ROT_PI_2, HeisPoint(0.5, 0, 0))])
    # one hit for the check of the new HeisIsometry, one for the walk
    assert _linear_group.cache_info().hits == hits + 2


def test_a_relabelled_rotation_shares_the_cache_entry_of_its_twin():
    clear_nil_caches()
    HeisIsometry.point_symmetry(PYTHAGOREAN[0])
    hits = _linear_group.cache_info().hits
    HeisIsometry.point_symmetry(tuple(tuple(QuadRat(x, 0, 5) for x in row)
                                      for row in PYTHAGOREAN[0]))
    assert _linear_group.cache_info()[:2] == (hits + 1, 1)  # hits, misses


# -- the invariant line on the walk's integer generators ---------------------

HEX_REFLECT = ((HALF, QuadRat(0, HALF, 3)), (QuadRat(0, HALF, 3), -HALF))


def _line_direction(gens):
    res = nil_projection_dichotomy(gens)
    assert res.kind == FIXES_LINE
    return res.direction


def test_a_line_direction_is_rebuilt_from_integer_rows():
    # documented output change: the direction came back in the caller's
    # types, (2, 0) as ints, and (QuadRat(2, 0, 5), 0) for the same
    # reflection with QuadRat(1, 0, 5) entries
    shift = HeisIsometry.translation(HeisPoint.of(1, 0, 0))
    labelled = tuple(tuple(QuadRat(x, 0, 5) for x in row) for row in REFLECT)
    for rot in (REFLECT, labelled):
        direction = _line_direction([HeisIsometry.point_symmetry(rot), shift])
        assert _records(direction) == _records((Fraction(2), Fraction(0)))


def test_a_line_across_two_fields_is_answered():
    # documented output change: converting t0 = ((8 sqrt(2) + 4 sqrt(3)) /
    # 5) (1, 1/2) to scalars for the parallel test raised
    # MixedDiscriminantError; the test now runs on integer rows
    sigma = PYTHAGOREAN[0]
    gens = [HeisIsometry(sigma, HeisPoint(SQRT2, SQRT3, 0))]
    planar = [g.planar_part() for g in gens]
    _, rows, radicands, D, r, _ = _schreier_translations(planar)
    with pytest.raises(MixedDiscriminantError):
        invariant_direction_by_scalars(planar, _vector(rows[0], radicands, r))
    direction = _line_direction(gens)
    assert direction == (Fraction(8, 5), Fraction(4, 5))
    assert mat2_apply(sigma, direction) == direction
    along = (8, 4) + (0,) * (len(rows[0]) - 2)          # 5 * direction
    assert rows and not any(cross_parts(radicands, along, t) for t in rows)


def test_an_infinite_closure_is_refused_before_the_translations():
    # documented output change: the translations were converted first, and
    # sqrt(2) beside the sqrt(3) of the hexagonal reflection raised
    # MixedDiscriminantError
    gens = [HeisIsometry.point_symmetry(HEX_REFLECT),
            HeisIsometry.point_symmetry(PYTHAGOREAN[0]),
            HeisIsometry.translation(HeisPoint(SQRT2, 0, 0))]
    with pytest.raises(ValueError) as error:
        nil_projection_dichotomy(gens)
    assert type(error.value) is ValueError
    assert str(error.value) == _INFINITE_ORDER


@pytest.mark.parametrize("family", sorted(WALK_FAMILIES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_the_integer_direction_matches_the_scalar_one(family, data):
    gens = data.draw(WALK_FAMILIES[family])
    planar = [g.planar_part() for g in gens]
    try:
        _, rows, radicands, D, r, _ = _schreier_translations(planar)
    except ValueError:
        return
    if not rows or any(cross_parts(radicands, rows[0], t) for t in rows):
        return          # T is 0 or spans the plane: no line from T
    try:
        expected = invariant_direction_by_scalars(
            planar, _vector(rows[0], radicands, r))
    except MixedDiscriminantError:
        return          # the oracle multiplies two fields
    assert _line_direction(gens) == expected


def _refuse_scalars(*args):
    raise AssertionError("scalar arithmetic on the line path")


@pytest.mark.parametrize("gens", [
    [HeisIsometry(HEX_REFLECT, HeisPoint(SQRT3, 1, 0))],
    [HeisIsometry.point_symmetry(HEX_REFLECT),
     HeisIsometry.translation(HeisPoint(-1, SQRT3, 0))],
    [HeisIsometry(ROT_PI, HeisPoint(SQRT3, 1, 0)),
     HeisIsometry(ROT_PI, HeisPoint(0, HALF, 0))],
], ids=["reflection-along", "reflection-across", "two-minus-I"])
def test_the_line_path_uses_no_scalar_arithmetic(gens, monkeypatch):
    expected = _line_direction(gens)
    monkeypatch.setattr(QuadRat, "__mul__", _refuse_scalars)
    for name in ("mat2_mul", "mat2_det", "vec2_cross"):
        monkeypatch.setattr(nil, name, _refuse_scalars)
    assert _line_direction(gens) == expected


# -- the lattice frame on integers read once ---------------------------------

def _frame_outcome(build, lat):
    """The records of (key, P, C, ca, cb, cn) of a frame, or the kind and
    text of the error building it raises."""
    try:
        key, *scales = build(lat)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return _records(key) + _records(scales)


def _integer_frame(lat):
    frame = _LatticeFrame(lat)
    return frame._key, frame.P, frame.C, frame.ca, frame.cb, frame.cn


# r and s over Q or Q(sqrt(3)), a rational one also as a QuadRat
frame_offsets = st.one_of(
    offsets, st.builds(QuadRat, offsets, offsets, st.just(3)),
    st.builds(QuadRat, offsets, st.just(0), st.sampled_from([3, 5])))


@settings(max_examples=200, deadline=None)
@given(exact_bases(), frame_offsets, frame_offsets, st.integers(1, 6))
@example(HEX, QuadRat(HALF, Fraction(1, 3), 3), Fraction(-2, 3), 5)
def test_frame_matches_the_fraction_frame(basis, r, s, n):
    # the integers off one integer_rows equal, in value and type, those the
    # frame built from Fraction and QuadRat products
    lat = nil_lattice_make(*basis, r=r, s=s, n=n)
    assert _frame_outcome(_integer_frame, lat) \
        == _frame_outcome(lattice_frame_by_fractions, lat)


SQRT3_Z2 = ((SQRT3, 0), (0, SQRT3))
# r and s over Q, Q(sqrt(2)), Q(sqrt(3)) or Q(sqrt(5))
field_offsets = offsets | st.builds(QuadRat, offsets, offsets,
                                    st.sampled_from([2, 3, 5]))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([((1, 0), (0, 1)), HEX, SQRT3_Z2,
                        ((SQRT3, 0), (SQRT3, 2 * SQRT3)),
                        ((HALF * SQRT3, Fraction(3, 2)), (SQRT3, 0)),
                        ((1, 0), (Fraction(1, 3), Fraction(7, 5)))]),
       field_offsets, field_offsets, st.integers(1, 4))
@example(HEX, QuadRat(0, 1, 2), 0, 1)
@example(((1, 0), (0, 1)), 0, QuadRat(1, 1, 2), 1)
@example(SQRT3_Z2, QuadRat(0, 1, 2), QuadRat(1, 1, 2), 2)
def test_a_lattice_over_two_fields_meets_the_fraction_frame(basis, r, s, n):
    # the error, and its text, where the products met two fields, or the
    # frame where the five values came to lie in one field
    lat = nil_lattice_make(*basis, r=r, s=s, n=n)
    assert _frame_outcome(_integer_frame, lat) \
        == _frame_outcome(lattice_frame_by_fractions, lat)


@pytest.mark.parametrize("basis, r, s, text", [
    (HEX, QuadRat(0, 1, 2), 0, "cannot mix sqrt(3) with sqrt(2)"),
    (((1, 0), (0, 1)), QuadRat(0, 1, 5), QuadRat(0, 1, 2),
     "cannot mix sqrt(2) with sqrt(5)"),
    (SQRT3_Z2, QuadRat(0, 1, 2), SQRT3, "cannot mix sqrt(2) with sqrt(3)"),
    (SQRT3_Z2, QuadRat(0, 1, 2), QuadRat(1, 1, 2), None),
])
def test_two_fields_are_refused_as_the_products_met_them(basis, r, s, text):
    # hex: 2 scale r multiplies sqrt(3) by sqrt(2) first; sqrt(3) Z^2 has
    # rational lam, a, b, c, so r, s in Q(sqrt(2)) leave one field
    lat = nil_lattice_make(*basis, r=r, s=s)
    if text is None:
        assert _LatticeFrame(lat).ra == QuadRat(0, 2, 2)     # 3 (2/3 sqrt(2))
        return
    with pytest.raises(MixedDiscriminantError, match=re.escape(text)):
        _LatticeFrame(lat)
