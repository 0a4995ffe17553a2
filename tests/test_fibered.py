"""Sasaki metric on the unit tangent bundle, and S^2 x R decompositions."""

import itertools
import math
import random
import re
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from geom3.fibered import (
    LAMBDA_Z,
    LAMBDA_Z_SEMIDIRECT,
    S1_ONLY,
    S1_X_S1,
    SL2_BASIS,
    SO3_X_S1,
    TRIVIAL_L,
    NonDiscreteShiftError,
    S2R_ROT_ID,
    S2RIsometry,
    TangentVector,
    christoffel_h2,
    frame_at_identity,
    hv_decompose,
    psl2_quotient_isometry,
    s2r_decompose,
    s2r_quotient_identity_component,
    s2r_rotation_z,
    sasaki_inner,
    sasaki_norm,
    unit_tangent_embed,
)
from geom3 import fibered
from geom3.fibered import S2RDecomposition, _rot_key, _rot_pow
from geom3.hyperbolic import FloatRangeError, MobiusMap, expm_sl2, mobius_apply
from geom3.intmat import matmul, transpose
from geom3.zimmer import quotient_isometry_summary
from support import (
    deadline,
    s2r_decompose_by_ball,
    s2r_decompose_by_matmul,
    s2r_identity_component_by_axes,
    tangent_action,
)
from test_hyperbolic import random_sl2

RHO_Z = ((-1, 0, 0), (0, -1, 0), (0, 0, 1))
RHO_X = ((1, 0, 0), (0, -1, 0), (0, 0, -1))


def test_christoffel_display():
    assert christoffel_h2(1j, 1, 2, 1) == -1.0
    assert christoffel_h2(1j, 2, 1, 1) == -1.0
    assert christoffel_h2(1j, 2, 2, 2) == -1.0
    assert christoffel_h2(2j, 1, 1, 2) == 0.5
    assert christoffel_h2(1j, 1, 1, 1) == 0.0
    assert christoffel_h2(1j, 2, 2, 1) == 0.0
    with pytest.raises(ValueError):
        christoffel_h2(-1j, 1, 1, 1)
    with pytest.raises(ValueError):
        christoffel_h2(1j, 0, 1, 1)


def test_sasaki_norm_examples():
    assert abs(sasaki_norm(TangentVector(1j, 1, 0, 2j)) - 2.0) < 1e-12
    assert sasaki_norm(TangentVector(1j, 1, 0, 0)) == 0.0
    t1 = TangentVector(1j, 1, 2j, 2)
    t3 = TangentVector(1j, 1, 2, -2j)
    assert abs(sasaki_inner(t1, t3)) < 1e-12
    assert abs(sasaki_norm(t1) - sasaki_norm(t3)) < 1e-12


def test_hv_decompose_displayed_split():
    # at (i, 1): vertical part (0, Z - X^2 + X^1 i)
    rng = random.Random(3)
    for _ in range(25):
        x = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        t = TangentVector(1j, 1, x, z)
        h, v = hv_decompose(t)
        assert abs(v.vec_Z - (z - x.imag + x.real * 1j)) < 1e-12
        assert abs(h.vec_Z - (x.imag - x.real * 1j)) < 1e-12


def test_hv_decompose_general_points():
    rng = random.Random(5)
    for _ in range(40):
        base = complex(rng.uniform(-2, 2), rng.uniform(0.3, 3))
        t = TangentVector(base,
                          complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                          complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                          complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
        h, v = hv_decompose(t)
        assert abs(h.vec_X + v.vec_X - t.vec_X) < 1e-12
        assert abs(h.vec_Z + v.vec_Z - t.vec_Z) < 1e-12
        assert abs(sasaki_inner(h, v)) < 1e-10
        assert v.vec_X == 0


def test_a_norm_whose_square_overflows_is_answered():
    # the norm of X = 1 at height 1e-100, w = 1, is about 1e200; its
    # square, 1e400, once reached the JSON encoder as inf
    t = TangentVector(1e-100j, 1, 1, 0)
    assert sasaki_norm(t) == pytest.approx(1e200, rel=1e-15)


_BEYOND_RANGE = {
    "norm-1e400": lambda: sasaki_norm(TangentVector(1e-200j, 1, 1, 0)),
    "norm-5e-624": lambda: sasaki_norm(TangentVector(1e300j, 0, 0, 5e-324)),
    "inner-1e-400": lambda: sasaki_inner(TangentVector(1j, 0, 0, 1e-200),
                                         TangentVector(1j, 0, 0, 1e-200)),
    "connection-1e320": lambda: hv_decompose(
        TangentVector(1e-320j, 1, 1, 0)),
    "connection-1e-400": lambda: hv_decompose(
        TangentVector(1j, 1e-200, 1e-200, 0)),
    "christoffel-1e320": lambda: christoffel_h2(1e-320j, 2, 2, 2),
}


@pytest.mark.parametrize("case", _BEYOND_RANGE)
def test_values_beyond_the_float_range_are_a_domain_error(case):
    # the connection term and the Christoffel symbol once reached the JSON
    # encoder as -inf, and a norm of 1e400 divided by a height squared to 0
    with pytest.raises(FloatRangeError, match="beyond the float range"):
        _BEYOND_RANGE[case]()


_COORD = st.floats(-4, 4, allow_subnormal=False)


def _rounded(x):
    """The exact x rounded once, or FloatRangeError when x != 0 rounds
    to 0."""
    value = float(x)
    return FloatRangeError if x and not value else value


def _answer(call):
    """What call() answers, or FloatRangeError when it raises that."""
    try:
        return call()
    except FloatRangeError:
        return FloatRangeError


@given(st.floats(0.01, 4), _COORD, _COORD, _COORD, _COORD, _COORD, _COORD)
@example(1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 3.4340348882484964e-196)
def test_the_metric_is_its_exact_value_rounded_once(y, w1, w2, x1, x2,
                                                     z1, z2):
    # each reported coordinate is the exact value of the formula at the
    # float inputs, rounded once, or FloatRangeError when a nonzero one
    # rounds to 0 (Z = 3.4e-196 i has an inner product of 1.2e-391); the
    # float formula agrees to 1e-12
    base, w, x, z = complex(0.5, y), complex(w1, w2), complex(x1, x2), \
        complex(z1, z2)
    t = TangentVector(base, w, x, z)
    fy, fw1, fw2, fx1, fx2, fz1, fz2 = map(Fraction, (y, w1, w2, x1, x2,
                                                      z1, z2))
    c1 = -(fw1 * fx2 + fw2 * fx1) / fy
    c2 = (fw1 * fx1 - fw2 * fx2) / fy
    coords = [_rounded(c) for c in (-c1, -c2, fz1 + c1, fz2 + c2)]
    parts = _answer(lambda: [p.vec_Z for p in hv_decompose(t)])
    if FloatRangeError in coords:
        assert parts is FloatRangeError
    else:
        assert parts == [complex(*coords[:2]), complex(*coords[2:])]
        corr = complex(-(w1 * x2 + w2 * x1) / y, (w1 * x1 - w2 * x2) / y)
        assert abs(parts[1] - (z + corr)) <= 1e-12 * (1 + abs(z + corr))
    inner = (fx1 ** 2 + fx2 ** 2 + (fz1 + c1) ** 2 + (fz2 + c2) ** 2) \
        / fy ** 2
    assert _answer(lambda: sasaki_inner(t, t)) == _rounded(inner)
    with localcontext() as ctx:
        ctx.prec = 60
        root = _rounded((Decimal(inner.numerator) / inner.denominator).sqrt())
    norm = _answer(lambda: sasaki_norm(t))
    if root is FloatRangeError:
        assert norm is FloatRangeError
    else:
        assert abs(norm - root) <= 2 * math.ulp(norm)


def test_embed_examples():
    z, w = unit_tangent_embed(MobiusMap.identity())
    assert abs(z - 1j) < 1e-12 and abs(w - 1) < 1e-12
    t = 0.43
    z1, w1 = unit_tangent_embed(expm_sl2(SL2_BASIS[0], t))
    assert abs(z1 - math.exp(2 * t) * 1j) < 1e-10
    assert abs(w1 - math.exp(2 * t)) < 1e-10
    z2, w2 = unit_tangent_embed(expm_sl2(SL2_BASIS[1], t))
    assert abs(z2 - 1j) < 1e-10
    assert abs(w2 - complex(math.cos(2 * t), math.sin(2 * t))) < 1e-10


def test_embed_rounds_the_exact_orbit_point_once():
    # z is the image of i, and w = 1 / (c i + d)^2, from the integers
    rng = random.Random(11)
    for _ in range(50):
        m = random_sl2(rng)
        z, w = unit_tangent_embed(m)
        assert z == mobius_apply(m, 1j)
        A, B, C, D = (Fraction(v) for v in m._ints)
        den = (C * C + D * D) ** 2
        delta = A * D - B * C
        assert w == complex(float(delta * (D * D - C * C) / den),
                            float(-2 * delta * C * D / den))
    # far out, both coordinates of w stay floats
    z, w = unit_tangent_embed(MobiusMap(10**150, 0, 0, Fraction(1, 10**150)))
    assert (z, w) == (1e300j, 1e300 + 0j)


@pytest.mark.parametrize("m", [(10**200, 0, 0, Fraction(1, 10**200)),
                               (Fraction(1, 10**200), 0, 0, 10**200),
                               (10**700, 0, 0, 1)],
                         ids=["z-1e400", "z-1e-400", "z-1e700"])
def test_embed_beyond_the_float_range_is_a_domain_error(m):
    with pytest.raises(FloatRangeError, match="an entry"):
        unit_tangent_embed(MobiusMap(*m))


def test_embed_is_equivariant_and_unit():
    rng = random.Random(7)
    for _ in range(100):
        m1, m2 = random_sl2(rng), random_sl2(rng)
        direct = unit_tangent_embed(m1.compose(m2))
        staged = tangent_action(m1, unit_tangent_embed(m2))
        assert abs(direct[0] - staged[0]) < 1e-10
        assert abs(direct[1] - staged[1]) < 1e-10
        z, w = direct
        assert abs(abs(w) / z.imag - 1.0) < 1e-10


def test_frame_matches_display_and_is_orthonormal():
    frame = frame_at_identity()
    refs = ((2j, 2), (0, 2j), (2, -2j))
    for v, (rx, rz) in zip(frame, refs):
        assert abs(v.vec_X - rx) < 1e-5
        assert abs(v.vec_Z - rz) < 1e-5
    halves = [TangentVector(1j, 1, v.vec_X / 2, v.vec_Z / 2) for v in frame]
    for i, j in itertools.combinations_with_replacement(range(3), 2):
        inner = sasaki_inner(halves[i], halves[j])
        assert abs(inner - (1.0 if i == j else 0.0)) < 1e-8


def test_s2r_compose_inverse():
    g = S2RIsometry(s2r_rotation_z(0.8), 1.5, flip=-1)
    h = S2RIsometry(RHO_X, -0.4)
    prod = g.compose(h)
    assert prod.flip == -1
    gi = g.compose(g.inverse())
    assert abs(float(gi.shift)) < 1e-12 and gi.flip == 1


def test_s2r_products_agree_with_the_checked_constructor():
    # compose and inverse skip the orthogonality check; what they build
    # must pass it and equal the element the public constructor builds
    gens = [S2RIsometry(s2r_rotation_z(0.8), 1.5, flip=-1),
            S2RIsometry(RHO_X, Fraction(-2, 5)), S2RIsometry(RHO_Z, 0)]
    for g, h in itertools.product(gens, repeat=2):
        for el in (g.compose(h), g.compose(h).inverse(), g.inverse()):
            assert S2RIsometry(el.rot, el.shift, el.flip) == el


# -- the closed-form split against the word ball -----------------------------

_SHIFTS = {"float": (1.5, 0.0), "int": (2, 0), "fraction": (Fraction(3, 2), 0)}
_R_PI = {"float": ((-1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, 1.0)),
         "int": RHO_Z,
         "fraction": tuple(tuple(map(Fraction, row)) for row in RHO_Z)}
GOLDEN = (math.sqrt(5) - 1) / 2
ROT_345 = ((Fraction(3, 5), Fraction(-4, 5), 0),
           (Fraction(4, 5), Fraction(3, 5), 0), (0, 0, 1))
ROT_4 = ((0, -1, 0), (1, 0, 0), (0, 0, 1))


def _cyclic_or_dihedral(order, dihedral, flip, shifts):
    """<(I, lam), (R_z(2 pi/order), 0)[, (R_x(pi), 0)][, (I, 0, flip)]>."""
    lam, zero = _SHIFTS[shifts]
    gens = [S2RIsometry(S2R_ROT_ID, lam)]
    if order > 1:
        gens.append(S2RIsometry(s2r_rotation_z(2 * math.pi / order), zero))
    if dihedral:
        gens.append(S2RIsometry(RHO_X, zero))
    if flip:
        gens.append(S2RIsometry(S2R_ROT_ID, zero, flip=-1))
    return gens


FAMILIES = [(order, dihedral, flip, shifts) for shifts in sorted(_SHIFTS)
            for flip in (False, True) for dihedral in (False, True)
            for order in range(1, 13)]


def _invariants(dec) -> tuple:
    """l_type, lam (floats to 9 digits), |F| and, for a compact quotient,
    the identity component of its isometry group."""
    lam = dec.lam
    if isinstance(lam, float):
        lam = round(lam, 9)
    component = None
    if dec.l_type != TRIVIAL_L and dec.lam is not None:
        component = s2r_quotient_identity_component(dec)
    return dec.l_type, type(dec.lam), lam, dec.f_order_bound, component


def _outcome(decompose, gens, bound) -> tuple:
    try:
        return _invariants(decompose(gens, bound))
    except NonDiscreteShiftError:
        return ("NonDiscreteShiftError",)


@pytest.mark.parametrize("shifts", sorted(_SHIFTS))
@pytest.mark.parametrize("flip", [False, True])
@pytest.mark.parametrize("dihedral", [False, True])
def test_ball_matches_one_product_per_candidate(dihedral, flip, shifts):
    """The split read off the word ball of one product per candidate
    (`s2r_decompose_by_ball`) matches the closed form."""
    # words of length order // 2 + 1 reach every rotation of F, and one
    # more the least shift: the ball's answer is final there
    for order in range(1, 13):
        gens = _cyclic_or_dihedral(order, dihedral, flip, shifts)
        bound = order // 2 + 2
        want = _invariants(s2r_decompose_by_ball(gens, bound))
        assert _invariants(s2r_decompose_by_ball(gens, bound + 1)) == want
        assert _invariants(s2r_decompose(gens)) == want
        assert want[3] == order * (2 if dihedral else 1)


@pytest.mark.parametrize("gens, bound", [
    # the irrational twist: one generator, so F is trivial
    ([S2RIsometry(s2r_rotation_z(1.0), 1.0)], 16),
    # (R_z(1 rad), 1) (I, 1)^-1 = (R_z(1 rad), 0) has infinite order: the
    # ball never settles
    ([S2RIsometry(s2r_rotation_z(1.0), 1.0), S2RIsometry(S2R_ROT_ID, 1.0)],
     None),
    # equal entries of different types: 1.0, 1 and Fraction(1)
    ([S2RIsometry(_R_PI["float"], 1.0), S2RIsometry(_R_PI["int"], 0.0)], 16),
    ([S2RIsometry(_R_PI["fraction"], 1), S2RIsometry(_R_PI["int"], 0)], 16),
    # list-valued rotations
    ([S2RIsometry([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 1),
      S2RIsometry([list(row) for row in RHO_Z], 0)], 16),
    # F is not generated by the k_j alone: conjugating R_x(pi) by the
    # twist R_z(pi/2) gives R_y(pi), so |F| = 4
    ([S2RIsometry(ROT_4, 1), S2RIsometry(RHO_X, 0)], 8),
    # the flip swaps x and y, so it conjugates R_x(pi) into R_y(pi): F
    # has both, and their product R_z(pi)
    ([S2RIsometry(S2R_ROT_ID, 1), S2RIsometry(RHO_X, 0),
      S2RIsometry(((0, 1, 0), (1, 0, 0), (0, 0, -1)), 0, flip=-1)], 6),
    # the least shift is no generator's: gcd(5, 3) = 1
    ([S2RIsometry(S2R_ROT_ID, 5), S2RIsometry(S2R_ROT_ID, 3)], 16),
    ([S2RIsometry(RHO_Z, Fraction(5, 2)), S2RIsometry(RHO_X, Fraction(3, 2))],
     12),
    # dense shifts, and two irrational rotations that outgrow BALL_CAP
    ([S2RIsometry(S2R_ROT_ID, 1.0), S2RIsometry(S2R_ROT_ID, GOLDEN)], 16),
    ([S2RIsometry(s2r_rotation_z(1.0), 0.0),
      S2RIsometry(((1.0, 0.0, 0.0), (0.0, math.cos(1.0), -math.sin(1.0)),
                   (0.0, math.sin(1.0), math.cos(1.0))), 0.0)], 16),
], ids=["twist", "twist-and-shift", "float-and-int-pi",
        "fraction-and-int-pi", "lists", "twisted-f", "flip-conjugates",
        "shifts-5-3", "fraction-gcd", "golden", "cap"])
def test_ball_matches_one_product_per_candidate_on_edge_cases(gens, bound):
    """As above, at the given bound.  Bound None marks a group whose ball
    gains elements over the shift 0 at every bound (1, 3, 9 and 13 at
    bounds 1, 2, 8 and 12), which the closed form proves non-discrete."""
    if bound is None:
        sizes = [s2r_decompose_by_ball(gens, b).f_order_bound
                 for b in (1, 2, 8, 12)]
        assert sizes == [1, 3, 9, 13]
        with pytest.raises(NonDiscreteShiftError):
            s2r_decompose(gens)
        return
    assert _outcome(s2r_decompose, gens, 0) \
        == _outcome(s2r_decompose_by_ball, gens, bound)


def test_word_bound_changes_no_answer():
    cases = [_cyclic_or_dihedral(*family) for family in FAMILIES]
    cases += [[S2RIsometry(S2R_ROT_ID, 5), S2RIsometry(S2R_ROT_ID, 3)],
              [S2RIsometry(ROT_4, 1), S2RIsometry(RHO_X, 0)],
              [S2RIsometry(S2R_ROT_ID, 1), S2RIsometry(S2R_ROT_ID,
                                                       Fraction(2, 5), -1)]]
    for gens in cases:
        assert s2r_decompose(gens, word_bound=0) \
            == s2r_decompose(gens, word_bound=16)


def _conjugate(gens, by):
    by_inv = by.inverse()
    return [by.compose(g).compose(by_inv) for g in gens]


def test_split_is_invariant_under_conjugation():
    # by a translation of R and by an exact and a float rotation of S^2
    axes = ((0, 0, 1), (1, 0, 0), (0, 1, 0))
    skew = tuple(map(tuple, _rodrigues((1, 2, 3), 0.7)))
    for order, dihedral, flip, shifts in FAMILIES:
        gens = _cyclic_or_dihedral(order, dihedral, flip, shifts)
        l_type, _, lam, order_f, component = _invariants(s2r_decompose(gens))
        shift = 0.37 if shifts == "float" else Fraction(1, 3)
        for by in (S2RIsometry(S2R_ROT_ID, shift), S2RIsometry(axes, 0),
                   S2RIsometry(skew, 0)):
            got = _invariants(s2r_decompose(_conjugate(gens, by)))
            # a Fraction translation turns int shifts into Fractions
            assert got[:1] + got[2:] == (l_type, lam, order_f, component)
    # a reflection's shift moves under a translation; lam does not
    gens = [S2RIsometry(S2R_ROT_ID, 1),
            S2RIsometry(S2R_ROT_ID, Fraction(1, 2), flip=-1)]
    for shift in (Fraction(1, 3), Fraction(1, 4), 5):
        moved = s2r_decompose(_conjugate(gens,
                                         S2RIsometry(S2R_ROT_ID, shift)))
        assert (moved.l_type, moved.lam) == (LAMBDA_Z_SEMIDIRECT, 1)


# -- documented changes from the word ball ----------------------------------

def test_commensurable_shifts_give_their_gcd_at_every_bound():
    gens = [S2RIsometry(S2R_ROT_ID, 5), S2RIsometry(S2R_ROT_ID, 3)]
    for bound in range(17):
        dec = s2r_decompose(gens, bound)
        assert (dec.l_type, dec.lam, type(dec.lam)) == (LAMBDA_Z, 1, int)
    # the ball first met 5 - 3 = 2 and called 3 no multiple of it
    with pytest.raises(NonDiscreteShiftError):
        s2r_decompose_by_ball(gens, 2)


def test_an_irrational_rotation_over_shift_zero_is_not_discrete():
    # (R_z(1 rad), 1) (I, 1)^-1 = (R_z(1 rad), 0): its powers are
    # infinitely many elements over the shift 0, at the bounds where the
    # ball saw 1, 3, 9 and 13 of them
    gens = [S2RIsometry(s2r_rotation_z(1.0), 1), S2RIsometry(S2R_ROT_ID, 1)]
    for bound in (1, 2, 8, 12):
        with pytest.raises(NonDiscreteShiftError, match="4000"):
            s2r_decompose(gens, bound)
    # with exact entries the rotation of infinite order shows in its trace
    with pytest.raises(NonDiscreteShiftError, match="trace 2.2"):
        s2r_decompose([S2RIsometry(ROT_345, 0), S2RIsometry(S2R_ROT_ID, 1)])
    with pytest.raises(NonDiscreteShiftError):
        s2r_decompose([S2RIsometry(s2r_rotation_z(1.0), 0.0)])
    # two exact rotations of order 4 and 2 whose product has trace -1/9:
    # more than 120 elements prove the group infinite
    axis = (1, 2, 2)
    half_turn = tuple(tuple(Fraction(2 * axis[i] * axis[j], 9) - (i == j)
                            for j in range(3)) for i in range(3))
    with pytest.raises(NonDiscreteShiftError, match="120"):
        s2r_decompose([S2RIsometry(ROT_4, 0), S2RIsometry(half_turn, 0),
                       S2RIsometry(S2R_ROT_ID, 1)])


def test_large_shift_ratios_end_quickly():
    # t^-m_j is a power of a twist of infinite order: exactly, its entries
    # grow by a digit per step, and the powers of one k_j with 23000-digit
    # entries once ran for minutes; the float trace settles it at once
    for gens in ([S2RIsometry(ROT_345, 1), S2RIsometry(S2R_ROT_ID, 10**4)],
                 [S2RIsometry(ROT_345, 1), S2RIsometry(S2R_ROT_ID, 10**6)],
                 [S2RIsometry(ROT_345, 2), S2RIsometry(S2R_ROT_ID, 2000001)],
                 [S2RIsometry(ROT_345, 1), S2RIsometry(RHO_Z, 10**6)]):
        with deadline(5), pytest.raises(NonDiscreteShiftError,
                                        match="trace"):
            s2r_decompose(gens)
    # the screen rejects nothing of finite order: F over a large ratio
    dec = s2r_decompose([S2RIsometry(ROT_4, 1),
                         S2RIsometry(RHO_X, 10**6)])
    assert (dec.lam, dec.f_order_bound) == (1, 4)


def test_exact_entries_are_tested_for_orthogonality_exactly():
    # off orthogonal by about 2e-14, within the float Gram tolerance
    almost = ((Fraction(3, 5), Fraction(-4, 5), 0),
              (Fraction(4, 5), Fraction(3, 5), 0),
              (0, 0, 1 + Fraction(1, 10**14)))
    with pytest.raises(ValueError, match="orthogonal"):
        S2RIsometry(almost, 1)
    # float entries keep the tolerance
    S2RIsometry(tuple(tuple(map(float, row)) for row in almost), 1.0)


def test_exact_rotations_are_told_apart_exactly():
    # a rotation of infinite order within 1e-20 of I, over the shift 0
    # beside a translation: rounded to 9 digits it was I, its float trace
    # is 3.0, and F came out trivial
    m = 10**10
    c, s = Fraction(m * m - 1, m * m + 1), Fraction(2 * m, m * m + 1)
    near_id = ((c, -s, 0), (s, c, 0), (0, 0, 1))
    with deadline(5), pytest.raises(NonDiscreteShiftError, match="120"):
        s2r_decompose([S2RIsometry(near_id, 0), S2RIsometry(S2R_ROT_ID, 1)])


def test_rot_pow_is_repeated_multiplication():
    tilt = ((1, 0, 0), (0, Fraction(3, 5), Fraction(-4, 5)),
            (0, Fraction(4, 5), Fraction(3, 5)))
    for rot in (matmul(ROT_345, tilt), ROT_4, RHO_X):
        power, power_inv = S2R_ROT_ID, S2R_ROT_ID
        for n in range(41):
            assert _rot_pow(rot, n) == power
            # a negative power is a power of the transpose
            assert _rot_pow(rot, -n) == power_inv
            power = matmul(power, rot)
            power_inv = matmul(power_inv, transpose(rot))


# -- the unrolled 3x3 product against the generic one ------------------------

# rational rotations about (1, 1, 1): by pi/3, and by the angle of cosine
# 1/7 (infinite order); and the half-turn about (1, -1, 0), normal to it
ROT_6_DIAG = ((Fraction(2, 3), Fraction(-1, 3), Fraction(2, 3)),
              (Fraction(2, 3), Fraction(2, 3), Fraction(-1, 3)),
              (Fraction(-1, 3), Fraction(2, 3), Fraction(2, 3)))
ROT_7_DIAG = ((Fraction(3, 7), Fraction(-2, 7), Fraction(6, 7)),
              (Fraction(6, 7), Fraction(3, 7), Fraction(-2, 7)),
              (Fraction(-2, 7), Fraction(6, 7), Fraction(3, 7)))
HALF_TURN_DIAG = ((0, -1, 0), (-1, 0, 0), (0, 0, -1))
_EXACT_CYCLIC = {1: S2R_ROT_ID, 2: RHO_Z, 3: matmul(ROT_6_DIAG, ROT_6_DIAG),
                 4: ROT_4, 6: ROT_6_DIAG}


def _structures():
    """(name, gens): <(twist, 3/2), C_m[, a half-turn normal to its
    axis][, a flip]>, m in {1, 2, 3, 4, 6}.  Exact: C_m about z for m in
    {1, 2, 4} and about (1, 1, 1) for m in {3, 6}, the twist of infinite
    order about the same axis, so that it makes F infinite beside a
    half-turn or a flip.  Float: every axis is z, and the twist is a twist
    only without a half-turn or a flip, as float F must stay finite."""
    for m, dihedral, flip, twist in itertools.product(
            (1, 2, 3, 4, 6), (False, True), (False, True), (False, True)):
        z_axis = m in (1, 2, 4)
        exact = [(ROT_345 if z_axis else ROT_7_DIAG) if twist
                 else S2R_ROT_ID, _EXACT_CYCLIC[m],
                 RHO_X if z_axis else HALF_TURN_DIAG]
        floats = [s2r_rotation_z(1.0), s2r_rotation_z(2 * math.pi / m),
                  tuple(tuple(map(float, row)) for row in RHO_X)]
        name = f"C{m}" if not dihedral else f"D{m}"
        name += "-flip" * flip + "-twist" * twist
        for rots, lam, zero in ((exact, Fraction(3, 2), 0),
                                (floats, 1.5, 0.0)):
            if rots is floats and twist and (dihedral or flip):
                continue
            gens = [S2RIsometry(rots[0] if twist else S2R_ROT_ID, lam)]
            if m > 1:
                gens.append(S2RIsometry(rots[1], zero))
            if dihedral:
                gens.append(S2RIsometry(rots[2], zero))
            if flip:
                gens.append(S2RIsometry(S2R_ROT_ID, zero, flip=-1))
            yield name + ("-float" if rots is floats else ""), gens


STRUCTURES = list(_structures())


def _typed(rot) -> tuple:
    """Each entry with its type: 1, 1.0 and Fraction(1) are told apart;
    0.0 and -0.0 are not."""
    return tuple((type(v), v) for row in rot for v in row)


def _split(decompose, gens) -> tuple:
    """What the split returns, entry types included, or its error."""
    try:
        dec = decompose(gens)
    except NonDiscreteShiftError as exc:
        return type(exc), str(exc)
    twist = None if dec.twist is None else _typed(dec.twist)
    return (dec.l_type, type(dec.lam), dec.lam, dec.f_order_bound,
            tuple(map(_typed, dec.f_elements)), twist)


@pytest.mark.parametrize("gens", [g for _, g in STRUCTURES],
                         ids=[name for name, _ in STRUCTURES])
def test_split_matches_the_generic_product(gens):
    with deadline(5):
        assert _split(s2r_decompose, gens) \
            == _split(s2r_decompose_by_matmul, gens)


def test_split_makes_no_generic_product(monkeypatch):
    def refused(a, b):
        raise AssertionError(f"generic product of {a} and {b}")

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("geom3") \
                and getattr(module, "matmul", None) is matmul:
            monkeypatch.setattr(module, "matmul", refused)
    for _, gens in STRUCTURES:
        for g in gens:
            S2RIsometry(g.rot, g.shift, g.flip)
        _split(s2r_decompose, gens)


def test_lam_generates_the_translations_of_a_flipped_group():
    # <(I, 1), (I, 2/5, flip)> is discrete: its translations are Z
    dec = s2r_decompose([S2RIsometry(S2R_ROT_ID, 1),
                         S2RIsometry(S2R_ROT_ID, Fraction(2, 5), flip=-1)])
    assert (dec.l_type, dec.lam, dec.f_order_bound) \
        == (LAMBDA_Z_SEMIDIRECT, 1, 1)
    # a reflection's shift is no translation: lam is 1, not 1/2
    dec = s2r_decompose([S2RIsometry(S2R_ROT_ID, 1),
                         S2RIsometry(S2R_ROT_ID, Fraction(1, 2), flip=-1)])
    assert (dec.l_type, dec.lam) == (LAMBDA_Z_SEMIDIRECT, 1)
    # one reflection: L is Z_2 and there is no translation
    dec = s2r_decompose([S2RIsometry(S2R_ROT_ID, Fraction(1, 2), flip=-1)])
    assert (dec.l_type, dec.lam, dec.twist) == (LAMBDA_Z_SEMIDIRECT, None,
                                                None)


def test_exact_point_groups_up_to_the_largest_rational_one():
    # the 48 signed permutation matrices, over the shift 1
    gens = [S2RIsometry(S2R_ROT_ID, 1),
            S2RIsometry(((0, 0, 1), (1, 0, 0), (0, 1, 0)), 0),
            S2RIsometry(((0, 1, 0), (1, 0, 0), (0, 0, 1)), 0),
            S2RIsometry(((-1, 0, 0), (0, 1, 0), (0, 0, 1)), 0)]
    dec = s2r_decompose(gens)
    assert (dec.l_type, dec.lam, dec.f_order_bound) == (LAMBDA_Z, 1, 48)
    assert len({_rot_key(r) for r in dec.f_elements}) == 48


def test_s2r_decompose_irrational_twist():
    dec = s2r_decompose([S2RIsometry(s2r_rotation_z(1.0), 1.0)])
    assert dec.l_type == LAMBDA_Z
    assert abs(float(dec.lam) - 1.0) < 1e-12
    assert dec.f_order_bound == 1


def test_s2r_decompose_with_finite_part():
    dec = s2r_decompose([S2RIsometry(S2R_ROT_ID, Fraction(1)),
                         S2RIsometry(RHO_Z, Fraction(0))])
    assert dec.l_type == LAMBDA_Z
    assert dec.lam == 1
    assert dec.f_order_bound == 2


def test_s2r_decompose_flip():
    dec = s2r_decompose([S2RIsometry(S2R_ROT_ID, Fraction(1)),
                         S2RIsometry(S2R_ROT_ID, Fraction(0), flip=-1)])
    assert dec.l_type == LAMBDA_Z_SEMIDIRECT
    assert dec.lam == 1


def test_s2r_trivial_l():
    dec = s2r_decompose([S2RIsometry(RHO_Z, Fraction(0))])
    assert dec.l_type == TRIVIAL_L
    with pytest.raises(ValueError):
        s2r_quotient_identity_component(dec)


@pytest.mark.parametrize("gens", [
    [S2RIsometry(S2R_ROT_ID, Fraction(1, 2), flip=-1)],
    [S2RIsometry(RHO_Z, 0)],
], ids=["flip-only", "trivial-l"])
def test_identity_component_refuses_exactly_lambda_none(gens):
    dec = s2r_decompose(gens)
    assert dec.lam is None
    message = re.escape("compact quotient required "
                        "(lambda is None: p(Gamma) is finite)")
    with pytest.raises(ValueError, match=message):
        s2r_quotient_identity_component(dec)
    with pytest.raises(ValueError, match=message):
        quotient_isometry_summary("s2xr", dec)


def test_s2r_recompose_generators():
    gens = [S2RIsometry(s2r_rotation_z(1.0), 2.0),
            S2RIsometry(RHO_Z, 0.0)]
    dec = s2r_decompose(gens)
    lam = float(dec.lam)
    twist = S2RIsometry(dec.twist, lam)
    f_elems = [S2RIsometry(r, 0.0) for r in dec.f_elements]
    for g in gens:
        k = round(float(g.shift) / lam)
        resid = g.compose(
            S2RIsometry(twist.rot, twist.shift).inverse() if k == 1
            else _pow(twist, k).inverse())
        assert abs(float(resid.shift)) < 1e-9
        assert any(_rot_key(resid.rot) == _rot_key(f.rot) for f in f_elems)


def _pow(iso, k):
    out = S2RIsometry(S2R_ROT_ID, 0.0)
    step = iso if k >= 0 else iso.inverse()
    for _ in range(abs(k)):
        out = out.compose(step)
    return out


def test_s2r_nondiscrete_signalled():
    golden = (math.sqrt(5) - 1) / 2
    gens = [S2RIsometry(S2R_ROT_ID, 1.0),
            S2RIsometry(S2R_ROT_ID, golden)]
    with pytest.raises(NonDiscreteShiftError):
        s2r_decompose(gens)


def test_s2r_identity_components():
    product = s2r_decompose([S2RIsometry(S2R_ROT_ID, 1.0)])
    assert s2r_quotient_identity_component(product) == SO3_X_S1
    twist = s2r_decompose([S2RIsometry(s2r_rotation_z(1.0), 1.0)])
    assert s2r_quotient_identity_component(twist) == S1_X_S1
    klein = s2r_decompose([S2RIsometry(S2R_ROT_ID, 1.0),
                           S2RIsometry(RHO_Z, 0.0),
                           S2RIsometry(RHO_X, 0.0)])
    assert s2r_quotient_identity_component(klein) == S1_ONLY
    # half turns about one axis: the axis comes from the columns of r + I
    half_turns = s2r_decompose([S2RIsometry(RHO_Z, 1.0),
                                S2RIsometry(RHO_Z, 0.0)])
    assert s2r_quotient_identity_component(half_turns) == S1_X_S1
    # minus the identity in O(3) is central: still the full component
    minus = s2r_decompose([S2RIsometry(((-1, 0, 0), (0, -1, 0), (0, 0, -1)),
                                       1.0)])
    assert s2r_quotient_identity_component(minus) == SO3_X_S1


def _quaternion_rotation(a, b, c, d) -> tuple:
    """The rotation of the quaternion a + bi + cj + dk, exactly."""
    n = a * a + b * b + c * c + d * d
    return tuple(tuple(Fraction(v, n) for v in row) for row in (
        (a * a + b * b - c * c - d * d, 2 * (b * c - a * d),
         2 * (b * d + a * c)),
        (2 * (b * c + a * d), a * a - b * b + c * c - d * d,
         2 * (c * d - a * b)),
        (2 * (b * d - a * c), 2 * (c * d + a * b),
         a * a - b * b - c * c + d * d)))


MINUS_I = ((-1, 0, 0), (0, -1, 0), (0, 0, -1))


def test_identity_component_matches_the_axis_oracle(monkeypatch):
    """The product rule gives what the float axes gave, on every structure
    and family above, with -I adjoined, and conjugated by a rational and by
    a float rotation; on exact input it rounds nothing to 9 digits."""
    def refused(rot):
        raise AssertionError(f"exact rotation {rot} rounded")

    rational = S2RIsometry(_quaternion_rotation(2, 1, -1, 3), 0)
    skew = S2RIsometry(tuple(map(tuple, _rodrigues((1, 2, 3), 0.7))), 0)
    groups = [gens for _, gens in STRUCTURES]
    groups += [_cyclic_or_dihedral(*family) for family in FAMILIES]
    seen = {}
    for gens in groups:
        zero = gens[0].shift * 0
        for group in (gens, gens + [S2RIsometry(MINUS_I, zero)]):
            try:
                s2r_decompose(group)
            except NonDiscreteShiftError:
                continue
            for conj in (group, _conjugate(group, rational),
                         _conjugate(group, skew)):
                dec = s2r_decompose(conj)
                if dec.lam is None:
                    continue
                want = s2r_identity_component_by_axes(dec)
                with monkeypatch.context() as patch:
                    if not any(map(fibered._has_float,
                                   dec.f_elements + (dec.twist,))):
                        patch.setattr(fibered, "_rot_key", refused)
                    assert s2r_quotient_identity_component(dec) == want
                seen[want] = seen.get(want, 0) + 1
    assert sorted(seen) == [S1_ONLY, S1_X_S1, SO3_X_S1]
    assert sum(seen.values()) > 1000


@pytest.mark.parametrize("lam", [Fraction(1, 10**400), Fraction(10**400),
                                 10**400],
                         ids=["tiny", "huge", "huge-int"])
def test_lambda_beyond_the_float_range_is_a_domain_error(lam):
    dec = S2RDecomposition(LAMBDA_Z, lam, 1, (S2R_ROT_ID,), S2R_ROT_ID)
    with pytest.raises(FloatRangeError, match="lambda"):
        dec.to_json_dict()
    # a subnormal lambda is a float
    dec = S2RDecomposition(LAMBDA_Z, Fraction(1, 10**320), 1, (S2R_ROT_ID,),
                           S2R_ROT_ID)
    assert dec.to_json_dict()["lambda"] == 1e-320


def test_psl2_quotient_isometry():
    for geom in ("psl2", "h2xr", "sl2r"):
        d = psl2_quotient_isometry(geom)
        assert d.identity_component == "S1"
        assert d.finite_part["structure"] == "unspecified finite group F"
    with pytest.raises(ValueError):
        psl2_quotient_isometry("nil")


def test_tangent_vector_validation():
    with pytest.raises(ValueError):
        TangentVector(-1j, 1, 0, 0)
    blob = TangentVector(1j, 1, 2j, 2).to_json_dict()
    assert blob == {"z": [0.0, 1.0], "w": [1.0, 0.0],
                    "X": [0.0, 2.0], "Z": [2.0, 0.0]}


def _rodrigues(axis, angle):
    n = math.sqrt(sum(a * a for a in axis))
    x, y, z = (a / n for a in axis)
    c, s = math.cos(angle), math.sin(angle)
    t = 1 - c
    return [[c + x * x * t, x * y * t - z * s, x * z * t + y * s],
            [y * x * t + z * s, c + y * y * t, y * z * t - x * s],
            [z * x * t - y * s, z * y * t + x * s, c + z * z * t]]


def test_orthogonality_check_matches_numpy_allclose():
    np = pytest.importorskip("numpy")
    rng = random.Random(7)
    # entry perturbations on both sides of the 1e-12 absolute tolerance,
    # row scalings on both sides of the 1e-5 relative one on the diagonal
    deltas = [0.0, 1e-15, 1e-13, 2e-13, 1e-12, 3e-12, 1e-9, 1e-6, 1e-3,
              math.nan, math.inf, -math.inf]
    scales = [1 + 3e-6, 1 - 3e-6, 1 + 6e-6, 1 - 6e-6]
    cases = []
    for _ in range(20):
        axis = [rng.uniform(-1, 1) for _ in range(3)]
        r = _rodrigues(axis, rng.uniform(-math.pi, math.pi))
        if rng.random() < 0.5:
            r = [[-v for v in row] for row in r]
        for delta in deltas:
            i, j = rng.randrange(3), rng.randrange(3)
            m = [row[:] for row in r]
            m[i][j] += delta
            cases.append(m)
        for scale in scales:
            i = rng.randrange(3)
            m = [row[:] for row in r]
            m[i] = [v * scale for v in m[i]]
            cases.append(m)
    accepted = 0
    for m in cases:
        a = np.array(m)
        with np.errstate(invalid="ignore"):
            expect = bool(np.allclose(a @ a.T, np.eye(3), atol=1e-12))
        rot = tuple(tuple(row) for row in m)
        try:
            S2RIsometry(rot, 0.0)
            got = True
        except ValueError:
            got = False
        assert got == expect, m
        accepted += got
    assert 0 < accepted < len(cases)


def test_rotation_part_must_be_3x3():
    for rot in (((1, 0), (0, 1)),
                ((1, 0), (0, 1), (0, 0)),
                ((1, 0, 0), (0, 1), (0, 0, 1)),
                ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))):
        with pytest.raises(ValueError):
            S2RIsometry(rot, 0.0)


def test_s2r_decompose_rejects_negative_word_bound():
    with pytest.raises(ValueError, match="word_bound"):
        s2r_decompose([S2RIsometry(S2R_ROT_ID, 1.0)], word_bound=-1)
