"""Trace trichotomy, fixed points, commutation, stable neighborhoods, and
the integer form of exact maps against plain Fraction products."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from geom3 import descriptors
from geom3.hyperbolic import (
    CIRCLE,
    ELLIPTIC,
    HYPERBOLIC,
    PARABOLIC,
    REAL_LINE,
    BoundaryPoint,
    FloatRangeError,
    IdentityClassError,
    MobiusMap,
    centralizer_type,
    classify_isometry,
    commute_test,
    expm_sl2,
    hn_quotient_isometry_verdict,
    mobius_apply,
)
from support import mobius_word_by_fractions


def random_sl2(rng, scale=1.5):
    while True:
        a = rng.uniform(-scale, scale)
        b = rng.uniform(-scale, scale)
        c = rng.uniform(-scale, scale)
        if abs(a) > 0.2:
            d = (1 + b * c) / a
            if abs(d) < 4:
                return MobiusMap(a, b, c, d)


def rotation(t):
    return MobiusMap(math.cos(t), -math.sin(t), math.sin(t), math.cos(t))


def test_apply_examples():
    assert mobius_apply(MobiusMap.identity(), 1j) == 1j
    assert abs(mobius_apply(MobiusMap(2, 0, 0, 0.5), 1j) - 4j) < 1e-12
    assert abs(mobius_apply(MobiusMap(1, 1, 0, 1), 1j) - (1 + 1j)) < 1e-12


def test_apply_preserves_upper_half_plane():
    rng = random.Random(3)
    for _ in range(50):
        m = random_sl2(rng)
        z = complex(rng.uniform(-2, 2), rng.uniform(0.1, 3))
        assert mobius_apply(m, z).imag > 0


def test_apply_is_a_homomorphism():
    rng = random.Random(5)
    for _ in range(100):
        m1, m2 = random_sl2(rng), random_sl2(rng)
        z = complex(rng.uniform(-2, 2), rng.uniform(0.2, 3))
        direct = mobius_apply(m1.compose(m2), z)
        staged = mobius_apply(m1, mobius_apply(m2, z))
        assert abs(direct - staged) < 1e-10


def test_apply_rejects_lower_half_plane():
    with pytest.raises(ValueError):
        mobius_apply(MobiusMap.identity(), -1j)
    for z in (complex(0, math.inf), complex(math.nan, 1),
              complex(0, math.nan)):
        with pytest.raises(ValueError, match="upper half-plane"):
            mobius_apply(MobiusMap.identity(), z)


@pytest.mark.parametrize("m, z, image", [
    # the image is computed from the integers and rounded once
    ((1, 1, 1, 2), 0.5 + 0.5j, complex(8 / 13, 1 / 13)),
    ((2, 1, 1, 1), 0.3 + 0.7j, None),
    # a subnormal imaginary part is a float, not the boundary
    ((Fraction(1, 10**160), 0, 0, 10**160), 1j, 1e-320j),
    ((10**150, 0, 0, Fraction(1, 10**150)), 1 + 1j, 1e300 + 1e300j),
])
def test_apply_rounds_the_exact_image_once(m, z, image):
    A, B, C, D = (Fraction(v) for v in m)
    x, y = Fraction(z.real), Fraction(z.imag)
    num, den = (A * x + B, A * y), (C * x + D, C * y)
    norm = den[0] ** 2 + den[1] ** 2
    exact = (float((num[0] * den[0] + num[1] * den[1]) / norm),
             float((num[1] * den[0] - num[0] * den[1]) / norm))
    got = mobius_apply(MobiusMap(*m), z)
    assert (got.real, got.imag) == exact
    if image is not None:
        assert got == complex(image)


@pytest.mark.parametrize("m, z", [
    ((Fraction(1, 10**300), 0, 0, 10**300), 1j),        # i 1e-600
    ((10**300, 0, 0, Fraction(1, 10**300)), 1j),        # i 1e600
    ((10**300, 0, 0, Fraction(1, 10**300)), 1e300 + 1j),
    ((1, 0, 1, 1), complex(-1, 1e-320)),                # near the pole
])
def test_images_beyond_the_float_range_are_a_domain_error(m, z):
    with pytest.raises(FloatRangeError, match="the image"):
        mobius_apply(MobiusMap(*m), z)


def test_classify_examples():
    cls = classify_isometry(MobiusMap(2, 0, 0, 0.5))
    assert cls.tag == HYPERBOLIC
    assert any(p.infinite for p in cls.fixed_set)
    assert any(not p.infinite and abs(p.x) < 1e-12 for p in cls.fixed_set)

    cls = classify_isometry(MobiusMap(1, 3.5, 0, 1))
    assert cls.tag == PARABOLIC
    assert cls.fixed_set[0].infinite

    cls = classify_isometry(rotation(math.pi / 4))
    assert cls.tag == ELLIPTIC
    assert abs(cls.fixed_set[0] - 1j) < 1e-9


def test_identity_has_no_class():
    with pytest.raises(IdentityClassError):
        classify_isometry(MobiusMap.identity())
    with pytest.raises(IdentityClassError):
        classify_isometry(MobiusMap(-1, 0, 0, -1))  # same PSL2 class


def test_exact_classification():
    assert classify_isometry(MobiusMap(Fraction(1), Fraction(1),
                                       Fraction(0), Fraction(1))).tag \
        == PARABOLIC
    assert classify_isometry(MobiusMap(Fraction(2), Fraction(0),
                                       Fraction(0), Fraction(1, 2))).tag \
        == HYPERBOLIC
    assert classify_isometry(MobiusMap(Fraction(0), Fraction(-1),
                                       Fraction(1), Fraction(0))).tag \
        == ELLIPTIC


def test_classification_is_conjugation_invariant():
    rng = random.Random(7)
    reps = {HYPERBOLIC: MobiusMap(2, 0, 0, 0.5),
            PARABOLIC: MobiusMap(1, 1, 0, 1),
            ELLIPTIC: rotation(0.7)}
    for tag, m in reps.items():
        for _ in range(100):
            g = random_sl2(rng)
            conj = g.compose(m).compose(g.inverse())
            assert classify_isometry(conj).tag == tag


def test_fixed_points_are_fixed():
    rng = random.Random(11)
    for _ in range(100):
        g = random_sl2(rng)
        m = g.compose(MobiusMap(2, 0, 0, 0.5)).compose(g.inverse())
        cls = classify_isometry(m)
        a, b, c, d = (float(v) for v in m.entries())
        for p in cls.fixed_set:
            if isinstance(p, BoundaryPoint) and not p.infinite:
                # root of c x^2 + (d - a) x - b
                resid = c * p.x * p.x + (d - a) * p.x - b
                assert abs(resid) < 1e-9 * (1 + p.x * p.x)
    for _ in range(50):
        g = random_sl2(rng)
        m = g.compose(rotation(0.9)).compose(g.inverse())
        z0 = classify_isometry(m).fixed_set[0]
        assert abs(mobius_apply(m, z0) - z0) < 1e-9


def test_commute_examples():
    assert commute_test(MobiusMap(2, 0, 0, 0.5),
                        MobiusMap(3, 0, 0, 1 / 3)) == (True, True)
    assert commute_test(MobiusMap(2, 0, 0, 0.5),
                        MobiusMap(1, 1, 0, 1)) == (False, False)
    assert commute_test(rotation(0.4), rotation(1.1)) == (True, True)
    with pytest.raises(IdentityClassError):
        commute_test(MobiusMap.identity(), rotation(0.4))


def test_commute_iff_equal_fixed_sets():
    rng = random.Random(13)
    base = {HYPERBOLIC: lambda t: expm_sl2(((1.0, 0.0), (0.0, -1.0)), t),
            PARABOLIC: lambda t: MobiusMap(1, t, 0, 1),
            ELLIPTIC: lambda t: rotation(t)}
    tags = list(base)
    for i in range(120):
        g1 = random_sl2(rng)
        t1, t2 = rng.uniform(0.3, 1.2), rng.uniform(0.3, 1.2)
        k1, k2 = rng.choice(tags), rng.choice(tags)
        same_conj = rng.random() < 0.5
        g2 = g1 if same_conj else random_sl2(rng)
        m1 = g1.compose(base[k1](t1)).compose(g1.inverse())
        m2 = g2.compose(base[k2](t2)).compose(g2.inverse())
        commutes, same_fixed = commute_test(m1, m2)
        assert commutes == same_fixed


def test_centralizer_types():
    assert centralizer_type(rotation(0.5)) == \
        {"type": CIRCLE, "generator": "rotation"}
    assert centralizer_type(MobiusMap(1, 1, 0, 1)) == \
        {"type": REAL_LINE, "generator": "upper-triangular nilpotent"}
    assert centralizer_type(MobiusMap(2, 0, 0, 0.5)) == \
        {"type": REAL_LINE, "generator": "diagonal"}
    with pytest.raises(IdentityClassError):
        centralizer_type(MobiusMap.identity())


def test_quotient_verdicts():
    assert hn_quotient_isometry_verdict(3)["verdict"] == "FiniteIsometryGroup"
    assert hn_quotient_isometry_verdict(2)["verdict"] == "FiniteIsometryGroup"
    assert hn_quotient_isometry_verdict(2)["circle_action_possible"] is False
    with pytest.raises(ValueError):
        hn_quotient_isometry_verdict(1)


def mat_mul2(a, b):
    return ((a[0][0] * b[0][0] + a[0][1] * b[1][0],
             a[0][0] * b[0][1] + a[0][1] * b[1][1]),
            (a[1][0] * b[0][0] + a[1][1] * b[1][0],
             a[1][0] * b[0][1] + a[1][1] * b[1][1]))


def mat_inv2(a):
    det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
    return ((a[1][1] / det, -a[0][1] / det),
            (-a[1][0] / det, a[0][0] / det))


def sample_u_eps(rng, eps):
    a = 1 + rng.uniform(-eps / 2, eps / 2)
    x = rng.uniform(-eps, eps)
    y = rng.uniform(-eps, eps)
    b = (1 + x * y) / a
    assert abs(b - 1) < eps
    return ((a, x), (y, b))


@pytest.mark.parametrize("eps", [1e-2, 1e-3])
def test_commutator_stable_neighborhood(eps):
    rng = random.Random(17)
    bound = 8 * eps * eps
    for _ in range(1000):
        g = sample_u_eps(rng, eps)
        h = sample_u_eps(rng, eps)
        k = mat_mul2(mat_mul2(g, h), mat_mul2(mat_inv2(g), mat_inv2(h)))
        assert abs(k[0][1]) < bound and abs(k[1][0]) < bound
        assert abs(k[0][0] - 1) < bound and abs(k[1][1] - 1) < bound
        # and in particular the commutator stays inside U_eps
        assert abs(k[0][1]) < eps and abs(k[1][0]) < eps
        assert abs(k[0][0] - 1) < eps and abs(k[1][1] - 1) < eps


def _float_answers():
    """Classes and commutation tests of float maps that GEOM3_TOL, once
    read as a tolerance, changed."""
    near_parabolic = MobiusMap(1.1, 1, 0, 1 / 1.1)
    maps = (near_parabolic, MobiusMap(2.0, 1, 1, 1), rotation(0.4))
    return ([repr(classify_isometry(m)) for m in maps],
            commute_test(near_parabolic, MobiusMap(1.0, 3.0, 0.0, 1.0)),
            commute_test(rotation(0.4), rotation(1.1)))


def test_tolerance_env(monkeypatch):
    # GEOM3_TOL=0.5 once made the near-parabolic trace 2.009 parabolic
    want = _float_answers()
    assert want[0][0].startswith(f"IsometryClass(tag='{HYPERBOLIC}'")
    monkeypatch.setenv("GEOM3_TOL", "0.5")
    assert _float_answers() == want


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "abc"])
def test_tolerance_env_must_be_a_finite_non_negative_float(monkeypatch,
                                                           value):
    # no value of GEOM3_TOL is read: under nan, trace 3 was once Elliptic,
    # and later every value here was a ValueError
    want = _float_answers()
    monkeypatch.setenv("GEOM3_TOL", value)
    assert _float_answers() == want


@pytest.mark.parametrize("entries", [
    (math.nan, 0, 0, 1), (math.inf, 0, 0, 1), (1, -math.inf, 0, 1),
    (1e200, 1e200, 1e200, 1e200), (1e-200, 1e-200, 1e-200, 1e-200),
])
def test_non_finite_entries_and_determinants_are_rejected(entries):
    with pytest.raises(ValueError):
        MobiusMap(*entries)


@pytest.mark.parametrize("k", [-700, -520, 520, 700])
@pytest.mark.parametrize("entries", [
    (1, 0, 0, 1), (2, 1, 1, 2), (0, -1, 1, 0), (1, 3, 0, 1), (3, 5, 1, 2),
])
def test_power_of_two_multiples_normalize_to_the_same_map(entries, k):
    # at these scales a float a*d would under- or overflow (subnormal, 0 or
    # inf); the exact entries give the unscaled result bit for bit
    base = MobiusMap(*map(float, entries))
    scaled = MobiusMap(*(math.ldexp(x, k) for x in entries))
    assert scaled.entries() == base.entries()


def test_tiny_and_huge_identity_multiples_are_the_identity():
    for s in (1e-200, 1e200, 5e-324, 1.7e308):
        assert MobiusMap(s, 0, 0, s).entries() == (1.0, 0.0, 0.0, 1.0)


# -- products against the checked constructor --------------------------------

_RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=5)
_NONZERO = _RATIONALS.filter(bool)


@st.composite
def _maps(draw):
    """Maps of det 1, trace 0, rescaled from a square det, or of a det that
    is not a square, and maps of float entries."""
    a, b, c = draw(_NONZERO), draw(_RATIONALS), draw(_RATIONALS)
    kind = draw(st.sampled_from(
        ["det1", "trace0", "square", "float", "non-square"]))
    if kind == "trace0":
        b = b or Fraction(1)
        return MobiusMap(a, b, (-1 - a * a) / b, -a)
    entries = (a, b, c, (1 + b * c) / a)
    if kind == "square":
        return MobiusMap(*(3 * v for v in entries))
    if kind == "float":
        return MobiusMap(*map(float, entries))
    if kind == "non-square":
        return MobiusMap(2 * a, 2 * b, c, entries[3])
    return MobiusMap(*entries)


@given(_maps(), _maps())
# raw products (-1, 2, -1, 1) with trace 0 and -I: the sign is flipped
@example(MobiusMap(2, 1, 1, 1), MobiusMap(0, 1, -1, 0))
@example(MobiusMap(0, 1, -1, 0), MobiusMap(0, 1, -1, 0))
def test_compose_matches_the_constructor_on_the_raw_product(f, g):
    # compose skips __init__; the result must be the map __init__ makes of
    # the raw product of the integer matrices, down to entry types
    (a, b, c, d), (e, f_, g_, h) = f._ints, g._ints
    raw = (a * e + b * g_, a * f_ + b * h, c * e + d * g_, c * f_ + d * h)
    want, got = MobiusMap(*raw), f.compose(g)
    assert repr(got) == repr(want)
    assert got._ints == want._ints
    assert all(type(x) is int for x in got._ints)
    assert list(map(type, got.entries())) == list(map(type, want.entries()))


# -- the integer form of exact maps -------------------------------------------

_DEN5 = st.fractions(min_value=-3, max_value=3, max_denominator=5)


@st.composite
def _exact_maps(draw):
    """Exact maps from entries with denominators <= 5: det 1, trace 0, or
    a matrix of square det rescaled by the constructor."""
    a, b, c = draw(_DEN5.filter(bool)), draw(_DEN5), draw(_DEN5)
    kind = draw(st.sampled_from(["det1", "trace0", "square"]))
    if kind == "trace0":
        b = b or Fraction(1)
        return MobiusMap(a, b, (-1 - a * a) / b, -a)
    scale = Fraction(draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    if kind == "det1":
        scale = 1
    return MobiusMap(scale * a, scale * b, scale * c, scale * (1 + b * c) / a)


def _word(gens, word):
    m = MobiusMap.identity()
    for i in word:
        m = m.compose(gens[i])
    return m


@given(st.lists(_exact_maps(), min_size=1, max_size=3),
       st.lists(st.integers(0, 2), max_size=40))
# a trace-0 product whose first nonzero entry is negative before the sign
@example([MobiusMap(2, 1, 1, 1), MobiusMap(0, 1, -1, 0)], [0, 1])
def test_exact_words_match_fraction_products(gens, word):
    word = [i % len(gens) for i in word]
    got = _word(gens, word)
    want = mobius_word_by_fractions([g.entries() for g in gens], word)
    assert repr(got) == "MobiusMap({}, {}, {}, {})".format(*want)
    assert all(type(x) is int for x in got._ints)
    assert all(type(x) is Fraction for x in got.entries())
    for m in (got, *gens):
        a, b, c, d = m.entries()
        inv, want_inv = m.inverse(), MobiusMap(d, -b, -c, a)
        assert repr(inv) == repr(want_inv) and inv._ints == want_inv._ints
        assert all(type(x) is int for x in inv._ints)


@given(st.lists(_exact_maps(), min_size=1, max_size=3),
       st.lists(st.integers(0, 2), max_size=12))
# trace 0 with a negative first nonzero entry, as given and after products
@example([MobiusMap(0, -1, 1, 0), MobiusMap(-1, 2, -1, 1)], [0, 1, 1])
def test_integer_form_invariants(gens, word):
    m = _word(gens, [i % len(gens) for i in word])
    for x in (m, m.inverse(), *gens):
        A, B, C, D = x._ints
        assert all(type(v) is int for v in (A, B, C, D))
        assert math.gcd(A, B, C, D) == 1
        # these maps have a square det q^2, and q is the common denominator
        # of the entries
        q = math.isqrt(A * D - B * C)
        assert q > 0 and A * D - B * C == q * q
        assert q == math.lcm(*(f.denominator for f in x.entries()))
        first = next(v for v in (A, B, C, D) if v)
        assert A + D > 0 or (A + D == 0 and first > 0)
        assert x.trace() == Fraction(A + D, q)
        assert x.is_identity() == (x.entries() == (1, 0, 0, 1))


@given(_exact_maps(), _exact_maps(), _exact_maps(), st.integers(1, 3),
       st.integers(1, 3), st.sampled_from(["same", "conjugate", "other"]))
def test_exact_maps_commute_iff_they_share_fixed_sets(g, m, other, j, k,
                                                      kind):
    # in PSL2(R), non-identity maps commute iff their fixed sets agree:
    # powers of one map do, its conjugates and unrelated maps mostly not
    m1 = _word([g, m, g.inverse()], [0] + [1] * j + [2])
    h = g if kind == "same" else g.compose(other)
    m2 = (_word([h, m, h.inverse()], [0] + [1] * k + [2])
          if kind != "other" else other)
    assume(not m1.is_identity() and not m2.is_identity())
    commutes, same_fixed = commute_test(m1, m2)
    assert commutes == same_fixed
    if kind == "same":
        assert commutes


# integer matrices of positive det, a square or not
_INT_MATRICES = st.tuples(*[st.integers(-40, 40)] * 4).filter(
    lambda m: m[0] * m[3] - m[1] * m[2] > 0)


@given(_INT_MATRICES)
# a hyperbolic map close to parabolic: (A + D)^2 - 4 det = 1
@example((100, 1, 0, 99))
def test_exact_and_float_classification_agree_away_from_trace_two(ints):
    # a float entry is the integer it spells, so the answers are identical,
    # at trace two too
    assume(not MobiusMap(*ints).is_identity())
    exact = classify_isometry(MobiusMap(*ints))
    approx = classify_isometry(MobiusMap(*map(float, ints)))
    assert repr(exact) == repr(approx)


@given(_INT_MATRICES, st.sampled_from(
    [1, 2, 3, 4, 5, 9, 12, Fraction(1, 2), Fraction(4, 9), Fraction(3, 7)]))
def test_multiples_of_a_matrix_give_identical_answers(ints, k):
    # k (A, B, C, D) is the same map, with det k^2 Delta, for any k > 0
    m, scaled = MobiusMap(*ints), MobiusMap(*(k * x for x in ints))
    assert scaled._ints == m._ints and repr(scaled) == repr(m)
    assert scaled.is_identity() == m.is_identity()
    if not m.is_identity():
        assert repr(classify_isometry(scaled)) == repr(classify_isometry(m))
        assert centralizer_type(scaled) == centralizer_type(m)
        other = MobiusMap(1, 1, 0, 1)
        assert commute_test(scaled, other) == commute_test(m, other)


@given(_INT_MATRICES, _INT_MATRICES)
def test_the_class_is_invariant_under_exact_conjugation(ints, g_ints):
    m, g = MobiusMap(*ints), MobiusMap(*g_ints)
    assume(not m.is_identity())
    conj = g.compose(m).compose(g.inverse())
    assert all(type(x) is int for x in conj._ints)
    assert not conj.is_identity()
    assert classify_isometry(conj).tag == classify_isometry(m).tag


def test_exact_classification_has_no_tolerance():
    # a - d = 2e-12 within a float tolerance once made this det-1 map
    # parabolic
    m = MobiusMap(Fraction(10 ** 12 + 1, 10 ** 12), 0, 0,
                  Fraction(10 ** 12, 10 ** 12 + 1))
    cls = classify_isometry(m)
    assert cls.tag == HYPERBOLIC
    assert [p.infinite or p.x for p in cls.fixed_set] == [0.0, True]
    # det 10^22 + 10^11 is not a square; it once took the float path
    m = MobiusMap(Fraction(10 ** 11 + 1, 10 ** 11), 1, 0, 1)
    assert m._ints == (10 ** 11 + 1, 10 ** 11, 0, 10 ** 11)
    assert m.b == pytest.approx(1 - 5e-12, rel=1e-15)
    cls = classify_isometry(m)
    assert cls.tag == HYPERBOLIC
    assert cls.fixed_set[0].x == -1e11 and cls.fixed_set[1].infinite
    assert classify_isometry(MobiusMap(1, Fraction(1, 10 ** 11), 0, 1)).tag \
        == PARABOLIC


def test_non_square_maps_are_exact():
    m = MobiusMap(2, 1, 1, 1)
    r2 = MobiusMap(2, 0, 0, 1)
    assert r2._ints == (2, 0, 0, 1)
    assert r2.entries() == (math.sqrt(2), 0.0, 0.0, math.sqrt(0.5))
    assert r2.compose(r2)._ints == (4, 0, 0, 1)
    assert r2.compose(r2).compose(r2.inverse())._ints == r2._ints
    assert r2.compose(r2.inverse()).is_identity()
    assert commute_test(r2, MobiusMap(3, 0, 0, 1)) == (True, True)
    assert commute_test(r2, m) == (False, False)
    # entries whose det overflows a float are computed from the integers
    big = MobiusMap(2 * 10 ** 400, 0, 0, 1)
    assert big.a == pytest.approx(math.sqrt(2) * 1e200)


@pytest.mark.parametrize("m1, m2, want", [
    ((2, 0, 0, Fraction(1, 2)), (3, 0, 0, Fraction(1, 3)), (True, True)),
    ((2, 0, 0, Fraction(1, 2)), (1, 1, 0, 1), (False, False)),
    ((1, 1, 0, 1), (1, -3, 0, 1), (True, True)),
    ((0, -1, 1, 0), (1, -1, 1, 0), (False, False)),
    ((2, 1, 1, 1), (1, -1, -1, 2), (True, True)),     # an inverse
    ((2, 1, 1, 1), (5, 3, 3, 2), (True, True)),       # the square
    ((0, -1, 1, 0), (1, 1, -1, 0), (False, False)),
])
def test_exact_and_float_maps_commute_as_often_as_they_share_fixed_sets(
        m1, m2, want):
    assert commute_test(MobiusMap(*m1), MobiusMap(*m2)) == want
    floats = (MobiusMap(*map(float, m1)), MobiusMap(*map(float, m2)))
    assert commute_test(*floats) == want


def test_exact_commute_has_no_tolerance():
    # the commutator of these is the identity up to about 1e-6, which the
    # float test's sqrt(tol) let pass: exact maps said commute: True
    m1 = MobiusMap(1, Fraction(1, 1000), 0, 1)
    m2 = MobiusMap(1, 0, Fraction(1, 1000), 1)
    assert commute_test(m1, m2) == (False, False)
    assert commute_test(m1, m1.compose(m1)) == (True, True)


def test_float_commute_is_relative_to_the_maps():
    # m1 m2 and m2 m1 are 1.4e-6 apart; the commutator's distance to the
    # identity once passed the square root of a float tolerance
    near = (MobiusMap(1, 0.001, 0, 1), MobiusMap(1, 0, 0.001, 1))
    assert commute_test(*near) == (False, False)
    assert commute_test(MobiusMap(1, Fraction(1, 1000), 0, 1),
                        near[1]) == (False, False)
    assert commute_test(MobiusMap(2, 0, 0, 0.5),
                        MobiusMap(3, 0, 0, 0.3333333333)) == (True, True)
    # large and tiny entries
    big = MobiusMap(1e-200, 0, 0, 1e200)
    assert commute_test(MobiusMap(0.5, 0, 0, 2), big) == (True, True)
    assert commute_test(big, MobiusMap(1, 1, 0, 1)) == (False, False)


def test_float_input_the_float_branch_got_wrong():
    # the only fixed point these share is infinity; m1 m2 and m2 m1 differ
    # by about 1e150, which a float test bounded by the products' size
    # called commuting
    assert commute_test(MobiusMap(1e150, 0, 0, 1e-150),
                        MobiusMap(1e-150, 1, 0, 1e150)) == (False, False)
    # a rotation of trace 0 with c = 1e-16 once raised RuntimeError
    cls = classify_isometry(MobiusMap(0.0, -1e16, 1e-16, 0.0))
    assert cls.tag == ELLIPTIC and cls.fixed_set == (1e16j,)
    # once Hyperbolic fixing -0.0 and infinity: the second fixed point is
    # about 1e600
    with pytest.raises(FloatRangeError, match="fixed point"):
        classify_isometry(MobiusMap(1e300, 0, 1e-300, 1e-300))


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@given(_FINITE, _FINITE, _FINITE, _FINITE)
@example(1e150, 0.0, 0.0, 1e-150)
@example(5e-324, 0.0, 0.0, 1.7e308)
def test_float_entries_are_read_as_their_binary_rationals(a, b, c, d):
    fracs = tuple(map(Fraction, (a, b, c, d)))
    assume(fracs[0] * fracs[3] - fracs[1] * fracs[2] > 0)
    assert MobiusMap(a, b, c, d)._ints == MobiusMap(*fracs)._ints


_HUGE = 10 ** 400


@pytest.mark.parametrize("entries, what", [
    ((1, 1, 1, _HUGE), "fixed point"),                 # -1e400 and 1
    ((2, _HUGE, 0, 1), "fixed point"),                 # -1e400 and inf
    ((0, -_HUGE, Fraction(1, _HUGE), 0), "fixed point"),    # i 1e400
    ((1e300, 0, 1e-300, 1e-300), "fixed point"),       # 0 and 1e600
    # 0 and 3e308, half of which is in the float range
    ((3 * 10 ** 308 + 1, 0, 1, 1), "fixed point"),
    ((10 ** 700, 0, 0, 1), "entry"),                   # det a square
    ((10 ** 701, 0, 0, 1), "entry"),                   # and not
])
def test_numbers_beyond_the_float_range_are_a_domain_error(entries, what):
    m = MobiusMap(*entries)
    with pytest.raises(FloatRangeError, match=what):
        if what == "entry":
            m.entries()
        else:
            classify_isometry(m)


_TINY = Fraction(1, _HUGE)


@pytest.mark.parametrize("entries", [
    (2, _TINY, 0, 1),                                   # -1e-400 and inf
    (0, -2 * _TINY ** 2, 1, -3 * _TINY),                # 1e-400, 2e-400
    (1 + _TINY, -_TINY ** 2, 1, 1 - _TINY),             # 1e-400, parabolic
    (0, -_TINY, _HUGE, 0),                              # i 1e-400
], ids=["hyperbolic-c0", "hyperbolic", "parabolic", "elliptic"])
def test_a_nonzero_fixed_point_that_rounds_to_zero_is_a_domain_error(
        entries):
    # the second once divided by zero, and the others printed 0.0 (the
    # elliptic one the boundary point 0 + 0i)
    with pytest.raises(FloatRangeError, match="fixed point"):
        classify_isometry(MobiusMap(*entries))


@pytest.mark.parametrize("entries, want", [
    ((3 + 2 * _TINY, 1, 1, 3), [-1.0, 1.0]),                # mid 1e-400
    ((2 * _HUGE ** 2, 1 - _HUGE ** 2, _HUGE ** 2, 0), [1.0, 1.0]),
], ids=["midpoint", "half-distance"])   # 1e-400 from 1
def test_a_tiny_intermediate_is_not_a_fixed_point(entries, want):
    # the midpoint and half the distance of the two fixed points are not
    # reported: one that rounds to 0 is no domain error
    cls = classify_isometry(MobiusMap(*entries))
    assert cls.tag == HYPERBOLIC
    assert [p.x for p in cls.fixed_set] == want


def test_float_range_error_is_one_class():
    assert FloatRangeError is descriptors.FloatRangeError
    assert issubclass(FloatRangeError, ValueError)


@pytest.mark.parametrize("scale, want", [
    (10 ** 200, [1e200, 2e200]), (Fraction(1, 10 ** 200), [1e-200, 2e-200])],
    ids=["huge", "tiny"])
def test_the_near_root_is_exact_where_the_product_of_roots_is_not_a_float(
        scale, want):
    # fixed points r and 2r: c z^2 - 3r z + 2r^2 = 0; the product 2r^2 is
    # beyond the float range, which once raised or gave the root 0.0
    cls = classify_isometry(MobiusMap(3 * scale, -2 * scale * scale, 1, 0))
    assert cls.tag == HYPERBOLIC
    assert [p.x for p in cls.fixed_set] == want


@pytest.mark.parametrize("ints", [
    (1, 0, 0, 2), (2, 0, 0, 1),             # c = 0: 0 and infinity
    (1, 0, -1, 2), (1, 0, 1, 2),            # hyperbolic: 0 and 1, -1 and 0
    (0, 1, -1, 0), (0, -1, 1, 0),           # elliptic at i
    (1, 0, -1, 1), (1, 0, 1, 1),            # parabolic at 0
])
def test_no_fixed_point_is_negative_zero(ints):
    cls = classify_isometry(MobiusMap(*ints))
    coords = [x for p in cls.fixed_set for x in (
        (p.real, p.imag) if isinstance(p, complex) else (p.x,))]
    assert 0.0 in coords
    assert "-0.0" not in str(cls.to_json_dict())


def test_exact_words_build_no_fraction_until_the_entries_are_read(
        monkeypatch):
    gens = [MobiusMap(1, Fraction(2, 3), 0, 1),
            MobiusMap(1, 0, Fraction(-1, 2), 1),
            MobiusMap(Fraction(3, 2), 0, 0, Fraction(2, 3))]
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    m = MobiusMap.identity()
    for i in range(32):
        m = m.compose(gens[i % 3])
        assert not m.is_identity()
    inv = m.inverse()
    assert inv.compose(m).is_identity()
    assert built == []
    m.entries()
    assert len(built) == 4
