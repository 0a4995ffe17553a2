"""Field arithmetic in Q(sqrt(d)): worked values and field axioms."""

import copy
import inspect
import math
import pickle
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geom3.algebra import (
    FACTOR_LIMIT,
    MixedDiscriminantError,
    QuadRat,
    format_scalar,
    galois_conjugate,
    integer_rows,
    power,
    row_scalar,
    squarefree_decompose,
)
from support import (
    FractionPairQuadRat,
    clear_denominators,
    deadline,
    integer_rows_by_parts,
    squarefree_by_trial_division,
)

rationals = st.fractions(max_denominator=20,
                         min_value=Fraction(-20), max_value=Fraction(20))
discs = st.sampled_from([2, 3, 5, 7, 11])


@st.composite
def quadrats(draw, d=None):
    d = d if d is not None else draw(discs)
    return QuadRat(draw(rationals), draw(rationals), d)


def test_power_is_repeated_multiplication():
    for x in (QuadRat(Fraction(3, 2), Fraction(1, 2), 5),
              QuadRat(Fraction(-2, 3), 4, 7), QuadRat(Fraction(5, 4), 0, 2)):
        one = QuadRat(1, 0, x.d)
        inv = one / x
        up, down = one, one
        for n in range(41):
            assert power(x, n, QuadRat.__mul__, one) == up
            assert x ** n == up
            assert x ** -n == down
            up, down = up * x, down * inv
    # the loop is generic: any associative product with its identity
    assert [power(3, n, lambda a, b: a * b, 1) for n in range(41)] \
        == [3 ** n for n in range(41)]
    assert power("ab", 5, str.__add__, "") == "ab" * 5


def test_norm_identity():
    assert QuadRat(1, 1, 2) * QuadRat(1, -1, 2) == -1


def test_inverse_of_three_plus_sqrt2():
    x = QuadRat(3, 1, 2)
    inv = x.inverse()
    # oracle: multiply by the conjugate and check the product is 1
    assert x * inv == 1
    assert inv == QuadRat(Fraction(3, 7), Fraction(-1, 7), 2)


def test_sqrt2_plus_sqrt2():
    r = QuadRat(0, 1, 2)
    assert r + r == QuadRat(0, 2, 2)


def test_galois_examples():
    assert galois_conjugate(QuadRat(3, 1, 2)) == QuadRat(3, -1, 2)
    assert galois_conjugate(Fraction(5)) == 5
    x, y = QuadRat(1, 1, 5), QuadRat(2, -1, 5)
    lhs = galois_conjugate(x * y)
    rhs = galois_conjugate(x) * galois_conjugate(y)
    assert lhs == rhs


def test_mixed_discriminant_rejected():
    with pytest.raises(MixedDiscriminantError):
        QuadRat(0, 1, 2) + QuadRat(0, 1, 3)
    # rational-valued elements cross fields freely
    assert QuadRat(2, 0, 2) + QuadRat(1, 1, 3) == QuadRat(3, 1, 3)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        QuadRat(1, 0, 2) / QuadRat(0, 0, 2)


def test_squarefree_decompose():
    assert squarefree_decompose(12) == (2, 3)
    assert squarefree_decompose(49) == (7, 1)
    assert squarefree_decompose(1) == (1, 1)
    assert QuadRat(0, 1, 12) == QuadRat(0, 2, 3)


def test_format():
    assert format_scalar(QuadRat(Fraction(3, 7), Fraction(-1, 7), 2)) \
        == "3/7 - 1/7√2"
    assert format_scalar(QuadRat(0, 1, 3)) == "√3"
    assert format_scalar(Fraction(5, 2)) == "5/2"
    assert format_scalar(QuadRat(2, 0, 5)) == "2"


def test_equality_across_fields():
    assert QuadRat(0, 1, 2) != QuadRat(0, 1, 3)
    assert QuadRat(7, 0, 2) == QuadRat(7, 0, 3) == Fraction(7)
    assert hash(QuadRat(7, 0, 2)) == hash(Fraction(7))


def test_sign_and_order():
    assert QuadRat(-1, 1, 2).sign() == 1      # sqrt(2) > 1
    assert QuadRat(-2, 1, 2).sign() == -1     # sqrt(2) < 2
    assert QuadRat(1, -1, 3) < 0
    vals = [QuadRat(0, 1, 2), QuadRat(1, 0, 2), QuadRat(2, -1, 2)]
    ordered = sorted(vals)
    assert [float(v) for v in ordered] == sorted(float(v) for v in vals)


@given(quadrats(d=5), quadrats(d=5), quadrats(d=5))
@settings(max_examples=150)
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x


@given(quadrats())
@settings(max_examples=150)
def test_multiplicative_inverse(x):
    if x != 0:
        assert x * x.inverse() == 1


@given(quadrats(d=3), quadrats(d=3))
@settings(max_examples=150)
def test_galois_is_an_order_two_automorphism(x, y):
    sigma = galois_conjugate
    assert sigma(x + y) == sigma(x) + sigma(y)
    assert sigma(x * y) == sigma(x) * sigma(y)
    assert sigma(sigma(x)) == x


@given(quadrats())
@settings(max_examples=100)
def test_float_respects_sign(x):
    approx = float(x)
    if abs(approx) > 1e-9:
        assert (approx > 0) == (x.sign() > 0)


@given(quadrats(), st.integers(min_value=-8, max_value=24))
@settings(max_examples=150)
def test_pow_matches_looped_product(x, k):
    if x == 0 and k < 0:
        with pytest.raises(ZeroDivisionError):
            x ** k
        return
    base = x if k >= 0 else x.inverse()
    looped = QuadRat(1, 0, x.d)
    for _ in range(abs(k)):
        looped = looped * base
    assert x ** k == looped
    assert (x ** k).d == looped.d


@given(quadrats(d=7), quadrats(d=7), st.fractions(max_denominator=9))
@settings(max_examples=150)
def test_arithmetic_results_are_canonical(x, y, q):
    # results skip the public constructor's checks; rebuilding each one
    # through it must change nothing
    results = [x + y, x - y, x * y, -x, x.conjugate(), x + q, q - x, x * q]
    if x != 0:
        results += [x.inverse(), y / x, q / x]
    for r in results:
        assert isinstance(r.a, Fraction) and isinstance(r.b, Fraction)
        rebuilt = QuadRat(r.a, r.b, r.d)
        assert (rebuilt.a, rebuilt.b, rebuilt.d) == (r.a, r.b, r.d)


@settings(max_examples=200, deadline=None)
@given(quadrats())
def test_floor_is_exact(x):
    f = math.floor(x)
    assert isinstance(f, int)
    assert f <= x < f + 1


def test_floor_beyond_float_range():
    big = 10 ** 400                      # float(x) would overflow
    x = QuadRat(Fraction(1, 3), big, 2)  # 1/3 + 10^400 sqrt(2)
    assert math.floor(x) == math.isqrt(2 * big * big)
    assert math.floor(-x) == -math.isqrt(2 * big * big) - 1
    assert math.floor(QuadRat(Fraction(-7, 2), 0, 5)) == -4


# -- the integer-numerator QuadRat against the Fraction-pair reference -----

BIG = 10 ** 12
big_rationals = st.builds(Fraction, st.integers(-BIG, BIG),
                          st.integers(1, BIG))
small_or_big = st.one_of(rationals, big_rationals)


@st.composite
def quadrat_pairs(draw, d=None):
    """The same value as a QuadRat and as a FractionPairQuadRat."""
    d = d if d is not None else draw(st.sampled_from([2, 3, 5]))
    a, b = draw(small_or_big), draw(st.one_of(small_or_big, st.just(0)))
    return QuadRat(a, b, d), FractionPairQuadRat(a, b, d)


def assert_same(x, ref):
    """x agrees with the reference in value and in every rendering."""
    assert isinstance(x, QuadRat)
    assert (x.a, x.b, x.d) == (ref.a, ref.b, ref.d)
    assert isinstance(x.a, Fraction) and isinstance(x.b, Fraction)
    assert repr(x) == repr(ref)
    assert str(x) == str(ref) == format_scalar(x)
    assert hash(x) == hash(ref)
    assert math.floor(x) == math.floor(ref)
    assert x.sign() == ref.sign()
    assert float(x) == float(ref)
    assert x.r > 0 and math.gcd(x.p, x.q, x.r) == 1


@settings(max_examples=150, deadline=None)
@given(quadrat_pairs(), st.data())
def test_arithmetic_matches_the_fraction_pair_reference(pair, data):
    (x, rx) = pair
    (y, ry) = data.draw(quadrat_pairs(d=x.d))
    q = data.draw(small_or_big)
    n = data.draw(st.integers(-BIG, BIG))
    assert_same(x, rx)
    for got, want in [(x + y, rx + ry), (x - y, rx - ry), (x * y, rx * ry),
                      (-x, -rx), (x.conjugate(), rx.conjugate()),
                      (x + q, rx + q), (q + x, q + rx), (x - n, rx - n),
                      (n - x, n - rx), (x * q, rx * q), (n * x, n * rx)]:
        assert_same(got, want)
    if y != 0:
        assert_same(x / y, rx / ry)
        assert_same(q / y, q / ry)
        assert_same(y.inverse(), ry.inverse())
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
        with pytest.raises(ZeroDivisionError):
            y.inverse()
    if q != 0:
        assert_same(x / q, rx / q)
    assert x.norm() == rx.norm() and isinstance(x.norm(), Fraction)
    assert (x < y, x <= y, x > y, x >= y, x == y) == \
        (rx < ry, rx <= ry, not rx <= ry, not rx < ry, rx == ry)
    assert (x < q, x <= q, x == q) == (rx < q, rx <= q, rx == q)


@settings(max_examples=100, deadline=None)
@given(quadrat_pairs(), st.integers(min_value=-8, max_value=24))
def test_pow_matches_the_fraction_pair_reference(pair, k):
    x, rx = pair
    if x == 0 and k < 0:
        with pytest.raises(ZeroDivisionError):
            x ** k
        return
    assert_same(x ** k, rx ** k)


@settings(max_examples=150, deadline=None)
@given(quadrat_pairs(), quadrat_pairs())
def test_equal_values_have_one_representation(pair, other):
    (x, _), (y, _) = pair, other
    if y.d != x.d and y.q != 0 and x.q != 0:
        y = QuadRat(y.a, y.b, x.d)
    roundabout = [x + y - y, x * 3 / 3, QuadRat(x.a, x.b, x.d)]
    if y != 0:
        roundabout.append(x * y / y)
    for z in roundabout:
        assert z == x and hash(z) == hash(x)
        assert (z.p, z.q, z.r) == (x.p, x.q, x.r)
        assert z.r > 0 and math.gcd(z.p, z.q, z.r) == 1


@settings(max_examples=150, deadline=None)
@given(small_or_big, st.sampled_from([2, 3, 5, 12]))
def test_rational_values_are_ints_and_fractions(q, d):
    x = QuadRat(q, 0, d)
    assert x == q and q == x and hash(x) == hash(q)
    assert {q: "found"}[x] == "found" and {x: "found"}[q] == "found"
    n = math.floor(q)
    y = QuadRat(n, 0, d)
    assert y == n and hash(y) == hash(n) and {n: 1}[y] == 1
    assert (x.q, x.r) == (0, q.denominator) and x.p == q.numerator
    root = QuadRat(0, 1, 3)
    assert (root * 0 + q) == q and hash(root * 0 + q) == hash(q)


def test_hash_edge_cases_match_the_reference():
    modulus = sys.hash_info.modulus
    minus_one = Fraction(-(modulus + 3), 3)     # Fraction hash -1 -> -2
    cases = [
        # r is a multiple of the hash modulus: no inverse modulo it
        (Fraction(1, modulus), 0), (Fraction(3, 2 * modulus), 1),
        (Fraction(1, 3), Fraction(5, modulus)),
        # a component whose hash would be -1
        (-1, 0), (-1, -1), (minus_one, 0), (2, minus_one),
    ]
    for a, b in cases:
        assert hash(QuadRat(a, b, 3)) == hash(FractionPairQuadRat(a, b, 3))
    assert hash(QuadRat(minus_one, 0, 3)) == hash(minus_one) == -2


def test_mixed_discriminants_still_raise():
    root2, root3 = QuadRat(0, 1, 2), QuadRat(1, 1, 3)
    for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y,
               lambda x, y: x / y, lambda x, y: x < y, lambda x, y: x <= y):
        with pytest.raises(MixedDiscriminantError):
            op(root2, root3)
        with pytest.raises(MixedDiscriminantError):
            op(root3, root2)
    assert root2 != root3 and not root2 == root3
    # a rational value of either field mixes with both
    assert root2 + QuadRat(5, 0, 3) == QuadRat(5, 1, 2)
    assert (root3 * QuadRat(2, 0, 2)).d == 3


def test_instances_are_immutable():
    x = QuadRat(1, 1, 3)
    with pytest.raises(AttributeError):
        x.p = 2
    with pytest.raises(AttributeError):
        x.a = 2


# -- factoring ----------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=BIG))
def test_squarefree_matches_trial_division(n):
    assert squarefree_decompose(n) == squarefree_by_trial_division(n)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=2, max_value=10 ** 8), min_size=1,
                max_size=2))
def test_squarefree_matches_sympy(factors):
    sympy = pytest.importorskip("sympy")
    n = math.prod(factors) * factors[0]       # below 10^24 < FACTOR_LIMIT
    s, d = 1, 1
    for p, e in sympy.factorint(n).items():
        s *= p ** (e // 2)
        d *= p ** (e % 2)
    assert squarefree_decompose(n) == (s, d)


def test_squarefree_of_large_semiprimes_ends_quickly():
    p, q = 1000000093, 1000000097           # sol qstructure's t^2 - 4
    r, t = 1000000000039, 1000000000061     # two primes near 1e12
    with deadline(10):
        assert squarefree_decompose(p * q) == (1, p * q)
        assert squarefree_decompose(p * p * 6) == (p, 6)
        assert squarefree_decompose(r * t * 4) == (2, r * t)
        assert squarefree_decompose(r * r) == (r, 1)


def test_squarefree_beyond_the_factoring_limit_is_refused():
    # FACTOR_LIMIT is the smallest strong pseudoprime to the 13 bases: a
    # composite that Miller-Rabin with them would call prime
    with pytest.raises(ValueError, match=str(FACTOR_LIMIT)):
        squarefree_decompose(FACTOR_LIMIT)
    with pytest.raises(ValueError, match="factoring limit"):
        squarefree_decompose(1009 * (10 ** 30 + 57))
    # small prime factors are divided out first, whatever the size
    assert squarefree_decompose(2 ** 201 * 3 ** 100) == (2 ** 100 * 3 ** 50, 2)


def _round_trips(x):
    return [copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))]


def _value_classes() -> list:
    """One instance of each frozen value class of the geometry modules."""
    from geom3 import descriptors, euclid, fibered, hyperbolic, intmat, nil
    from geom3 import sol, zimmer
    a = intmat.IntMat2(2, 1, 1, 1)
    lat = nil.lattice_hex(2)
    group = euclid.preset_crystal("Z2xD4")
    euclid.translation_rank(group)          # fills the cached lattice
    rot = ((0, -1, 0), (1, 0, 0), (0, 0, 1))
    factor = zimmer.SimpleFactor("SL(n,R)", (3,))
    return [
        descriptors.IsoDescriptor("nil", "S1", {"order": 8}, "S1", 16,
                                  ("a note",)),
        descriptors.Verdict(descriptors.FACTORS_THROUGH_FINITE,
                            ({"rule": "R1", "citation": "a theorem"},)),
        group,
        fibered.TangentVector(2j, 1 + 0j, 1, 0.5j),
        fibered.S2RIsometry(rot, Fraction(1, 2), -1),
        fibered.s2r_decompose([fibered.S2RIsometry(rot, 1)]),
        hyperbolic.BoundaryPoint(0.5),
        hyperbolic.classify_isometry(hyperbolic.MobiusMap(2, 0, 0, 1)),
        a,
        nil.HeisPoint(QuadRat(1, -2, 3), Fraction(1, 3), 0),
        nil.HeisIsometry(nil.ROT_PI_3,
                         nil.HeisPoint(QuadRat(1, -2, 3), Fraction(1, 3),
                                       QuadRat(0, Fraction(5, 7), 3))),
        lat,
        nil.nil_normalizer(lat),
        lat.point_group,
        nil.DichotomyResult(nil.FIXES_POINT, point=(Fraction(1, 2), 0)),
        sol.SolPoint.exact(Fraction(1, 2), 0, 3, QuadRat(2, 1, 3)),
        sol.SolLattice(a, 2),
        sol.sol_normalizer_lattice(sol.SolLattice(a, 2)),
        factor,
        zimmer.LatticeSpec((factor,), True),
    ]


def _hash_or_type_error(x):
    try:
        return hash(x)
    except TypeError:                 # a dict among the fields
        return TypeError


def test_copy_and_pickle_keep_value_repr_and_hash():
    for x in (QuadRat(Fraction(-3, 4), Fraction(5, 6), 3), QuadRat(2, 0, 7),
              *_value_classes()):
        for y in _round_trips(x):
            assert type(y) is type(x) and y == x and repr(y) == repr(x)
            assert _hash_or_type_error(y) == _hash_or_type_error(x)
    for y in _round_trips(QuadRat(1, 2, 3)):
        assert (y.p, y.q, y.r, y.d) == (1, 2, 1, 3)
        with pytest.raises(AttributeError, match="immutable"):
            y.p = 5


def test_value_classes_keep_the_frozen_record_contract():
    # the constructor's arguments, in order, are the fields: repr shows
    # them as Name(field=value!r, ...), the hash is that of their tuple and
    # no instance equals that tuple (PlanarPointGroup's basis_matrices is
    # neither shown nor compared); copies keep every field, frozen
    from geom3 import nil
    values = _value_classes()
    assert len({type(x) for x in values}) == len(values) == 20
    for x in values:
        names = list(inspect.signature(type(x)).parameters)
        shown = [n for n in names if n != "basis_matrices"]
        fields = tuple(getattr(x, n) for n in shown)
        assert repr(x) == f"{type(x).__name__}(" + ", ".join(
            f"{n}={v!r}" for n, v in zip(shown, fields)) + ")"
        assert _hash_or_type_error(x) == _hash_or_type_error(fields)
        assert x != fields and fields != x and not x == fields
        assert x.__eq__(fields) is NotImplemented
        for y in [x, *_round_trips(x)]:
            assert all(getattr(y, n) == getattr(x, n) for n in names)
            for n in names + ["other"]:
                with pytest.raises(AttributeError):
                    setattr(y, n, None)
                with pytest.raises(AttributeError):
                    delattr(y, n)
    assert repr(values[0]) == (
        "IsoDescriptor(geometry='nil', identity_component='S1', "
        "finite_part={'order': 8}, circle_factor='S1', total_order=16, "
        "notes=('a note',))")
    c2 = (((1, 0), (0, 1)), ((-1, 0), (0, -1)))
    group = nil.PlanarPointGroup("C2", c2, basis_matrices=c2)
    assert repr(group) == (
        "PlanarPointGroup(tag='C2', elements=(((1, 0), (0, 1)), "
        "((-1, 0), (0, -1))))")
    assert group == nil.PlanarPointGroup("C2", c2)
    assert hash(group) == hash(nil.PlanarPointGroup("C2", c2))
    assert repr(values[14]) == (
        "DichotomyResult(kind='AbelianFixesPoint', "
        "point=(Fraction(1, 2), 0), direction=None, witness=None)")
    # the hot classes write == out: each field takes part
    from geom3.fibered import S2R_ROT_ID, S2RIsometry
    from geom3.hyperbolic import BoundaryPoint
    from geom3.intmat import IntMat2
    p, q = nil.HeisPoint(1, 2, 3), nil.HeisPoint(1, 2, 4)
    flip_z = ((1, 0, 0), (0, 1, 0), (0, 0, -1))
    for cls, args in [
            (nil.HeisPoint, [(1, 2, 3), (0, 2, 3), (1, 0, 3), (1, 2, 0)]),
            (nil.HeisIsometry, [(nil.ROT_PI, p), (nil.REFLECT, p),
                                (nil.ROT_PI, q)]),
            (IntMat2, [(2, 1, 1, 1), (3, 1, 1, 1), (2, 0, 1, 1),
                       (2, 1, 0, 1), (2, 1, 1, 0)]),
            (S2RIsometry, [(S2R_ROT_ID, 1, 1), (flip_z, 1, 1),
                           (S2R_ROT_ID, 2, 1), (S2R_ROT_ID, 1, -1)]),
            (BoundaryPoint, [(0.5, False), (1.5, False), (0.5, True)])]:
        for i, a in enumerate(args):
            for j, b in enumerate(args):
                assert (cls(*a) == cls(*b)) == (i == j)


# -- integer rows on a Q-basis {1, sqrt(d_1), ...} ----------------------------

exact_scalars = st.one_of(rationals, quadrats())


@given(st.lists(st.tuples(exact_scalars, exact_scalars), max_size=4),
       st.sampled_from([0, 2, 3]))
def test_integer_rows_read_back_entry_by_entry(vectors, lead):
    r, radicands, rows = integer_rows(vectors, lead)
    assert radicands[0] == 1 and len(set(radicands)) == len(radicands)
    if lead:
        assert radicands[1] == lead
    assert all(isinstance(c, int) for row in rows for c in row)
    assert [tuple(row_scalar(row[i::2], radicands, r) for i in (0, 1))
            for row in rows] == vectors


# rationals, and values of Q(sqrt 2) and Q(sqrt 3), mixed in one list
row_entries = st.one_of(st.integers(-9, 9), rationals, quadrats(2),
                        quadrats(3))


# vectors of one width: 1, 2 (the planar rows) or 3 (Euclid's shape)
row_families = st.one_of(
    *(st.lists(st.tuples(*[row_entries] * w), max_size=5) for w in (1, 2, 3)))


@given(row_families, st.sampled_from([0, 2, 3, 5]))
@example([(QuadRat(Fraction(1, 2), 1, 2), 1, QuadRat(0, Fraction(1, 3), 3)),
          (0, QuadRat(Fraction(1, 2), 1, 2), 0)], 0)
def test_integer_rows_match_the_entry_by_entry_oracle(vectors, lead):
    got = integer_rows(vectors, lead)
    assert got == integer_rows_by_parts(vectors, lead)
    assert all(type(c) is int for row in got[2] for c in row)
    if vectors:
        assert all(len(row) == len(vectors[0]) * len(got[1])
                   for row in got[2])


@given(st.lists(st.tuples(row_entries, row_entries), min_size=1,
                max_size=3), st.data())
def test_integer_rows_refuse_a_float_as_the_oracle_does(vectors, data):
    i = data.draw(st.integers(0, 2 * len(vectors) - 1))
    x = data.draw(st.sampled_from([0.5, 1.0, float("nan")]))
    flat = [y for v in vectors for y in v]
    flat[i] = x
    vectors = list(zip(flat[::2], flat[1::2]))
    errors = []
    for rows in (integer_rows, integer_rows_by_parts):
        with pytest.raises(ValueError) as exc:
            rows(vectors)
        errors.append(str(exc.value))
    assert errors[0] == errors[1] == f"exact entries required, not {x!r}"


def test_floats_have_no_integer_form():
    for x in (0.5, float("nan")):
        for convert in (lambda: integer_rows([(Fraction(1, 2), x)]),
                        lambda: clear_denominators([Fraction(1, 2), x])):
            with pytest.raises(ValueError, match=f"exact entries required, "
                                                 f"not {x!r}"):
                convert()
    with pytest.raises(MixedDiscriminantError,
                       match=re.escape("cannot mix sqrt(2) with sqrt(3)")):
        row_scalar((1, 1, 1), (1, 2, 3), 1)


def test_integer_rows_parse_a_string_as_its_fraction():
    # strings go through as_exact, as HeisPoint.of and nil_lattice_make
    # read them; the oracle's clear_denominators refused them
    assert integer_rows([("1/2", "3"), (0, "-1/3")]) \
        == integer_rows([(Fraction(1, 2), 3), (0, Fraction(-1, 3))]) \
        == (6, (1,), [(3, 18), (0, -2)])
    with pytest.raises(ValueError, match="exact entries required"):
        clear_denominators(["1/2"])


@given(st.fractions(min_value=0, max_value=10 ** 6, max_denominator=10 ** 4))
@example(Fraction(8, 9))
@example(Fraction(12, 7))
def test_sqrt_is_the_checked_constructor_on_its_square_free_part(n):
    root = QuadRat.sqrt(n)
    assert root * root == n and root >= 0
    if isinstance(root, QuadRat):
        # built without factoring d again; the same form as the checked
        # constructor gives
        same = QuadRat(0, root.b, root.d)
        assert (root.p, root.q, root.r, root.d) \
            == (same.p, same.q, same.r, same.d)
    else:
        assert type(root) is Fraction
