"""Field arithmetic in Q(sqrt(d)): worked values and field axioms."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geom3.algebra import (
    MixedDiscriminantError,
    QuadRat,
    format_scalar,
    galois_conjugate,
    quad_arith,
    squarefree_decompose,
)

rationals = st.fractions(max_denominator=20,
                         min_value=Fraction(-20), max_value=Fraction(20))
discs = st.sampled_from([2, 3, 5, 7, 11])


@st.composite
def quadrats(draw, d=None):
    d = d if d is not None else draw(discs)
    return QuadRat(draw(rationals), draw(rationals), d)


def test_norm_identity():
    assert quad_arith(QuadRat(1, 1, 2), QuadRat(1, -1, 2), "mul") == -1


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
        quad_arith(QuadRat(0, 1, 2), QuadRat(0, 1, 3), "add")
    # rational-valued elements cross fields freely
    assert QuadRat(2, 0, 2) + QuadRat(1, 1, 3) == QuadRat(3, 1, 3)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        quad_arith(QuadRat(1, 0, 2), QuadRat(0, 0, 2), "div")


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
