"""Sol geometry: group law, lattices, normalizer ladder, finite isometry
groups, centralizer triviality and the quadratic-field structure."""

import itertools
import math
import random
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from geom3 import intmat
from geom3.descriptors import OUTPUT_DIGIT_LIMIT, FloatRangeError
from geom3.algebra import QuadRat, galois_conjugate
from geom3.intmat import IntMat2, int_mat_pow, mat2_apply, mat2_inv
from geom3.sol import (
    SolPoint,
    sol_centralizer,
    sol_fixed_line,
    sol_inv,
    sol_lattice_make,
    sol_mul,
    sol_normalizer_lattice,
    sol_q_structure,
    sol_quotient_isometry,
)
from geom3 import algebra, sol
from geom3.sol import SolLattice
from support import (
    deadline,
    off_form_entries,
    rationals_as_fractions,
    sol_centralizer_by_eigenbasis,
    sol_q_structure_by_products,
    sol_quotient_isometry_by_snf_result,
    sol_unit,
    sol_unit_by_eigenbasis,
)

A = IntMat2(2, 1, 1, 1)


def close(a, b, tol=1e-12):
    return abs(a - b) <= tol


def test_conjugation_scales_the_fiber():
    t, u, v = 0.8, 1.5, -2.5
    g = SolPoint(0.0, 0.0, t)
    h = SolPoint(u, v, 0.0)
    conj = sol_mul(sol_mul(g, h), sol_inv(g))
    assert close(conj.x, math.exp(t) * u)
    assert close(conj.y, math.exp(-t) * v)
    assert close(conj.level, 0.0)


def test_fiber_translations_commute():
    a = SolPoint(1.0, 0.0, 0.0)
    b = SolPoint(0.0, 1.0, 0.0)
    ab = sol_mul(a, b)
    assert close(ab.x, 1.0) and close(ab.y, 1.0) and close(ab.level, 0.0)
    ba = sol_mul(b, a)
    assert close(ab.x, ba.x) and close(ab.y, ba.y)


def test_group_axioms_float():
    rng = random.Random(5)
    for _ in range(60):
        pts = [SolPoint(rng.uniform(-2, 2), rng.uniform(-2, 2),
                        rng.uniform(-1, 1)) for _ in range(3)]
        g, h, k = pts
        lhs = sol_mul(sol_mul(g, h), k)
        rhs = sol_mul(g, sol_mul(h, k))
        assert close(lhs.x, rhs.x) and close(lhs.y, rhs.y) \
            and close(lhs.level, rhs.level)
        gi = sol_mul(g, sol_inv(g))
        assert close(gi.x, 0) and close(gi.y, 0) and close(gi.level, 0)


def test_group_axioms_exact():
    lam = sol_unit(sol_lattice_make(A, 1))
    pts = [SolPoint.exact(Fraction(1), Fraction(2), 1, lam),
           SolPoint.exact(Fraction(-1, 2), Fraction(0), -2, lam),
           SolPoint.exact(Fraction(3), Fraction(1, 3), 1, lam)]
    g, h, k = pts
    lhs = sol_mul(sol_mul(g, h), k)
    rhs = sol_mul(g, sol_mul(h, k))
    assert lhs.x == rhs.x and lhs.y == rhs.y and lhs.level == rhs.level
    gi = sol_mul(g, sol_inv(g))
    assert gi.x == 0 and gi.y == 0 and gi.level == 0


def test_mode_mismatch():
    lam = sol_unit(sol_lattice_make(A, 1))
    with pytest.raises(ValueError):
        sol_mul(SolPoint(1.0, 0.0, 0.0),
                SolPoint.exact(Fraction(1), Fraction(0), 0, lam))


def test_fixed_line_values():
    p, q = sol_fixed_line(SolPoint(1.0, 1.0, math.log(2)))
    assert close(p, -1.0) and close(q, 2.0)
    p0, q0 = sol_fixed_line(SolPoint(1.0, 0.0, math.log(2)))
    assert close(p0, -1.0) and close(q0, 0.0)
    pz, qz = sol_fixed_line(SolPoint(0.0, 0.0, 0.7))
    assert close(pz, 0.0) and close(qz, 0.0)
    with pytest.raises(ValueError):
        sol_fixed_line(SolPoint(1.0, 1.0, 0.0))


@pytest.mark.parametrize("t", [1e-10, -1e-10, 1e-17, 1e-300])
def test_fixed_line_does_not_cancel_for_small_t(t):
    # p = 1 / (1 - e^t) = -1/t + 1/2 - t/12 + ...: 1 - exp(t) lost eight
    # digits at t = 1e-10 and was 0 at t = 1e-17
    p, q = sol_fixed_line(SolPoint(1.0, 1.0, t))
    assert p == pytest.approx(-1 / t + 0.5, rel=1e-15)
    assert q == pytest.approx(1 / t + 0.5, rel=1e-15)


@pytest.mark.parametrize("x, y, t", [
    (1.0, 1.0, 1e-320),         # p = -1e320 once reached the encoder as -inf
    (1e-300, 1.0, 700.0),       # p = -1e-604 once rounded to -0.0
    (1.0, 1.0, 1e300),          # p = -e^-1e300
    (1.0, 1e300, -1e-10),       # q = -1e310
])
def test_fixed_line_beyond_the_float_range_is_a_domain_error(x, y, t):
    with pytest.raises(FloatRangeError, match="fixed line"):
        sol_fixed_line(SolPoint(x, y, t))


def _over_one_minus_exp_reference(x: float, t: float) -> Decimal:
    with localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = 60, 10 ** 6, -10 ** 6
        return Decimal(x) / (1 - Decimal(t).exp())


_NORMAL, _LARGEST = Decimal(2) ** -1022, Decimal(sys.float_info.max)
_OVERFLOW, _UNDERFLOW = Decimal(2) ** 1024, Decimal(2) ** -1075


@given(st.floats(-1e308, 1e308), st.floats(-1500, 1500).filter(
    lambda t: abs(t) >= 1e-3))
@example(1e300, 800.0)
@example(-1e300, -800.0)
@example(0.0, 800.0)
@example(1.0, 709.7)
@example(1.0, 709.8)
@example(1e-300, 700.0)
def test_fixed_line_coordinates_are_their_exact_values_rounded(x, t):
    # p = x / (1 - e^t), and q is the same with -t: past the range of expm1
    # (e^800 overflows a float) it is still the exact value to within a few
    # ulps, or a domain error when that value is beyond the float range;
    # the subnormal range, rounded with fewer bits, is left out
    want = abs(_over_one_minus_exp_reference(x, t))
    if not x or _NORMAL <= want <= _LARGEST:
        got = sol._over_one_minus_exp(x, t)
        assert got == pytest.approx(
            float(_over_one_minus_exp_reference(x, t)), rel=1e-14, abs=0)
        assert math.copysign(1, got) == 1 or x
    elif want >= _OVERFLOW or want < _UNDERFLOW:
        with pytest.raises(FloatRangeError):
            sol._over_one_minus_exp(x, t)


def test_fixed_line_past_the_range_of_expm1():
    # e^800 once raised a bare OverflowError, though p = 0 and q = 1
    assert sol_fixed_line(SolPoint(0.0, 1.0, 800.0)) == (0.0, 1.0)
    p, q = sol_fixed_line(SolPoint(1e300, 1.0, 800.0))
    assert q == 1.0
    assert p == pytest.approx(-1e300 * math.exp(-400) * math.exp(-400),
                              rel=1e-14)


def test_fixed_line_translation_property():
    rng = random.Random(9)
    for _ in range(100):
        g = SolPoint(rng.uniform(-3, 3), rng.uniform(-3, 3),
                     rng.choice([-1, 1]) * rng.uniform(0.1, 2.0))
        p, q = sol_fixed_line(g)
        s = rng.uniform(-2, 2)
        moved = sol_mul(g, SolPoint(p, q, s))
        assert close(moved.x, p) and close(moved.y, q)
        assert close(moved.level, g.level + s)


def test_lattice_validation():
    assert sol_lattice_make(A, 1).holonomy() == A
    assert sol_lattice_make(IntMat2(3, 1, 2, 1), 1).a.trace() == 4
    with pytest.raises(ValueError):
        sol_lattice_make(IntMat2(0, -1, 1, 0), 1)     # trace 0
    with pytest.raises(ValueError):
        sol_lattice_make(IntMat2(2, 0, 0, 2), 1)      # det 4
    with pytest.raises(ValueError):
        sol_lattice_make(A, 0)


def lattice_equal(basis1, basis2) -> bool:
    """Z-span equality via an integral unimodular change of basis."""
    m1 = ((basis1[0][0], basis1[1][0]), (basis1[0][1], basis1[1][1]))
    m2 = ((basis2[0][0], basis2[1][0]), (basis2[0][1], basis2[1][1]))
    change = intmat.mat2_mul(mat2_inv(m2), m1)
    entries = [change[i][j] for i in range(2) for j in range(2)]
    if any(e.denominator != 1 for e in entries):
        return False
    det = change[0][0] * change[1][1] - change[0][1] * change[1][0]
    return abs(det) == 1


def test_normalizer_ladder():
    n1 = sol_normalizer_lattice(sol_lattice_make(A, 1))
    assert n1.index == 1
    assert lattice_equal(n1.basis, ((Fraction(1), Fraction(0)),
                                    (Fraction(0), Fraction(1))))
    n2 = sol_normalizer_lattice(sol_lattice_make(A, 2))
    assert n2.index == 5
    fifth = ((Fraction(1, 5), Fraction(0)), (Fraction(0), Fraction(1, 5)))
    # Z^2 <= Lambda_2 <= (1/5) Z^2, each step of index 5
    assert all((5 * c).denominator == 1 for vec in n2.basis for c in vec)
    assert not lattice_equal(n2.basis, fifth)
    n5 = sol_normalizer_lattice(sol_lattice_make(A, 5))
    assert n5.index == 121
    eleventh = ((Fraction(1, 11), Fraction(0)), (Fraction(0), Fraction(1, 11)))
    assert lattice_equal(n5.basis, eleventh)


def test_holonomy_preserves_normalizer_lattice():
    for n in (1, 2, 3, 5):
        lat = sol_lattice_make(A, n)
        nrm = sol_normalizer_lattice(lat)
        hol = lat.holonomy()
        field = ((Fraction(hol.a), Fraction(hol.b)),
                 (Fraction(hol.c), Fraction(hol.d)))
        image = tuple(mat2_apply(field, vec) for vec in nrm.basis)
        assert lattice_equal(image, nrm.basis)


def test_quotient_isometry_table():
    d1 = sol_quotient_isometry(sol_lattice_make(A, 1))
    assert d1.identity_component == "trivial"
    assert d1.finite_part["order"] == 1
    assert d1.finite_part["structure"] == "trivial"
    d2 = sol_quotient_isometry(sol_lattice_make(A, 2))
    assert d2.finite_part["abelian_invariants"] == [5]
    assert d2.finite_part["cyclic_extension"] == 2
    assert d2.finite_part["order"] == 10
    d5 = sol_quotient_isometry(sol_lattice_make(A, 5))
    assert d5.finite_part["abelian_invariants"] == [11, 11]
    assert d5.finite_part["cyclic_extension"] == 5
    assert d5.finite_part["order"] == 605


def test_quotient_isometry_order_formula():
    rng = random.Random(21)
    count = 0
    while count < 12:
        tr = rng.randint(3, 10)
        b = rng.randint(1, 5)
        # build a matrix with trace tr and det 1: [[tr-d, b],[c, d]]
        d = rng.randint(0, tr - 1)
        num = (tr - d) * d - 1
        if num % b:
            continue
        c = num // b
        m = IntMat2(tr - d, b, c, d)
        if m.det() != 1 or m.trace() <= 2:
            continue
        n = rng.randint(1, 4)
        lat = sol_lattice_make(m, n)
        desc = sol_quotient_isometry(lat)
        hol = lat.holonomy()
        assert desc.finite_part["order"] == abs(2 - hol.trace()) * n
        d1, d2 = intmat.snf((IntMat2.identity() - hol).rows())[0]
        assert desc.finite_part["order"] == d1 * d2 * n
        count += 1


def test_cokernel_bruteforce_oracle():
    from test_intmat import cokernel_order_bruteforce

    rng = random.Random(33)
    samples = 0
    while samples < 8:
        tr = rng.randint(3, 6)
        d = rng.randint(0, tr - 1)
        b = 1
        c = (tr - d) * d - 1
        m = IntMat2(tr - d, b, c, d)
        if m.det() != 1 or m.trace() <= 2:
            continue
        n = rng.randint(1, 3)
        hol = int_mat_pow(m, n)
        rel = IntMat2.identity() - hol
        if abs(rel.det()) > 800:
            continue
        d1, d2 = intmat.snf(rel.rows())[0]
        assert cokernel_order_bruteforce(rel) == d1 * d2
        samples += 1


def test_cokernel_action_is_an_involution_for_n2():
    d2 = sol_quotient_isometry(sol_lattice_make(A, 2))
    action = d2.finite_part["action_on_invariants"]
    assert len(action) == 1
    val = action[0][1] % 5
    # the extension is genuinely twisted: the action has order exactly 2
    assert val != 1 and (val * val) % 5 == 1


def test_centralizer_trivial():
    for n in (1, 2, 5):
        res = sol_centralizer(sol_lattice_make(A, n))
        assert res["group"] == "trivial" and res["verified"]


def test_q_structure():
    q = sol_q_structure(A)
    assert q["d"] == 5
    assert q["eigenvalues"][0] == QuadRat(Fraction(3, 2), Fraction(1, 2), 5)
    assert q["galois_pair_check"] is True
    q2 = sol_q_structure(IntMat2(3, 1, 2, 1))
    assert q2["d"] == 3
    assert q2["eigenvalues"][0] == QuadRat(2, 1, 3)
    # sigma is an involution on the embedding pair
    twice = tuple(tuple(galois_conjugate(v) for v in row)
                  for row in q["basis_conjugate"])
    assert twice == q["basis"]
    with pytest.raises(ValueError):
        sol_q_structure(IntMat2(1, 1, 0, 1))


def test_exact_point_unit_powers():
    lam = sol_unit(sol_lattice_make(A, 1))
    assert lam * galois_conjugate(lam) == 1
    g = SolPoint.exact(Fraction(0), Fraction(0), 3, lam)
    assert g.scale() == lam ** 3
    assert g.scale_inv() == galois_conjugate(lam) ** 3


def test_json_shapes():
    lat = sol_lattice_make(A, 5)
    assert lat.to_json_dict() == {"matrix": [[2, 1], [1, 1]], "power": 5}
    nrm = sol_normalizer_lattice(lat).to_json_dict()
    assert nrm["index"] == 121


def test_unit_of_a_power_is_the_power_of_the_unit():
    for a in (A, IntMat2(3, 1, 2, 1)):
        lam = sol_unit(sol_lattice_make(a, 1))
        for n in range(1, 25):
            lat = sol_lattice_make(a, n)
            unit = sol_unit(lat)
            assert unit == lam ** n
            # the eigenvalue of the holonomy itself, through tr(A^n)^2 - 4
            mu, _ = sol_q_structure(lat.holonomy())["eigenvalues"]
            assert (unit.a, unit.b, unit.d) == (mu.a, mu.b, mu.d)


def test_centralizer_of_large_powers_is_immediate():
    # factoring tr(A^n)^2 - 4 by trial division takes seconds at n = 37 and
    # does not finish at n = 52 to 65
    small = sol_centralizer(sol_lattice_make(A, 1))
    for n in (37, 52, 65, 2000):
        with deadline(10):
            res = sol_centralizer(sol_lattice_make(A, n))
        assert res == small


def _hyperbolic_matrices(count: int, bound: int = 60) -> list:
    """Random det-1 integer matrices of trace > 2, entries within bound."""
    rng = random.Random(20)
    out = []
    while len(out) < count:
        a, b, c = (rng.randint(-bound, bound) for _ in range(3))
        if a == 0 or (1 + b * c) % a:
            continue
        d = (1 + b * c) // a
        if abs(d) <= bound and a + d > 2:
            out.append(IntMat2(a, b, c, d))
    return out


def test_centralizer_agrees_with_the_eigenbasis():
    cases = [(m, n) for m in _hyperbolic_matrices(90) for n in (1, 2, 3)]
    cases += [(A, n) for n in (1, 2, 5, 37, 52)]
    for m, n in cases:
        lat = sol_lattice_make(m, n)
        assert sol_centralizer(lat) == sol_centralizer_by_eigenbasis(lat)


def test_centralizer_works_on_the_integers(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("Q(sqrt(d)) arithmetic in sol_centralizer")

    monkeypatch.setattr(sol, "sol_q_structure", boom)
    monkeypatch.setattr(sol, "_reduced", boom)
    monkeypatch.setattr(algebra, "_reduced", boom)
    monkeypatch.setattr(QuadRat, "__init__", boom)
    for m in (A, IntMat2(3, 1, 2, 1)) + tuple(_hyperbolic_matrices(10)):
        for n in (1, 3, 52):
            assert sol_centralizer(sol_lattice_make(m, n))["verified"]


def _same(got, expected):
    """Equal in value, and in type, field and repr entry by entry."""
    assert got == expected
    assert repr(got) == repr(expected)
    if isinstance(got, (tuple, list)):
        for x, y in zip(got, expected):
            _same(x, y)
    elif isinstance(got, dict):
        for key in got:
            _same(got[key], expected[key])
    else:
        assert type(got) is type(expected)
        if isinstance(got, QuadRat):
            assert got.d == expected.d


def _one_form(q: dict) -> dict:
    """q with the rational entries of its bases made Fractions."""
    basis, conj = rationals_as_fractions((q["basis"], q["basis_conjugate"]))
    return {**q, "basis": basis, "basis_conjugate": conj}


def test_sol_answers_agree_with_the_scalar_route():
    for m in _hyperbolic_matrices(60) + [A, IntMat2(3, 1, 2, 1),
                                         IntMat2(1, 1, 100, 101)]:
        _same(sol_q_structure(m), _one_form(sol_q_structure_by_products(m)))
        for n in range(1, 6):
            lat = sol_lattice_make(m, n)
            _same(sol_unit(lat), sol_unit_by_eigenbasis(lat))
            got = sol_quotient_isometry(lat)
            expected = sol_quotient_isometry_by_snf_result(lat)
            _same(got, expected)
            _same(got.finite_part, expected.finite_part)


def test_an_eigenbasis_entry_is_a_fraction_or_irrational():
    # every hyperbolic A with entries in [-7, 7]: a rational entry of B
    # or of its conjugate is a Fraction, never a labelled QuadRat
    cases = [IntMat2(*e) for e in itertools.product(range(-7, 8), repeat=4)
             if e[0] * e[3] - e[1] * e[2] == 1 and e[0] + e[3] > 2]
    assert len(cases) == 180
    for m in cases:
        q = sol_q_structure(m)
        assert off_form_entries((q["basis"], q["basis_conjugate"])) == []
        assert q["galois_pair_check"] is True


def test_q_structure_refuses_as_the_scalar_route():
    refused = 0
    for entries in itertools.product(range(-3, 4), repeat=4):
        m = IntMat2(*entries)
        if m.det() == 1 and m.trace() > 2:
            continue
        with pytest.raises(ValueError) as expected:
            sol_q_structure_by_products(m)
        with pytest.raises(ValueError) as got:
            sol_q_structure(m)
        assert str(got.value) == str(expected.value)
        refused += 1
    assert refused > 2000


# every hyperbolic M with entries in [-20, 20], found from (a, b, c)
_SMALL_HYPERBOLIC = [IntMat2(a, b, c, (1 + b * c) // a)
                     for a, b, c in itertools.product(range(-20, 21),
                                                      repeat=3)
                     if a and (1 + b * c) % a == 0
                     and abs((1 + b * c) // a) <= 20
                     and a + (1 + b * c) // a > 2]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_SMALL_HYPERBOLIC), st.integers(1, 12))
def test_q_structure_of_a_power_is_the_scalar_route(m, n):
    # the oracle factors all of tr(M^n)^2 - 4 and refuses a cofactor past
    # the factoring limit; the closed form factors disc(f_M) alone
    power = int_mat_pow(m, n)
    try:
        expected = sol_q_structure_by_products(power)
    except ValueError as exc:
        assume("cannot factor" not in str(exc))
        raise
    _same(sol_q_structure(power), _one_form(expected))


@pytest.mark.parametrize("base, n, disc, d", [
    ((2, 1, 1, 1), 41, 5, 5),
    ((3, 1, 2, 1), 50, 12, 3),
    ((1, 1, 100, 101), 30, 10400, 26),
])
def test_q_structure_answers_powers_past_the_factoring_limit(base, n, disc,
                                                             d):
    m = IntMat2(*base)
    power = int_mat_pow(m, n)
    t = power.trace()
    # the primitive discriminant of A^n is that of A, and its square-free
    # part is d; all of t^2 - 4 is past what the oracle can factor
    g = math.gcd(power.b, power.c, power.a - power.d)
    assert (t * t - 4) // (g * g) == disc == m.trace() ** 2 - 4
    assert algebra.squarefree_decompose(disc)[1] == d
    with pytest.raises(ValueError, match="cannot factor"):
        sol_q_structure_by_products(power)
    q = sol_q_structure(power)
    assert q["d"] == d and q["galois_pair_check"] is True
    lam = sol_unit(sol_lattice_make(m, n))
    assert q["eigenvalues"] == (lam, lam.conjugate())
    b = q["basis"]
    assert b[0][0] * b[1][1] - b[0][1] * b[1][0] == 1


def test_the_galois_check_can_fail(monkeypatch):
    # a wrong eigenvalue fails the integer eigen-equations: the factoring
    # of disc = s^2 d is patched to give s + 1 for s
    factor = algebra.squarefree_decompose

    def off_by_one(n):
        s, d = factor(n)
        return s + 1, d

    monkeypatch.setattr(sol, "squarefree_decompose", off_by_one)
    assert sol_q_structure(A)["galois_pair_check"] is False


def test_q_structure_builds_no_scalar_matrix_product(monkeypatch):
    cases = [A, IntMat2(1, 1, 100, 101), int_mat_pow(A, 20)]
    expected = [sol_q_structure(m) for m in cases]

    def refuse(*args):
        raise AssertionError("scalar 2x2 product in sol_q_structure")

    product = intmat.mat2_mul
    for module in (intmat, sol):
        for name, value in list(vars(module).items()):
            if value is product:
                monkeypatch.setattr(module, name, refuse)
    got = [sol_q_structure(m) for m in cases]
    monkeypatch.undo()
    assert got == expected
    assert all(q["galois_pair_check"] is True for q in got)


def test_q_structure_factors_the_discriminant_once(monkeypatch):
    # (A, the primitive discriminant (tr^2 - 4) / gcd(b, c, a - e)^2)
    cases = [(A, 5), (IntMat2(3, 1, 2, 1), 12),
             (IntMat2(1, 1, 100, 101), 10400), (int_mat_pow(A, 20), 5),
             (int_mat_pow(IntMat2(3, 1, 2, 1), 7), 12)]
    expected = [sol_q_structure(m) for m, _ in cases]
    calls = []
    factor = algebra.squarefree_decompose

    def counting(n):
        calls.append(n)
        return factor(n)

    for module in (algebra, sol):
        monkeypatch.setattr(module, "squarefree_decompose", counting)
    for (m, disc), want in zip(cases, expected):
        calls.clear()
        got = sol_q_structure(m)
        assert got == want
        assert str(got["eigenvalues"]) == str(want["eigenvalues"])
        # only the primitive discriminant is factored, and no entry built
        # from its square-free part is factored again
        assert calls == [disc]


@pytest.mark.parametrize("lat", [(IntMat2(1, 1, 0, 1), 1),
                                 (IntMat2(2, 1, 1, 0), 1),
                                 (A, 0)])
def test_centralizer_of_a_hand_built_lattice_checks_it(lat):
    # a SolLattice is checked when it is built, so no function that takes
    # one meets an invalid lattice
    with pytest.raises(ValueError):
        SolLattice(*lat)


@pytest.mark.parametrize("matrix, n, message", [
    ((1, 1, 0, 1), 1, "trace 2 <= 2: no hyperbolic holonomy"),
    ((2, 1, 1, 0), 1, "determinant -1 != 1"),
    ((-3, 1, -1, 0), 1, "trace -3 < -2: A is hyperbolic, but only trace > 2 "
                        "is supported"),
    ((2, 1, 1, 1), 0, "power must be a positive integer"),
    # bool is a subclass of int, but True would print as "true"
    ((2, 1, 1, 1), True, "power must be a positive integer"),
])
def test_hand_built_lattice_has_the_factory_messages(matrix, n, message):
    for build in (SolLattice, sol_lattice_make):
        with pytest.raises(ValueError) as err:
            build(IntMat2(*matrix), n)
        assert str(err.value) == message


# (abelian_invariants, action_on_invariants) of sol_quotient_isometry,
# recorded before snf replaced the 2x2 elimination: the action is read off
# the transform U, so these pin the kernel's pivot order.
COKERNEL_ACTIONS = {
    ((2, 1, 1, 1), 1): ([], []),
    ((2, 1, 1, 1), 2): ([5], [[0, 4]]),
    ((2, 1, 1, 1), 3): ([4, 4], [[3, 1], [3, 0]]),
    ((2, 1, 1, 1), 4): ([3, 15], [[1, 1], [10, 14]]),
    ((2, 1, 1, 1), 5): ([11, 11], [[3, 1], [10, 0]]),
    ((2, 1, 1, 1), 6): ([8, 40], [[4, 1], [35, 39]]),
    ((2, 1, 1, 1), 7): ([29, 29], [[3, 1], [28, 0]]),
    ((2, 1, 1, 1), 8): ([21, 105], [[4, 1], [100, 104]]),
    ((2, 1, 1, 1), 9): ([76, 76], [[3, 1], [75, 0]]),
    ((2, 1, 1, 1), 10): ([55, 275], [[4, 1], [270, 274]]),
    ((2, 1, 1, 1), 11): ([199, 199], [[3, 1], [198, 0]]),
    ((2, 1, 1, 1), 12): ([144, 720], [[4, 1], [715, 719]]),
    ((3, 1, 2, 1), 1): ([2], [[0, 1]]),
    ((3, 1, 2, 1), 2): ([2, 6], [[1, 1], [0, 5]]),
    ((3, 1, 2, 1), 3): ([5, 10], [[3, 1], [2, 1]]),
    ((5, 2, 2, 1), 1): ([2, 2], [[1, 0], [0, 1]]),
    ((5, 2, 2, 1), 2): ([4, 8], [[3, 2], [4, 7]]),
    ((5, 2, 2, 1), 3): ([14, 14], [[5, 2], [2, 1]]),
    ((1, 2, 3, 7), 1): ([6], [[0, 1]]),
    ((1, 2, 3, 7), 2): ([2, 30], [[1, 1], [0, 19]]),
    ((1, 2, 3, 7), 3): ([9, 54], [[1, 7], [24, 43]]),
}


@pytest.mark.parametrize("matrix, n", COKERNEL_ACTIONS)
def test_cokernel_action_is_pinned(matrix, n):
    finite = sol_quotient_isometry(
        sol_lattice_make(IntMat2(*matrix), n)).finite_part
    assert (finite["abelian_invariants"], finite["action_on_invariants"]) \
        == COKERNEL_ACTIONS[matrix, n]


@pytest.mark.parametrize("rows", [(2, 1, 1, 1), (3, 1, 2, 1), (10, 1, 9, 1),
                                  (1, 1, 1000000093, 1000000094)])
def test_the_power_bound_refuses_only_answers_past_the_limit(rows):
    # the least power the bound from n and tr A refuses has |2 - tr A^n|
    # past the output limit already, and the power below it is left to the
    # exact check
    a = IntMat2(*rows)
    n = sol._LIMIT_BITS // ((a.trace() - 1).bit_length() - 1) + 1
    assert abs(2 - int_mat_pow(a, n).trace()) >= 10 ** OUTPUT_DIGIT_LIMIT
    for f in (sol_quotient_isometry, sol_normalizer_lattice):
        with pytest.raises(ValueError, match=r"at least \d+ bits, more "
                           r"than the 4300-digit output limit"):
            f(SolLattice(a, n))
        try:
            f(SolLattice(a, n - 1)).to_json_dict()
        except ValueError as e:
            assert "at least" not in str(e)
