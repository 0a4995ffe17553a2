"""Smith normal form, the lattice kernel and exact SL2 spectral data (read
off `sol_q_structure`).

The SNF oracles: for a nonsingular 2x2 integer matrix the invariant factors
are (gcd of entries, |det| / gcd); for any k x n matrix with n <= 3 they are
quotients of gcds of minors (`support.elementary_divisors_stack`), and sympy,
when installed, checks wider ones; cokernel orders are cross-checked by
enumerating lattice points of a fundamental parallelogram.  The lattice
kernel `ZSpan`, on rational and Q(sqrt(d)) vectors written as integer rows,
is checked against Gaussian elimination over Q and a brute-force walk.
"""

import functools
import itertools
import random
import re
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from geom3 import euclid, fibered, intmat, nil, plane
from geom3.algebra import MixedDiscriminantError, QuadRat
from geom3.cli import _S2R_PRESETS, _s2r_generators
from geom3.euclid import _integer_span
from geom3.intmat import (
    IntMat2,
    SearchCapError,
    ZSpan,
    closure,
    congruence_solutions,
    int_mat_pow,
    mat2_apply,
    mat2_det,
    mat2_inv,
    mat2_mul,
    mat3_mul,
    matmul,
    snf,
    transpose,
    vec2_cross,
)
from geom3.nil import (
    MAT2_ID,
    REFLECT,
    ROT_PI_2,
    ROT_PI_3,
    HeisIsometry,
    _linear_group,
    _point_group_generators,
    planar_point_group,
)
from geom3.plane import gauss_reduce
from geom3.sol import sol_q_structure
from support import (
    ZSpanBySnf,
    clear_denominators,
    deadline,
    determinant,
    elementary_divisors_stack,
    entry_records,
    int_mat_pow_by_squaring,
    lattice_points_by_walk,
    matmul_rect,
    matrix_order_by_powers,
    off_form_entries,
    point_group_elements_by_products,
    rational_rank_by_elimination,
    rationals_as_fractions,
    snf_by_row_steps,
    vec2_dot,
    word_ball,
    zsqrt_basis,
    zsqrt_conjugates,
)
from test_algebra import discs, quadrats, rationals
from test_euclid import _combination
from test_nil import change_basis, planar_lattices, small_unimodular

entries = st.integers(min_value=-100, max_value=100)
matrices = st.builds(IntMat2, entries, entries, entries, entries)


def snf_diagonal_oracle(m: IntMat2):
    """Invariant factors from gcds, independent of the elimination path."""
    g = gcd(gcd(abs(m.a), abs(m.b)), gcd(abs(m.c), abs(m.d)))
    det = abs(m.det())
    if g == 0:
        return (0, 0)
    if det == 0:
        return (g, 0)
    return (g, det // g)


def cokernel_order_bruteforce(m: IntMat2) -> int:
    """Count lattice points in the half-open fundamental parallelogram."""
    assert m.det() != 0
    corners = [(0, 0), (m.a, m.c), (m.b, m.d), (m.a + m.b, m.c + m.d)]
    xs = [c[0] for c in corners]
    ys = [c[1] for c in corners]
    inv = mat2_inv(((Fraction(m.a), Fraction(m.b)),
                    (Fraction(m.c), Fraction(m.d))))
    count = 0
    for x in range(min(xs) - 1, max(xs) + 2):
        for y in range(min(ys) - 1, max(ys) + 2):
            s, t = mat2_apply(inv, (Fraction(x), Fraction(y)))
            if 0 <= s < 1 and 0 <= t < 1:
                count += 1
    return count


def snf_2x2(m: IntMat2) -> tuple:
    """(d1, d2), u, v of `snf` on a 2x2 matrix, u and v as IntMat2."""
    d, u, v = snf(m.rows())
    return d, IntMat2.from_rows(u), IntMat2.from_rows(v)


def test_snf_worked_examples():
    assert snf(IntMat2(-4, -3, -3, -1).rows())[0] == (1, 5)
    assert snf(IntMat2(-88, -55, -55, -33).rows())[0] == (11, 11)
    assert snf(IntMat2.identity().rows())[0] == (1, 1)


def test_snf_degenerate():
    assert snf(IntMat2(0, 0, 0, 0).rows())[0] == (0, 0)
    d1, d2 = snf(IntMat2(2, 4, 1, 2).rows())[0]
    assert (d1, d2) == (1, 0)
    assert snf(IntMat2(6, 0, 0, 4).rows())[0] == (2, 12)


@given(matrices)
@settings(max_examples=250)
def test_snf_properties(m):
    (d1, d2), u, v = snf_2x2(m)
    assert abs(u.det()) == 1
    assert abs(v.det()) == 1
    prod = u @ m @ v
    assert (prod.a, prod.d) == (d1, d2)
    assert prod.b == 0 and prod.c == 0
    assert d1 >= 0 and d2 >= 0
    if d1 != 0:
        assert d2 % d1 == 0
    else:
        assert d2 == 0
    assert d1 * d2 == abs(m.det())
    assert (d1, d2) == snf_diagonal_oracle(m)


def test_cokernel_order_against_bruteforce():
    rng = random.Random(1729)
    done = 0
    while done < 50:
        m = IntMat2(*(rng.randint(-12, 12) for _ in range(4)))
        if m.det() == 0:
            continue
        d1, d2 = snf(m.rows())[0]
        assert cokernel_order_bruteforce(m) == d1 * d2
        done += 1


@st.composite
def int_matrices(draw, max_rows=8, max_cols=3, bound=9):
    m = draw(st.integers(1, max_rows))
    n = draw(st.integers(1, max_cols))
    row = st.lists(st.integers(-bound, bound), min_size=n, max_size=n)
    return draw(st.lists(row, min_size=m, max_size=m))


def checked_snf(rows) -> tuple:
    """snf(rows), after checking u @ rows @ v = diag(d), |det u| = |det v|
    = 1 and that d is a nonnegative divisibility chain."""
    d, u, v = snf(rows)
    m, n = len(rows), len(rows[0])
    assert len(d) == min(m, n)
    assert matmul_rect(matmul_rect(u, rows), v) == tuple(
        tuple(d[i] if i == j else 0 for j in range(n)) for i in range(m))
    assert abs(determinant(u)) == 1 and abs(determinant(v)) == 1
    assert all(x >= 0 for x in d)
    for x, y in zip(d, d[1:]):
        assert y % x == 0 if x else y == 0
    return d


@given(int_matrices())
@settings(max_examples=300, deadline=None)
def test_snf_of_any_matrix_agrees_with_the_minors(rows):
    d = checked_snf(rows)
    n = len(rows[0])
    assert list(d) + [0] * (n - len(d)) == elementary_divisors_stack(rows, n)


def test_snf_agrees_with_sympy():
    normalforms = pytest.importorskip("sympy.matrices.normalforms")
    from sympy import ZZ, Matrix

    rng = random.Random(2024)
    for _ in range(200):
        m, n = rng.randint(1, 6), rng.randint(1, 5)
        rows = [[rng.randint(-20, 20) * rng.randint(0, 1) for _ in range(n)]
                for _ in range(m)]
        d = checked_snf(rows)
        ref = normalforms.smith_normal_form(Matrix(rows), domain=ZZ)
        assert d == tuple(abs(int(ref[i, i])) for i in range(min(m, n)))


def test_snf_of_empty_and_wide_matrices():
    assert snf([]) == ((), (), ())
    assert snf([[]]) == ((), ((1,),), ())
    assert checked_snf([[0, 0, 5], [0, 0, 0]]) == (5, 0)
    assert checked_snf([[2, 4, 4], [-6, 6, 12], [10, -4, -16]]) == (2, 6, 12)


# entries up to 10^6, half of them 0: long Euclid runs down a column, and
# columns and rows that are clear already
sparse_entries = st.one_of(st.just(0), st.integers(-10**6, 10**6))


@st.composite
def sparse_matrices(draw):
    m, n = draw(st.integers(0, 4)), draw(st.integers(0, 3))
    return [[draw(sparse_entries) for _ in range(n)] for _ in range(m)]


@given(sparse_matrices())
@settings(max_examples=400, deadline=None)
@example([[0, 7, 0], [0, 0, 0], [5, 0, 0]])
@example([[999983, 0], [0, 0], [1000003, 2], [-999979, 0]])
def test_snf_matches_the_row_step_oracle(rows):
    # (d, u, v) of the pivot Euclid equal those of whole-row steps
    assert snf(rows) == snf_by_row_steps(rows)


@given(st.sampled_from([(1, 1, 1, 0)] + [(1, 1, k, k + 1)
                                         for k in range(1, 40)]),
       st.integers(1, 80))
@settings(max_examples=200, deadline=None)
@example((1, 1, 1, 0), 80)
def test_snf_of_i_minus_a_power_matches_the_row_step_oracle(entries, n):
    rows = (IntMat2.identity() - int_mat_pow(IntMat2(*entries), n)).rows()
    assert snf(rows) == snf_by_row_steps(rows)


singular = st.builds(lambda a, b, k: IntMat2(a, b, k * a, k * b),
                     entries, entries, st.integers(-5, 5))


@given(st.one_of(matrices, singular), st.integers(0, 64))
@settings(max_examples=300, deadline=None)
@example(IntMat2(1, 1, 1, 0), 64)           # det -1
@example(IntMat2(2, 1, 1, 1), 0)
@example(IntMat2(0, 0, 0, 0), 0)
@example(IntMat2(3, 6, -1, -2), 7)          # det 0
def test_int_mat_pow_matches_repeated_squaring(a, n):
    assert int_mat_pow(a, n) == int_mat_pow_by_squaring(a, n)


@st.composite
def congruence_systems(draw):
    n = draw(st.integers(1, 12))
    m = draw(st.integers(0, 4))
    small = st.integers(-6, 6)
    rows = [[draw(small), draw(small)] for _ in range(m)]
    return rows, [draw(small) for _ in range(m)], n


@given(congruence_systems())
@settings(max_examples=300, deadline=None)
def test_congruence_solutions_match_brute_force(system):
    rows, rhs, n = system
    brute = [(k, l) for k in range(n) for l in range(n)
             if all((a * k + b * l - c) % n == 0
                    for (a, b), c in zip(rows, rhs))]
    assert congruence_solutions(rows, rhs, n) == brute


def test_congruence_solutions_count_is_the_product_of_gcds():
    # (I - R) for a quarter turn and a reflection, stacked: Smith diagonal
    # (1, 2), so gcd(1, n) * gcd(2, n) solutions of the homogeneous system
    rows = [[1, 1], [-1, 1], [0, 0], [0, 2]]
    for n in range(1, 13):
        assert len(congruence_solutions(rows, [0] * 4, n)) == gcd(2, n)
    assert congruence_solutions([[2, 0]], [1], 4) == []
    assert congruence_solutions([], [], 3) == [(k, l) for k in range(3)
                                              for l in range(3)]


def test_snf_of_the_signed_permutation_stack():
    """(1 - sigma) over the 48 signed permutations of Z^3: a 144 x 3 stack
    whose minors the earlier gcd-of-minors code took seconds to visit."""
    rows = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1, -1), repeat=3):
            rows += [[int(i == j) - signs[i] * (perm[i] == j)
                      for j in range(3)] for i in range(3)]
    with deadline(0.5):
        d, u, v = snf(rows)
    assert len(rows) == 144 and d == (1, 1, 2)
    assert matmul_rect(matmul_rect(u, rows), v)[:3] == (
        (1, 0, 0), (0, 1, 0), (0, 0, 2))


# -- the lattice kernel against elimination and a walk ------------------------

small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def rational_rows(draw):
    """Up to 6 rows of width 1-4; later rows may repeat a scaled earlier
    one, so that ranks below full show up often."""
    n = draw(st.integers(1, 4))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        if rows and draw(st.booleans()):
            k = draw(small_fractions)
            rows.append([k * x for x in draw(st.sampled_from(rows))])
        else:
            rows.append(draw(st.lists(small_fractions | st.just(Fraction(0)),
                                      min_size=n, max_size=n)))
    return rows


@given(rational_rows())
@settings(max_examples=300, deadline=None)
def test_rank_agrees_with_gaussian_elimination(rows):
    assert _integer_span(rows)[1].rank == rational_rank_by_elimination(rows)


@st.composite
def generating_sets(draw):
    """1-4 rational vectors in dimension 2 or 3; zero vectors, repeats
    and dependent sets all occur."""
    dim = draw(st.sampled_from((2, 3)))
    entry = st.fractions(min_value=Fraction(-3, 2), max_value=Fraction(3, 2),
                         max_denominator=2)
    vectors = draw(st.lists(st.tuples(*[entry] * dim), min_size=1,
                            max_size=4))
    return dim, vectors


@given(generating_sets())
@settings(max_examples=100, deadline=None)
def test_lattice_membership_agrees_with_the_walk(case):
    dim, vectors = case
    den, span = _integer_span(vectors)
    walk_den, points = lattice_points_by_walk(vectors, dim, bound=2)
    assert walk_den == den
    for big in itertools.product(range(-2, 3), repeat=dim):
        coords = span.coords(big)
        assert (coords is not None) == (big in points), big
        if coords is not None:
            assert _combination(coords, span.basis, dim) == big


@given(generating_sets())
@settings(max_examples=100, deadline=None)
def test_lattice_basis_and_vectors_generate_each_other(case):
    dim, vectors = case
    den, span = _integer_span(vectors)
    assert len(span.basis) == span.rank
    scaled = [tuple(int(x * den) for x in v) for v in vectors]
    for v in scaled:   # the basis generates every vector ...
        assert _combination(span.coords(v), span.basis, dim) == v
    # ... and spans no more than they do: both have the same determinantal
    # divisors, so the index of one lattice in the other is 1
    divisors = [d for d in elementary_divisors_stack(scaled, dim) if d]
    assert len(divisors) == span.rank
    if span.basis:
        assert [d for d in elementary_divisors_stack(span.basis, dim)
                if d] == divisors


@st.composite
def quadratic_vectors(draw):
    """1-5 vectors of width 1-3 over Q(sqrt(d)), d in {2, 3}; rational
    entries, zero vectors and rational multiples of earlier vectors all
    occur."""
    d, n = draw(st.sampled_from((2, 3))), draw(st.integers(1, 3))
    entry = st.builds(lambda a, b: QuadRat(a, b, d), small_fractions,
                      small_fractions | st.just(Fraction(0)))
    vectors = []
    for _ in range(draw(st.integers(1, 5))):
        if vectors and draw(st.booleans()):
            k = draw(small_fractions)
            vectors.append([k * x for x in draw(st.sampled_from(vectors))])
        else:
            vectors.append(draw(st.lists(entry, min_size=n, max_size=n)))
    return d, vectors


def _pair_rows(vectors):
    """(r, pairs, rows): each entry x as the pair (p, q) of r x = p + q
    sqrt(d), and each vector as the row p_1..p_n, q_1..q_n."""
    n = len(vectors[0])
    den, nums = clear_denominators([x for v in vectors for x in v])
    pairs = [num if isinstance(num, tuple) else (num, 0) for num in nums]
    rows = [tuple(p for p, _ in pairs[i:i + n])
            + tuple(q for _, q in pairs[i:i + n])
            for i in range(0, len(pairs), n)]
    return den, pairs, rows


@given(quadratic_vectors())
@settings(max_examples=100, deadline=None)
def test_quadratic_vectors_as_integer_pairs(case):
    # each entry x becomes r x = p + q sqrt(d) over one denominator r; with
    # the columns p_1..p_n, q_1..q_n the kernel has the Q-rank of the
    # vectors, and its coordinates rebuild every vector
    d, vectors = case
    n = len(vectors[0])
    den, pairs, rows = _pair_rows(vectors)
    for x, (p, q) in zip((x for v in vectors for x in v), pairs):
        assert x * den == QuadRat(p, q, d)
    span = ZSpan(rows)
    assert span.rank == rational_rank_by_elimination(
        [[x.a for x in v] + [x.b for x in v] for v in vectors])
    for v, row in zip(vectors, rows):
        back = _combination(span.coords(row), span.basis, 2 * n)
        assert [QuadRat(Fraction(p, den), Fraction(q, den), d)
                for p, q in zip(back[:n], back[n:])] == v


def _rational_rows_of(vectors, dim):
    _, nums = clear_denominators([x for v in vectors for x in v])
    return [nums[i:i + dim] for i in range(0, len(nums), dim)], dim


span_rows = st.one_of(
    rational_rows().map(lambda rows: _rational_rows_of(
        rows, len(rows[0]) if rows else 1)),
    generating_sets().map(lambda case: _rational_rows_of(case[1], case[0])),
    quadratic_vectors().map(lambda case: (_pair_rows(case[1])[2],
                                          2 * len(case[1][0]))))


@given(span_rows)
@settings(max_examples=200, deadline=None)
def test_the_lazy_basis_is_the_eager_formula(case):
    # the echelon basis and the Smith-form basis (the nonzero rows of u @ A
    # for u @ A @ v = diag(d)) span one lattice: equal ranks, and each
    # basis rebuilds the other's rows from its coordinates
    rows, dim = case
    span, oracle = ZSpan(rows), ZSpanBySnf(rows, dim)
    assert span.rank == oracle.rank
    for mine, other in ((span, oracle), (oracle, span)):
        for row in mine.basis:
            assert _combination(other.coords(row), other.basis, dim) == row


@given(span_rows)
@settings(max_examples=200, deadline=None)
def test_the_echelon_basis_leads_in_increasing_columns(case):
    # the leading columns (each basis row's first nonzero entry) strictly
    # increase, the rank is the rank over Q, and the coordinates of every
    # row rebuild it
    rows, dim = case
    span = ZSpan(rows)
    leads = [next(c for c, x in enumerate(row) if x) for row in span.basis]
    assert leads == sorted(set(leads))
    assert span.rank == len(span.basis) == rational_rank_by_elimination(
        [list(row) for row in rows] or [[0] * dim])
    for row in rows:
        assert _combination(span.coords(row), span.basis, dim) == tuple(row)


@given(span_rows)
@settings(max_examples=50, deadline=None)
def test_the_span_builds_no_snf(case):
    # the lattice kernel and every Euclid lattice question read no Smith
    # normal form: snf refuses, wherever it is looked up, and the answers
    # stand (the planar finite order of `euclid iso` reads snf on purpose)
    rows, dim = case
    presets = ("Z2", "Z2xD4", "Z3", "Z3xD4xy", "screw", "slab", "centered")
    expected = ZSpanBySnf(rows, dim).rank
    answers = [_euclid_lattice_answers(euclid.preset_crystal(name))
               for name in presets]
    with pytest.MonkeyPatch.context() as patch:
        for module in (intmat, euclid):
            for name, obj in list(vars(module).items()):
                if obj is snf:
                    patch.setattr(module, name, _refuse_snf)
        span = ZSpan(rows)
        assert span.rank == expected
        for row in rows:
            assert span.coords(row) is not None
        assert [_euclid_lattice_answers(euclid.preset_crystal(name))
                for name in presets] == answers


def _refuse_snf(*args):
    raise AssertionError("a Smith normal form in the lattice kernel")


def _euclid_lattice_answers(g):
    answers = [euclid.translation_rank(g)]
    if g.dim == 3:
        answers.append(euclid.euclid_volume_verdict(g))
    if euclid.translation_rank(g) == g.dim:
        answers += [euclid.betti_identity_component(g),
                    euclid.coinvariant_rank(g)]
    return answers


@pytest.mark.parametrize("entries", [(2, 1, 1, True), (False, 1, 1, 2)])
def test_int_mat2_takes_integer_entries_only(entries):
    # bool is a subclass of int, but True would print as "true"
    with pytest.raises(TypeError, match="^integer entries required$"):
        IntMat2(*entries)


def test_int_mat_pow():
    a = IntMat2(2, 1, 1, 1)
    assert int_mat_pow(a, 5) == IntMat2(89, 55, 55, 34)
    assert int_mat_pow(a, 2) == IntMat2(5, 3, 3, 2)
    assert int_mat_pow(a, 0) == IntMat2.identity()
    assert int_mat_pow(IntMat2(0, 1, -1, 0), 0) == IntMat2.identity()
    with pytest.raises(ValueError):
        int_mat_pow(a, -1)


def test_int_mat_pow_is_repeated_multiplication():
    for a in (IntMat2(2, 1, 1, 1), IntMat2(0, 1, -1, 0),
              IntMat2(3, -7, 2, -5), IntMat2(0, 0, 0, 0)):
        power = IntMat2.identity()
        for n in range(41):
            assert int_mat_pow(a, n) == power
            power = power @ a


def test_int_mat_pow_runs_no_matrix_product(monkeypatch):
    # the closed form s_n A + (s_(n+1) - t s_n) I: no IntMat2 product, not
    # even the k + 1 that squaring takes for n = 2**k
    a = IntMat2(2, 1, 1, 1)
    expected = [int_mat_pow_by_squaring(a, 2**k) for k in range(10)]

    def refuse(self, other):
        raise AssertionError("IntMat2 product in int_mat_pow")

    monkeypatch.setattr(IntMat2, "__matmul__", refuse)
    assert [int_mat_pow(a, 2**k) for k in range(10)] == expected


def test_fibonacci_pattern():
    a = IntMat2(1, 1, 1, 0)
    fib = [0, 1]
    for _ in range(12):
        fib.append(fib[-1] + fib[-2])
    p = int_mat_pow(a, 9)
    assert (p.a, p.b, p.c, p.d) == (fib[10], fib[9], fib[9], fib[8])


def test_diagonalize_examples():
    lam, lam_inv = sol_q_structure(IntMat2(2, 1, 1, 1))["eigenvalues"]
    assert lam == QuadRat(Fraction(3, 2), Fraction(1, 2), 5)
    assert lam_inv == QuadRat(Fraction(3, 2), Fraction(-1, 2), 5)
    mu, mu_inv = sol_q_structure(IntMat2(3, 1, 2, 1))["eigenvalues"]
    assert mu == QuadRat(2, 1, 3)
    assert mu * mu_inv == 1


def test_diagonalize_rejects_parabolic():
    with pytest.raises(ValueError):
        sol_q_structure(IntMat2(1, 1, 0, 1))
    with pytest.raises(ValueError):
        sol_q_structure(IntMat2(2, 1, 1, 1) @ IntMat2(0, -1, 1, 0))


def test_diagonalize_conjugation_identity():
    # sol_q_structure's basis is B with B A B^-1 diagonal, checked here by
    # QuadRat 2x2 products
    for mat in (IntMat2(2, 1, 1, 1), IntMat2(3, 1, 2, 1),
                IntMat2(5, 2, 2, 1), IntMat2(7, 12, 4, 7)):
        q = sol_q_structure(mat)
        (lam, lam_inv), b = q["eigenvalues"], q["basis"]
        assert lam * lam_inv == 1
        assert mat2_det(b) == 1
        field = tuple(tuple(Fraction(v) for v in row)
                      for row in mat.rows())
        diag = mat2_mul(b, mat2_mul(field, mat2_inv(b)))
        assert diag[0][0] == lam and diag[1][1] == lam_inv
        assert diag[0][1] == 0 and diag[1][0] == 0


coords = st.fractions(min_value=-50, max_value=50, max_denominator=7)


@st.composite
def planar_bases(draw):
    """Independent u, v over Q or over Q(sqrt(3))."""
    if draw(st.booleans()):
        vals = [QuadRat(draw(coords), draw(coords), 3) for _ in range(4)]
    else:
        vals = [draw(coords) for _ in range(4)]
    u, v = (vals[0], vals[1]), (vals[2], vals[3])
    assume(vec2_cross(u, v) != 0)
    return u, v


def combine(u, v, k, l):
    return (k * u[0] + l * v[0], k * u[1] + l * v[1])


def gram_scalar(pair, d: int, r: int):
    """The scalar (p + q sqrt(d)) / r^2 of an entry (p, q) of an integer
    Gram matrix over the denominator r of its basis."""
    p, q = pair
    return QuadRat(Fraction(p, r * r), Fraction(q, r * r), d) if q \
        else Fraction(p, r * r)


@settings(max_examples=150, deadline=None)
@given(planar_bases())
@example(((1, 0), (Fraction(1, 2), 1)))      # 2 g12 = g11: rounds to -g11
@example(((1, 0), (Fraction(-1, 2), 1)))
def test_gauss_reduce_gives_a_reduced_basis_of_the_same_lattice(basis):
    u, v = basis
    frame = zsqrt_basis(((u[0], v[0]), (u[1], v[1])))
    r, _ = clear_denominators((*u, *v))
    gram, p = gauss_reduce(frame.gram(), frame.d)
    assert all(isinstance(x, int) for row in p for x in row)
    assert abs(mat2_det(p)) == 1
    ru = combine(u, v, p[0][0], p[1][0])
    rv = combine(u, v, p[0][1], p[1][1])
    n1, n2, g = vec2_dot(ru, ru), vec2_dot(rv, rv), vec2_dot(ru, rv)
    # the integer Gram matrix is that of u', v', scaled by r^2
    assert [gram_scalar(x, frame.d, r) for x in gram] == [n1, g, n2]
    assert n1 <= n2 and -n1 <= 2 * g < n1
    # u' is a shortest vector: no small combination of u, v is shorter
    for k in range(-3, 4):
        for l in range(-3, 4):
            if (k, l) != (0, 0):
                w = combine(u, v, k, l)
                assert vec2_dot(w, w) >= n1


def test_gauss_reduce_beyond_float_range():
    big = 10 ** 300
    gram, p = gauss_reduce(((1, 0), (big, 0), (big * big + 1, 0)), 0)
    assert gram == ((1, 0), (0, 0), (1, 0))
    assert p == ((1, -big), (0, 1))


@st.composite
def labelled_matrices(draw):
    """Nonsingular 2x2 matrices over Q(sqrt(3)) whose entries are Fractions,
    QuadRats of Q(sqrt(3)), or rational QuadRats of Q(sqrt(3)), Q(sqrt(5))
    or Q(sqrt(7)): bases whose rational entries come in every form a
    caller can write."""
    entries = []
    for _ in range(4):
        x, kind = draw(rationals), draw(st.sampled_from(["q", "s", 3, 5, 7]))
        entries.append(x if kind == "q" else QuadRat(x, draw(rationals), 3)
                       if kind == "s" else QuadRat(x, 0, kind))
    m = (tuple(entries[:2]), tuple(entries[2:]))
    assume(mat2_det(m) != 0)
    return m


small_entries = st.integers(-3, 3)
small_matrices = st.tuples(st.tuples(small_entries, small_entries),
                           st.tuples(small_entries, small_entries))


@settings(max_examples=300, deadline=None)
@given(labelled_matrices(), st.lists(small_matrices, max_size=6))
# a rational QuadRat of Q(sqrt(5)) in a basis over Q(sqrt(3)): the scalar
# products give some rational entries the field 3, not the field 5 of
# det(basis), through the second column of basis m, then through the
# entry of adj(basis) that it divides; the swap gives irrational entries
# whose column of basis m and entry of adj(basis) are rational.  Every
# rational entry is a Fraction on both sides.
@example(((Fraction(0), Fraction(1)), (QuadRat(1, 0, 5), QuadRat(0, 1, 3))),
         [MAT2_ID, ((0, 1), (1, 0))])
@example(((QuadRat(0, 1, 3), Fraction(1)), (QuadRat(1, 0, 5), Fraction(0))),
         [MAT2_ID])
def test_integer_conjugation_is_the_scalar_product(basis, mats):
    (u0, v0), (u1, v1) = basis
    assert entry_records(zsqrt_conjugates(zsqrt_basis(basis), mats)) == \
        entry_records(rationals_as_fractions(
            point_group_elements_by_products((u0, u1), (v0, v1), mats)))


@settings(max_examples=100, deadline=None)
@given(labelled_matrices(), st.lists(small_matrices, max_size=6))
def test_a_conjugate_entry_is_a_fraction_or_irrational(basis, mats):
    conjugates = zsqrt_conjugates(zsqrt_basis(basis), mats)
    assert off_form_entries(conjugates) == []


def test_a_basis_over_two_fields_is_refused():
    # a wrong answer before: sqrt(3) was read as sqrt(2), and the
    # conjugates came back over Q(sqrt(2))
    basis = ((QuadRat(0, 1, 2), 1), (0, QuadRat(0, 1, 3)))
    swap = ((0, 1), (1, 0))
    message = re.escape("cannot mix sqrt(2) with sqrt(3)")
    with pytest.raises(MixedDiscriminantError, match=message):
        mat2_mul(mat2_mul(basis, swap), mat2_inv(basis))
    with pytest.raises(MixedDiscriminantError, match=message):
        zsqrt_conjugates(zsqrt_basis(basis), [swap])


# -- the word-ball kernel against closed forms ------------------------------

# F2 = <a, b>: a word is a freely reduced tuple of letters (generator, +-1),
# so its length is its distance from the identity.
F2_MOVES = [("a", 1), ("b", 1), ("a", -1), ("b", -1)]


def f2_mul(word, letter):
    if word and word[-1] == (letter[0], -letter[1]):
        return word[:-1]
    return word + (letter,)


Z2_MOVES = [(1, 0), (-1, 0), (0, 1), (0, -1)]


def z2_add(p, q):
    return (p[0] + q[0], p[1] + q[1])


@pytest.mark.parametrize("r", range(6))
def test_word_ball_sizes_and_order_match_closed_forms(r):
    free = list(word_ball((), F2_MOVES, f2_mul, tuple, r, cap=10**4))
    assert len(free) == 2 * 3 ** r - 1
    assert [len(w) for w in free] == sorted(len(w) for w in free)
    plane = list(word_ball((0, 0), Z2_MOVES, z2_add, tuple, r, cap=10**4))
    assert len(plane) == 2 * r * r + 2 * r + 1
    taxicab = [abs(x) + abs(y) for x, y in plane]
    assert taxicab == sorted(taxicab) and max(taxicab) == r
    if r == 0:
        assert free == [()] and plane == [(0, 0)]


def test_word_ball_cap_counts_every_element_it_yields():
    size = 2 * 3 ** 3 - 1
    assert len(list(word_ball((), F2_MOVES, f2_mul, tuple, 3,
                              cap=size))) == size
    met = []
    with pytest.raises(SearchCapError):
        for w in word_ball((), F2_MOVES, f2_mul, tuple, 3, cap=size - 1):
            met.append(w)
    assert len(met) == size      # the element past the cap is still yielded
    assert issubclass(SearchCapError, ValueError)


class CountingKey:
    """A key that counts how often it is hashed."""

    hashes = 0

    def __init__(self, value):
        self.value = value

    def __hash__(self):
        CountingKey.hashes += 1
        return hash(self.value)

    def __eq__(self, other):
        return self.value == other.value


def test_word_ball_hashes_each_candidate_key_once():
    CountingKey.hashes = 0
    calls = []

    def key(word):
        calls.append(word)
        return CountingKey(word)

    ball = list(word_ball((), F2_MOVES, f2_mul, key, 3, cap=10**4))
    assert len(ball) == 2 * 3 ** 3 - 1
    # every candidate is keyed once and its key hashed once: the identity,
    # then 4 moves from each element of the first 3 layers
    assert len(calls) == 1 + 4 * (2 * 3 ** 2 - 1)
    assert CountingKey.hashes == len(calls)


# -- the closure kernel against closed forms ---------------------------------

def cyclic_mul(n):
    return lambda a, b: (a + b) % n


def dihedral_mul(n):
    """(k, e) is x -> (-1)^e x + k on Z/n."""
    return lambda x, y: ((x[0] + (-1) ** x[1] * y[0]) % n, x[1] ^ y[1])


def group_cases(n):
    """(identity, gens, mul, key, order) of Z/n and of the dihedral group
    of order 2n."""
    return [(0, [1], cyclic_mul(n), int, n),
            ((0, 0), [(1, 0), (0, 1)], dihedral_mul(n), tuple, 2 * n)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 7, 12])
def test_closure_orders_and_edges_match_closed_forms(n):
    for identity, gens, mul, key, order in group_cases(n):
        elements, edges = closure(identity, gens, mul, key, cap=order)
        assert len(elements) == len({key(x) for x in elements}) == order
        assert elements[0] == identity
        assert len(edges) == len(elements) * len(gens)
        # the edges come in the order the walk meets them
        assert [(k, i) for k, i, _, _ in edges] == list(
            itertools.product(range(order), range(len(gens))))
        firsts = {}
        for k, i, j, first in edges:
            assert key(elements[j]) == key(mul(elements[k], gens[i]))
            if first:
                assert j not in firsts and k < j
                firsts[j] = k
        assert sorted(firsts) == list(range(1, order))


@pytest.mark.parametrize("n", [1, 2, 5, 6])
def test_closure_cap_is_the_largest_group_it_builds(n):
    for identity, gens, mul, key, order in group_cases(n):
        assert len(closure(identity, gens, mul, key, cap=order)[0]) == order
        if order > 1:
            with pytest.raises(SearchCapError, match=f"{order - 1} elements"):
                closure(identity, gens, mul, key, cap=order - 1)
    assert issubclass(SearchCapError, ValueError)


def test_closure_matches_the_word_ball_oracle():
    for n in (3, 4, 6):
        for identity, gens, mul, key, order in group_cases(n):
            ball = list(word_ball(identity, gens, mul, key, cap=order))
            assert closure(identity, gens, mul, key, cap=order)[0] == ball


def test_closure_hashes_each_product_key_once():
    CountingKey.hashes = 0
    calls = []

    def key(x):
        calls.append(x)
        return CountingKey(x)

    elements, edges = closure((0, 0), [(1, 0), (0, 1)], dihedral_mul(6),
                              key, cap=12)
    assert len(elements) == 12
    # the identity, then one key per product: 2 generators per element
    assert len(calls) == 1 + len(edges) == 1 + 12 * 2
    assert CountingKey.hashes == len(calls)


def test_every_finite_group_is_built_by_the_closure_kernel():
    calls = {}

    def counting(module):
        def wrapper(*args, **kwargs):
            calls[module.__name__] = calls.get(module.__name__, 0) + 1
            return closure(*args, **kwargs)
        return mock.patch.object(module, "closure", wrapper)

    sites = [
        (nil, lambda: _linear_group.__wrapped__((ROT_PI_2, REFLECT))),
        # a proper generating set: the whole point group is read off its
        # lattice matrices, with no closure
        (plane, lambda: nil.nil_quotient_isometry(
            nil.lattice_hz(), extra=(ROT_PI_2,))),
        (fibered, lambda: fibered.s2r_decompose(
            _s2r_generators(_S2R_PRESETS["klein"]))),
        (plane, lambda: euclid.euclid_quotient_isometry(
            euclid.preset_crystal("Z2xD4"))),
    ]
    for module, call in sites:
        calls.clear()
        with counting(module):
            call()
        assert calls.get(module.__name__, 0) >= 1, call


def _sixth_turns(k):
    return functools.reduce(mat2_mul, [ROT_PI_3] * k, MAT2_ID)


@pytest.mark.parametrize("n, rot", [(1, _sixth_turns(6)), (2, _sixth_turns(3)),
                                    (3, _sixth_turns(2)), (4, ROT_PI_2),
                                    (6, ROT_PI_3)])
def test_dihedral_closures_have_order_2n(n, rot):
    HeisIsometry.point_symmetry(rot)
    assert len(_linear_group((rot,))[2]) == matrix_order_by_powers(rot) == n
    group = list(word_ball(MAT2_ID, [rot, REFLECT], mat2_mul, tuple, cap=24))
    assert len(group) == len(set(group)) == 2 * n


@settings(max_examples=40, deadline=None)
@given(planar_lattices(), small_unimodular())
def test_lattice_point_group_is_the_closure_of_two_generators(lattice, m):
    pg = planar_point_group(*change_basis(*lattice, m))
    gens = _point_group_generators(pg.elements)
    assert len(gens) == 2 and mat2_det(gens[1]) == -1
    group = list(word_ball(MAT2_ID, gens, mat2_mul, tuple, cap=24))
    assert len(group) == pg.order
    assert set(group) == set(pg.elements)


# sum() adds floats left to right before Python 3.12, with compensation
# from 3.12 on
SUM_ADDS_LEFT_TO_RIGHT = sum([1e16, 1.0, -1e16]) == 0.0


@st.composite
def mat3_pairs(draw):
    """(kind, a, b): two 3x3 matrices over ints, ints and Fractions, those
    and QuadRats over one field, or ints and floats."""
    kind = draw(st.sampled_from(["int", "fraction", "quadrat", "float"]))
    scalars = st.integers(-9, 9)
    if kind == "fraction":
        scalars = st.one_of(scalars, rationals)
    elif kind == "quadrat":
        scalars = st.one_of(scalars, rationals, quadrats(draw(discs)))
    elif kind == "float":
        scalars = st.one_of(scalars, st.floats(-1e6, 1e6))
    rows = st.tuples(scalars, scalars, scalars)
    return kind, draw(st.tuples(rows, rows, rows)), \
        draw(st.tuples(rows, rows, rows))


@given(mat3_pairs())
def test_mat3_mul_is_the_generic_product(pair):
    kind, a, b = pair
    got, want = mat3_mul(a, b), matmul(a, b)
    entries = [(x, y) for rx, ry in zip(got, want) for x, y in zip(rx, ry)]
    assert all(type(x) is type(y) for x, y in entries)
    if kind == "float" and not SUM_ADDS_LEFT_TO_RIGHT:
        assert all(abs(x - y) <= 1e-3 for x, y in entries)
    else:
        # bit for bit; only a zero's sign may differ
        assert got == want


def test_mat3_mul_adds_left_to_right():
    # 1e16 + 1.0 rounds to 1e16, so each order of the three terms of a
    # row of a times a column of ones gives 0.0 or 1.0
    ones = ((1.0, 1.0, 1.0),) * 3
    for row in itertools.permutations((1e16, 1.0, -1e16)):
        a = (row, row[1:] + row[:1], row[2:] + row[:2])
        assert mat3_mul(a, ones) == tuple(((x + y) + z,) * 3
                                          for x, y, z in a)


def test_matmul_and_transpose_of_n_by_n_matrices():
    a = ((1, 2, 0), (0, 1, Fraction(1, 2)), (3, 0, 1))
    b = ((0, 1, 0), (1, 0, 0), (0, 0, 1))
    assert matmul(a, b) == ((2, 1, 0), (1, 0, Fraction(1, 2)), (0, 3, 1))
    assert transpose(a) == ((1, 0, 3), (2, 1, 0), (0, Fraction(1, 2), 1))
    r3 = ((QuadRat(0, 1, 3), 0), (0, 1))
    assert matmul(r3, r3) == mat2_mul(r3, r3) == ((3, 0), (0, 1))
