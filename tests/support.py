"""Test-only reference implementations, and a deadline.

`heis_mul`, `heis_inv` and `rot_apply` are the Heisenberg group law and
the O(2) automorphisms in global coordinates, and `iso_compose`,
`iso_inverse`, `iso_conjugate_translation` and `iso_is_identity` the
isometries p |-> t sigma_R(p) built on them; `lattice_contains` (through
`planar_coords` and `word_z`) tests membership in a Nil lattice.  `nil`
carried them beside its integer lattice frame until the frame did all of
its work; they serve the global-coordinate oracles below, and
`frame_point` and `frame_isometry` map lattice-frame coordinates back to
them.

`point_group_by_box` and `coset_count_by_loop` are the enumerations that
`planar_point_group` and `nil_quotient_isometry` used before they became
O(1): a box of coefficients bounded through the smallest eigenvalue of the
Gram matrix (in floats, so only for small, moderately skewed bases), and a
loop over all n^2 translation cosets.  They serve as oracles on small
inputs.  With maps adjoined, `nil_quotient_isometry` also used to check
closure on every pair of lifts (`lift_group_closes_by_pairs`) and to find
extending point symmetries by a scan of the (2n)^2 half-step grid
(`extends_by_scan`); it now works on the generators of the adjoined group
and solves congruences mod n.  One fault is mended in the scan: it tried
only z = 0 and z = step/2, but a central z shifts the residual of a det -1
conjugate by 2 z, so it now also tries z = c/2 for each such residual c.
`coset_count_by_loop` takes the pairs (Y, phi) of
`global_coset_constraints`.

`global_quotient_isometry` is `nil_quotient_isometry` with maps adjoined
as it was before it ran in the lattice frame: the lift solved in global
coordinates (`global_lift`), and the closure, coset and extension checks
on `HeisIsometry` products with `Fraction` and `QuadRat` scalars
(`global_lift_group_closes`, `global_normalizing_cosets`,
`global_extends_to_group_normalizer`).  The scan and loop oracles above
build on these.

`point_group_elements_by_products` builds the elements of a planar point
group from their integer matrices M in the basis B = (u v) as
`planar_point_group` did before one integer conjugation gave them: B M B^-1
as two `Fraction` or `QuadRat` 2x2 products per element.  It is the oracle
for the value, type and `QuadRat.d` of every entry.

`matrix_order_by_powers` is the order of a 2x2 matrix as `nil._matrix_order`
found it before its table by (det, trace): powers up to the 12th.

`FractionPairQuadRat` is the earlier representation of `QuadRat`, a pair of
reduced Fractions (a, b), with its arithmetic as it was; and
`squarefree_by_trial_division` is the earlier factoring loop.  They are the
oracles for the integer-numerator `QuadRat` and for Pollard's rho.

`integer_rows_by_parts` is `algebra.integer_rows` as it was before it
read each entry once: `clear_denominators` first, then a `list.index`
per entry for the column of its field, for vectors of any one width.
`clear_denominators` is the conversion that `ZsqrtBasis`, the Nil
lattice frame and `euclid` used before `integer_rows` became the one
conversion to integers; it refuses a string, which `integer_rows` parses.
`zsqrt_basis` builds an `intmat.ZsqrtBasis` from a 2x2 matrix, through
the `integer_rows` of its columns.

`elementary_divisors_stack` takes the gcds of all minors of each order, and
`rational_rank_by_elimination` is a Gaussian elimination over Q: the
integer-lattice code that `intmat.snf` replaced, kept as its oracles.

`lattice_points_by_walk` decides membership in the Z-span of rational
vectors by brute force, with no linear algebra: a breadth-first walk by
the steps +-v inside a box.  It is the oracle for the Smith-form lattice
kernel of `euclid`, which replaced a Gauss-Jordan solve that tested one
particular solution only.

`dichotomy_by_fixed_sets` is the Nil dichotomy as it was decided before
one Reidemeister-Schreier pass gave every verdict: a common fixed point or
pointwise fixed line by exact affine solves, then an invariant line by a
search over candidate directions, and only then the translation subgroup.
One fault is mended in it: `_solve_affine` used to drop a row reading
0 = c with c != 0, so a glide reflection seemed to fix its axis pointwise.
Its last step, `covolume_by_minors`, is the covolume test as it was
before the lattice kernel `intmat.ZSpan` read the Z-rank off integer
rows: coordinates in a basis taken from the translations, and the gcd of
the 2x2 minors.  Both take the Reidemeister-Schreier translations from
`schreier_translations_by_scalars`, the pass as it ran before it ran in
integers: `Fraction` and `QuadRat` products of matrices and vectors, and
the order of each new linear part by its powers.

`invariant_direction_by_scalars` is the direction of an invariant line
as `nil_projection_dichotomy` found it, when T is nonzero and in one
line, before it read the walk's integer generators: `Fraction` and
`QuadRat` crosses of the caller's generators with the first translation
t0 of T, and the vector reported in the caller's scalar types.  Where
t0 or a cross mixes two fields, it meets MixedDiscriminantError.

`ZSpanBySnf` is `intmat.ZSpan` as it was before the lattice kernel became
an echelon basis built by Euclid steps on whole rows: rank, basis and
integer coordinates of the span of integer rows read off one `snf`, which
carries both transforms.  It is the oracle the echelon basis is checked
against.  `dichotomy_by_zspan` is `nil.nil_projection_dichotomy` as it
read T's Z-rank and covolume off that Smith-form span.  Its span step,
`covolume_by_zspan`, takes the first row t_j that crosses the first row
t_0, their coordinates in the basis of the span, and divides |cross(t_0,
t_j)| by the determinant of those coordinates.

`word_ball` is the bounded breadth-first word ball that `intmat` carried
from the word-search era until `intmat.closure` built every finite group:
elements layer by layer up to a bound, the cap checked after each yield.
It is the closure oracle of the tests, independent of the kernel they
check, and the ball of `s2r_ball_by_products`.

`euclid_quotient_isometry_by_word_ball` is
`euclid.euclid_quotient_isometry` on a planar group with point generators
as it ran before the lattice's point group read them: the generators
written in the lattice basis (`point_gens_in_lattice_basis`), closed by
`word_ball`, and the order counted off the Smith diagonal of the stacked
M - I.

`s2r_ball_by_products` is the S^2 x R word ball that `fibered` built
before the split became a closed form: one `S2RIsometry.compose` and one
key per candidate (the rotation and the shift rounded to 9 digits, and
the flip), at most BALL_CAP elements.
`s2r_decompose_by_ball` reads the split off that ball as
`fibered.s2r_decompose` did: L from the least positive shift of a word, F
from the rotation parts of the shift-free, flip-free words.  At a bound
that reaches F and the least shift, it agrees with the closed form.

`s2r_identity_component_by_axes` is
`fibered.s2r_quotient_identity_component` as it decided before it compared
products under the split's own key: every rotation of the holonomy in
floats, and the unit axes of those not within 1e-9 of I compared to 1e-9.

`s2r_decompose_by_matmul` is `fibered.s2r_decompose` as it ran before its
3x3 rotation products were unrolled: every product the generic n x n
`intmat.matmul`, and each float key rounded entry by entry.

`sol_centralizer_by_eigenbasis` is `sol.sol_centralizer` as it was before
three integer checks on A gave its answer: A diagonalized over Q(sqrt(d))
(`diagonalize_sl2`, the eigen-data that `intmat` computed for `sol`), a
planar vector with both eigencoordinates nonzero searched for, and the
eigenvalue lam^n of the holonomy compared with 1.

`sol_q_structure_by_products` is `sol.sol_q_structure` as it checked both
diagonalizations before one integer conjugation over Z[sqrt(d)] did:
B A B^-1 as two `QuadRat` 2x2 products, for B and for its Galois
conjugate.  `sol_unit_by_eigenbasis` reads the unit off `diagonalize_sl2`.
`sol_quotient_isometry_by_snf_result` is `sol.sol_quotient_isometry` as
it read the 2x2 wrapper of `snf`: U as an `IntMat2`, and each row of
U A U^-1 reduced mod d_i, or kept as it is for d_i = 0.

`mobius_word_by_fractions` multiplies exact Mobius maps as 2x2 matrices
of Fractions, the way `MobiusMap.compose` did before an exact map became
one integer matrix over one denominator.

`zimmer_factor_by_cases` and `zimmer_parse_by_cases` are the simple-factor
families of `zimmer` as they were before one real-form table gave every
answer: a case analysis per family for validation, display, real rank and
complex type, and one for parsing a factor.

`mat2_eq`, `mat2_transpose`, `vec2_dot` and `vec2_sub` are the 2x2
helpers that `intmat` kept for the tests alone.  `sol_unit` is the unit
lam^n of a Sol lattice, read off tr(A) so that tr(A^n)^2 - 4 is never
factored, and `tangent_action` the action of a Mobius map on T H^2:
`sol` and `fibered` kept them for the tests alone.

`clear_nil_caches` empties the value caches of `nil`, every function
there with a `cache_clear` (`nil_caches` lists them), for the tests that
patch arithmetic and must see a computation, not a cache hit.
"""

import contextlib
import functools
import itertools
import math
import re
import signal
from fractions import Fraction
from unittest import mock

from geom3.algebra import (
    MixedDiscriminantError,
    QuadRat,
    as_exact,
    cross_parts,
    integer_rows,
    frac,
    galois_conjugate,
    scalar_is_rational,
)
from geom3 import euclid, fibered, nil, sol
from geom3.fibered import (
    BALL_CAP,
    LAMBDA_Z,
    LAMBDA_Z_SEMIDIRECT,
    S2R_ROT_ID,
    TRIVIAL_L,
    NonDiscreteShiftError,
    S2RDecomposition,
    S2RIsometry,
)
from geom3.algebra import format_scalar
from geom3.descriptors import IsoDescriptor
from geom3.intmat import (
    MAT2_ID,
    IntMat2,
    SearchCapError,
    ZsqrtBasis,
    congruence_solutions,
    mat2_apply,
    mat2_det,
    mat2_inv,
    mat2_mul,
    matmul,
    snf,
    vec2_cross,
)
from geom3.nil import (
    DISCRETE_PROJECTION,
    FIXES_LINE,
    FIXES_POINT,
    HALF,
    HEIS_ID,
    NON_DISCRETE_INPUT,
    POINT_GROUP_CAP,
    ROT_PI,
    DichotomyResult,
    HeisIsometry,
    HeisPoint,
    PlanarPointGroup,
    _point_group_generators,
    heis_conjugate,
    planar_point_group,
)

# -- helpers the library does not use ------------------------------------------

def mat2_transpose(m):
    return ((m[0][0], m[1][0]), (m[0][1], m[1][1]))


def mat2_eq(m, n) -> bool:
    return all(m[i][j] == n[i][j] for i in range(2) for j in range(2))


def vec2_dot(u, v):
    return u[0] * v[0] + u[1] * v[1]


def vec2_sub(u, v):
    return (u[0] - v[0], u[1] - v[1])


def sol_unit(lat) -> QuadRat:
    """The exact e-power base for exact-mode points over this lattice: the
    eigenvalue lam^n > 1 of A^n, lam that of A, so only the square-free
    part of tr(A)^2 - 4 is factored, never that of tr(A^n)^2 - 4."""
    return sol._unit(lat.a.trace()) ** lat.n


def tangent_action(m, zw: tuple[complex, complex]) -> tuple[complex, complex]:
    """Induced action on T H^2: (z, w) -> ((az+b)/(cz+d), w/(cz+d)^2)."""
    z, w = complex(zw[0]), complex(zw[1])
    a, b, c, d = (complex(float(v)) for v in m.entries())
    den = c * z + d
    return ((a * z + b) / den, w / (den * den))


# -- the Heisenberg group in global coordinates -------------------------------

def _is_integral(x) -> bool:
    if isinstance(x, int):
        return True
    if isinstance(x, Fraction):
        return x.denominator == 1
    if isinstance(x, QuadRat):
        return x.b == 0 and x.a.denominator == 1
    return False


def _to_int(x) -> int:
    if isinstance(x, QuadRat):
        return int(x.a)
    return int(x)


def heis_mul(g: HeisPoint, h: HeisPoint) -> HeisPoint:
    """(x,y,z)*(u,v,w) = (x+u, y+v, z+w+x*v)."""
    return HeisPoint(g.x + h.x, g.y + h.y, g.z + h.z + g.x * h.y)


def heis_inv(g: HeisPoint) -> HeisPoint:
    return HeisPoint(-g.x, -g.y, g.x * g.y - g.z)


def rot_apply(rot, p: HeisPoint) -> HeisPoint:
    """Apply the isometric automorphism attached to an orthogonal matrix."""
    det = mat2_det(rot)
    w = mat2_apply(rot, (p.x, p.y))
    z = det * (p.z - p.x * p.y * HALF) + w[0] * w[1] * HALF
    return HeisPoint(w[0], w[1], z)


def iso_compose(a: HeisIsometry, b: HeisIsometry) -> HeisIsometry:
    """a b: p |-> t_a sigma_a(t_b sigma_b(p))."""
    return HeisIsometry(mat2_mul(a.rot, b.rot),
                        heis_mul(a.trans, rot_apply(a.rot, b.trans)))


def iso_inverse(a: HeisIsometry) -> HeisIsometry:
    rot_inv = mat2_transpose(a.rot)
    return HeisIsometry(rot_inv, rot_apply(rot_inv, heis_inv(a.trans)))


def iso_conjugate_translation(phi: HeisIsometry, h: HeisPoint) -> HeisPoint:
    """phi L_h phi^{-1} = L_{trans * sigma(h) * trans^{-1}}."""
    return heis_conjugate(phi.trans, rot_apply(phi.rot, h))


def iso_is_identity(phi: HeisIsometry) -> bool:
    return mat2_eq(phi.rot, MAT2_ID) and phi.trans == HEIS_ID


HEIS_ISO_ID = HeisIsometry(MAT2_ID, HEIS_ID)


def _basis(lat):
    """B = (u v), the planar basis of a Nil lattice as columns."""
    return ((lat.u[0], lat.v[0]), (lat.u[1], lat.v[1]))


@functools.lru_cache(maxsize=256)
def _basis_inv(lat):
    """B^-1, once per lattice value."""
    return mat2_inv(_basis(lat))


def planar_coords(lat, w):
    """Coordinates (k, l) with k u + l v = w, or None if non-integral."""
    k, l = mat2_apply(_basis_inv(lat), w)
    if _is_integral(k) and _is_integral(l):
        return (_to_int(k), _to_int(l))
    return None


def word_z(lat, k: int, l: int):
    """z coordinate of (u,r)^k (v,s)^l."""
    return (k * lat.r + l * lat.s
            + (k * (k - 1) // 2) * lat.u[0] * lat.u[1]
            + (l * (l - 1) // 2) * lat.v[0] * lat.v[1]
            + k * l * lat.u[0] * lat.v[1])


def lattice_contains(lat, p: HeisPoint) -> bool:
    coords = planar_coords(lat, p.planar())
    if coords is None:
        return False
    return _is_integral((p.z - word_z(lat, *coords)) / lat.center_step())


def frame_point(lat, frame, k, w) -> HeisPoint:
    """The element with coordinates (K, W) in the lattice frame of lat."""
    inv_p = Fraction(1, frame.P)
    px = (lat.u[0] * k[0] + lat.v[0] * k[1]) * inv_p
    py = (lat.u[1] * k[0] + lat.v[1] * k[1]) * inv_p
    z = w * lat.lam * Fraction(1, 2 * frame.n * frame.C) + px * py * HALF
    return HeisPoint(px, py, z)


def frame_isometry(lat, frame, x) -> HeisIsometry:
    """The isometry with frame coordinates x = (M, K, W): rotation part
    B M B^-1 after the translation (K, W)."""
    m, k, w = x
    rot = mat2_mul(mat2_mul(_basis(lat), m), _basis_inv(lat))
    return HeisIsometry(rot, frame_point(lat, frame, k, w))


SIGNED_PERMUTATIONS = frozenset(
    ((a, b), (c, d))
    for a in (-1, 0, 1) for b in (-1, 0, 1)
    for c in (-1, 0, 1) for d in (-1, 0, 1)
    if a * a + b * b == 1 and c * c + d * d == 1 and a * c + b * d == 0)


def _vectors_of_norm(u, v, target):
    """All k u + l v with |k u + l v|^2 == target, k and l ascending."""
    g11 = float(vec2_dot(u, u))
    g12 = float(vec2_dot(u, v))
    g22 = float(vec2_dot(v, v))
    half_tr = (g11 + g22) / 2.0
    rad = math.sqrt(((g11 - g22) / 2.0) ** 2 + g12 * g12)
    lam_min = half_tr - rad
    bound = int(math.floor(math.sqrt(float(target) / lam_min) * 1.001)) + 1
    out = []
    for k in range(-bound, bound + 1):
        for l in range(-bound, bound + 1):
            w = (k * u[0] + l * v[0], k * u[1] + l * v[1])
            if vec2_dot(w, w) == target:
                out.append(w)
    return out


def point_group_by_box(u, v) -> tuple:
    """Orthogonal stabilizer of Z u + Z v by enumerating both images."""
    u = (as_exact(u[0]), as_exact(u[1]))
    v = (as_exact(v[0]), as_exact(v[1]))
    basis_inv = mat2_inv(((u[0], v[0]), (u[1], v[1])))
    dot_uv = vec2_dot(u, v)
    found = []
    for iu in _vectors_of_norm(u, v, vec2_dot(u, u)):
        for iv in _vectors_of_norm(u, v, vec2_dot(v, v)):
            if vec2_dot(iu, iv) != dot_uv:
                continue
            t = mat2_mul(((iu[0], iv[0]), (iu[1], iv[1])), basis_inv)
            if not mat2_eq(mat2_mul(mat2_transpose(t), t), MAT2_ID):
                continue
            if not any(mat2_eq(t, m) for m in found):
                found.append(t)
    return tuple(found)


def point_group_elements_by_products(u, v, basis_matrices) -> tuple:
    """B M B^-1 for each integer matrix M, B = (u v), by scalar products."""
    u = (as_exact(u[0]), as_exact(u[1]))
    v = (as_exact(v[0]), as_exact(v[1]))
    basis = ((u[0], v[0]), (u[1], v[1]))
    basis_inv = mat2_inv(basis)
    return tuple(mat2_mul(mat2_mul(basis, m), basis_inv)
                 for m in basis_matrices)


def entry_records(matrices) -> list:
    """Each entry of each 2x2 matrix as (value, type, QuadRat.d or None,
    repr): equal records are the same scalar, down to its form."""
    return [(x, type(x), getattr(x, "d", None), repr(x))
            for m in matrices for row in m for x in row]


def rationals_as_fractions(matrices) -> tuple:
    """Each 2x2 matrix with its rational QuadRat entries made Fractions:
    the one form the integer kernels give a rational scalar."""
    return tuple(tuple(tuple(x.as_fraction()
                             if isinstance(x, QuadRat) and not x.q else x
                             for x in row) for row in m) for m in matrices)


def off_form_entries(matrices) -> list:
    """The entries of 2x2 matrices that break the one form of an exact
    scalar: a Fraction when rational, a QuadRat with q != 0 when not."""
    return [x for m in matrices for row in m for x in row
            if type(x) is not Fraction
            and not (type(x) is QuadRat and x.q)]


def matrix_order_by_powers(m) -> int:
    """Order of a 2x2 matrix whose order divides 12, by its powers."""
    power = m
    for k in range(1, 13):
        if mat2_eq(power, MAT2_ID):
            if 12 % k:
                raise ValueError(f"order {k} is not exactly representable")
            return k
        power = mat2_mul(power, m)
    raise ValueError("rotation part must have finite order dividing 12")


def lift_group_closes_by_pairs(lat, lifts: dict) -> bool:
    """Every product of two lifts lands back in lattice * lift."""
    group = {MAT2_ID: HEIS_ISO_ID, **lifts}
    for a in lifts.values():
        for b in lifts.values():
            prod = iso_compose(a, b)
            target = group.get(prod.rot)
            if target is None or not lattice_contains(
                    lat, iso_compose(prod, iso_inverse(target)).trans):
                return False
    return True


def extends_by_scan(lat, rot, extra_lifts: dict) -> bool:
    """Search the (2n)^2 half-step grid of translations tau for a translate
    t = (tau, z) of the lift of rot that normalizes the lattice and
    conjugates every adjoined lift into lattice * lift.

    z is tried at 0, at step/2, and at c/2 for the central residual c of
    each det -1 conjugate at z = 0: conjugation by the central (0, 0, z)
    shifts that residual by 2 z and leaves the others alone.  At each z
    every check is a full conjugation, so a pass is an explicit
    normalizing element."""
    try:
        base = global_lift(lat, rot)
    except ValueError:
        return False
    step = lat.center_step()
    denom = 2 * lat.n
    for k in range(denom):
        for l in range(denom):
            tau = (Fraction(k, denom) * lat.u[0] + Fraction(l, denom) * lat.v[0],
                   Fraction(k, denom) * lat.u[1] + Fraction(l, denom) * lat.v[1])
            flat = iso_compose(HeisIsometry.translation(
                HeisPoint(tau[0], tau[1], Fraction(0))), base)
            zs = [Fraction(0), step / 2]
            for lift in extra_lifts.values():
                if mat2_det(lift.rot) == 1:
                    continue
                resid = _conjugation_residual(flat, lift, extra_lifts)
                coords = (None if resid is None
                          else planar_coords(lat, resid.planar()))
                if coords is not None:
                    zs.append((word_z(lat, *coords) - resid.z) / 2)
            for z in zs:
                t = HeisIsometry.translation(HeisPoint(tau[0], tau[1], z))
                if _normalizes(lat, iso_compose(t, base), extra_lifts):
                    return True
    return False


def _conjugation_residual(cand, lift, extra_lifts: dict):
    """Translation part of cand lift cand^-1 match^-1, for the lift match
    with the rotation part of the conjugate; None if there is no such lift."""
    conj = iso_compose(iso_compose(cand, lift), iso_inverse(cand))
    match = extra_lifts.get(conj.rot)
    if match is None:
        return None
    return iso_compose(conj, iso_inverse(match)).trans


def _normalizes(lat, cand, extra_lifts: dict) -> bool:
    """cand conjugates every lattice generator into the lattice and every
    adjoined lift into lattice * lift."""
    if not all(lattice_contains(lat, iso_conjugate_translation(cand, g))
               for g in lat.generators()):
        return False
    for lift in extra_lifts.values():
        resid = _conjugation_residual(cand, lift, extra_lifts)
        if resid is None or not lattice_contains(lat, resid):
            return False
    return True


def coset_count_by_loop(lat, pairs=()) -> int:
    """Translation cosets k u/n + l v/n that pass `global_coset_constraints`
    for the pairs (Y, phi)."""
    count = 0
    for k in range(lat.n):
        for l in range(lat.n):
            tau = (Fraction(k, lat.n) * lat.u[0]
                   + Fraction(l, lat.n) * lat.v[0],
                   Fraction(k, lat.n) * lat.u[1]
                   + Fraction(l, lat.n) * lat.v[1])
            if global_coset_constraints(lat, tau, list(pairs)):
                count += 1
    return count


def global_lift(lat, rot) -> HeisIsometry:
    """The lift of rot solved in global coordinates: cross(w, u) = c_u,
    cross(w, v) = c_v, the c-values forced by membership of the rotated
    generators; verified by conjugating every lattice generator."""
    det = mat2_det(rot)
    targets = []
    for vec, off in ((lat.u, lat.r), (lat.v, lat.s)):
        img = mat2_apply(rot, vec)
        coords = planar_coords(lat, img)
        if coords is None:
            raise ValueError("rotation does not preserve the projected lattice")
        eta = (img[0] * img[1] - det * vec[0] * vec[1]) * HALF
        targets.append(det * (word_z(lat, *coords) - eta) - off)
    mat = ((lat.u[1], -lat.u[0]), (lat.v[1], -lat.v[0]))
    w1, w2 = mat2_apply(mat2_inv(mat), (targets[0], targets[1]))
    w = HeisPoint(w1, w2, Fraction(0))
    iso = HeisIsometry(rot, rot_apply(rot, w))
    for gen in lat.generators():
        if not lattice_contains(lat, iso_conjugate_translation(iso, gen)):
            raise AssertionError("lift verification failed")
    return iso


def global_coset_constraints(lat, tau, pairs) -> bool:
    """Whether some translation (tau, z) conjugates Y into lattice * phi for
    every pair (Y, phi) of isometries with equal rotation parts: the
    residual (tau, 0) Y (tau, 0)^-1 phi^-1 must be a lattice vector up to
    a central z, which drops out for det 1 and shifts it by 2 z for
    det -1."""
    step = lat.center_step()
    t0 = HeisPoint(tau[0], tau[1], Fraction(0))
    t0_inv = heis_inv(t0)
    reversing = []
    for y, phi in pairs:
        q = heis_mul(heis_mul(heis_mul(t0, y.trans), rot_apply(y.rot, t0_inv)),
                     heis_inv(phi.trans))
        coords = planar_coords(lat, q.planar())
        if coords is None:
            return False
        need = word_z(lat, *coords) - q.z
        if mat2_det(y.rot) == -1:
            reversing.append(need)
        elif not _is_integral(need / step):
            return False
    return all(_is_integral((c - reversing[0]) / step) for c in reversing[1:])


def _identity_minus_lattice_matrix(lat, rot):
    m = mat2_mul(mat2_mul(_basis_inv(lat), rot), _basis(lat))
    if not all(_is_integral(x) for row in m for x in row):
        raise ValueError("rotation does not preserve the projected lattice")
    return ((1 - _to_int(m[0][0]), -_to_int(m[0][1])),
            (-_to_int(m[1][0]), 1 - _to_int(m[1][1])))


def global_lift_group_closes(lat, lifts: dict, gens) -> bool:
    """L(a) L(g) in lattice * L(ag) for every lift a and generator g."""
    inverses = {MAT2_ID: HEIS_ISO_ID}
    inverses.update((m, iso_inverse(lift)) for m, lift in lifts.items())
    for a in lifts.values():
        for g in gens:
            prod = iso_compose(a, lifts[g])
            target = inverses.get(prod.rot)
            if target is None or not lattice_contains(
                    lat, iso_compose(prod, target).trans):
                return False
    return True


def global_normalizing_cosets(lat, pairs):
    """Each tau = B k / n solving the planar congruence
    (I - B^-1 R_Y B) k = -n B^-1 (w_Y - w_phi) (mod n) of every pair and
    passing `global_coset_constraints`."""
    rows, rhs = [], []
    for y, phi in pairs:
        c = mat2_apply(_basis_inv(lat),
                       vec2_sub(y.trans.planar(), phi.trans.planar()))
        if not all(_is_integral(lat.n * x) for x in c):
            return
        rows += _identity_minus_lattice_matrix(lat, y.rot)
        rhs += [-_to_int(lat.n * x) for x in c]
    for k, l in congruence_solutions(rows, rhs, lat.n):
        tau = mat2_apply(_basis(lat),
                         (Fraction(k, lat.n), Fraction(l, lat.n)))
        if global_coset_constraints(lat, tau, pairs):
            yield tau


def global_extends_to_group_normalizer(lat, rot, lifts: dict, gens) -> bool:
    """Some t = (B k / n, z) has t * base conjugating each generator lift
    into lattice * lift, base the lift of rot."""
    try:
        base = global_lift(lat, rot)
    except ValueError:
        return False
    base_inv = iso_inverse(base)
    pairs = []
    for g in gens:
        y = iso_compose(iso_compose(base, lifts[g]), base_inv)
        match = lifts.get(y.rot)
        if match is None:
            return False
        pairs.append((y, match))
    return any(True for _ in global_normalizing_cosets(lat, pairs))


def global_quotient_isometry(lat, extra) -> IsoDescriptor:
    """`nil_quotient_isometry(lat, extra)` in global coordinates."""
    pg = planar_point_group(lat.u, lat.v)
    mats = extra.elements if isinstance(extra, PlanarPointGroup) else extra
    try:
        extra_mats = list(word_ball(MAT2_ID, tuple(mats), mat2_mul, tuple,
                                    cap=POINT_GROUP_CAP))
    except SearchCapError:
        raise ValueError("adjoined set generates too large a group") from None
    if not set(extra_mats) <= set(pg.elements):
        raise ValueError("adjoined point group does not normalize "
                         "the lattice")
    lifts = {m: global_lift(lat, m) for m in extra_mats[1:]}
    gens = _point_group_generators(extra_mats)
    if gens and not global_lift_group_closes(lat, lifts, gens):
        u, v = (", ".join(map(format_scalar, w)) for w in (lat.u, lat.v))
        raise ValueError(
            f"adjoined point group does not close over the lattice "
            f"u = ({u}), v = ({v}), r = {format_scalar(lat.r)}, "
            f"s = {format_scalar(lat.s)}, n = {lat.n}: a product of two "
            f"lifted point symmetries is not a lattice element times a lift")
    if gens:
        own = [(lifts[g], lifts[g]) for g in gens]
        admissible = sum(1 for _ in global_normalizing_cosets(lat, own))
    else:
        admissible = lat.n ** 2
    if not gens or len(extra_mats) == pg.order:
        extending = pg.order
    else:
        extending = sum(
            m in set(extra_mats)
            or global_extends_to_group_normalizer(lat, m, lifts, gens)
            for m in pg.elements)
    finite_order = admissible * (extending // len(extra_mats))
    finite = {"order": finite_order, "translation_cosets": admissible,
              "point_quotient": extending // len(extra_mats)}
    if any(mat2_det(m) == -1 for m in lifts):
        total = 2 * finite_order
        finite.update(order=total, circle_quantized_to=2,
                      structure={1: "trivial", 2: "Z2"}.get(
                          total, f"order {total}"))
        return IsoDescriptor(geometry="nil", identity_component="trivial",
                             circle_factor=2, finite_part=finite,
                             total_order=total)
    finite["structure"] = f"order {finite_order}"
    return IsoDescriptor(geometry="nil", identity_component="S1",
                         circle_factor="S1", finite_part=finite)


def nil_caches() -> dict:
    """Every value cache of `nil`, by name: whatever there has a
    `cache_clear`, so that a new cache needs no entry here."""
    return {name: obj for name, obj in vars(nil).items()
            if callable(getattr(obj, "cache_clear", None))}


def clear_nil_caches():
    """Empty nil's value caches, so that the next call computes afresh: a
    test that patches the arithmetic of a cached function checks nothing
    on a hit."""
    for cached in nil_caches().values():
        cached.cache_clear()


@contextlib.contextmanager
def deadline(seconds: float):
    """Fail with TimeoutError if the block runs longer than `seconds`, so a
    return to an enumeration shows up as a failure rather than a hang."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def squarefree_by_trial_division(n: int) -> tuple[int, int]:
    """n = s**2 * d with d square-free, by trial division up to sqrt(n)."""
    s, d, p = 1, 1, 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        s *= p ** (e // 2)
        if e % 2:
            d *= p
        p += 1 if p == 2 else 2
    return s, d * n


class FractionPairQuadRat:
    """a + b*sqrt(d) with a and b reduced Fractions.

    Same constructor, operations, repr and str as `geom3.algebra.QuadRat`;
    every result is built from Fraction arithmetic.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d: int):
        a, b = frac(a), frac(b)
        if b != 0:
            if d <= 1:
                raise ValueError("discriminant must be an integer > 1")
            s, d0 = squarefree_by_trial_division(d)
            if s != 1:
                b, d = b * s, d0
        self._set(a, b, d)

    def _set(self, a, b, d):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    @classmethod
    def _make(cls, a: Fraction, b: Fraction, d: int):
        self = object.__new__(cls)
        self._set(a, b, d)
        return self

    def __setattr__(self, *_):
        raise AttributeError("immutable")

    def _coerce(self, other):
        if isinstance(other, FractionPairQuadRat):
            if other.b == 0:
                return self._make(other.a, Fraction(0),
                                  self.d if self.b else other.d)
            if self.b != 0 and self.d != other.d:
                raise MixedDiscriminantError(
                    f"cannot mix sqrt({self.d}) with sqrt({other.d})")
            return other
        if isinstance(other, (int, Fraction)):
            return self._make(Fraction(other), Fraction(0), self.d)
        return None

    def conjugate(self):
        return self._make(self.a, -self.b, self.d)

    def norm(self) -> Fraction:
        return self.a * self.a - self.b * self.b * self.d

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self.d if self.b else o.d
        return self._make(self.a + o.a, self.b + o.b, d)

    __radd__ = __add__

    def __neg__(self):
        return self._make(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self.d if self.b else o.d
        return self._make(self.a - o.a, self.b - o.b, d)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self.d if self.b else o.d
        return self._make(self.a * o.a + self.b * o.b * d,
                          self.a * o.b + self.b * o.a, d)

    __rmul__ = __mul__

    def inverse(self):
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(d))")
        return self._make(self.a / n, -self.b / n, self.d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int):
        base = self if k >= 0 else self.inverse()
        out = self._make(Fraction(1), Fraction(0), self.d)
        for _ in range(abs(k)):
            out = out * base
        return out

    def sign(self) -> int:
        if self.b == 0:
            return (self.a > 0) - (self.a < 0)
        if self.a == 0:
            return 1 if self.b > 0 else -1
        if self.a > 0 and self.b > 0:
            return 1
        if self.a < 0 and self.b < 0:
            return -1
        bigger_rational = self.a * self.a > self.b * self.b * self.d
        return (1 if bigger_rational else -1) if self.a > 0 else \
               (-1 if bigger_rational else 1)

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except MixedDiscriminantError:
            return False
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __lt__(self, other):
        return (self - self._coerce(other)).sign() < 0

    def __le__(self, other):
        return (self - self._coerce(other)).sign() <= 0

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def __floor__(self) -> int:
        den = math.lcm(self.a.denominator, self.b.denominator)
        num_a = self.a.numerator * (den // self.a.denominator)
        num_b = self.b.numerator * (den // self.b.denominator)
        root = math.isqrt(num_b * num_b * self.d)
        if num_b < 0:
            root = -root - 1
        return (num_a + root) // den

    def __repr__(self):
        return f"QuadRat({self.a!r}, {self.b!r}, {self.d})"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        root = f"√{self.d}"
        bpart = root if abs(self.b) == 1 else f"{abs(self.b)}{root}"
        if self.a == 0:
            return f"-{bpart}" if self.b < 0 else bpart
        return f"{self.a} {'-' if self.b < 0 else '+'} {bpart}"


def elementary_divisors_stack(rows: list[list[int]], ncols: int) -> list[int]:
    """Elementary divisors d1 | d2 | ... of an integer matrix given by rows.

    For k x ncols matrices with ncols <= 3.  Computed from gcds of minors;
    zero entries signal free factors.
    """
    divisors = []
    prev = 1
    for order in range(1, ncols + 1):
        g = 0
        for rs in itertools.combinations(range(len(rows)), order):
            for cs in itertools.combinations(range(ncols), order):
                g = math.gcd(g, _det_minor(rows, rs, cs))
        if g == 0:
            divisors.append(0)
            prev = 0
        else:
            divisors.append(g // prev if prev else 0)
            prev = g
    return divisors


def _det_minor(rows, rs, cs):
    sub = [[rows[r][c] for c in cs] for r in rs]
    n = len(sub)
    if n == 1:
        return sub[0][0]
    if n == 2:
        return sub[0][0] * sub[1][1] - sub[0][1] * sub[1][0]
    if n == 3:
        return (sub[0][0] * (sub[1][1] * sub[2][2] - sub[1][2] * sub[2][1])
                - sub[0][1] * (sub[1][0] * sub[2][2] - sub[1][2] * sub[2][0])
                + sub[0][2] * (sub[1][0] * sub[2][1] - sub[1][1] * sub[2][0]))
    raise ValueError("minor order > 3 not supported")


def lattice_points_by_walk(vectors, dim: int, bound: int):
    """(D, points): D the common denominator of the rational vectors, and
    every point of their Z-span whose coordinates, times D, lie in
    [-bound, bound], as those integer tuples.

    The walk starts at 0 and takes the steps +-D v while it stays in the
    box widened by dim * M, M the largest entry of any D v.  That finds
    every point of the inner box: a lattice point W is a sum of n steps,
    and by the Steinitz lemma (any norm, dimension dim) they can be
    ordered so that each partial sum lies within dim * (M + |W| / n) of
    the segment [0, W]; padding with pairs of opposite steps makes n as
    large as needed, and partial sums are integral.
    """
    den = math.lcm(*(Fraction(x).denominator for v in vectors for x in v))
    steps = {tuple(int(Fraction(x) * den) * sign for x in v)
             for v in vectors for sign in (1, -1)}
    reach = bound + dim * max((abs(x) for st in steps for x in st),
                              default=0)
    seen = {(0,) * dim}
    frontier = list(seen)
    while frontier:
        nxt = []
        for p in frontier:
            for st in steps:
                q = tuple(a + b for a, b in zip(p, st))
                if q not in seen and all(abs(x) <= reach for x in q):
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return den, {p for p in seen if all(abs(x) <= bound for x in p)}


def rational_rank_by_elimination(rows) -> int:
    """Rank over Q by Gaussian elimination."""
    m = [list(map(Fraction, row)) for row in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank, prow = 0, 0
    for col in range(ncols):
        pivot = None
        for r in range(prow, len(m)):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        m[prow], m[pivot] = m[pivot], m[prow]
        pv = m[prow][col]
        for r in range(len(m)):
            if r != prow and m[r][col] != 0:
                factor = m[r][col] / pv
                m[r] = [m[r][k] - factor * m[prow][k] for k in range(ncols)]
        prow += 1
        rank += 1
        if prow == len(m):
            break
    return rank


def determinant(rows) -> Fraction:
    """Determinant of a square matrix by elimination over Q."""
    m = [list(map(Fraction, row)) for row in rows]
    det = Fraction(1)
    for col in range(len(m)):
        pivot = next((r for r in range(col, len(m)) if m[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, len(m)):
            f = m[r][col] / m[col][col]
            m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return det


def clear_denominators(xs) -> tuple[int, list]:
    """(r, nums) for exact scalars xs: r is the least positive integer that
    makes every r x integral (in Z, or in Z[sqrt(d)] for an irrational x),
    and nums holds each r x in order, as an int for a rational x and as
    the pair (p, q) of r x = p + q sqrt(d) for an irrational x, whose field
    d the caller reads off x.  With no xs, r = 1.  A float is a domain
    error, since no integer may take one silently."""
    parts = []
    for x in xs:
        if isinstance(x, QuadRat):
            parts.append((x.p, x.q, x.r))
        elif isinstance(x, (int, Fraction)):
            parts.append((x.numerator, 0, x.denominator))
        else:
            raise ValueError(f"exact entries required, not {x!r}")
    r = math.lcm(*(s for _, _, s in parts))
    return r, [(p * (r // s), q * (r // s)) if q else p * (r // s)
               for p, q, s in parts]


def integer_rows_by_parts(vectors, lead: int = 0):
    """`algebra.integer_rows` through `clear_denominators`, its fields
    looked up by `list.index` entry by entry."""
    flat = [x for v in vectors for x in v]
    w = len(vectors[0]) if vectors else 1
    r, nums = clear_denominators(flat)
    fields = sorted({x.d for x, num in zip(flat, nums)
                     if isinstance(num, tuple)} - {lead})
    if lead:
        fields.insert(0, lead)
    rows = [[0] * (w * len(fields) + w) for _ in vectors]
    for i, (x, num) in enumerate(zip(flat, nums)):
        row, k = rows[i // w], i % w
        if isinstance(num, tuple):
            row[k], row[w * fields.index(x.d) + w + k] = num
        else:
            row[k] = num
    return r, (1, *fields), list(map(tuple, rows))


def zsqrt_basis(basis) -> ZsqrtBasis:
    """`intmat.ZsqrtBasis` of the 2x2 matrix basis = (u v), from the
    `integer_rows` of its columns u and v."""
    _, radicands, rows = integer_rows(tuple(zip(*basis)))
    return ZsqrtBasis(radicands, rows)


def matmul_rect(a, b) -> tuple:
    """Product of an m x k and a k x n matrix, as row tuples."""
    return tuple(tuple(sum(x * y for x, y in zip(row, col))
                       for col in zip(*b)) for row in a)


def dichotomy_by_fixed_sets(gens) -> DichotomyResult:
    """`nil_projection_dichotomy` in three steps: a common fixed set, an
    invariant line, and only for the groups with neither, the covolume of
    the Reidemeister-Schreier translations."""
    planar = [g.planar_part() for g in gens]

    # common fixed point (or pointwise fixed line)
    common = ((Fraction(0), Fraction(0)), ((1, 0), (0, 1)))
    for rot, w in planar:
        mat = ((1 - rot[0][0], -rot[0][1]), (-rot[1][0], 1 - rot[1][1]))
        common = _intersect_affine(common, _solve_affine(mat, w))
        if common is None:
            break
    if common is not None:
        point, dirs = common
        if len(dirs) == 0:
            return DichotomyResult(FIXES_POINT, point=point)
        if len(dirs) == 1:
            return DichotomyResult(FIXES_LINE, direction=dirs[0])
        return DichotomyResult(FIXES_POINT, point=(Fraction(0), Fraction(0)))

    line = _invariant_line(planar)
    if line is not None:
        return DichotomyResult(FIXES_LINE, direction=line)

    _, translations = schreier_translations_by_scalars(planar)
    covolume = covolume_by_minors(translations)
    if covolume is None:
        return DichotomyResult(NON_DISCRETE_INPUT)
    return DichotomyResult(DISCRETE_PROJECTION,
                           witness=HeisPoint(Fraction(0), Fraction(0),
                                             covolume))


def schreier_translations_by_scalars(planar):
    """Transversal {f: w_f} and the nonzero generators of the translation
    subgroup of the planar group, by exact scalar arithmetic.

    Breadth-first over the linear parts: the first element met over each
    linear part f is its transversal element s_f = (f, w_f), and every
    other edge s_f g_i gives the Schreier generator s_f g_i s_{f R_i}^-1,
    the translation by w_f + f w_i - w_{f R_i}.  Every new linear part
    passes the orthogonality and order checks, and at most POINT_GROUP_CAP
    are admitted.
    """
    queue = [(MAT2_ID, (Fraction(0), Fraction(0)))]
    transversal = dict(queue)
    out = []
    for f, w_f in queue:                 # grows while it is walked
        for rot, w in planar:
            f_rot = mat2_mul(f, rot)
            fw = mat2_apply(f, w)
            image = (w_f[0] + fw[0], w_f[1] + fw[1])
            w_next = transversal.get(f_rot)
            if w_next is None:
                if not mat2_eq(mat2_mul(mat2_transpose(f_rot), f_rot),
                               MAT2_ID):
                    raise ValueError("rotation part must be orthogonal")
                matrix_order_by_powers(f_rot)
                if len(transversal) == POINT_GROUP_CAP:
                    raise ValueError("linear parts generate too large a group")
                transversal[f_rot] = image
                queue.append((f_rot, image))
            else:
                t = vec2_sub(image, w_next)
                if t[0] or t[1]:
                    out.append(t)
    return transversal, out


def covolume_by_minors(translations):
    """Covolume of the group the planar translations generate if it is a
    lattice, None if its Q-span has dimension 3 or more.  The translations
    must span the plane.

    Each t_i is written as alpha_i t_a + beta_i t_b in a basis t_a, t_b of
    the plane taken from the list.  The Q-span has dimension 2 exactly
    when every alpha_i, beta_i is rational; then cross(t_i, t_j) =
    (alpha_i beta_j - alpha_j beta_i) cross(t_a, t_b), and the covolume is
    the gcd of these areas.
    """
    ts = list(dict.fromkeys(translations))
    t_a = ts[0]
    t_b = next(t for t in ts if vec2_cross(t_a, t) != 0)
    area = vec2_cross(t_a, t_b)
    coords = []
    for t in ts:
        for x in (vec2_cross(t, t_b) / area, vec2_cross(t_a, t) / area):
            if not scalar_is_rational(x):
                return None
            coords.append(x.as_fraction() if isinstance(x, QuadRat) else x)
    den = math.lcm(*(x.denominator for x in coords))
    ints = [x.numerator * (den // x.denominator) for x in coords]
    pairs = list(zip(ints[::2], ints[1::2]))
    minors = math.gcd(*(a * d - b * c for i, (a, b) in enumerate(pairs)
                        for c, d in pairs[i + 1:]))
    return abs(area) * Fraction(minors, den * den)


class ZSpanBySnf:
    """The Z-span of integer row vectors of width dim, read off one `snf`.

    With u @ A @ v = diag(d) for the rows A, the rank is the number of
    nonzero d_i (they come first), and the nonzero rows of u @ A are a
    basis.  Since u @ A = diag(d) @ v^-1, an integer vector w lies in the
    span when w @ v = (c_0 d_0, ..., c_{r-1} d_{r-1}, 0, ..., 0) for
    integers c_i, its coordinates in that basis.  Any generating set will
    do, zero and repeated rows too.
    """

    def __init__(self, rows, dim: int):
        rows = list(rows) or [[0] * dim]
        d, u, v = snf(rows)
        self.rank = rank = sum(1 for x in d if x)
        self.basis = tuple(
            tuple(sum(c * row[j] for c, row in zip(ui, rows))
                  for j in range(dim)) for ui in u[:rank])
        self._divisors = d[:rank]
        self._columns = tuple(zip(*v))

    def coords(self, w):
        """Integer coordinates of the integer vector w in `basis`, or None
        off the span."""
        s = [sum(a * b for a, b in zip(w, col)) for col in self._columns]
        if any(s[self.rank:]) or any(x % d for x, d in zip(s, self._divisors)):
            return None
        return tuple(x // d for x, d in zip(s, self._divisors))


def dichotomy_by_zspan(gens) -> DichotomyResult:
    """`nil_projection_dichotomy` with its span step read off the
    Smith-form span `ZSpanBySnf`."""
    planar = [g.planar_part() for g in gens]
    transversal, rows, radicands, D, r, generators = \
        nil._schreier_translations(planar)
    if not rows:
        f = list(transversal)[-1]
        if len(transversal) == 2 and f != (-D, 0, 0, 0, 0, -D, 0, 0):
            fixed = ((D - f[0], -f[1], -f[2], -f[3]),
                     (-f[4], D - f[5], -f[6], -f[7]))     # I - sigma
            a, b = nil._vector(next(v for v in fixed if any(v)),
                               radicands, D)
            return DichotomyResult(FIXES_LINE, direction=(-b, a))
        total = [sum(column) for column in zip(*transversal.values())]
        return DichotomyResult(FIXES_POINT, point=nil._vector(
            total, radicands, r * len(transversal)))
    if not any(cross_parts(radicands, rows[0], row) for row in rows):
        return DichotomyResult(FIXES_LINE, direction=nil._invariant_direction(
            generators, rows[0], radicands, D, r // D))
    covolume = covolume_by_zspan(rows, radicands, r)
    if covolume is None:
        return DichotomyResult(NON_DISCRETE_INPUT)
    return DichotomyResult(DISCRETE_PROJECTION,
                           witness=HeisPoint(Fraction(0), Fraction(0),
                                             covolume))


def invariant_direction_by_scalars(planar, t0):
    """Direction of a line preserved by a planar group whose translations
    are nonzero and parallel to t0, in scalar arithmetic: the translation
    part of the first generator with linear part I, or the axis of the
    first reflection generator or its perpendicular, whichever is parallel
    to t0; else the first nonzero w_i - w_j for two -I generators."""
    minus_ws = []
    for rot, w in planar:
        if mat2_eq(rot, MAT2_ID):
            if w[0] or w[1]:
                return w
        elif mat2_det(rot) == -1:
            axis = _reflection_axis(rot)
            return axis if vec2_cross(axis, t0) == 0 else (-axis[1], axis[0])
        else:
            minus_ws.append(w)
    diffs = (vec2_sub(a, b) for i, a in enumerate(minus_ws)
             for b in minus_ws[i + 1:])
    return next(d for d in diffs if d[0] or d[1])


def _reflection_axis(rot):
    """The first nonzero column of I + rot."""
    col0 = (rot[0][0] + 1, rot[1][0])
    return col0 if col0[0] or col0[1] else (rot[0][1], rot[1][1] + 1)


def covolume_by_zspan(rows, radicands, r):
    """Covolume of the Z-span of integer rows that span the plane, or None
    at Z-rank 3 or more: |cross(t_0, t_j)| over the determinant of the
    `ZSpanBySnf` coordinates of t_0 and of the first t_j that crosses it."""
    j, parts = next((j, parts) for j, row in enumerate(rows)
                    if (parts := cross_parts(radicands, rows[0], row)))
    span = ZSpanBySnf(dict.fromkeys(rows), len(rows[0]))
    if span.rank > 2:
        return None
    (a, b), (c, d) = span.coords(rows[0]), span.coords(rows[j])
    return abs(nil._cross_value(r, parts)) / abs(a * d - b * c)


def _solve_affine(mat, rhs):
    """Solution set of mat p = rhs as (point, tuple_of_directions) or None."""
    det = mat2_det(mat)
    if det != 0:
        return (mat2_apply(mat2_inv(mat), rhs), ())
    rows = [(mat[0][0], mat[0][1], rhs[0]), (mat[1][0], mat[1][1], rhs[1])]
    nonzero = [r for r in rows if r[0] != 0 or r[1] != 0]
    if any(r[2] != 0 for r in rows if r not in nonzero):
        return None                 # a row reading 0 = c with c != 0
    if not nonzero:
        if rhs[0] == 0 and rhs[1] == 0:
            return ((Fraction(0), Fraction(0)), ((1, 0), (0, 1)))
        return None
    a, b, c = nonzero[0]
    for a2, b2, c2 in nonzero[1:]:
        # proportional rows must carry proportional right-hand sides
        if a * c2 != a2 * c or b * c2 != b2 * c:
            return None
    point = (c / a, Fraction(0)) if a != 0 else (Fraction(0), c / b)
    return (point, ((-b, a),))


def _intersect_affine(s1, s2):
    if s1 is None or s2 is None:
        return None
    (p1, d1), (p2, d2) = s1, s2
    if len(d1) == 2:
        return s2
    if len(d2) == 2:
        return s1
    if len(d1) == 0 and len(d2) == 0:
        return s1 if (p1[0] == p2[0] and p1[1] == p2[1]) else None
    if len(d1) == 0:
        s1, s2 = s2, s1
        (p1, d1), (p2, d2) = s1, s2
    # s1 is a line p1 + t d; s2 is a point or a line
    d = d1[0]
    if len(d2) == 0:
        diff = vec2_sub(p2, p1)
        return s2 if vec2_cross(d, diff) == 0 else None
    e = d2[0]
    if vec2_cross(d, e) == 0:
        diff = vec2_sub(p2, p1)
        return s1 if vec2_cross(d, diff) == 0 else None
    # transversal lines: solve p1 + t d = p2 + s e
    mat = ((d[0], -e[0]), (d[1], -e[1]))
    t, _ = mat2_apply(mat2_inv(mat), vec2_sub(p2, p1))
    return ((p1[0] + t * d[0], p1[1] + t * d[1]), ())


def _parallel(u, v) -> bool:
    return vec2_cross(u, v) == 0


def _rotation_kind(rot) -> str:
    if mat2_eq(rot, MAT2_ID):
        return "id"
    if mat2_eq(rot, ROT_PI):
        return "minus"
    return "rotation" if mat2_det(rot) == 1 else "reflection"


def _invariant_line(planar):
    candidates = None                         # None means unconstrained
    for rot, w in planar:
        kind = _rotation_kind(rot)
        if kind == "rotation":
            return None                       # no eigendirection at all
        if kind == "id":
            local = None if (w[0] == 0 and w[1] == 0) else [w]
        elif kind == "minus":
            local = None
        else:  # reflection: axis and its perpendicular
            axis = _reflection_axis(rot)
            local = [axis, (-axis[1], axis[0])]
        if local is None:
            continue
        if candidates is None:
            candidates = local
        else:
            candidates = [c for c in candidates
                          if any(_parallel(c, d) for d in local)]
        if not candidates:
            return None
    if candidates is None:
        # only +-identity rotation parts: directions from induced translations
        minus_ws = [w for rot, w in planar if _rotation_kind(rot) == "minus"]
        diffs = [vec2_sub(a, b) for i, a in enumerate(minus_ws)
                 for b in minus_ws[i + 1:]]
        candidates = [d for d in diffs if d[0] != 0 or d[1] != 0]
        if not candidates:
            return None
    for d in candidates:
        # position constraints: (rot - I) p + w parallel to d for all
        solset = ((Fraction(0), Fraction(0)), ((1, 0), (0, 1)))
        for rot, w in planar:
            m = ((rot[0][0] - 1, rot[0][1]), (rot[1][0], rot[1][1] - 1))
            # cross(d, m p + w) = 0: linear equation a.p = rhs
            a = (d[0] * m[1][0] - d[1] * m[0][0],
                 d[0] * m[1][1] - d[1] * m[0][1])
            rhs = -(d[0] * w[1] - d[1] * w[0])
            solset = _intersect_affine(solset, _solve_affine(
                ((a[0], a[1]), (0, 0)), (rhs, Fraction(0))))
            if solset is None:
                break
        if solset is not None:
            return d
    return None


def word_ball(identity, moves, compose, key, bound=None, *, cap: int):
    """Elements reachable from identity by words in moves, shortest first.

    Yields identity, then each element compose(w, m) whose key(...) is new,
    layer by layer in order of word length.  Stops after `bound` layers
    (None: when a layer adds nothing).  Raises SearchCapError when more
    than `cap` elements have been seen; the check follows each yield, so a
    caller that stops at the element it looks for never meets it.
    """
    seen = set()
    size = 0                  # len(seen): a key is new if adding grows it
    candidates, depth = (identity,), 0
    while True:
        frontier = []
        for el in candidates:
            seen.add(key(el))
            if len(seen) == size:
                continue
            size += 1
            yield el
            if size > cap:
                raise SearchCapError(f"word ball exceeds {cap} elements")
            frontier.append(el)
        if not frontier or depth == bound:
            return
        depth += 1
        candidates = (compose(el, mv) for el in frontier for mv in moves)


def euclid_quotient_isometry_by_word_ball(g) -> IsoDescriptor:
    """The planar descriptor of a crystal group g with point generators,
    from its generators in the lattice basis closed by `word_ball`."""
    betti, torus = euclid.betti_identity_component(g)
    pg = planar_point_group(*g._lattice_basis)
    mats = [tuple(map(tuple, m))
            for m in euclid.point_gens_in_lattice_basis(g)]
    group = list(word_ball(((1, 0), (0, 1)), mats, matmul, tuple, cap=96))
    if len(group) == pg.order and betti == 0:
        rows = [[x - (i == j) for j, x in enumerate(row)]
                for m in group for i, row in enumerate(m)]
        order = math.prod(max(d, 1) for d in snf(rows)[0])
        finite = {"order": order,
                  "structure": {1: "trivial", 2: "Z2"}.get(
                      order, f"order {order}"),
                  "translation_solutions": order,
                  "point_quotient": 1}
        return IsoDescriptor(geometry="euclid", identity_component="trivial",
                             finite_part=finite, total_order=order)
    return IsoDescriptor(geometry="euclid", identity_component=torus,
                         finite_part={"order": None, "structure":
                                      "finite, order not computed"},
                         notes=("finite part computed only for the planar "
                                "worked cases",))


def _s2r_key(el) -> tuple:
    """An element's key as the word ball told elements apart: the rotation
    rounded to 9 digits, the shift rounded to 9 digits, and the flip."""
    return fibered._rot_key(el.rot), round(float(el.shift), 9), el.flip


def s2r_ball_by_products(gens, bound: int) -> list:
    """The S^2 x R word ball to the bound, one product per candidate."""
    moves = [h for g in gens for h in (g, g.inverse())]
    try:
        return list(word_ball(S2RIsometry(S2R_ROT_ID, 0), moves,
                              S2RIsometry.compose, _s2r_key, bound,
                              cap=BALL_CAP))
    except SearchCapError:
        raise NonDiscreteShiftError("word ball keeps growing; projected "
                                    "group looks non-discrete") from None


def s2r_decompose_by_ball(gens, bound: int) -> S2RDecomposition:
    """The split 1 -> F -> Gamma -> L read off the word ball to the bound.

    L is read off the shifts of the words: the least positive one, lam,
    generates, and every other must be one of its integer multiples
    (otherwise NonDiscreteShiftError).  F collects the rotation parts of
    the shift-free, flip-free words; the twist is the rotation part of the
    first flip-free word of shift lam.
    """
    ball = s2r_ball_by_products(gens, bound)
    exact = all(isinstance(g.shift, (int, Fraction)) for g in gens)
    positive = sorted({float(el.shift) for el in ball
                       if float(el.shift) > 1e-12})
    lam = None
    if positive:
        lam = min(positive)
        for s in positive:
            ratio = s / lam
            if abs(ratio - round(ratio)) > 1e-9 * (1 + ratio):
                raise NonDiscreteShiftError(
                    f"shift {s} is not a multiple of the minimal shift {lam}")
        if exact:
            lam = next(el.shift for el in ball
                       if abs(float(el.shift) - lam) < 1e-12)
    flip_present = any(el.flip == -1 for el in ball)
    f_rotations = {}
    for el in ball:
        if abs(float(el.shift)) <= 1e-12 and el.flip == 1:
            f_rotations.setdefault(fibered._rot_key(el.rot), el.rot)
    twist = None
    if lam is not None:
        twist = next((el.rot for el in ball if el.flip == 1
                      and abs(float(el.shift) - float(lam)) < 1e-12), None)
    if flip_present:
        l_type = LAMBDA_Z_SEMIDIRECT
    elif lam is None:
        l_type = TRIVIAL_L
    else:
        l_type = LAMBDA_Z
    return S2RDecomposition(l_type, lam, len(f_rotations),
                            tuple(f_rotations.values()), twist)


def s2r_identity_component_by_axes(dec: S2RDecomposition) -> str:
    """The identity component of an S^2 x R quotient's isometries from the
    rotation axes: each rotation of the holonomy (the finite part and the
    twist, each r with det r < 0 taken as -r) in floats, those within 1e-9
    of I dropped, and the unit axes of the others compared to 1e-9."""
    if dec.lam is None:
        raise ValueError("compact quotient required "
                         "(lambda is None: p(Gamma) is finite)")
    mats = list(dec.f_elements)
    if dec.twist is not None:
        mats.append(dec.twist)
    axes = []
    for rot in mats:
        r = [[float(v) for v in row] for row in rot]
        if fibered._det3(r) < 0:
            r = [[-v for v in row] for row in r]
        if not fibered._near_identity(r, 1e-9):
            axes.append(_rotation_axis(r))
    if not axes:
        return fibered.SO3_X_S1
    if all(math.hypot(*_cross3(axes[0], ax)) < 1e-9 for ax in axes[1:]):
        return fibered.S1_X_S1
    return fibered.S1_ONLY


def _unit3(v) -> list:
    n = math.hypot(*v)
    return [x / n for x in v]


def _rotation_axis(r) -> list:
    """The unit axis of a rotation r other than I, in floats."""
    anti = [r[2][1] - r[1][2], r[0][2] - r[2][0], r[1][0] - r[0][1]]
    if math.hypot(*anti) > 1e-9:
        return _unit3(anti)
    # angle pi: columns of r + I span the axis; take the first longest
    cols = [[r[i][j] + (i == j) for i in range(3)] for j in range(3)]
    return _unit3(max(cols, key=lambda c: math.hypot(*c)))


def _cross3(a, b) -> list:
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0]]


def _rot_key_by_entries(rot) -> tuple:
    return tuple(round(float(v), 9) for row in rot for v in row)


def s2r_decompose_by_matmul(gens) -> S2RDecomposition:
    """The closed-form split with the generic product and keys."""
    with mock.patch.object(fibered, "mat3_mul", matmul), \
            mock.patch.object(fibered, "_rot_key", _rot_key_by_entries):
        return fibered.s2r_decompose(gens)


def sol_centralizer_by_eigenbasis(lat) -> dict:
    """The trivial centralizer of a Sol lattice, each step checked in
    A's eigenbasis over Q(sqrt(d))."""
    (lam, _), basis = diagonalize_sl2(lat.a)
    lam = lam ** lat.n
    binv = mat2_inv(basis)
    steps = []
    witness = None
    for cand in ((1, 0), (0, 1), (1, 1)):
        coords = mat2_apply(binv, cand)
        if coords[0] != 0 and coords[1] != 0:
            witness = (cand, coords)
            break
    if witness is None:
        raise RuntimeError("no planar vector with nonzero eigencoordinates")
    steps.append(f"planar vector {witness[0]} has nonzero eigencoordinates")
    if not lam > 1:
        raise RuntimeError("holonomy eigenvalue is not > 1")
    steps.append("unit power lam^k fixes a nonzero coordinate only for k = 0")
    steps.append("conjugation by the holonomy step kills both coordinates")
    return {"group": "trivial", "verified": True, "steps": steps}


def diagonalize_sl2(a: IntMat2) -> tuple:
    """Exact eigenvalues and eigenbasis of a hyperbolic SL2(Z) matrix.

    Requires det a = 1 and tr a > 2.  Returns ((lam, lam_inv), basis) where
    the columns of basis are eigenvectors, det(basis) = 1 and
    basis^{-1} @ a @ basis = diag(lam, lam_inv) exactly in Q(sqrt(d)).
    """
    if a.det() != 1:
        raise ValueError("determinant 1 required")
    t = a.trace()
    if t < -2:
        raise ValueError(f"trace {t} < -2: matrix is hyperbolic, but only "
                         f"trace > 2 is supported")
    if t <= 2:
        raise ValueError(f"trace {t} <= 2: matrix is not hyperbolic")
    root = QuadRat.sqrt(t * t - 4)
    lam = (root + t) / 2
    lam_inv = (t - root) / 2
    cols = []
    for ev in (lam, lam_inv):
        if a.b != 0:
            cols.append((QuadRat(a.b, 0, lam.d), ev - a.a))
        elif a.c != 0:
            cols.append((ev - a.d, QuadRat(a.c, 0, lam.d)))
        else:  # diagonal integer matrix with trace > 2 and det 1: impossible
            raise ValueError("matrix is already diagonal but not hyperbolic")
    basis = ((cols[0][0], cols[1][0]), (cols[0][1], cols[1][1]))
    det = mat2_det(basis)
    # scale the second column so det(basis) = 1
    basis = ((basis[0][0], basis[0][1] / det),
             (basis[1][0], basis[1][1] / det))
    return (lam, lam_inv), basis


def sol_q_structure_by_products(a: IntMat2) -> dict:
    """`sol.sol_q_structure` with each diagonalization checked by
    `QuadRat` 2x2 products."""
    (lam, lam_inv), basis = diagonalize_sl2(a)
    b = mat2_inv(basis)
    b_conj = tuple(tuple(galois_conjugate(x) for x in row) for row in b)

    def diagonalizes(p, ev, ev_inv) -> bool:
        return mat2_eq(mat2_mul(p, mat2_mul(a.rows(), mat2_inv(p))),
                       ((ev, 0), (0, ev_inv)))

    return {
        "d": lam.d,
        "eigenvalues": (lam, lam_inv),
        "basis": b,
        "basis_conjugate": b_conj,
        "galois_pair_check": (
            diagonalizes(b, lam, lam_inv)
            and diagonalizes(b_conj, galois_conjugate(lam),
                             galois_conjugate(lam_inv))),
    }


def sol_unit_by_eigenbasis(lat) -> QuadRat:
    (lam, _), _ = diagonalize_sl2(lat.a)
    return lam ** lat.n


def sol_quotient_isometry_by_snf_result(lat) -> IsoDescriptor:
    """`sol.sol_quotient_isometry` through U as an `IntMat2`."""
    hol = lat.holonomy()
    det_order = abs(2 - hol.trace())
    (d1, d2), u, _ = snf((IntMat2.identity() - hol).rows())
    if d1 * d2 != det_order:
        raise RuntimeError("cokernel order contradicts the determinant")
    u = IntMat2.from_rows(u)
    det_u = u.det()
    u_inv = IntMat2(u.d * det_u, -u.b * det_u, -u.c * det_u, u.a * det_u)
    r = u @ lat.a @ u_inv
    rows = [[r.a, r.b], [r.c, r.d]]
    action = []
    for i, d in enumerate((d1, d2)):
        if d == 1:
            continue
        action.append([rows[i][j] % d if d else rows[i][j] for j in range(2)])
    invariants = [d for d in (d1, d2) if d != 1]
    order = det_order * lat.n
    finite = {
        "abelian_invariants": invariants,
        "cyclic_extension": lat.n,
        "order": order,
        "action_on_invariants": action,
        "structure": sol._structure_label(invariants, lat.n),
    }
    return IsoDescriptor(geometry="sol", identity_component="trivial",
                         finite_part=finite, total_order=order)


def mobius_word_by_fractions(gens, word) -> tuple:
    """The product of gens[i] for i in word, each gen an (a, b, c, d) of
    det 1, as plain Fraction 2x2 products: the exact `MobiusMap.compose`
    as it was before maps became integer matrices over one denominator.
    The result has the PSL2 sign of `MobiusMap`: positive trace, or at
    trace 0 a positive first nonzero entry."""
    a, b, c, d = Fraction(1), Fraction(0), Fraction(0), Fraction(1)
    for i in word:
        e, f, g, h = gens[i]
        a, b, c, d = (a * e + b * g, a * f + b * h,
                      c * e + d * g, c * f + d * h)
    first = next(x for x in (a, b, c, d) if x)
    if a + d < 0 or (a + d == 0 and first < 0):
        a, b, c, d = -a, -b, -c, -d
    return a, b, c, d


_ZIMMER_FAMILIES = ("SL(n,R)", "SU(p,q)", "SL(n,C)", "SO(p,q)", "SO(n,C)",
                    "Sp(2n,R)", "Sp(p,q)", "Sp(2n,C)", "G2", "F4", "E6",
                    "E7", "E8", "SO(3)", "SO(4)")
_EXCEPTIONAL_RANK = {"G2": 2, "F4": 4, "E6": 6, "E7": 7, "E8": 8}


def _validate_zimmer_params(family: str, params: tuple):
    if family in ("SO(3)", "SO(4)", "G2", "F4", "E6", "E7", "E8"):
        if params:
            raise ValueError(f"{family} takes no parameters")
        return
    if family in ("SL(n,R)", "SL(n,C)"):
        if len(params) != 1 or params[0] < 2:
            raise ValueError("SL needs n >= 2")
    elif family == "SO(n,C)":
        if len(params) != 1 or params[0] < 3:
            raise ValueError("SO(n,C) needs n >= 3")
    elif family in ("Sp(2n,R)", "Sp(2n,C)"):
        if len(params) != 1 or params[0] < 1:
            raise ValueError("Sp needs n >= 1")
    elif family in ("SU(p,q)", "SO(p,q)", "Sp(p,q)"):
        if len(params) != 2 or params[0] < params[1] or params[1] < 0:
            raise ValueError(f"{family} needs p >= q >= 0")
        p, q = params
        if family == "SO(p,q)" and p + q < 3:
            raise ValueError("SO(p,q) needs p + q >= 3")
        if family == "SU(p,q)" and p + q < 2:
            raise ValueError("SU(p,q) needs p + q >= 2")
        if family == "Sp(p,q)" and p + q < 1:
            raise ValueError("Sp(p,q) needs p + q >= 1")
    else:
        raise ValueError(f"unknown family {family!r}")


def _factor_display(family: str, params: tuple) -> str:
    if family in ("SO(3)", "SO(4)"):
        return family
    if family in ("G2", "F4", "E6", "E7", "E8"):
        return family
    head = family.split("(")[0]
    tail = family[family.index("(") + 1:-1]
    parts = tail.split(",")
    if parts[-1] in ("R", "C"):
        if family.startswith("Sp"):
            return f"{head}({2 * params[0]},{parts[-1]})"
        return f"{head}({params[0]},{parts[-1]})"
    return f"{head}({params[0]},{params[1]})"


def _factor_real_rank(fam: str, p: tuple) -> int:
    if fam == "SL(n,R)" or fam == "SL(n,C)":
        return p[0] - 1
    if fam in ("SU(p,q)", "SO(p,q)", "Sp(p,q)"):
        return min(p)
    if fam == "SO(n,C)":
        return p[0] // 2
    if fam in ("Sp(2n,R)", "Sp(2n,C)"):
        return p[0]
    if fam in _EXCEPTIONAL_RANK:
        return _EXCEPTIONAL_RANK[fam]
    return 0                        # SO(3), SO(4)


def _so_complex_type(m: int) -> tuple[str, ...]:
    """Simple type(s) of so(m, C), with the small-rank identifications."""
    if m < 3:
        raise ValueError("so(m) is not semisimple for m < 3")
    if m % 2:
        rank = (m - 1) // 2
        return ("A1",) if rank == 1 else (f"B{rank}",)
    rank = m // 2
    if rank == 2:
        return ("A1", "A1")
    if rank == 3:
        return ("A3",)
    return (f"D{rank}",)


def _sp_complex_type(n: int) -> tuple[str, ...]:
    if n == 1:
        return ("A1",)
    if n == 2:
        return ("B2",)              # C2 = B2
    return (f"C{n}",)


def _factor_complex_type(fam: str, p: tuple) -> tuple[str, ...]:
    if fam == "SL(n,R)":
        types = ("A1",) if p[0] == 2 else (f"A{p[0] - 1}",)
    elif fam == "SU(p,q)":
        n = p[0] + p[1]
        types = (f"A{n - 1}",)
    elif fam == "SL(n,C)":
        base = f"A{p[0] - 1}"
        types = (base, base)
    elif fam == "SO(p,q)":
        types = _so_complex_type(p[0] + p[1])
    elif fam == "SO(n,C)":
        types = _so_complex_type(p[0]) * 2
    elif fam == "Sp(2n,R)":
        types = _sp_complex_type(p[0])
    elif fam == "Sp(p,q)":
        types = _sp_complex_type(p[0] + p[1])
    elif fam == "Sp(2n,C)":
        types = _sp_complex_type(p[0]) * 2
    elif fam in _EXCEPTIONAL_RANK:
        types = (fam, fam)          # complex exceptional group, doubled
    elif fam == "SO(3)":
        types = ("A1",)
    elif fam == "SO(4)":
        types = ("A1", "A1")
    else:
        raise ValueError(fam)
    return tuple(sorted(types))


def zimmer_factor_by_cases(family: str, params: tuple = ()) -> dict:
    """Display, real rank and complex type of a simple factor, or the
    ValueError that `SimpleFactor(family, params)` raises."""
    if family not in _ZIMMER_FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    _validate_zimmer_params(family, params)
    return {"str": _factor_display(family, params),
            "real_rank": _factor_real_rank(family, params),
            "complex_type": _factor_complex_type(family, params)}


_ZIMMER_FACTOR_RE = re.compile(
    r"^\s*(SL|SU|SO|Sp)\s*\(\s*(\d+)\s*,\s*(\d+|R|C)\s*\)\s*$|"
    r"^\s*(G2|F4|E6|E7|E8)\s*$|^\s*SO\s*\(\s*([34])\s*\)\s*$")


def zimmer_parse_by_cases(text: str) -> tuple:
    """(family, params) of a factor such as "Sp(4,R)", each family by its
    own branch, or the ValueError that `parse_factor` raises; a family and
    parameters out of range raise through `zimmer_factor_by_cases`."""
    m = _ZIMMER_FACTOR_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse factor {text!r}")
    if m.group(4):
        found = (m.group(4), ())
    elif m.group(5):
        found = (f"SO({m.group(5)})", ())
    else:
        found = _parse_with_params(text, m.group(1), int(m.group(2)),
                                   m.group(3))
    zimmer_factor_by_cases(*found)
    return found


def _parse_with_params(text, head, first, second) -> tuple:
    if second == "R":
        if head == "SL":
            return ("SL(n,R)", (first,))
        if head == "Sp":
            if first % 2:
                raise ValueError("Sp(2n,R) needs an even first parameter")
            return ("Sp(2n,R)", (first // 2,))
        raise ValueError(f"{head}(n,R) is not in the table")
    if second == "C":
        if head == "SL":
            return ("SL(n,C)", (first,))
        if head == "SO":
            return ("SO(n,C)", (first,))
        if head == "Sp":
            if first % 2:
                raise ValueError("Sp(2n,C) needs an even first parameter")
            return ("Sp(2n,C)", (first // 2,))
        raise ValueError(f"{head}(n,C) is not in the table")
    q = int(second)
    p, q = max(first, q), min(first, q)
    if head == "SU":
        return ("SU(p,q)", (p, q))
    if head == "SO":
        if q == 0 and p in (3, 4):
            return (f"SO({p})", ())
        return ("SO(p,q)", (p, q))
    if head == "Sp":
        return ("Sp(p,q)", (p, q))
    raise ValueError(f"cannot parse factor {text!r}")
