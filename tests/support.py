"""Test-only brute forces for the closed forms in geom3.nil, and a deadline.

`point_group_by_box` and `coset_count_by_loop` are the enumerations that
`planar_point_group` and `nil_quotient_isometry` used before they became
O(1): a box of coefficients bounded through the smallest eigenvalue of the
Gram matrix (in floats, so only for small, moderately skewed bases), and a
loop over all n^2 translation cosets.  They serve as oracles on small
inputs.
"""

import contextlib
import math
import signal
from fractions import Fraction

from geom3.algebra import as_exact
from geom3.intmat import (
    MAT2_ID,
    mat2_eq,
    mat2_inv,
    mat2_mul,
    mat2_transpose,
    vec2_dot,
)
from geom3.nil import _coset_constraints

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


def coset_count_by_loop(lat, lifts=()) -> int:
    """Translation cosets k u/n + l v/n that pass `_coset_constraints`."""
    count = 0
    for k in range(lat.n):
        for l in range(lat.n):
            tau = (Fraction(k, lat.n) * lat.u[0]
                   + Fraction(l, lat.n) * lat.v[0],
                   Fraction(k, lat.n) * lat.u[1]
                   + Fraction(l, lat.n) * lat.v[1])
            if _coset_constraints(lat, tau, list(lifts)) is not None:
                count += 1
    return count


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
