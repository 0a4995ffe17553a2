"""Independent expected values for the benchmark's checks.

Nothing here imports geom3: every expected value is derived from the
inputs with the benchmark's own integer and rational arithmetic, so a
wrong answer from the library cannot also corrupt the oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction


# -- integers -------------------------------------------------------------------

def lucas_trace(t: int, n: int) -> int:
    """tr(A^n) for A in SL2(Z) with tr(A) = t, by t_{k+1} = t t_k - t_{k-1}."""
    prev, cur = 2, t
    for _ in range(n - 1):
        prev, cur = cur, t * cur - prev
    return cur if n >= 1 else 2


def chebyshev_s(t: int, n: int) -> int:
    """s_n with s_0 = 0, s_1 = 1, s_{k+1} = t s_k - s_{k-1}.

    For A in SL2(Z) with trace t, A^n = s_n A - s_{n-1} I, hence
    tr(A^n)^2 - 4 = (t^2 - 4) s_n^2 and both share one square-free part.
    """
    prev, cur = 0, 1
    for _ in range(n - 1):
        prev, cur = cur, t * cur - prev
    return cur if n >= 1 else 0


def int_mat_pow(m, n: int):
    """Exact power of a 2x2 integer matrix given as ((a, b), (c, d))."""
    out = ((1, 0), (0, 1))
    for _ in range(n):
        out = mat_mul(out, m)
    return out


def mat_mul(m, k):
    return ((m[0][0] * k[0][0] + m[0][1] * k[1][0],
             m[0][0] * k[0][1] + m[0][1] * k[1][1]),
            (m[1][0] * k[0][0] + m[1][1] * k[1][0],
             m[1][0] * k[0][1] + m[1][1] * k[1][1]))


def squarefree_part(n: int) -> int:
    """Square-free d with n = s^2 d, by trial division (n > 0)."""
    d, p = 1, 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e % 2:
            d *= p
        p += 1
    return d * n


def sol_order(t: int, n: int) -> int:
    """Order |2 - tr(A^n)| * n of the Sol quotient's isometry group."""
    return abs(2 - lucas_trace(t, n)) * n


# -- planar lattices -------------------------------------------------------------

SIGNED_PERMUTATIONS = frozenset(
    ((a, b), (c, d))
    for a in (-1, 0, 1) for b in (-1, 0, 1)
    for c in (-1, 0, 1) for d in (-1, 0, 1)
    if (a * a + b * b == 1 and c * c + d * d == 1 and a * c + b * d == 0))


def as_int_matrix(m):
    """An exact 2x2 matrix as integers, or None if an entry is not integral."""
    out = []
    for row in m:
        vals = []
        for x in row:
            f = _as_fraction(x)
            if f is None or f.denominator != 1:
                return None
            vals.append(int(f))
        out.append(tuple(vals))
    return tuple(out)


def _as_fraction(x):
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    b = getattr(x, "b", None)
    if b is not None and b == 0:
        return Fraction(x.a)
    return None


def is_square_lattice_group(elements) -> bool:
    """The stabilizer of Z^2 is exactly the 8 signed permutation matrices."""
    mats = {as_int_matrix(m) for m in elements}
    return len(elements) == 8 and mats == SIGNED_PERMUTATIONS


def skew(basis) -> int:
    return max(abs(x) for vec in basis for x in vec)


def box_points(u, v) -> int:
    """Size of the two search boxes the point-group enumeration scans.

    Computed from the input basis with the box-size rule the enumeration
    documents (the smallest Gram eigenvalue bounds the coefficients); it is
    the denominator of a per-point cost, not a check.
    """
    g11 = float(u[0] * u[0] + u[1] * u[1])
    g12 = float(u[0] * v[0] + u[1] * v[1])
    g22 = float(v[0] * v[0] + v[1] * v[1])
    lam_min = (g11 + g22) / 2.0 - math.sqrt(((g11 - g22) / 2.0) ** 2
                                            + g12 * g12)
    total = 0
    for target in (g11, g22):
        bound = int(math.floor(math.sqrt(target / lam_min) * 1.001)) + 1
        total += (2 * bound + 1) ** 2
    return total


# -- 2x2 rational products and the trace trichotomy ---------------------------------

def mobius_class(tr: Fraction) -> str:
    disc = tr * tr - 4
    if disc > 0:
        return "Hyperbolic"
    if disc == 0:
        return "Parabolic"
    return "Elliptic"


def projectively_equal(entries, m) -> bool:
    """entries == +-m entrywise (PSL2 identifies a matrix with its negative)."""
    flat = (m[0][0], m[0][1], m[1][0], m[1][1])
    return (all(Fraction(e) == f for e, f in zip(entries, flat))
            or all(Fraction(e) == -f for e, f in zip(entries, flat)))


# -- Heisenberg dichotomy ----------------------------------------------------------

def search_verdict_ok(kind, witness, discrete: bool) -> bool:
    """Verdict check for generator sets with no common fixed point or line.

    Such inputs never give a Fixes* verdict, and a DiscreteProjection
    witness must be central and nonzero.  A bounded search may stop at
    Undetermined.  A discrete input must not be called non-discrete; a
    non-discrete one (linear parts of order 12) may be.
    """
    if kind == "DiscreteProjection":
        return (witness is not None and witness.x == 0 and witness.y == 0
                and witness.z != 0)
    if kind == "Undetermined":
        return True
    return not discrete and kind == "NonDiscreteInput"
