"""Workload `word-search`: semi-decision searches over products of elements.

Here `HeisIsometry.compose` -> order check -> `QuadRat` dominates, and no
coset or point-group enumeration runs.  About half of the dichotomy inputs
have rotation parts over Q(sqrt(3)) and half over Q, so a fast path for one
field that slows the other shows.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from geom3 import fibered, hyperbolic, nil
from geom3.algebra import QuadRat

import oracle
from harness import (KERNEL_PROBE, MIXES_PER_ROUND, SPEC_ROUNDS, Task,
                     batch, library_execute)
from seq import golden_offsets, round_rng

HALF = Fraction(1, 2)
SQRT3_HALF = QuadRat(0, HALF, 3)
ROT = {
    2: nil.ROT_PI,
    3: ((-HALF, -SQRT3_HALF), (SQRT3_HALF, -HALF)),
    4: nil.ROT_PI_2,
    6: nil.ROT_PI_3,
}
# reflections with rational entries and their axis directions
REFLECTIONS = (
    (((1, 0), (0, -1)), (1, 0)),
    (((-1, 0), (0, 1)), (0, 1)),
    (((0, 1), (1, 0)), (1, 1)),
    (((0, -1), (-1, 0)), (1, -1)),
)

WORD_BOUNDS = (4, 6, 8)
# wallpaper-type generator sets over Q, searched in one batch, and over
# Q(sqrt(3)), one task each.  p6 searches take 0.25-0.45 s and make up
# over 10% of the tasks, so the p90 falls inside that cluster, not at its
# lower edge.
RATIONAL_TYPES = ("p1", "p2", "p4", "pm")
SQRT3_TYPES = ("p6", "p3", "p6", "p3")
P6_ORDERS = (0, 3, 4, 5)
S2R_BOUND_MIN, S2R_BOUND_MAX = 8, 16
MOBIUS_WORDS_PER_TASK = 24
MOBIUS_WORD_LEN = (16, 32)

# Stress: rotations of orders 6 and 4 about different points.  Their
# linear parts generate an order-12 rotation, so the projection is not
# discrete and the central-word search runs for seconds (ROADMAP item 4).
# With the order-4 center on the y axis no witness turns up early.
STRESS_CENTERS = ((0, 1), (0, 2))
STRESS_BOUNDS = (7, 8)


def _small_rational(rng: random.Random, max_den: int = 4) -> Fraction:
    return Fraction(rng.randint(-6, 6), rng.randint(1, max_den))


def _generic_z(rng: random.Random) -> Fraction:
    """A central lift with a large prime denominator.  Lifts with small
    denominators make some words coincide by accident, and the search cost
    then varies by instance, not by the group."""
    return Fraction(rng.randint(1, 10 ** 6), 999983)


def _point(rng):
    return (_small_rational(rng), _small_rational(rng))


def _about(rot, c, z):
    """The isometry acting on the plane as the linear map rot about c."""
    rc = (rot[0][0] * c[0] + rot[0][1] * c[1],
          rot[1][0] * c[0] + rot[1][1] * c[1])
    return nil.HeisIsometry(rot, nil.HeisPoint(c[0] - rc[0], c[1] - rc[1], z))


def _translation(x, y, z):
    return nil.HeisIsometry.translation(nil.HeisPoint(x, y, z))


# -- dichotomy inputs -------------------------------------------------------------

def discrete_spec(rng: random.Random, kind: str, perm: int) -> dict:
    """Raw parameters of a discrete wallpaper-type generator set.

    The search cost depends mostly on the type and on the order of the
    generators, so `perm` (which order) is stratified by the caller."""
    s = Fraction(rng.choice((1, 2, 3)), rng.choice((1, 2)))
    return {"kind": kind, "center": _point(rng), "scale": s,
            "basis": ((s, 0), (_small_rational(rng), s)),
            "z": [_generic_z(rng) for _ in range(3)],
            "perm": perm}


def discrete_gens(spec: dict) -> list:
    kind, c, s, z = spec["kind"], spec["center"], spec["scale"], spec["z"]
    if kind in ("p3", "p6"):
        rot = ROT[3 if kind == "p3" else 6]
        gens = [_about(rot, c, z[0]), _translation(s, Fraction(0), z[1]),
                _translation(s * HALF, s * SQRT3_HALF, z[2])]
    elif kind == "p4":
        gens = [_about(ROT[4], c, z[0]), _translation(s, Fraction(0), z[1])]
    elif kind == "pm":
        refl = ((1, 0), (0, -1))
        gens = [_about(refl, c, z[0]), _translation(s, Fraction(0), z[1]),
                _translation(Fraction(0), s, z[2])]
    else:
        (a, b), (p, q) = spec["basis"]
        gens = [_translation(Fraction(a), Fraction(b), z[1]),
                _translation(Fraction(p), Fraction(q), z[2])]
        if kind == "p2":
            gens.insert(0, _about(ROT[2], c, z[0]))
    orders = list(itertools.permutations(gens))
    if kind == "p6":
        # two orders of the p6 set search for over 0.55 s, too close to a
        # third of the time limit
        orders = [orders[i] for i in P6_ORDERS]
    return list(orders[spec["perm"] % len(orders)])


def _search_task(spec: dict, bound: int, stress: bool = False) -> Task:
    def call():
        gens = spec_gens(spec)
        return nil.nil_projection_dichotomy(gens, word_bound=bound)

    def check(res):
        return oracle.search_verdict_ok(res.kind, res.witness,
                                        discrete=not stress)

    field = "sqrt3" if spec["kind"] in ("p3", "p6", "ord12") else "Q"
    return Task(f"nil.dichotomy.{field}", call, check, stress=stress,
                bucket=None if stress else f"word_bound.{bound}",
                describe=f"{spec['kind']} bound {bound}")


def spec_gens(spec: dict) -> list:
    if spec["kind"] == "ord12":
        return [nil.HeisIsometry.point_symmetry(nil.ROT_PI_3),
                _about(ROT[4], spec["center"], Fraction(0))]
    return discrete_gens(spec)


def fixed_point_task(rng: random.Random, sqrt3: bool) -> Task:
    """Rotations about one common center: decided exactly, no search."""
    c = _point(rng)
    orders = (3, 6) if sqrt3 else (2, 4)
    rots = [ROT[rng.choice(orders)] for _ in range(rng.randint(2, 3))]
    zs = [_small_rational(rng, 6) for _ in rots]

    def call():
        gens = [_about(r, c, z) for r, z in zip(rots, zs)]
        return nil.nil_projection_dichotomy(gens)

    def check(res):
        return (res.kind == "AbelianFixesPoint" and res.point[0] == c[0]
                and res.point[1] == c[1])

    return Task("nil.dichotomy.fixed", call, check,
                describe=f"rotations about {c}")


def fixed_line_task(rng: random.Random) -> Task:
    """Reflections in one axis and translations along it."""
    refl, axis = REFLECTIONS[rng.randrange(len(REFLECTIONS))]
    c = _point(rng)
    step = Fraction(rng.randint(1, 3), rng.randint(1, 2))
    zs = [_small_rational(rng, 6) for _ in range(3)]

    def call():
        gens = [_about(refl, c, zs[0]),
                _translation(step * axis[0], step * axis[1], zs[1])]
        if zs[2] > 0:
            gens.append(_about(refl, c, zs[2]))
        return nil.nil_projection_dichotomy(gens)

    def check(res):
        d = res.direction
        return (res.kind == "AbelianFixesLine" and d is not None
                and (d[0] != 0 or d[1] != 0)
                and d[0] * axis[1] - d[1] * axis[0] == 0)

    return Task("nil.dichotomy.fixed", call, check,
                describe=f"reflections in the axis {axis} through {c}")


# -- S^2 x R ------------------------------------------------------------------------

def _rz(m: int):
    return fibered.s2r_rotation_z(2 * math.pi / m)


_EXACT_ROT = {2: ((-1, 0, 0), (0, -1, 0), (0, 0, 1)),
              4: ((0, -1, 0), (1, 0, 0), (0, 0, 1))}
_FLIP_X = ((1, 0, 0), (0, -1, 0), (0, 0, -1))     # rotation by pi about x


# (m, dihedral, flip, exact, twist): F0 is cyclic of order m about the z
# axis, or dihedral of order 2m.  Only C1, C2, C4 have integer matrices.  A
# twist commutes with a cyclic F0; with a flip it would make F infinite.
S2R_STRUCTURES = tuple(
    (m, dihedral, flip, exact, twist)
    for m in (1, 2, 3, 4, 6) for dihedral in (False, True)
    for flip in (False, True) for exact in (False, True)
    for twist in (False, True)
    if not (dihedral and m == 1) and not (exact and m not in (1, 2, 4))
    and not (twist and (dihedral or flip)))


def s2r_task(rng: random.Random, bound: int, structure: int) -> Task:
    """Gamma = <shift, F0 generators[, flip]> with |F0| and the shift known."""
    m, dihedral, flip, exact, twist = \
        S2R_STRUCTURES[structure % len(S2R_STRUCTURES)]
    lam = Fraction(rng.randint(1, 5), rng.randint(1, 3))
    order = m * (2 if dihedral else 1)

    def call():
        ident = fibered.S2R_ROT_ID
        shift = lam if exact else float(lam)
        gens = [fibered.S2RIsometry(
            fibered.s2r_rotation_z(1.0) if twist else ident, shift)]
        if m > 1:
            rot = _EXACT_ROT[m] if exact else _rz(m)
            gens.append(fibered.S2RIsometry(rot, 0 if exact else 0.0))
        if dihedral:
            gens.append(fibered.S2RIsometry(_FLIP_X, 0 if exact else 0.0))
        if flip:
            gens.append(fibered.S2RIsometry(ident, 0 if exact else 0.0,
                                            flip=-1))
        return fibered.s2r_decompose(gens, word_bound=bound)

    l_type = "LambdaZSemidirectZ2" if flip else "LambdaZ"

    def check(dec):
        if exact:
            lam_ok = isinstance(dec.lam, (int, Fraction)) and dec.lam == lam
        else:
            lam_ok = abs(float(dec.lam) - float(lam)) < 1e-9
        return dec.l_type == l_type and dec.f_order_bound == order and lam_ok

    return Task("fibered.s2r", call, check,
                bucket=f"s2r_bound.{'8-11' if bound < 12 else '12-16'}",
                describe=f"F0 order {order} flip {flip} bound {bound}")


# -- Mobius words ---------------------------------------------------------------------

def mobius_task(rng: random.Random) -> Task:
    x, y = _small_rational(rng, 3) or Fraction(1), _small_rational(rng, 3)
    a = Fraction(rng.randint(2, 4), rng.randint(1, 3))
    gens = (((1, x), (0, 1)), ((1, 0), (y, 1)), ((a, 0), (0, 1 / a)))
    words = [[rng.randrange(3) for _ in range(rng.randint(*MOBIUS_WORD_LEN))]
             for _ in range(MOBIUS_WORDS_PER_TASK)]
    expected = []
    for w in words:
        prod = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
        for i in w:
            prod = oracle.mat_mul(prod, gens[i])
        expected.append(prod)

    def call():
        maps = [hyperbolic.MobiusMap(*g[0], *g[1]) for g in gens]
        out = []
        for w in words:
            m = hyperbolic.MobiusMap.identity()
            for i in w:
                m = m.compose(maps[i])
            try:
                tag = hyperbolic.classify_isometry(m).tag
            except hyperbolic.IdentityClassError:
                tag = "identity"
            out.append((m.entries(), tag))
        return out

    def check(out):
        for (entries, tag), prod in zip(out, expected):
            tr = prod[0][0] + prod[1][1]
            ident = (prod[0][1] == 0 and prod[1][0] == 0
                     and prod[0][0] == prod[1][1] and abs(tr) == 2)
            want = "identity" if ident else oracle.mobius_class(tr)
            if tag != want or not oracle.projectively_equal(entries, prod):
                return False
        return len(out) == len(expected)

    return Task("hyperbolic.words", call, check,
                describe=f"{len(words)} words over {gens}")


class WordSearch:
    name = "word-search"
    execute = staticmethod(library_execute)
    probe = KERNEL_PROBE
    round_seconds = 7.5         # nominal, see harness.rounds_for

    def __init__(self, seed: int):
        self.seed = seed
        self.specs = [self._mix_spec(h)
                      for h in range(MIXES_PER_ROUND * SPEC_ROUNDS)]

    def _mix_spec(self, h: int) -> dict:
        rng = round_rng(self.seed, self.name, h)
        offs = golden_offsets(h, 4)
        shift = int(offs[0] * len(WORD_BOUNDS))
        bounds = [WORD_BOUNDS[(j + shift) % len(WORD_BOUNDS)]
                  for j in range(len(SQRT3_TYPES) + 1)]
        perm = int(offs[2] * 6)
        span = S2R_BOUND_MAX - S2R_BOUND_MIN
        s2r_bounds = [S2R_BOUND_MIN + int(((j + offs[1]) / 4) * (span + 1))
                      for j in range(4)]
        return {
            "rational": ([discrete_spec(rng, k, perm + j)
                          for j, k in enumerate(RATIONAL_TYPES)], bounds[-1]),
            "sqrt3": [(discrete_spec(rng, k, perm + j), b)
                      for j, (k, b) in enumerate(zip(SQRT3_TYPES, bounds))],
            "s2r": [(b, int(((j + offs[3]) / 4) * len(S2R_STRUCTURES)))
                    for j, b in enumerate(s2r_bounds)],
            "rng": rng.randrange(1 << 30),
            "order": rng.randrange(1 << 30),
        }

    def round(self, r: int) -> list[Task]:
        first = MIXES_PER_ROUND * r % len(self.specs)
        specs = self.specs[first:first + MIXES_PER_ROUND]
        tasks = [t for spec in specs for t in self._mix(spec)]
        stress = {"kind": "ord12",
                  "center": STRESS_CENTERS[(r // 2) % len(STRESS_CENTERS)]}
        tasks.append(_search_task(stress, STRESS_BOUNDS[r % 2], stress=True))
        random.Random(specs[0]["order"]).shuffle(tasks)
        return tasks

    @staticmethod
    def _mix(spec: dict) -> list[Task]:
        rng = random.Random(spec["rng"])
        specs, bound = spec["rational"]
        tasks = [batch("nil.dichotomy.Q",
                       [_search_task(s, bound) for s in specs])]
        tasks += [_search_task(s, b) for s, b in spec["sqrt3"]]
        tasks.append(batch("nil.dichotomy.fixed", [
            fixed_point_task(rng, sqrt3) for sqrt3 in (False, True) * 2]
            + [fixed_line_task(rng) for _ in range(4)]))
        s2r = [s2r_task(rng, b, k) for b, k in spec["s2r"]]
        tasks += [batch("fibered.s2r", s2r[:2]), batch("fibered.s2r", s2r[2:])]
        tasks.append(mobius_task(rng))
        return tasks
