"""Workload `quotients`: turn a lattice into an isometry group.

Most of the work is in the enumeration layers (the n^2 coset loop, the
skew^2 Gram-matrix box, trial-division factoring), mostly over rationals,
with no word search.
"""

from __future__ import annotations

import functools
import json
import math
import random
from fractions import Fraction

from geom3 import descriptors, euclid, nil, sol, zimmer
from geom3.intmat import IntMat2

import oracle
from harness import (KERNEL_PROBE, MIXES_PER_ROUND, SPEC_ROUNDS, Task,
                     batch, library_execute)
from seq import PHI, golden_offsets, round_rng

FIB = ((2, 1), (1, 1))

# -- normal inputs ----------------------------------------------------------------
GP_N_MIN, GP_N_MAX = 4, 128            # log-uniform
GP_PER_ROUND = 6
HEX_N_MAX = 16
ADJOIN_FULL_N = (1, 3)                 # the cases selfcheck and tests pin
SKEW_MAX = 5
FIB_POWER_MAX = 48                     # iso and normalizer do not factor
# centralizer and qstructure factor tr(A^n)^2 - 4 by trial division; every
# fib^n with n <= 28 takes under 20 ms, but n = 37, 41, 43, 47 already hang
FIB_FACTOR_POWER_MAX = 28
K_MAX = 10000                          # [[1,1],[k,k+1]]^p, p <= 3

# -- stress inputs: the hangs the ROADMAP lists; every one takes far more
# than 3 x TIME_LIMIT_S on the seed (see README.md)
STRESS_GP_N = (600, 700, 800)
STRESS_SKEW = tuple(range(20, 31))
STRESS_FIB_POWERS = (52, 53, 56, 58, 59, 61, 62, 64, 65)

# Zimmer specs of real rank >= 2: (text, uniform)
ZIMMER_SPECS = (("SL(3,R)", False), ("SL(3,R)", True), ("SO(2,2)", True),
                ("Sp(4,R)", False), ("SL(2,R) x SL(2,R)", True),
                ("SO(3,2)", True))

def gp_bucket(n: int) -> str:
    if n < 16:
        return "gp_n.4-15"
    if n < 64:
        return "gp_n.16-63"
    return "gp_n.64-128"


def skew_bucket(s: int) -> str:
    return "skew." + ("1-2" if s <= 2 else "3-4" if s <= 4 else "5")


@functools.lru_cache(maxsize=None)
def bases_of_skew(s: int) -> tuple:
    """(box size, basis) for every basis of Z^2 with largest entry s,
    cheapest search box first.

    Picking by quantile of this order (with golden-ratio offsets) spreads
    the point-group cost of a run evenly over the range a skew allows.
    """
    r = range(-s, s + 1)
    found = set()
    for a in r:
        for b in r:
            for c in r:
                for det in (1, -1):     # solve a d - b c = det for d
                    if a == 0:
                        ds = r if b * c == -det else ()
                    elif (det + b * c) % a == 0:
                        ds = ((det + b * c) // a,)
                    else:
                        ds = ()
                    for d in ds:
                        if max(abs(a), abs(b), abs(c), abs(d)) == s:
                            found.add(((a, b), (c, d)))
    return tuple(sorted((oracle.box_points(*m), m) for m in found))


def pick_basis(s: int, u: float, rng: random.Random):
    """The basis at quantile u of the skew-s bases, or a random one of the
    same box size (they differ by signs and order)."""
    bases = bases_of_skew(s)
    box = bases[int(u * len(bases))][0]
    return rng.choice([b for size, b in bases if size == box])


# -- tasks ------------------------------------------------------------------------

def _gp_task(n: int, stress: bool = False) -> Task:
    def call():
        return nil.nil_quotient_isometry(nil.lattice_gp(n))

    def check(d):
        fp = d.finite_part
        return (d.identity_component == "S1" and fp["order"] == 8 * n * n
                and fp["point_group"] == "D4"
                and fp["translation_part"] == [n, n])

    return Task("nil.gp", call, check, stress=stress,
                bucket=None if stress else gp_bucket(n), describe=f"Gp:{n}")


def _hex_task(n: int) -> Task:
    def call():
        return nil.nil_quotient_isometry(nil.lattice_hex(n))

    def check(d):
        fp = d.finite_part
        return (d.identity_component == "S1" and fp["order"] == 12 * n * n
                and fp["point_group"] == "D6")

    return Task("nil.hex", call, check, describe=f"hex:{n}")


def _adjoin_full_task(n: int) -> Task:
    def call():
        lat = nil.lattice_gp(n)
        extra = nil.planar_point_group(lat.u, lat.v)
        d = nil.nil_quotient_isometry(lat, extra=extra)
        return json.loads(descriptors.canonical_json(d.to_json_dict()))

    def check(d):
        # what selfcheck item nil/iso-hz-adjoin-d4 and tests/test_nil.py pin:
        # a finite group of order 2, hence Z2
        return (d["identity_component"] == "trivial"
                and d["total_order"] == 2
                and d["finite_part"]["structure"] == "Z2")

    return Task("nil.adjoin_full", call, check,
                describe=f"Gp:{n} --adjoin full")


def _point_group_task(basis, stress: bool = False) -> Task:
    u, v = basis

    def call():
        return nil.planar_point_group(u, v)

    def check(pg):
        return (pg.tag == "D4" and pg.order == 8
                and oracle.is_square_lattice_group(pg.elements))

    s = oracle.skew(basis)
    return Task("nil.point_group", call, check, stress=stress,
                bucket=None if stress else skew_bucket(s),
                describe=f"basis {basis}")


def _euclid_task(basis) -> Task:
    def call():
        g = euclid.crystal_group_make([], [basis[0], basis[1]])
        return euclid.euclid_quotient_isometry(g)

    def check(d):
        fp = d.finite_part
        return (d.identity_component == "T2" and fp["order"] == 8
                and fp["point_group"] == "D4")

    return Task("euclid.iso", call, check,
                bucket=skew_bucket(oracle.skew(basis)),
                describe=f"euclid basis {basis}")


def _sol_tasks(m, n: int, n_factor: int, label: str) -> list[Task]:
    """iso and normalizer of the Sol lattice of m^n; centralizer of m^n_factor."""
    a = IntMat2(m[0][0], m[0][1], m[1][0], m[1][1])
    t = m[0][0] + m[1][1]
    order = oracle.sol_order(t, n)
    index = order // n

    def iso():
        return sol.sol_quotient_isometry(sol.sol_lattice_make(a, n))

    def check_iso(d):
        fp = d.finite_part
        inv = fp["abelian_invariants"]
        prod = 1
        for x in inv:
            prod *= x
        chain = all(inv[i + 1] % inv[i] == 0 for i in range(len(inv) - 1))
        return (d.identity_component == "trivial" and fp["order"] == order
                and fp["cyclic_extension"] == n and prod == index and chain)

    return [
        Task("sol.iso", iso, check_iso, describe=f"{label}^{n}"),
        Task("sol.normalizer",
             lambda: sol.sol_normalizer_lattice(sol.sol_lattice_make(a, n)),
             lambda nz: nz.index == index, describe=f"{label}^{n}"),
        _centralizer_task(a, n_factor, f"{label}^{n_factor}"),
    ]


def _centralizer_task(a: IntMat2, n: int, describe: str,
                      stress: bool = False) -> Task:
    return Task("sol.centralizer",
                lambda: sol.sol_centralizer(sol.sol_lattice_make(a, n)),
                lambda c: c["group"] == "trivial", stress=stress,
                describe=describe)


def _qstructure_task(m, n: int, label: str) -> Task:
    """Eigen-data of m^n over Q(sqrt(d)); d comes from m, not from m^n."""
    p = oracle.int_mat_pow(m, n)
    a = IntMat2(p[0][0], p[0][1], p[1][0], p[1][1])
    t0 = m[0][0] + m[1][1]
    t = p[0][0] + p[1][1]
    if (t0 * t0 - 4) * oracle.chebyshev_s(t0, n) ** 2 != t * t - 4:
        raise ArithmeticError("trace identity failed: oracle is wrong")
    d = oracle.squarefree_part(t0 * t0 - 4)

    def check(q):
        lam, lam_inv = q["eigenvalues"]
        # lam = t/2 + b sqrt(d) with b^2 d = (t^2 - 4) / 4
        return (q["d"] == d and q["galois_pair_check"] is True
                and lam.a == Fraction(t, 2) and lam_inv.a == Fraction(t, 2)
                and lam.b > 0 and lam.b * lam.b * d == Fraction(t * t - 4, 4)
                and lam_inv.b == -lam.b)

    return Task("sol.qstructure", lambda: sol.sol_q_structure(a), check,
                describe=f"{label}^{n}")


def _zimmer_task(geometry: str, descriptor_args, spec_index: int) -> Task:
    text, uniform = ZIMMER_SPECS[spec_index]

    def call():
        if geometry == "nil":
            source = nil.lattice_gp(descriptor_args)
        elif geometry == "sol":
            source = sol.sol_lattice_make(IntMat2(2, 1, 1, 1),
                                          descriptor_args)
        else:
            source = euclid.crystal_group_make([], list(descriptor_args))
        quotient = zimmer.quotient_isometry_summary(geometry, source)
        return zimmer.zimmer_verdict(quotient,
                                     zimmer.parse_spec(text, uniform))

    # none of these quotients has SO(3) in its identity component
    rule = "iso-lacks-so3" if uniform else "nonuniform-excluded"

    def check(v):
        return (v.tag == "FactorsThroughFinite"
                and v.reasons[0]["rule"] == rule)

    return Task("zimmer.verdict", call, check,
                describe=f"{geometry} {descriptor_args} {text}")


def _stress_task(kind: int, rng: random.Random) -> Task:
    if kind == 0:
        return _gp_task(rng.choice(STRESS_GP_N), stress=True)
    if kind == 1:
        s = rng.choice(STRESS_SKEW)
        return _point_group_task(((1, 0), (s, 1)), stress=True)
    n = rng.choice(STRESS_FIB_POWERS)
    return _centralizer_task(IntMat2(2, 1, 1, 1), n, f"fib^{n}", stress=True)


class Quotients:
    name = "quotients"
    execute = staticmethod(library_execute)
    probe = KERNEL_PROBE
    round_seconds = 5.6         # nominal, see harness.rounds_for

    def __init__(self, seed: int):
        self.seed = seed
        self.specs = [self._mix_spec(h)
                      for h in range(MIXES_PER_ROUND * SPEC_ROUNDS)]

    def _mix_spec(self, h: int) -> dict:
        """Raw inputs of mix h: plain numbers, no library objects.

        Every size that drives the cost is stratified across mixes."""
        rng = round_rng(self.seed, self.name, h)
        u = golden_offsets(h, 9)
        log_span = math.log(GP_N_MAX / GP_N_MIN)
        gp = [round(GP_N_MIN * math.exp(log_span
                                       * ((j + u[0]) / GP_PER_ROUND)))
              for j in range(GP_PER_ROUND)]
        skews = [1 + (j + int(u[1] * SKEW_MAX)) % SKEW_MAX
                 for j in range(SKEW_MAX + 1)]
        bases = [pick_basis(sk, (u[2] + j * PHI) % 1.0, rng)
                 for j, sk in enumerate(skews)]
        fib_n = [1 + int(u[3] * FIB_POWER_MAX)]
        fib_n += [1 + int(((j + u[3]) / 2) * FIB_FACTOR_POWER_MAX)
                  for j in range(2)]
        ks = [max(1, round(K_MAX ** ((j + u[4]) / 2))) for j in range(2)]
        return {
            "gp": gp,
            "hex": [1 + int(((j + u[5]) / 2) * HEX_N_MAX) for j in range(2)],
            "bases": bases,
            "fib_n": fib_n,
            "k": [(k, rng.randint(1, 3)) for k in ks],
            "zimmer": [rng.randrange(len(ZIMMER_SPECS)) for _ in range(3)],
            "zimmer_gp": 1 + int(u[6] * 12),
            "zimmer_fib": 1 + int(u[7] * FIB_POWER_MAX),
            "zimmer_basis": pick_basis(2, u[8], rng),
            "stress": rng.randrange(1 << 30),
            "order": rng.randrange(1 << 30),
        }

    def round(self, r: int) -> list[Task]:
        first = MIXES_PER_ROUND * r % len(self.specs)
        specs = self.specs[first:first + MIXES_PER_ROUND]
        tasks = [t for spec in specs for t in self._mix(spec)]
        tasks.append(_stress_task(r % 3, random.Random(specs[0]["stress"])))
        random.Random(specs[0]["order"]).shuffle(tasks)
        return tasks

    @staticmethod
    def _mix(spec: dict) -> list[Task]:
        bases = spec["bases"]
        tasks = [_gp_task(n) for n in spec["gp"]]
        tasks += [_hex_task(n) for n in spec["hex"]]
        tasks += [_adjoin_full_task(n) for n in ADJOIN_FULL_N]
        tasks += [_point_group_task(b) for b in bases[:SKEW_MAX - 1]]
        tasks += [_euclid_task(b) for b in bases[SKEW_MAX - 1:]]
        n0, n_cent, n_q = spec["fib_n"]
        (k0, p0), (k1, p1) = spec["k"]
        tasks.append(batch("sol.lattice", _sol_tasks(FIB, n0, n_cent, "fib")))
        tasks.append(batch("sol.lattice", _sol_tasks(
            ((1, 1), (k0, k0 + 1)), p0, p0, f"[[1,1],[{k0},.]]")))
        tasks.append(batch("sol.qstructure", [
            _qstructure_task(FIB, n_q, "fib"),
            _qstructure_task(((1, 1), (k1, k1 + 1)), p1,
                             f"[[1,1],[{k1},.]]")]))
        z = spec["zimmer"]
        tasks.append(batch("zimmer.verdict", [
            _zimmer_task("nil", spec["zimmer_gp"], z[0]),
            _zimmer_task("sol", spec["zimmer_fib"], z[1]),
            _zimmer_task("euclid", spec["zimmer_basis"], z[2])]))
        return tasks
