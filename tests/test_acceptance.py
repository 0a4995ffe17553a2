"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import itertools
import random
import time

from geom3 import euclid, fibered, hyperbolic, nil, selfcheck, sol, zimmer
from geom3.descriptors import FACTORS_THROUGH_FINITE, POSSIBLE_INFINITE_ACTION
from geom3.intmat import IntMat2, int_mat_pow, snf

from support import tangent_action
from test_euclid import GRID
from test_hyperbolic import random_sl2, rotation, sample_u_eps, \
    mat_mul2, mat_inv2
from test_intmat import cokernel_order_bruteforce
from test_zimmer import HIGHER_RANK_GRID

A = IntMat2(2, 1, 1, 1)


def report(number: int, message: str):
    print(f"ACCEPTANCE {number}: PASS — {message}")


def test_criterion_1_sol_worked_table():
    start = time.perf_counter()
    d1 = sol.sol_quotient_isometry(sol.sol_lattice_make(A, 1))
    assert d1.finite_part["order"] == 1
    assert d1.finite_part["abelian_invariants"] == []
    d2 = sol.sol_quotient_isometry(sol.sol_lattice_make(A, 2))
    assert d2.finite_part["order"] == 10
    assert d2.finite_part["abelian_invariants"] == [5]
    assert d2.finite_part["cyclic_extension"] == 2
    d5 = sol.sol_quotient_isometry(sol.sol_lattice_make(A, 5))
    assert d5.finite_part["order"] == 605
    assert d5.finite_part["abelian_invariants"] == [11, 11]
    assert d5.finite_part["cyclic_extension"] == 5
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"Sol table (1, 10, 605) exact in {elapsed:.3f}s")


def test_criterion_2_nil_worked_examples():
    d = nil.nil_quotient_isometry(nil.lattice_hz())
    assert d.identity_component == "S1"
    assert d.finite_part["structure"] == "D4"
    assert d.finite_part["order"] == 8
    pg = nil.planar_point_group((1, 0), (0, 1))
    d_adj = nil.nil_quotient_isometry(nil.lattice_hz(), extra=pg)
    assert d_adj.total_order == 2 and d_adj.finite_part["structure"] == "Z2"
    for p in (1, 2, 3):
        dp = nil.nil_quotient_isometry(nil.lattice_gp(p))
        assert dp.finite_part["order"] == 8 * p * p
        assert dp.finite_part["point_group"] == "D4"
        assert dp.finite_part["translation_part"] == [p, p]
    for p in (1, 2):
        dh = nil.nil_quotient_isometry(nil.lattice_hex(p))
        assert dh.identity_component == "S1"
        assert dh.finite_part["point_group"] == "D6"
        assert dh.finite_part["order"] == 12 * p * p
    report(2, "Nil quotients: S1 x| D4, Z2 after adjoining D4, 8p^2, "
              "D6 extension")


def test_criterion_3_euclid_planar_and_oracle_grid():
    d = euclid.euclid_quotient_isometry(euclid.preset_crystal("Z2"))
    assert d.identity_component == "T2"
    assert d.finite_part["structure"] == "D4"
    d2 = euclid.euclid_quotient_isometry(euclid.preset_crystal("Z2xD4"))
    assert d2.identity_component == "trivial" and d2.total_order == 2
    assert len(GRID) >= 20
    agreements = 0
    for gens, basis in GRID:
        g = euclid.crystal_group_make(gens, basis)
        betti, _ = euclid.betti_identity_component(g)
        assert betti == euclid.coinvariant_rank(g)
        agreements += 1
    report(3, f"planar isometry groups (T2 x| D4, Z2) and Betti oracle "
              f"agreement on {agreements} inputs")


def test_criterion_4_frame_checks():
    start = time.perf_counter()
    frame = fibered.frame_at_identity()          # the closed form
    refs = ((2j, 2), (0, 2j), (2, -2j))
    for v, (rx, rz) in zip(frame, refs):
        assert abs(v.vec_X - rx) <= 1e-5 and abs(v.vec_Z - rz) <= 1e-5
    halves = [fibered.TangentVector(1j, 1, v.vec_X / 2, v.vec_Z / 2)
              for v in frame]
    for i, j in itertools.combinations_with_replacement(range(3), 2):
        inner = fibered.sasaki_inner(halves[i], halves[j])
        assert abs(inner - (1.0 if i == j else 0.0)) <= 1e-8
    rng = random.Random(101)
    for _ in range(100):
        m1, m2 = random_sl2(rng), random_sl2(rng)
        direct = fibered.unit_tangent_embed(m1.compose(m2))
        staged = tangent_action(m1, fibered.unit_tangent_embed(m2))
        assert abs(direct[0] - staged[0]) <= 1e-10
        assert abs(direct[1] - staged[1]) <= 1e-10
        z, w = direct
        assert abs(abs(w) / z.imag - 1.0) <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(4, f"frame display 1e-5, orthonormality 1e-8, equivariance "
              f"1e-10 over 100 maps in {elapsed:.3f}s")


def test_criterion_5_hyperbolic_property_suite():
    rng = random.Random(103)
    reps = {"Hyperbolic": hyperbolic.MobiusMap(2, 0, 0, 0.5),
            "Parabolic": hyperbolic.MobiusMap(1, 1, 0, 1),
            "Elliptic": rotation(0.8)}
    failures = 0
    for tag, m in reps.items():
        for _ in range(100):
            g = random_sl2(rng)
            conj = g.compose(m).compose(g.inverse())
            if hyperbolic.classify_isometry(conj).tag != tag:
                failures += 1
    assert failures == 0

    base = {"h": lambda t: hyperbolic.expm_sl2(((1.0, 0.0), (0.0, -1.0)), t),
            "p": lambda t: hyperbolic.MobiusMap(1, t, 0, 1),
            "e": lambda t: rotation(t)}
    kinds = list(base)
    mismatches = 0
    for _ in range(500):
        g1 = random_sl2(rng)
        same = rng.random() < 0.5
        g2 = g1 if same else random_sl2(rng)
        m1 = g1.compose(base[rng.choice(kinds)](rng.uniform(0.3, 1.2))) \
            .compose(g1.inverse())
        m2 = g2.compose(base[rng.choice(kinds)](rng.uniform(0.3, 1.2))) \
            .compose(g2.inverse())
        commutes, same_fixed = hyperbolic.commute_test(m1, m2)
        if commutes != same_fixed:
            mismatches += 1
    assert mismatches == 0

    escapes = 0
    for eps in (1e-2, 1e-3):
        for _ in range(1000):
            g = sample_u_eps(rng, eps)
            h = sample_u_eps(rng, eps)
            k = mat_mul2(mat_mul2(g, h),
                         mat_mul2(mat_inv2(g), mat_inv2(h)))
            inside = (abs(k[0][1]) < eps and abs(k[1][0]) < eps
                      and abs(k[0][0] - 1) < eps and abs(k[1][1] - 1) < eps)
            if not inside:
                escapes += 1
    assert escapes == 0
    report(5, "classification conjugation-invariant (300 conjugates), "
              "commute iff equal fixed sets (500 pairs), commutator "
              "stability with zero escapes")


def test_criterion_6_snf_oracles():
    rng = random.Random(107)
    done = 0
    while done < 50:
        m = IntMat2(*(rng.randint(-12, 12) for _ in range(4)))
        if m.det() == 0:
            continue
        d1, d2 = snf(m.rows())[0]
        assert cokernel_order_bruteforce(m) == d1 * d2
        done += 1
    checked = 0
    while checked < 20:
        tr = rng.randint(3, 10)
        d = rng.randint(0, tr - 1)
        c = (tr - d) * d - 1
        m = IntMat2(tr - d, 1, c, d)
        if m.det() != 1 or m.trace() <= 2:
            continue
        n = rng.randint(1, 4)
        hol = int_mat_pow(m, n)
        rel = IntMat2.identity() - hol
        assert abs(rel.det()) == abs(2 - hol.trace())
        checked += 1
    report(6, "cokernel enumeration matches d1*d2 on 50 matrices; "
              "det(I - A^n) identity on 20 hyperbolic powers")


def test_criterion_7_zimmer_verdict_grid():
    non_sphere = {
        "nil": zimmer.quotient_isometry_summary("nil", nil.lattice_hz()),
        "sol": zimmer.quotient_isometry_summary(
            "sol", sol.sol_lattice_make(A, 5)),
        "h3": zimmer.quotient_isometry_summary("h3"),
        "h2xr": zimmer.quotient_isometry_summary("h2xr"),
        "sl2r": zimmer.quotient_isometry_summary("sl2r"),
        "euclid": zimmer.quotient_isometry_summary(
            "euclid", euclid.preset_crystal("Z3")),
    }
    assert len(HIGHER_RANK_GRID) == 12
    citations = 0
    for text in HIGHER_RANK_GRID:
        for uniform in (True, False):
            spec = zimmer.parse_spec(text, uniform=uniform)
            for tag, desc in non_sphere.items():
                verdict = zimmer.zimmer_verdict(desc, spec)
                assert verdict.tag == FACTORS_THROUGH_FINITE, (text, tag)
                assert verdict.reasons
                for r in verdict.reasons:
                    assert r["rule"] and r["citation"]
                    citations += 1
    sphere = zimmer.quotient_isometry_summary("s3", "SO(4)")
    a1 = zimmer.parse_spec("SO(2,2) x SO(4)", uniform=True)
    v = zimmer.zimmer_verdict(sphere, a1)
    assert v.tag == POSSIBLE_INFINITE_ACTION
    assert all(r["rule"] and r["citation"] for r in v.reasons)
    sl3_nonuni = zimmer.parse_spec("SL(3,R)", uniform=False)
    for desc in list(non_sphere.values()) + [sphere]:
        verdict = zimmer.zimmer_verdict(desc, sl3_nonuni)
        assert verdict.tag == FACTORS_THROUGH_FINITE
        assert all(r["rule"] and r["citation"] for r in verdict.reasons)
    report(7, f"grid of 12 specs x 6 geometries all finite; round-sphere "
              f"existence case; {citations} rule citations emitted")


def test_criterion_8_selfcheck():
    start = time.perf_counter()
    results = selfcheck.run_selfcheck()
    elapsed = time.perf_counter() - start
    bad = [r for r in results if not r["ok"]]
    assert not bad, bad
    assert elapsed < 30.0
    report(8, f"selfcheck: {len(results)} golden items pass "
              f"in {elapsed:.2f}s (< 30s)")
