"""Embedded golden suite: every worked value the library must reproduce.

Each item recomputes its claim through the public modules, so corrupted
lookup data or a broken kernel shows up as a failing item rather than a
stale constant.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import euclid, fibered, hyperbolic, nil, sol, zimmer
from .algebra import QuadRat, galois_conjugate
from .descriptors import FACTORS_THROUGH_FINITE, POSSIBLE_INFINITE_ACTION
from .intmat import IntMat2, int_mat_pow, snf

_A = IntMat2(2, 1, 1, 1)


def _close(a, b, tol=1e-9):
    return abs(a - b) <= tol


def _c_close(a, b, tol=1e-9):
    return abs(complex(a) - complex(b)) <= tol


# -- core algebra --------------------------------------------------------------

def check_galois_sqrt2():
    return galois_conjugate(QuadRat(3, 1, 2)) == QuadRat(3, -1, 2)


def check_snf_lambda5():
    return snf(((-88, -55), (-55, -33)))[0] == (11, 11)


def check_snf_det_a2():
    m = IntMat2.identity() - int_mat_pow(_A, 2)
    return m.det() == -5 and snf(m.rows())[0] == (1, 5)


def check_quad_inverse():
    return QuadRat(3, 1, 2).inverse() == QuadRat(Fraction(3, 7),
                                                 Fraction(-1, 7), 2)


# -- nil -----------------------------------------------------------------------

def check_heis_commutator():
    c = nil.heis_commutator(nil.HeisPoint.of(1, 0, 0),
                            nil.HeisPoint.of(0, 1, 0))
    return c == nil.HeisPoint.of(0, 0, 1)


def check_heis_conjugation():
    g = nil.HeisPoint.of(Fraction(1, 2), 3, 7)
    t = nil.HeisPoint.of(2, 5, 1)
    expected = nil.HeisPoint.of(2, 5, 1 + Fraction(1, 2) * 5 - 3 * 2)
    return nil.heis_conjugate(g, t) == expected


def check_nil_centers():
    hz = nil.nil_center_intersection(nil.lattice_hz()) == 1
    gp = nil.nil_center_intersection(nil.lattice_gp(3)) == Fraction(1, 3)
    hexv = nil.nil_center_intersection(nil.lattice_hex(2))
    return hz and gp and hexv == QuadRat(0, Fraction(1, 4), 3)


def check_nil_normalizers():
    n1 = nil.nil_normalizer(nil.lattice_hz())
    n2 = nil.nil_normalizer(nil.lattice_gp(5))
    n3 = nil.nil_normalizer(nil.lattice_hex(3))
    return (n1.index == 1 and n1.planar_u == (1, 0)
            and n2.index == 25 and n2.planar_u == (Fraction(1, 5), 0)
            and n3.index == 9)


def check_point_groups():
    sq = nil.planar_point_group((1, 0), (0, 1)).tag == "D4"
    hexa = nil.planar_point_group(
        (Fraction(1, 2), QuadRat(0, Fraction(1, 2), 3)), (1, 0)).tag == "D6"
    return sq and hexa


def check_nil_iso_hz():
    d = nil.nil_quotient_isometry(nil.lattice_hz())
    return (d.identity_component == "S1"
            and d.finite_part["order"] == 8
            and d.finite_part["point_group"] == "D4")


def check_nil_iso_hz_d4():
    pg = nil.planar_point_group((1, 0), (0, 1))
    d = nil.nil_quotient_isometry(nil.lattice_hz(), extra=pg)
    return d.total_order == 2 and d.finite_part["structure"] == "Z2"


def check_nil_iso_gp():
    ok = True
    for p in (1, 2, 3):
        d = nil.nil_quotient_isometry(nil.lattice_gp(p))
        ok = ok and d.finite_part["order"] == 8 * p * p \
            and d.finite_part["point_group"] == "D4"
    return ok


def check_nil_iso_hex():
    d = nil.nil_quotient_isometry(nil.lattice_hex(2))
    return (d.identity_component == "S1"
            and d.finite_part["point_group"] == "D6"
            and d.finite_part["order"] == 48)


def check_nil_dichotomy_line():
    gens = [nil.HeisIsometry.translation(nil.HeisPoint.of(1, 0, 1)),
            nil.HeisIsometry.translation(
                nil.HeisPoint.of(Fraction(1, 3), 0, 1)),
            nil.HeisIsometry.point_symmetry(nil.ROT_PI)]
    res = nil.nil_projection_dichotomy(gens)
    return (res.kind == nil.FIXES_LINE
            and res.direction is not None
            and res.direction[1] == 0
            and nil.nil_volume_verdict(res) == nil.INFINITE_VOLUME)


def check_nil_dichotomy_point():
    gens = [nil.HeisIsometry(nil.ROT_PI_2, nil.HeisPoint.of(0, 0, 1))]
    res = nil.nil_projection_dichotomy(gens)
    return (res.kind == nil.FIXES_POINT and res.point == (0, 0)
            and nil.nil_volume_verdict(res) == nil.INFINITE_VOLUME)


def check_nil_dichotomy_hz():
    gens = [nil.HeisIsometry.translation(nil.HeisPoint.of(1, 0, 0)),
            nil.HeisIsometry.translation(nil.HeisPoint.of(0, 1, 0))]
    res = nil.nil_projection_dichotomy(gens)
    return (res.kind == nil.DISCRETE_PROJECTION
            and nil.nil_volume_verdict(res) == nil.FINITE_VOLUME_POSSIBLE)


# -- sol -----------------------------------------------------------------------

def check_sol_conjugation():
    t, u, v, s = 1.3, 0.7, -0.4, 0.0
    g = sol.SolPoint(0.0, 0.0, t)
    h = sol.SolPoint(u, v, s)
    conj = sol.sol_mul(sol.sol_mul(g, h), sol.sol_inv(g))
    return (_close(conj.x, math.exp(t) * u, 1e-12)
            and _close(conj.y, math.exp(-t) * v, 1e-12)
            and _close(conj.level, 0.0, 1e-12))


def check_sol_lattice():
    lat = sol.sol_lattice_make(_A, 1)
    return lat.holonomy() == _A


def check_sol_normalizers():
    n1 = sol.sol_normalizer_lattice(sol.sol_lattice_make(_A, 1))
    n2 = sol.sol_normalizer_lattice(sol.sol_lattice_make(_A, 2))
    n5 = sol.sol_normalizer_lattice(sol.sol_lattice_make(_A, 5))
    lam5_is_eleventh = all(
        all((11 * c).denominator == 1 for c in vec) for vec in n5.basis)
    return (n1.index == 1 and n2.index == 5 and n5.index == 121
            and lam5_is_eleventh)


def check_sol_iso_table():
    d1 = sol.sol_quotient_isometry(sol.sol_lattice_make(_A, 1))
    d2 = sol.sol_quotient_isometry(sol.sol_lattice_make(_A, 2))
    d5 = sol.sol_quotient_isometry(sol.sol_lattice_make(_A, 5))
    return (d1.finite_part["order"] == 1
            and d2.finite_part["abelian_invariants"] == [5]
            and d2.finite_part["order"] == 10
            and d5.finite_part["abelian_invariants"] == [11, 11]
            and d5.finite_part["order"] == 605
            and all(d.identity_component == "trivial" for d in (d1, d2, d5)))


def check_sol_centralizers():
    return all(sol.sol_centralizer(sol.sol_lattice_make(_A, n))["group"]
               == "trivial" for n in (1, 2, 5))


def check_sol_q_structure():
    q = sol.sol_q_structure(_A)
    lam = QuadRat(Fraction(3, 2), Fraction(1, 2), 5)
    return (q["d"] == 5 and q["eigenvalues"][0] == lam
            and q["galois_pair_check"])


# -- hyperbolic ----------------------------------------------------------------

def check_hyp_classify_diagonal():
    cls = hyperbolic.classify_isometry(hyperbolic.MobiusMap(2, 0, 0, 0.5))
    pts = cls.fixed_set
    finite = [p for p in pts if not p.infinite]
    return (cls.tag == hyperbolic.HYPERBOLIC and len(pts) == 2
            and any(p.infinite for p in pts)
            and _close(finite[0].x, 0.0))


def check_hyp_classify_parabolic():
    cls = hyperbolic.classify_isometry(hyperbolic.MobiusMap(1, 1, 0, 1))
    return cls.tag == hyperbolic.PARABOLIC and cls.fixed_set[0].infinite


def check_hyp_classify_elliptic():
    t = math.pi / 4
    cls = hyperbolic.classify_isometry(
        hyperbolic.MobiusMap(math.cos(t), -math.sin(t),
                             math.sin(t), math.cos(t)))
    return cls.tag == hyperbolic.ELLIPTIC and _c_close(cls.fixed_set[0], 1j)


def check_hyp_centralizer_types():
    t = 0.4
    rot = hyperbolic.MobiusMap(math.cos(t), -math.sin(t),
                               math.sin(t), math.cos(t))
    return (hyperbolic.centralizer_type(rot)["type"] == hyperbolic.CIRCLE
            and hyperbolic.centralizer_type(
                hyperbolic.MobiusMap(1, 1, 0, 1))["type"]
            == hyperbolic.REAL_LINE
            and hyperbolic.centralizer_type(
                hyperbolic.MobiusMap(2, 0, 0, 0.5))["type"]
            == hyperbolic.REAL_LINE)


def check_hyp_verdicts():
    v3 = hyperbolic.hn_quotient_isometry_verdict(3)
    v2 = hyperbolic.hn_quotient_isometry_verdict(2)
    return (v3["verdict"] == "FiniteIsometryGroup"
            and v2["verdict"] == "FiniteIsometryGroup"
            and v2["circle_action_possible"] is False)


# -- fibered -------------------------------------------------------------------

def check_christoffel():
    return (_close(fibered.christoffel_h2(1j, 1, 2, 1), -1.0)
            and _close(fibered.christoffel_h2(2j, 1, 1, 2), 0.5)
            and _close(fibered.christoffel_h2(1j, 1, 1, 1), 0.0))


def check_sasaki_vertical():
    t = fibered.TangentVector(1j, 1 + 0j, 0j, 2j)
    return _close(fibered.sasaki_norm(t), 2.0, 1e-12)


def check_sasaki_horizontal_pair():
    t1 = fibered.TangentVector(1j, 1 + 0j, 2j, 2 + 0j)
    t3 = fibered.TangentVector(1j, 1 + 0j, 2 + 0j, -2j)
    h1, v1 = fibered.hv_decompose(t1)
    h3, v3 = fibered.hv_decompose(t3)
    return (_c_close(v1.vec_Z, 0) and _c_close(v3.vec_Z, 0)
            and _close(fibered.sasaki_inner(t1, t3), 0.0, 1e-12)
            and _close(fibered.sasaki_norm(t1), fibered.sasaki_norm(t3),
                       1e-12))


def check_hv_vertical_display():
    t2 = fibered.TangentVector(1j, 1 + 0j, 0j, 2j)
    h2, v2 = fibered.hv_decompose(t2)
    return _c_close(h2.vec_X, 0) and _c_close(h2.vec_Z, 0)


def check_phi_identity():
    z, w = fibered.unit_tangent_embed(hyperbolic.MobiusMap.identity())
    return _c_close(z, 1j) and _c_close(w, 1)


def check_phi_one_parameter():
    t = 0.37
    m1 = hyperbolic.expm_sl2(fibered.SL2_BASIS[0], t)
    z1, w1 = fibered.unit_tangent_embed(m1)
    ok1 = _c_close(z1, math.exp(2 * t) * 1j, 1e-10) \
        and _c_close(w1, math.exp(2 * t), 1e-10)
    m2 = hyperbolic.expm_sl2(fibered.SL2_BASIS[1], t)
    z2, w2 = fibered.unit_tangent_embed(m2)
    ok2 = _c_close(z2, 1j, 1e-10) \
        and _c_close(w2, complex(math.cos(2 * t), math.sin(2 * t)), 1e-10)
    return ok1 and ok2


def check_frame_display():
    frame = fibered.frame_at_identity()
    refs = ((2j, 2), (0, 2j), (2, -2j))
    return all(_c_close(v.vec_X, r[0], 1e-5) and _c_close(v.vec_Z, r[1], 1e-5)
               for v, r in zip(frame, refs))


# the rotation about z with cosine 3/5 and sine 4/5, of infinite order
_ROT_345 = ((Fraction(3, 5), Fraction(-4, 5), 0),
            (Fraction(4, 5), Fraction(3, 5), 0), (0, 0, 1))


def check_s2r_irrational_example():
    gen = fibered.S2RIsometry(_ROT_345, 1)
    dec = fibered.s2r_decompose([gen])
    return (dec.l_type == fibered.LAMBDA_Z and dec.f_order_bound == 1
            and _close(float(dec.lam), 1.0))


def check_s2r_components():
    product = fibered.s2r_decompose(
        [fibered.S2RIsometry(fibered.S2R_ROT_ID, 1)])
    twist = fibered.s2r_decompose([fibered.S2RIsometry(_ROT_345, 1)])
    rho = ((-1, 0, 0), (0, -1, 0), (0, 0, 1))
    rx = ((1, 0, 0), (0, -1, 0), (0, 0, -1))
    klein = fibered.s2r_decompose(
        [fibered.S2RIsometry(fibered.S2R_ROT_ID, 1),
         fibered.S2RIsometry(rho, 0), fibered.S2RIsometry(rx, 0)])
    return (fibered.s2r_quotient_identity_component(product)
            == fibered.SO3_X_S1
            and fibered.s2r_quotient_identity_component(twist)
            == fibered.S1_X_S1
            and fibered.s2r_quotient_identity_component(klein)
            == fibered.S1_ONLY)


def check_psl2_shapes():
    return all(fibered.psl2_quotient_isometry(g).identity_component == "S1"
               for g in ("psl2", "h2xr", "sl2r"))


# -- euclid / spherical ---------------------------------------------------------

def check_euclid_z2():
    d = euclid.euclid_quotient_isometry(euclid.preset_crystal("Z2"))
    return (d.identity_component == "T2"
            and d.finite_part["structure"] == "D4"
            and d.finite_part["order"] == 8)


def check_euclid_z2d4():
    d = euclid.euclid_quotient_isometry(euclid.preset_crystal("Z2xD4"))
    return d.identity_component == "trivial" and d.total_order == 2


def check_euclid_rank_bullets():
    screw = euclid.euclid_volume_verdict(euclid.preset_crystal("screw"))
    slab = euclid.euclid_volume_verdict(euclid.preset_crystal("slab"))
    full = euclid.euclid_volume_verdict(euclid.preset_crystal("Z3"))
    return (screw == euclid.INFINITE_VOLUME
            and slab == euclid.INFINITE_VOLUME
            and full == euclid.FINITE_VOLUME_COMPACT)


def check_spherical_orbifold_rows():
    rows = euclid.spherical_components_lookup(
        "spherical-orbifold-orientation-preserving")
    return sorted(r["identity_component"] for r in rows) == \
        ["S1", "S1xS1", "trivial"]


def check_spherical_manifold_rows():
    rows = euclid.spherical_components_lookup("spherical-manifold")
    tags = {r["identity_component"] for r in rows}
    return {"SO(4)", "SO(3)", "O(2)", "O(4)", "O(2)xO(2)",
            "S1 x_Z2 S1"} <= tags


def check_s2xr_free_actions():
    rows = euclid.spherical_components_lookup("s2xr-free-finite-actions")
    return sorted(r["data"]["group"] for r in rows) == \
        ["D_n", "Z/p", "Z/pxZ/2"]


# -- zimmer ----------------------------------------------------------------------

def check_rank_table():
    return (zimmer.real_rank(zimmer.parse_factor("SL(3,R)")) == 2
            and zimmer.real_rank(zimmer.parse_factor("SO(2,2)")) == 2
            and zimmer.real_rank(zimmer.parse_factor("SU(3,2)")) == 2
            and zimmer.real_rank(zimmer.parse_factor("SO(4)")) == 0)


def check_isotypic_footnote():
    factors = [zimmer.parse_factor("SO(3,1)"), zimmer.parse_factor("SO(2,2)"),
               zimmer.parse_factor("SO(4,C)"), zimmer.parse_factor("SO(4)")]
    return zimmer.is_isotypic(factors)


def check_zimmer_nonuniform():
    spec = zimmer.parse_spec("SL(3,R)", uniform=False)
    tags = ("S1", "trivial", "T3", "SO(4)", "SO3xS1")
    return all(zimmer.zimmer_verdict(t, spec).tag == FACTORS_THROUGH_FINITE
               for t in tags)


def check_zimmer_round_sphere():
    spec = zimmer.parse_spec("SO(2,2)", uniform=True)
    return zimmer.zimmer_verdict("SO(4)", spec).tag \
        == POSSIBLE_INFINITE_ACTION


def check_zimmer_3man_finite():
    h3 = zimmer.quotient_isometry_summary("h3")
    lat = sol.sol_lattice_make(_A, 5)
    s = zimmer.quotient_isometry_summary("sol", lat)
    return (h3.identity_component == "trivial"
            and s.identity_component == "trivial"
            and s.finite_part["order"] == 605)


def check_aspherical():
    return (zimmer.aspherical_check(3, 2).tag == FACTORS_THROUGH_FINITE
            and zimmer.aspherical_check(4, 3).tag == FACTORS_THROUGH_FINITE
            and zimmer.aspherical_check(3, 3) is None)


def check_maxdim():
    return zimmer.max_isometry_dim(3) == 6 and zimmer.max_isometry_dim(1) == 1


def check_galois_twist():
    res = zimmer.galois_twist_pair(zimmer.galois_twist_example())
    return res["preserves_form"] and res["conjugate_preserves_twisted_form"]


ITEMS = [
    ("algebra/galois-sqrt2", check_galois_sqrt2),
    ("algebra/quad-inverse", check_quad_inverse),
    ("algebra/snf-lambda5", check_snf_lambda5),
    ("algebra/snf-det-a2", check_snf_det_a2),
    ("nil/commutator-display", check_heis_commutator),
    ("nil/conjugation-display", check_heis_conjugation),
    ("nil/center-generators", check_nil_centers),
    ("nil/normalizers", check_nil_normalizers),
    ("nil/point-groups", check_point_groups),
    ("nil/iso-hz", check_nil_iso_hz),
    ("nil/iso-hz-adjoin-d4", check_nil_iso_hz_d4),
    ("nil/iso-gp", check_nil_iso_gp),
    ("nil/iso-hex", check_nil_iso_hex),
    ("nil/dichotomy-line", check_nil_dichotomy_line),
    ("nil/dichotomy-point", check_nil_dichotomy_point),
    ("nil/dichotomy-discrete", check_nil_dichotomy_hz),
    ("sol/conjugation-display", check_sol_conjugation),
    ("sol/lattice-gamma-a", check_sol_lattice),
    ("sol/normalizer-ladder", check_sol_normalizers),
    ("sol/iso-table", check_sol_iso_table),
    ("sol/centralizers-trivial", check_sol_centralizers),
    ("sol/q-structure", check_sol_q_structure),
    ("hyp/classify-diagonal", check_hyp_classify_diagonal),
    ("hyp/classify-parabolic", check_hyp_classify_parabolic),
    ("hyp/classify-elliptic", check_hyp_classify_elliptic),
    ("hyp/centralizer-types", check_hyp_centralizer_types),
    ("hyp/finite-verdicts", check_hyp_verdicts),
    ("fiber/christoffel", check_christoffel),
    ("fiber/sasaki-vertical", check_sasaki_vertical),
    ("fiber/sasaki-horizontal-pair", check_sasaki_horizontal_pair),
    ("fiber/hv-vertical", check_hv_vertical_display),
    ("fiber/phi-identity", check_phi_identity),
    ("fiber/phi-one-parameter", check_phi_one_parameter),
    ("fiber/frame-display", check_frame_display),
    ("fiber/s2r-irrational", check_s2r_irrational_example),
    ("fiber/s2r-components", check_s2r_components),
    ("fiber/psl2-shapes", check_psl2_shapes),
    ("euclid/z2-torus-d4", check_euclid_z2),
    ("euclid/z2d4-z2", check_euclid_z2d4),
    ("euclid/rank-bullets", check_euclid_rank_bullets),
    ("lookup/spherical-orbifold", check_spherical_orbifold_rows),
    ("lookup/spherical-manifold", check_spherical_manifold_rows),
    ("lookup/s2xr-free-actions", check_s2xr_free_actions),
    ("zimmer/rank-table", check_rank_table),
    ("zimmer/isotypic-footnote", check_isotypic_footnote),
    ("zimmer/nonuniform-finite", check_zimmer_nonuniform),
    ("zimmer/round-sphere-existence", check_zimmer_round_sphere),
    ("zimmer/finite-h3-sol", check_zimmer_3man_finite),
    ("zimmer/aspherical-bound", check_aspherical),
    ("zimmer/max-isometry-dim", check_maxdim),
    ("zimmer/galois-twist", check_galois_twist),
]


def run_selfcheck() -> list[dict]:
    """Run every golden item; failures and exceptions are report content."""
    report = []
    for item_id, fn in ITEMS:
        try:
            ok = bool(fn())
            detail = "" if ok else "returned False"
        except Exception as exc:                       # noqa: BLE001
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        report.append({"id": item_id, "ok": ok, "detail": detail})
    return report
