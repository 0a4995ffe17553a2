"""Rank table, isotypic tests, verdict rules, and the dispatch layer."""

import itertools
import re

import pytest

from geom3.algebra import QuadRat, galois_conjugate
from geom3.descriptors import (
    FACTORS_THROUGH_FINITE,
    POSSIBLE_INFINITE_ACTION,
    Verdict,
)
from geom3.intmat import IntMat2
from geom3.nil import lattice_hz
from geom3.sol import sol_lattice_make
from geom3 import euclid, fibered
from geom3.zimmer import (
    IDENTITY_COMPONENTS,
    LatticeSpec,
    SimpleFactor,
    aspherical_check,
    complex_type,
    galois_twist_example,
    galois_twist_pair,
    is_isotypic,
    max_isometry_dim,
    parse_factor,
    parse_spec,
    quotient_isometry_summary,
    real_rank,
    zimmer_verdict,
)
from support import (
    off_form_entries,
    zimmer_factor_by_cases,
    zimmer_parse_by_cases,
)


def test_real_rank_table():
    assert real_rank(parse_factor("SL(3,R)")) == 2
    assert real_rank(parse_factor("SL(2,R)")) == 1
    assert real_rank(parse_factor("SU(2,2)")) == 2
    assert real_rank(parse_factor("SU(5,1)")) == 1
    assert real_rank(parse_factor("SO(2,2)")) == 2
    assert real_rank(parse_factor("SO(3,1)")) == 1
    assert real_rank(parse_factor("Sp(4,R)")) == 2
    assert real_rank(parse_factor("Sp(2,1)")) == 1
    assert real_rank(parse_factor("SL(3,C)")) == 2
    assert real_rank(parse_factor("SO(5,C)")) == 2
    assert real_rank(parse_factor("Sp(6,C)")) == 3
    assert real_rank(parse_factor("G2")) == 2
    assert real_rank(parse_factor("E8")) == 8
    assert real_rank(parse_factor("SO(3)")) == 0
    assert real_rank(parse_factor("SO(4)")) == 0


def test_rank_additivity():
    spec = parse_spec("SL(3,R) x SO(2,2) x SO(4)", uniform=True)
    assert spec.rank() == sum(real_rank(f) for f in spec.factors) == 4


def test_parameter_validation():
    with pytest.raises(ValueError):
        SimpleFactor("SL(n,R)", (1,))
    with pytest.raises(ValueError):
        SimpleFactor("SO(p,q)", (1, 1))
    with pytest.raises(ValueError):
        SimpleFactor("SO(3)", (3,))
    with pytest.raises(ValueError):
        parse_factor("Sp(3,R)")
    with pytest.raises(ValueError):
        parse_factor("XX(1,2)")


@pytest.mark.parametrize("family, params", [
    ("SL(n,R)", (2.5,)), ("SL(n,R)", (3.0,)), ("SL(n,R)", ("3",)),
    ("SL(n,R)", (True,)), ("SO(p,q)", (2, 1.0)), ("Sp(p,q)", (False, 0)),
])
def test_parameters_must_be_integers(family, params):
    with pytest.raises(ValueError, match="parameters must be integers"):
        SimpleFactor(family, params)


def test_complex_types():
    assert complex_type(parse_factor("SO(3)")) == ("A1",)
    assert complex_type(parse_factor("SO(4)")) == ("A1", "A1")
    assert complex_type(parse_factor("SO(2,2)")) == ("A1", "A1")
    assert complex_type(parse_factor("SO(3,1)")) == ("A1", "A1")
    assert complex_type(parse_factor("SL(2,R)")) == ("A1",)
    assert complex_type(parse_factor("SL(3,R)")) == ("A2",)
    assert complex_type(parse_factor("SU(2,1)")) == ("A2",)
    assert complex_type(parse_factor("SO(4,C)")) == ("A1",) * 4
    assert complex_type(parse_factor("SO(3,2)")) == ("B2",)
    assert complex_type(parse_factor("Sp(4,R)")) == ("B2",)
    assert complex_type(parse_factor("SO(6,C)")) == ("A3", "A3")
    assert complex_type(parse_factor("SU(2,2)")) == ("A3",)
    assert complex_type(parse_factor("G2")) == ("G2", "G2")


def test_isotypic():
    assert is_isotypic([parse_factor("SO(2,2)"), parse_factor("SO(4)")])
    assert is_isotypic([parse_factor("SO(3,1)"), parse_factor("SO(2,2)"),
                        parse_factor("SO(4,C)")])
    assert not is_isotypic([parse_factor("SL(3,R)"), parse_factor("SO(4)")])
    # accidental isomorphism: sp(4) and so(5) share the type B2
    assert is_isotypic([parse_factor("Sp(4,R)"), parse_factor("SO(3,2)")])
    with pytest.raises(ValueError):
        is_isotypic([])


def test_isotypic_invariance():
    base = [parse_factor("SO(2,2)"), parse_factor("SO(4)")]
    for perm in itertools.permutations(base):
        assert is_isotypic(list(perm))
    assert is_isotypic(base + base)


HIGHER_RANK_GRID = [
    "SL(3,R)", "SL(4,R)", "SU(2,2)", "SO(2,3)", "Sp(4,R)", "G2",
    "SL(3,C)", "SO(5,C)", "SL(2,R) x SL(2,R)", "SO(2,2)", "SO(4,C)",
    "SO(2,2) x SO(4)",
]

NON_SPHERE_TAGS = {"nil": "S1", "sol": "trivial", "h3": "trivial",
                   "h2xr": "S1", "sl2r": "S1", "euclid": "T3"}


def test_verdict_grid_non_sphere_geometries():
    assert len(HIGHER_RANK_GRID) == 12
    for text in HIGHER_RANK_GRID:
        for uniform in (True, False):
            spec = parse_spec(text, uniform=uniform)
            assert spec.rank() >= 2
            for tag in NON_SPHERE_TAGS.values():
                verdict = zimmer_verdict(tag, spec)
                assert verdict.tag == FACTORS_THROUGH_FINITE
                assert verdict.reasons


def test_verdict_sphere_cases():
    a1_specs = ["SL(2,R) x SL(2,R)", "SO(2,2)", "SO(4,C)",
                "SO(2,2) x SO(4)"]
    for text in a1_specs:
        spec = parse_spec(text, uniform=True)
        assert zimmer_verdict("SO(4)", spec).tag == POSSIBLE_INFINITE_ACTION
        assert zimmer_verdict("SO(4)", parse_spec(text, uniform=False)).tag \
            == FACTORS_THROUGH_FINITE
    for text in ("SL(3,R)", "SU(2,2)", "G2"):
        spec = parse_spec(text, uniform=True)
        assert zimmer_verdict("SO(4)", spec).tag == FACTORS_THROUGH_FINITE


def test_verdict_s2xr():
    spec = parse_spec("SO(2,2)", uniform=True)
    assert zimmer_verdict("SO3xS1", spec).tag == POSSIBLE_INFINITE_ACTION
    assert zimmer_verdict("S1xS1", spec).tag == FACTORS_THROUGH_FINITE


def test_verdict_monotone_under_compact_factors():
    for text in HIGHER_RANK_GRID:
        spec = parse_spec(text, uniform=True)
        before = zimmer_verdict("SO(4)", spec).tag
        extended = LatticeSpec(spec.factors + (parse_factor("SO(4)"),), True)
        after = zimmer_verdict("SO(4)", extended).tag
        if before == FACTORS_THROUGH_FINITE:
            matching = is_isotypic(list(spec.factors)
                                   + [parse_factor("SO(4)")])
            if not matching:
                assert after == FACTORS_THROUGH_FINITE


def test_verdict_requires_higher_rank():
    with pytest.raises(ValueError):
        zimmer_verdict("SO(4)", parse_spec("SL(2,R)", uniform=True))
    with pytest.raises(ValueError):
        zimmer_verdict("SO(4)", parse_spec("SO(3,1)", uniform=True))


def test_verdict_citations_are_complete():
    specs = [parse_spec(t, uniform=u)
             for t in HIGHER_RANK_GRID for u in (True, False)]
    for spec in specs:
        for tag in ("S1", "trivial", "SO(4)", "T3", "SO3xS1"):
            verdict = zimmer_verdict(tag, spec)
            assert verdict.reasons
            for reason in verdict.reasons:
                assert reason["rule"] and reason["citation"]


def test_verdict_type_requires_reasons():
    with pytest.raises(ValueError):
        Verdict(FACTORS_THROUGH_FINITE, ())
    with pytest.raises(ValueError):
        Verdict("Maybe", ({"rule": "r", "citation": "c"},))


def test_aspherical_check():
    assert aspherical_check(3, 2).tag == FACTORS_THROUGH_FINITE
    assert aspherical_check(4, 3).tag == FACTORS_THROUGH_FINITE
    assert aspherical_check(3, 3) is None
    with pytest.raises(ValueError):
        aspherical_check(2, 1)


def test_max_isometry_dim():
    assert max_isometry_dim(3) == 6
    assert max_isometry_dim(1) == 1
    assert max_isometry_dim(4) == 10
    with pytest.raises(ValueError):
        max_isometry_dim(0)


def test_galois_twist():
    ident = tuple(tuple(QuadRat(1 if i == j else 0, 0, 2) for j in range(4))
                  for i in range(4))
    res = galois_twist_pair(ident)
    assert res["preserves_form"] and res["conjugate_preserves_twisted_form"]
    rot = galois_twist_example()
    res2 = galois_twist_pair(rot)
    assert res2["preserves_form"]
    assert res2["conjugate_preserves_twisted_form"]
    bad = tuple(tuple(QuadRat(1, 0, 2) for _ in range(4)) for _ in range(4))
    res3 = galois_twist_pair(bad)
    assert not res3["preserves_form"]
    assert not res3["conjugate_preserves_twisted_form"]


def test_galois_twist_involution_and_product():
    rot = galois_twist_example()
    res = galois_twist_pair(rot)
    twice = tuple(tuple(galois_conjugate(v) for v in row)
                  for row in res["conjugate"])
    assert twice == res["matrix"]
    # the product of two preserving matrices preserves
    prod = tuple(tuple(sum(rot[i][k] * rot[k][j] for k in range(4))
                       for j in range(4)) for i in range(4))
    res_prod = galois_twist_pair(prod)
    assert res_prod["preserves_form"]
    assert res_prod["conjugate_preserves_twisted_form"]


def test_galois_twist_entries_have_one_exact_form():
    # a rational entry is a Fraction, an irrational one a QuadRat of
    # Q(sqrt(2)), whatever form the caller wrote it in; the entries were
    # all labelled QuadRats over sqrt(2)
    inputs = [galois_twist_example(),
              tuple(tuple(QuadRat(int(i == j), 0, 5) for j in range(4))
                    for i in range(4)),
              tuple(tuple(int(i == j) for j in range(4)) for i in range(4))]
    for g in inputs:
        res = galois_twist_pair(g)
        assert off_form_entries([res["matrix"], res["conjugate"]]) == []
    assert res["preserves_form"]
    with pytest.raises(ValueError, match=re.escape("Q(sqrt(2))")):
        galois_twist_pair(tuple(tuple(QuadRat(0, 1, 3) for _ in range(4))
                                for _ in range(4)))


def test_dispatch_summary():
    d = quotient_isometry_summary("sol", sol_lattice_make(IntMat2(2, 1, 1, 1),
                                                          5))
    assert d.finite_part["order"] == 605
    d2 = quotient_isometry_summary("nil", lattice_hz())
    assert d2.identity_component == "S1"
    assert quotient_isometry_summary("h3").identity_component == "trivial"
    assert quotient_isometry_summary("s3", "SO(4)").identity_component \
        == "SO(4)"
    assert quotient_isometry_summary("s2xr", "SO3xS1").identity_component \
        == "SO3xS1"
    for geom in ("h2xr", "sl2r"):
        assert quotient_isometry_summary(geom).identity_component == "S1"
    with pytest.raises(ValueError):
        quotient_isometry_summary("minkowski")


def test_component_tags_are_the_table_and_fibered_tags():
    rows = euclid.spherical_components_lookup("all")
    assert set(IDENTITY_COMPONENTS["s3"]) == {
        row["identity_component"] for row in rows} - {None}
    assert set(IDENTITY_COMPONENTS["s2xr"]) == {
        fibered.SO3_X_S1, fibered.S1_X_S1, fibered.S1_ONLY}
    for geometry, tags in IDENTITY_COMPONENTS.items():
        for tag in tags:
            assert quotient_isometry_summary(geometry, tag) \
                .identity_component == tag
        # an unknown tag once answered FactorsThroughFinite (iso-lacks-so3)
        with pytest.raises(ValueError, match=f"unknown {geometry} identity "
                                             "component 'banana'; expected"):
            quotient_isometry_summary(geometry, "banana")
    with pytest.raises(ValueError, match="'banana'"):
        quotient_isometry_summary("s3", {"identity_component": "banana"})


def test_spec_rendering():
    spec = parse_spec("SL(2,R) x SL(2,R)", uniform=True)
    assert "SL(2,R)" in str(spec) and "uniform" in str(spec)
    assert str(parse_factor("Sp(4,R)")) == "Sp(4,R)"
    assert str(parse_factor("SO(2,2)")) == "SO(2,2)"


def _outcome(call):
    """What a call returns, or the type and text of its ValueError."""
    try:
        return call()
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def _by_table(factor):
    return {"str": str(factor), "real_rank": real_rank(factor),
            "complex_type": complex_type(factor)}


FAMILIES = ("SL(n,R)", "SU(p,q)", "SL(n,C)", "SO(p,q)", "SO(n,C)",
            "Sp(2n,R)", "Sp(p,q)", "Sp(2n,C)", "G2", "F4", "E6", "E7", "E8",
            "SO(3)", "SO(4)", "XX(n)")
PARAMS = ([(), (1, 1, 1)] + [(n,) for n in range(-1, 9)]
          + [(p, q) for p in range(-1, 7) for q in range(-1, 7)])


@pytest.mark.parametrize("family", FAMILIES)
def test_real_form_table_matches_the_case_analyses(family):
    for params in PARAMS:
        assert _outcome(lambda: _by_table(SimpleFactor(family, params))) \
            == _outcome(lambda: zimmer_factor_by_cases(family, params)), \
            (family, params)


@pytest.mark.parametrize("head", ["SL", "SU", "SO", "Sp", "XX"])
def test_parse_factor_matches_the_case_analyses(head):
    texts = [f"{head}({a},{b})" for a in range(9)
             for b in [*map(str, range(9)), "R", "C"]]
    if head == "SO":
        texts += ["SO(3)", "SO(4)", "SO(5)", " SO ( 3 ) ", "G2", "F4", "E6",
                  "E7", "E8", "E9", "so(3)", ""]
    for text in texts:
        def by_table():
            factor = parse_factor(text)
            return (factor.family, factor.params), _by_table(factor)

        def by_cases():
            found = zimmer_parse_by_cases(text)
            return found, zimmer_factor_by_cases(*found)

        assert _outcome(by_table) == _outcome(by_cases), text


def test_small_rank_identities():
    # sl(2) = so(3) = sp(1) = A1
    for text in ("SL(2,R)", "SU(1,1)", "SO(3)", "SO(2,1)", "Sp(2,R)",
                 "Sp(1,0)"):
        assert complex_type(parse_factor(text)) == ("A1",), text
    # so(4) = A1 A1
    for text in ("SO(4)", "SO(2,2)", "SO(3,1)"):
        assert complex_type(parse_factor(text)) == ("A1", "A1"), text
    # sp(2) = so(5) = B2
    for text in ("Sp(4,R)", "Sp(1,1)", "Sp(2,0)", "SO(3,2)", "SO(4,1)"):
        assert complex_type(parse_factor(text)) == ("B2",), text
    # so(6) = A3 = sl(4)
    for text in ("SO(3,3)", "SO(4,2)", "SO(5,1)", "SU(2,2)", "SL(4,R)"):
        assert complex_type(parse_factor(text)) == ("A3",), text
    assert complex_type(parse_factor("SO(6,C)")) == ("A3", "A3")
    assert complex_type(parse_factor("Sp(4,C)")) == ("B2", "B2")


def _type_rank(label: str) -> int:
    return int(label[1:])


def test_real_rank_of_each_kind_of_real_form():
    """A split form has the rank of its complexification, a complex group
    half of it (its types come doubled), a (p, q) form min(p, q)."""
    for n in range(2, 9):
        for text in (f"SL({n},R)", f"Sp({2 * n},R)"):
            f = parse_factor(text)
            assert real_rank(f) == sum(map(_type_rank, complex_type(f)))
        for text in (f"SL({n},C)", f"Sp({2 * n},C)", f"SO({n + 1},C)"):
            f = parse_factor(text)
            assert 2 * real_rank(f) == sum(map(_type_rank, complex_type(f)))
    for text in ("G2", "F4", "E6", "E7", "E8"):
        assert real_rank(parse_factor(text)) == _type_rank(text)
    for p in range(2, 7):
        for q in range(max(0, 3 - p), p + 1):
            for head in ("SU", "SO", "Sp"):
                f = parse_factor(f"{head}({p},{q})")
                if f.params:                # SO(3) and SO(4) are compact
                    assert real_rank(f) == min(p, q)
                else:
                    assert real_rank(f) == 0


@pytest.mark.parametrize("text", ["SL(3,R)xSL(3,R)", "SL(3,R) x SL(3,R)",
                                  "SL(3,R)x SL(3,R)", "SL(3,R) *SL(3,R)",
                                  "SL(3,R)×SL(3,R)"])
def test_parse_spec_separators(text):
    spec = parse_spec(text, uniform=True)
    assert spec.factors == (parse_factor("SL(3,R)"),) * 2
    assert str(spec) == "SL(3,R) x SL(3,R) (uniform)"


def test_parse_spec_joins_exceptional_and_compact_factors():
    spec = parse_spec("G2xSO(2,2)xSO(4)", uniform=False)
    assert [str(f) for f in spec.factors] == ["G2", "SO(2,2)", "SO(4)"]


@pytest.mark.parametrize("text", ["x SL(3,R)", "xSL(3,R)", "SL(3,R)x",
                                  "SL(3,R) x", "SL(3,R) x x SO(4)",
                                  "* SL(3,R)"])
def test_parse_spec_rejects_a_separator_without_two_factors(text):
    with pytest.raises(ValueError, match="cannot parse factor ''"):
        parse_spec(text, uniform=True)


def test_parse_spec_keeps_x_inside_a_word():
    with pytest.raises(ValueError, match="cannot parse factor 'SLx"):
        parse_spec("SLx(3,R)", uniform=True)
    with pytest.raises(ValueError, match="nonempty factor list required"):
        parse_spec(" ", uniform=True)
