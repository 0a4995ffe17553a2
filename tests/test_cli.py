"""CLI behavior: schemas, exit codes, determinism, golden files, selfcheck."""

import argparse
import contextlib
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from geom3 import cli, euclid, fibered, hyperbolic, intmat, nil, selfcheck
from geom3.descriptors import canonical_json
from geom3.intmat import MAT2_ID
from support import deadline

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run_cli(argv):
    out = io.StringIO()
    code = cli.main(argv, out=out)
    return code, out.getvalue()


def run_json(argv):
    code, text = run_cli(argv)
    return code, json.loads(text)


def test_sol_iso_matches_the_worked_example():
    code, payload = run_json(["sol", "iso", "--matrix", "2,1,1,1",
                              "--power", "5", "--json"])
    assert code == 0
    assert payload == {"identity_component": "trivial",
                       "finite": {"abelian_invariants": [11, 11],
                                  "cyclic_extension": 5, "order": 605}}


@pytest.mark.parametrize("n", [1, 2, 5])
def test_sol_golden_files(n):
    code, text = run_cli(["sol", "iso", "--matrix", "2,1,1,1",
                          "--power", str(n), "--json"])
    assert code == 0
    assert text == (GOLDEN / f"sol_n{n}.json").read_text()


def test_nil_iso_preset():
    code, payload = run_json(["nil", "iso", "--preset", "HZ", "--json"])
    assert code == 0
    assert payload["identity_component"] == "S1"
    assert payload["finite_part"]["structure"] == "D4"
    code, payload = run_json(["nil", "iso", "--preset", "HZ",
                              "--adjoin", "full", "--json"])
    assert code == 0
    assert payload["total_order"] == 2
    code, payload = run_json(["nil", "iso", "--preset", "Gp:3", "--json"])
    assert payload["finite_part"]["order"] == 72
    code, payload = run_json(["nil", "iso", "--preset", "hex:2", "--json"])
    assert payload["finite_part"]["point_group"] == "D6"


def test_nil_center_and_normalizer():
    code, payload = run_json(["nil", "center", "--preset", "hex:2", "--json"])
    assert code == 0
    assert payload["center_generator"] == "1/4√3"
    code, payload = run_json(["nil", "normalizer", "--preset", "Gp:2",
                              "--json"])
    assert payload["index"] == 4 and payload["z"] == "R"


def test_nil_dichotomy_cli():
    code, payload = run_json(["nil", "volume", "--gens",
                              "1,0,1;1/3,0,1;-1", "--json"])
    assert code == 0
    assert payload["dichotomy"]["kind"] == "AbelianFixesLine"
    assert payload["volume"] == "InfiniteVolume"
    code, payload = run_json(["nil", "dichotomy", "--gens", "1,0,0;0,1,0",
                              "--json"])
    assert payload["kind"] == "DiscreteProjection"
    code, payload = run_json(["nil", "dichotomy", "--gens", "rot4@0,0,1/2",
                              "--json"])
    assert payload["kind"] == "AbelianFixesPoint"
    # a glide along the x-axis and a quarter turn about a point on it
    # generate a wallpaper group (translations of covolume 2; words up to
    # length 7 agree); taking the glide for a reflection that fixes its
    # axis gave AbelianFixesPoint (0, 0) and InfiniteVolume
    code, payload = run_json(["nil", "volume", "--gens", "reflect@1,0,0;rot4",
                              "--json"])
    assert code == 0
    assert payload == {"dichotomy": {"kind": "DiscreteProjection",
                                     "central_witness": ["0", "0", "2"]},
                       "volume": "FiniteVolumePossible"}


def test_nil_dichotomy_non_discrete_input_cli():
    gens = cli._nil_generators("rot6;rot4@1,0,0")
    for bound in (0, 8):
        res = nil.nil_projection_dichotomy(gens, word_bound=bound)
        assert res.to_json_dict() == {"kind": "NonDiscreteInput"}
    code, payload = run_json(["nil", "dichotomy", "--gens", "rot6;rot4@1,0,0",
                              "--json"])
    assert code == 0 and payload == {"kind": "NonDiscreteInput"}
    code, payload = run_json(["nil", "volume", "--gens", "rot6;rot4@1,0,0",
                              "--json"])
    assert code == 1 and "non-discrete" in payload["error"]["detail"]


def test_zimmer_cli():
    code, payload = run_json(["zimmer", "verdict", "--geometry", "nil",
                              "--preset", "HZ", "--factors", "SL(3,R)",
                              "--nonuniform", "--json"])
    assert code == 0
    assert payload["verdict"]["tag"] == "FactorsThroughFinite"
    assert payload["verdict"]["reasons"][0]["rule"] == "nonuniform-excluded"
    code, payload = run_json(["zimmer", "verdict", "--geometry", "s3",
                              "--component", "SO(4)", "--factors", "SO(2,2)",
                              "--uniform", "--json"])
    assert payload["verdict"]["tag"] == "PossibleInfiniteIsometricAction"
    code, payload = run_json(["zimmer", "maxdim", "--space-dim", "4",
                              "--json"])
    assert payload["bound"] == 10
    code, payload = run_json(["zimmer", "aspherical", "--sl-degree", "3",
                              "--manifold-dim", "2", "--json"])
    assert payload["verdict"]["tag"] == "FactorsThroughFinite"
    code, payload = run_json(["zimmer", "galois-demo", "--json"])
    assert payload["preserves_form"] is True


@pytest.mark.parametrize("argv", [
    ["hyp", "classify", "--matrix", "2.0,1,1,1"],
    ["hyp", "classify", "--matrix", "2.0,0,0,0.5"],
    ["hyp", "commute", "--m1", "2,0,0,0.5", "--m2", "1,1,0,1"],
])
def test_bad_tolerance_is_a_domain_error(monkeypatch, argv):
    # GEOM3_TOL was once the tolerance of float maps, and a value that was
    # not a finite float >= 0 a domain error; now no value of it changes
    # an answer, at the CLI or of the same maps in floats
    maps = [hyperbolic.MobiusMap(*map(float, a.split(",")))
            for a in argv[3::2]]

    def answers():
        library = (repr(hyperbolic.classify_isometry(*maps)) if len(maps) == 1
                   else hyperbolic.commute_test(*maps))
        return run_json(argv + ["--json"]), library

    expected = answers()
    assert expected[0][0] == 0
    for value in ("0.5", "nan", "inf", "-1", "abc"):
        monkeypatch.setenv("GEOM3_TOL", value)
        assert answers() == expected


def test_hyp_and_fiber_cli():
    code, payload = run_json(["hyp", "classify", "--matrix", "2,0,0,0.5",
                              "--json"])
    assert code == 0
    assert payload["class"] == "Hyperbolic"
    code, payload = run_json(["hyp", "commute", "--m1", "2,0,0,0.5",
                              "--m2", "3,0,0,0.3333333333", "--json"])
    assert payload["commute"] is True
    code, payload = run_json(["fiber", "frame", "--json"])
    assert len(payload["frame"]) == 3
    code, payload = run_json(["fiber", "s2r", "--preset", "klein", "--json"])
    assert payload["identity_component"] == "S1"
    code, payload = run_json(["fiber", "embed", "--matrix", "1,0,0,1",
                              "--json"])
    assert payload["z"] == [0.0, 1.0]


def test_s2r_gens_are_parsed_exactly():
    gens = cli._s2r_generators("0,-1,0,1,0,0,0,0,1@1/2; I@3@-1")
    assert [(g.rot, g.shift, g.flip) for g in gens] == [
        (((0, -1, 0), (1, 0, 0), (0, 0, 1)), Fraction(1, 2), 1),
        (fibered.S2R_ROT_ID, 3, -1)]
    assert all(isinstance(v, Fraction) for v in gens[0].rot[0])
    # the presets and --gens give one answer for one group
    code, by_gens = run_json(["fiber", "s2r", "--gens",
                              "I@1;-1,0,0,0,-1,0,0,0,1@0;"
                              "1,0,0,0,-1,0,0,0,-1@0", "--json"])
    assert code == 0
    assert by_gens == run_json(["fiber", "s2r", "--preset", "klein",
                                "--json"])[1]


@pytest.mark.parametrize("gens", [
    "", ";", "I", "I@", "I@1@1", "I@1@-1@-1", "J@1", "1,0,0@1",
    "1,0,0,0,1,0,0,0,1,0@1", "x,0,0,0,1,0,0,0,1@1", "I@nan", "I@1/0",
    "I@0.5.5",
])
def test_bad_s2r_gens_are_schema_errors(gens):
    code, payload = run_json(["fiber", "s2r", "--gens", gens, "--json"])
    assert code == 2
    assert payload["error"]["kind"] == "schema"


def test_s2r_domain_errors_exit_1():
    for gens in ("1,1,0,0,1,0,0,0,1@1",       # not orthogonal
                 "3/5,-4/5,0,4/5,3/5,0,0,0,1@0;I@1"):
        code, payload = run_json(["fiber", "s2r", "--gens", gens, "--json"])
        assert code == 1
        assert payload["error"]["kind"] in ("ValueError",
                                            "NonDiscreteShiftError")


def test_euclid_and_lookup_cli():
    code, payload = run_json(["euclid", "iso", "--preset", "Z2", "--json"])
    assert payload["finite_part"]["structure"] == "D4"
    code, payload = run_json(["euclid", "betti", "--preset", "Z3xD4xy",
                              "--json"])
    assert payload["betti"] == payload["abelianization_rank"] == 1
    code, payload = run_json(["lookup", "--family",
                              "spherical-orbifold-orientation-preserving",
                              "--json"])
    assert len(payload["rows"]) == 3


def test_output_is_byte_stable():
    for argv in (["sol", "iso", "--matrix", "2,1,1,1", "--power", "5",
                  "--json"],
                 ["lookup", "--family", "all", "--json"],
                 ["nil", "iso", "--preset", "hex:2", "--json"],
                 ["zimmer", "galois-demo", "--json"]):
        code1, text1 = run_cli(argv)
        code2, text2 = run_cli(argv)
        assert code1 == code2 == 0
        assert text1 == text2


def test_domain_error_is_structured():
    code, payload = run_json(["sol", "iso", "--matrix", "0,-1,1,0", "--json"])
    assert code == 1
    assert set(payload["error"]) == {"kind", "detail"}
    code, payload = run_json(["nil", "iso", "--u", "1,0", "--v", "2,0",
                              "--json"])
    assert code == 1
    assert "error" in payload


def test_schema_error_exit_code():
    code, payload = run_json(["sol", "iso", "--matrix", "1,2,3", "--json"])
    assert code == 2
    assert payload["error"]["kind"] == "schema"
    code, _ = run_cli(["sol", "iso", "--matrix", "a,b,c,d"])
    assert code == 2
    code, _ = run_cli(["nil", "iso"])
    assert code == 2


def test_word_bound_flag_is_rejected():
    # the Nil dichotomy is exact, so the flag is gone; the library keeps
    # word_bound, and no verdict depends on it
    for action in ("dichotomy", "volume"):
        for bound in ("-5", "0"):
            code, text = run_cli(["nil", action, "--gens", "rot4;rot4@1,0,0",
                                  "--word-bound", bound, "--json"])
            assert code == 2 and text == ""
    gens = cli._nil_generators("1,0,0;0,1,0")
    with pytest.raises(ValueError, match="word_bound must be >= 0"):
        nil.nil_projection_dichotomy(gens, word_bound=-5)
    res = nil.nil_projection_dichotomy(gens, word_bound=0)
    assert res.to_json_dict() == {"kind": "DiscreteProjection",
                                  "central_witness": ["0", "0", "1"]}


def test_huge_exact_output_is_a_domain_error_naming_the_limit():
    # A^n for A = [[2, 1], [1, 1]]: det(I - A^n) has about 0.42 n digits.
    # At n = 100000 both cokernel invariants (half of that each) pass 4300
    # digits, and their Smith normal form alone would take seconds: the
    # order is refused before it runs.  At n = 12000 only the order and the
    # normalizer's index and basis pass the limit
    with deadline(1):
        for argv in (["sol", "iso", "--matrix", "2,1,1,1", "--power",
                      "100000"],
                     ["sol", "normalizer", "--matrix", "2,1,1,1", "--power",
                      "12000"]):
            code, text = run_cli(argv)
            assert code == 1 and text.startswith("error[ValueError]: ")
            assert "4300-digit output limit" in text
            assert "set_int_max_str_digits" not in text
        for action in ("iso", "normalizer"):
            code, payload = run_json(["sol", action, "--matrix", "2,1,1,1",
                                      "--power", "12000", "--json"])
            assert code == 1 and payload["error"]["kind"] == "ValueError"
            assert "4300-digit output limit" in payload["error"]["detail"]
        # just under the limit the answer is printed in full
        code, payload = run_json(["sol", "iso", "--matrix", "2,1,1,1",
                                  "--power", "10000", "--json"])
        assert code == 0 and len(str(payload["finite"]["order"])) > 4000


@pytest.mark.parametrize("exc", [AssertionError("lift verification failed"),
                                 RuntimeError("unexpected stabilizer order"),
                                 KeyError("x"), TypeError("bad operand"),
                                 ZeroDivisionError("division by zero"),
                                 OverflowError("math range error")])
def test_internal_error_exit_code(monkeypatch, exc):
    def broken(args):
        raise exc
    monkeypatch.setitem(cli._HANDLERS, "nil", broken)
    argv = ["nil", "iso", "--preset", "HZ"]
    code, payload = run_json(argv + ["--json"])
    assert code == 3
    assert payload == {"error": {"kind": "internal",
                                 "detail": f"{type(exc).__name__}: {exc}"}}
    code, text = run_cli(argv)
    assert code == 3
    assert text == f"error[internal]: {type(exc).__name__}: {exc}\n"


def test_a_nan_or_inf_that_reaches_the_encoder_is_an_internal_error(
        monkeypatch):
    # every float an answer reports is checked where it is computed, so a
    # NaN or an infinity in the payload is a bug
    for value in (float("nan"), float("inf")):
        monkeypatch.setitem(cli._HANDLERS, "nil", lambda args: {"x": value})
        code, payload = run_json(["nil", "iso", "--preset", "HZ", "--json"])
        assert code == 3 and payload["error"]["kind"] == "internal"
        assert payload["error"]["detail"].startswith("ValueError: Out of "
                                                     "range float values")


@pytest.mark.parametrize("argv", [
    "sol normalizer --matrix 2,1,1,1 --power 2000000",
    "sol iso --matrix 2,1,1,1 --power 20000000",
    "zimmer summary --geometry sol --matrix 2,1,1,1 --power 2000000",
])
def test_a_huge_sol_power_is_refused_before_its_holonomy(argv):
    # these took 54 s, 98 s and 2.2 s to compute A^n and only then refuse
    # it; a lower bound on |2 - tr A^n| from n and tr A refuses them first
    start = time.perf_counter()
    with deadline(10):
        code, payload = run_json(argv.split(" ") + ["--json"])
    assert time.perf_counter() - start < 2
    assert code == 1 and payload["error"]["kind"] == "ValueError"
    assert "4300-digit output limit" in payload["error"]["detail"]


@pytest.mark.parametrize("matrix, detail", [
    ("1e200,1e200,1e200,1e200", "positive determinant required"),
])
def test_mobius_overflow_is_a_domain_error(matrix, detail):
    # 1e200 * 1e200 overflows to inf - inf = NaN; rescaled, the matrix is
    # singular
    for action in ("classify", "centralizer"):
        code, text = run_cli(["hyp", action, "--matrix", matrix])
        assert code == 1
        assert text == f"error[ValueError]: {detail}\n"


@pytest.mark.parametrize("matrix", ["1e200,0,0,1e200", "1e-200,0,0,1e-200"])
def test_mobius_scaled_identity_is_the_identity(matrix):
    # a*d overflows to inf or underflows to 0; the entries are rescaled by a
    # power of two before the determinant is normalized
    for action in ("classify", "centralizer"):
        for flag in ([], ["--json"]):
            expected = run_cli(["hyp", action, "--matrix", "1,0,0,1"] + flag)
            assert run_cli(["hyp", action, "--matrix", matrix] + flag) \
                == expected


def test_argparse_error_exit_code():
    code, _ = run_cli(["nonsense"])
    assert code == 2


def test_text_mode():
    code, text = run_cli(["zimmer", "maxdim", "--space-dim", "3"])
    assert code == 0
    assert "bound: 6" in text


def test_json_flag_works_before_and_after_the_subcommand():
    for argv in (["nil", "center", "--preset", "HZ"],
                 ["zimmer", "maxdim", "--space-dim", "3"],
                 ["sol", "iso", "--matrix", "0,-1,1,0"]):
        text_mode = run_cli(argv)
        before = run_cli(["--json"] + argv)
        after = run_cli(argv + ["--json"])
        assert before == after != text_mode
        json.loads(before[1])


# Option values for the fuzz below: numbers well and badly formed,
# matrices, vectors, generator lists, presets and names of every
# subcommand.  Options of type int draw from FUZZ_INTS.
FUZZ_VALUES = (
    "0", "1", "2", "-1", "12", "1/2", "-3/4", "1/0", "0.5", "1e308",
    "1e400", "nan", "inf", "x", "", "0,1", "1,0", "2,1", "1,2,3",
    "1,0,0,1", "2,1,1,1", "3,1,2,1", "2,0,0,1/2", "1,1,0,1", "0,-1,1,0",
    "1,0.001,0,1", "rot6;1,0,0", "rot4@1,0,0;0,1,0", "reflect;1/3,0,1",
    "-1;0,0,1", "I@1", "I@5;I@3", "I@1@1", "HZ", "Gp:3", "Gp:0", "hex:2",
    "hex:-1", "fib", "klein", "twist", "Z2", "Z3xD4xy", "full", "SL(3,R)",
    "SO(2,2)", "SO(4)", "s3", "sol", "all", "1e-300", "1e300", "1e-400",
    "0,1e-300", "I@1e-400", "1e300,0,0,1e-300")
FUZZ_INTS = ("0", "1", "2", "3", "5", "-1", "x")


def _fuzz_argv(rng, subparsers):
    """A random argv for one subcommand, drawn from its parser's own
    positional choices and options, each option given as --opt=value."""
    name = rng.choice(sorted(subparsers))
    argv = [name]
    options = []
    for action in subparsers[name]._actions:
        if not action.option_strings:
            if action.nargs != "?" or rng.random() < 0.8:
                argv.append(rng.choice(sorted(action.choices) + ["bogus"]))
        elif action.dest not in ("help", "json"):
            options.append(action)
    for action in rng.sample(options, rng.randint(0, min(4, len(options)))):
        if action.nargs == 0:
            argv.append(action.option_strings[0])
        else:
            pool = FUZZ_INTS if action.type is int else FUZZ_VALUES
            argv.append(f"{action.option_strings[0]}={rng.choice(pool)}")
    return argv


def _timed_cli(argv):
    start = time.perf_counter()
    code, text = run_cli(argv)
    return code, text, time.perf_counter() - start


def test_fuzzed_argv_exit_cleanly_and_agree_across_modes():
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(
        a, argparse._SubParsersAction)).choices
    rng = random.Random(20261019)
    failures, seen = [], set()
    for _ in range(700):
        argv = _fuzz_argv(rng, subparsers)
        # an argv drawn again runs once (selfcheck, with no options, is
        # drawn about one time in eight)
        if tuple(argv) in seen:
            continue
        seen.add(tuple(argv))
        with contextlib.redirect_stderr(io.StringIO()):
            runs = [_timed_cli(a) for a in (argv, ["--json"] + argv,
                                             argv + ["--json"])]
        (code, _, _), (json_code, before, _), (_, after, _) = runs
        if code not in (0, 1, 2):
            failures.append((argv, f"exit {code}"))
        if json_code != code:
            failures.append((argv, f"exit {code} as text, {json_code} "
                                   f"with --json"))
        if before != after:
            failures.append((argv, "--json before and after differ"))
        # argparse prints its usage errors to stderr only
        if before and before != canonical_json(json.loads(before)) + "\n":
            failures.append((argv, "--json output is not canonical"))
        if max(seconds for _, _, seconds in runs) > 2:
            failures.append((argv, "a call took more than 2 s"))
    assert not failures, failures[:10]


def test_selfcheck_passes():
    code, text = run_cli(["selfcheck"])
    assert code == 0
    assert "FAIL" not in text
    lines = [ln for ln in text.splitlines() if ln.startswith("PASS")]
    assert len(lines) == len(selfcheck.ITEMS)


def test_selfcheck_detects_corrupted_lookup(monkeypatch):
    broken = {"version": 0, "families": {
        "spherical-orbifold-orientation-preserving": [],
        "spherical-manifold": [],
        "s2xr-free-finite-actions": [],
        "s2xr-manifolds": [],
    }}
    monkeypatch.setattr(euclid, "_load_table", lambda: broken)
    report = {r["id"]: r["ok"] for r in selfcheck.run_selfcheck()}
    assert not report["lookup/spherical-orbifold"]
    assert not report["lookup/spherical-manifold"]
    assert not report["lookup/s2xr-free-actions"]
    assert report["algebra/galois-sqrt2"]
    assert report["sol/iso-table"]


def test_selfcheck_detects_snf_mismatch(monkeypatch):
    def broken_snf(rows):
        return (1, 1), MAT2_ID, MAT2_ID

    monkeypatch.setattr(intmat, "snf", broken_snf)
    report = {r["id"]: r["ok"] for r in selfcheck.run_selfcheck()}
    assert not report["sol/iso-table"]
    assert report["algebra/galois-sqrt2"]
    assert report["nil/iso-hz"]


def test_module_entry_point():
    # the child finds the package where this process imported it from, with
    # or without PYTHONPATH set
    src = str(pathlib.Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "geom3", "lookup", "--family", "all",
         "--json"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["version"] == 1


def test_zimmer_action_defaults_to_verdict():
    code, payload = run_json(["zimmer", "--geometry", "nil", "--preset",
                              "HZ", "--factors", "SL(3,R)", "--nonuniform",
                              "--json"])
    assert code == 0
    assert payload["verdict"]["tag"] == "FactorsThroughFinite"


def test_point_group_of_a_huge_basis_needs_no_float():
    # a float search box overflows on this basis; the exact search does not
    code, payload = run_json(["nil", "point-group", "--u", "1,0",
                              "--v", "0,1e300", "--json"])
    assert code == 0
    assert payload == {"tag": "D2", "order": 4}


def test_stress_sizes_answer_quickly():
    with deadline(20):
        code, payload = run_json(["sol", "centralizer", "--preset", "fib",
                                  "--power", "2000", "--json"])
        assert code == 0 and payload["group"] == "trivial"
        code, payload = run_json(["nil", "iso", "--preset", "Gp:700",
                                  "--json"])
        assert code == 0 and payload["finite_part"]["order"] == 8 * 700**2
        code, payload = run_json(["nil", "point-group", "--u", "1,0",
                                  "--v", "24,1", "--json"])
        assert code == 0 and payload == {"tag": "D4", "order": 8}


def test_qstructure_of_a_large_trace_is_factored_quickly():
    # t^2 - 4 = 1000000093 * 1000000097: trial division up to its square
    # root did not finish; Pollard's rho splits it in milliseconds
    with deadline(5):
        code, payload = run_json(["sol", "qstructure", "--matrix",
                                  "1,1,1000000093,1000000094", "--json"])
    assert code == 0
    assert payload == {
        "d": 1000000190000009021,
        "eigenvalues": ["1000000095/2 + 1/2\u221a1000000190000009021",
                        "1000000095/2 - 1/2\u221a1000000190000009021"],
        "galois_pair_check": True}


@pytest.mark.parametrize("argv", [
    ["hyp", "classify", "--matrix", "inf,0,0,1"],
    ["hyp", "classify", "--matrix", "nan,0,0,1"],
    ["hyp", "classify", "--matrix", "1,0,0,-Infinity"],
    ["hyp", "apply", "--matrix", "1,0,0,1", "--z", "0,nan"],
    ["hyp", "apply", "--matrix", "1,0,0,1", "--z", "1e400,1"],
    ["sol", "fixed-line", "--t", "nan"],
    ["sol", "fixed-line", "--x", "1/0", "--t", "1"],
    ["fiber", "norm", "--z", "0,inf"],
])
def test_non_finite_numbers_are_schema_errors(argv):
    code, payload = run_json(argv + ["--json"])
    assert code == 2
    assert payload["error"]["kind"] == "schema"
    code, text = run_cli(argv)
    assert code == 2 and text.startswith("error[schema]")


def test_matrix_literals_are_read_exactly():
    # decimals and exponents are exact rationals, however large
    for spelling, exact in [("1,0.00000000001,0,1", "1,1/100000000000,0,1"),
                            ("1e400,0,0,1", "10" + "0" * 399 + ",0,0,1"),
                            ("2.5,0,0,4e-1", "5/2,0,0,2/5")]:
        assert run_cli(["hyp", "classify", "--matrix", spelling]) \
            == run_cli(["hyp", "classify", "--matrix", exact])
    # an exponent of five or more digits is refused before Fraction builds
    # an integer of that many digits
    code, payload = run_json(["hyp", "classify", "--matrix", "1e99999,0,0,1",
                              "--json"])
    assert code == 2 and payload["error"] == {
        "kind": "schema", "detail": "exponent out of range: '1e99999'"}
    code, _ = run_cli(["nil", "point-group", "--u", "1E1_000_000_000,0",
                       "--v", "0,1"])
    assert code == 2


def test_non_finite_results_are_structured_errors():
    # finite inputs whose image overflows: no NaN or Infinity in the output
    argv = ["hyp", "apply", "--matrix", "1e300,0,0,1e-300", "--z", "1e300,1"]
    code, payload = run_json(argv + ["--json"])
    assert code == 1
    assert payload["error"]["kind"] == "FloatRangeError"
    code, text = run_cli(argv)
    assert code == 1 and text.startswith("error[FloatRangeError]")
    with pytest.raises(ValueError):
        canonical_json({"x": float("nan")})
    assert canonical_json({"boundary": "inf"}) \
        == '{\n  "boundary": "inf"\n}'


def test_nil_iso_offset_adjoin_full_does_not_close():
    code, payload = run_json(["nil", "iso", "--u", "1,0", "--v", "0,1",
                              "--r", "1/3", "--adjoin", "full", "--json"])
    assert code == 1
    assert payload["error"] == {
        "kind": "ValueError",
        "detail": "adjoined point group does not close over the lattice "
                  "u = (1, 0), v = (0, 1), r = 1/3, s = 0, n = 1: a product "
                  "of two lifted point symmetries is not a lattice element "
                  "times a lift"}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_nil_iso_hex_adjoin_full_does_not_close(n):
    code, payload = run_json(["nil", "iso", "--preset", f"hex:{n}",
                              "--adjoin", "full", "--json"])
    assert code == 1
    assert payload["error"]["kind"] == "ValueError"
    detail = payload["error"]["detail"]
    assert detail.startswith("adjoined point group does not close over "
                             "the lattice u = (1/2, 1/2√3), v = (1, 0), ")
    assert f"n = {n}:" in detail


@pytest.mark.parametrize("argv", [
    ["nil", "iso", "--preset", "Gp:4", "--adjoin", "full"],
    ["zimmer", "summary", "--geometry", "nil", "--preset", "Gp:4",
     "--adjoin", "full"],
])
def test_adjoin_full_computes_the_point_group_once(argv, monkeypatch):
    # the caller's --adjoin group and nil_quotient_isometry share the
    # lattice's cached point group
    calls = []
    real = nil.planar_point_group

    def counted(u, v):
        calls.append((u, v))
        return real(u, v)

    monkeypatch.setattr(nil, "planar_point_group", counted)
    code, text = run_cli(argv)
    monkeypatch.undo()
    assert code == 0 and len(calls) == 1
    assert run_cli(argv) == (0, text)
