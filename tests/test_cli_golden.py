"""CLI golden suite: every command's output and exit code, byte for byte.

`golden/cli/cases.json` holds, for each argv below, what `cli.main`
printed and returned; `golden/cli/help.json` does the same for the help
of the parser and of each subcommand, at 80 columns.  Refactors must
leave both unchanged; a deliberate change of output is recorded again with

    PYTHONPATH=src python tests/test_cli_golden.py --record

which prints the argv of every case whose exit code or output changed.
"""

import contextlib
import functools
import io
import json
import os
import pathlib
import sys
from unittest import mock

import pytest

from geom3 import cli, fibered, selfcheck

CASES_FILE = pathlib.Path(__file__).parent / "golden" / "cli" / "cases.json"
HELP_FILE = CASES_FILE.with_name("help.json")

README = [
    "sol iso --matrix 2,1,1,1 --power 5",
    "nil iso --preset HZ",
    "nil iso --preset HZ --adjoin full",
    "nil iso --preset hex:2",
    "nil volume --gens 1,0,1;1/3,0,1;-1",
    "nil dichotomy --gens rot6;rot4@1,0,0",
    "nil point-group --u 1,0 --v 1/2,1/2",
    "sol normalizer --matrix 2,1,1,1 --power 2",
    "sol qstructure --matrix 2,1,1,1",
    "hyp classify --matrix 2,0,0,1/2",
    "hyp commute --m1 2,0,0,0.5 --m2 1,1,0,1",
    "hyp verdict --dim 3",
    "fiber frame",
    "fiber s2r --preset klein",
    "euclid iso --preset Z2",
    "euclid betti --preset Z3xD4xy",
    "lookup --family spherical-orbifold-orientation-preserving",
    "zimmer verdict --geometry nil --preset HZ --factors SL(3,R) "
    "--nonuniform",
    "zimmer verdict --geometry s3 --component SO(4) --factors SO(2,2) "
    "--uniform",
    "zimmer aspherical --sl-degree 3 --manifold-dim 2",
    "zimmer maxdim --space-dim 3",
]

# The searches, closures and matrix products behind these commands.  The
# Nil dichotomy cases pin the exact decision, whose witness is the
# covolume of the projected translations; the last two are inputs a
# bounded word search got wrong (a non-discrete group called discrete,
# and a verdict that moved with the bound).  Since no verdict depends on
# a word bound, `nil` has no --word-bound: the cases that passed one pin
# that it is rejected.
SEARCHES = [
    "nil iso --preset Gp:2 --adjoin full",
    "nil iso --preset Gp:3 --adjoin full",
    "nil iso --preset hex:1 --adjoin full",
    "nil iso --preset Gp:4 --adjoin full",
    "nil iso --preset Gp:6 --adjoin full",
    "nil iso --preset Gp:12 --adjoin full",
    "nil iso --preset Gp:24 --adjoin full",
    "nil iso --preset hex:2 --adjoin full",
    "zimmer summary --geometry nil --preset Gp:4 --adjoin full",
    "nil dichotomy --gens rot6;1,0,0",
    "nil dichotomy --gens rot4;1,0,0",
    "nil dichotomy --gens 1,0,0;0,1,0",
    "nil volume --gens rot6;1,0,0",
    "nil dichotomy --gens rot6;1,0,0 --word-bound 4",
    "nil dichotomy --gens rot6;1,0,0 --word-bound 8",
    "nil dichotomy --gens rot4;1,0,0 --word-bound 8",
    "nil dichotomy --gens 1,0,0;0,1,0 --word-bound 8",
    "nil volume --gens rot6;1,0,0 --word-bound 8",
    "fiber s2r --preset twist",
    "fiber s2r --preset product",
    "fiber s2r --preset rho",
    "fiber s2r --preset flip",
    # S^2 x R generators with exact entries, "I" the identity rotation: the
    # split is exact, so no word bound changes it.  5 and 3 give lam = 1;
    # the 3-4-5 rotation about z has infinite order, so it twists a
    # discrete group over the shift 1, and over the shift 0 beside a
    # translation it makes F infinite.  A reflection's shift is not lam.
    "fiber s2r --gens I@5;I@3",
    "fiber s2r --gens 3/5,-4/5,0,4/5,3/5,0,0,0,1@1",
    "fiber s2r --gens 3/5,-4/5,0,4/5,3/5,0,0,0,1@0;I@1",
    "fiber s2r --gens I@1;I@1/2@-1",
    # a reflection of R alone: L = Z_2, lambda None, and no identity
    # component is asked for (it once exited 1, "compact quotient required")
    "fiber s2r --gens I@1/2@-1",
    "fiber s2r --gens I@0@-1",
    # a lambda beyond the float range is a domain error: 1e-400 once
    # printed 0.0, and 1e400 raised a bare OverflowError
    "fiber s2r --gens I@1e-400",
    "fiber s2r --gens I@1e400",
    # rotation parts all I with a shift beyond the float range: every
    # element over the shift 0 is I, so no float tolerance is built (one
    # from 7^400 once raised a bare OverflowError); 1/7^400 is a lambda
    # that rounds to 0
    f"fiber s2r --gens I@{7 ** 400};I@1",
    f"fiber s2r --gens I@1/{7 ** 400};I@1",
    "fiber s2r --gens I@1@1",
    "fiber s2r --preset klein --gens I@1",
    # exact entries are tested and compared exactly: the first rotation is
    # off orthogonal by 2e-14, and the second, a rotation of infinite order
    # within 1e-20 of I, once passed as I and made F trivial
    "fiber s2r --gens 3/5,-4/5,0,4/5,3/5,0,0,0,100000000000001/"
    "100000000000000@1",
    "fiber s2r --gens 99999999999999999999/100000000000000000001,"
    "-20000000000/100000000000000000001,0,"
    "20000000000/100000000000000000001,"
    "99999999999999999999/100000000000000000001,0,0,0,1@0;I@1",
    "euclid iso --preset Z2xD4",
    "euclid iso --preset centered",
    "zimmer galois-demo",
    "nil dichotomy --gens rot6 --word-bound -1",
    "nil dichotomy --gens rot6;1,0,0;0,1,0",
    "nil volume --gens rot4;1,0,0;1/3,0,0",
    # --adjoin is 'full', and only for nil: anything else is a schema error
    "zimmer verdict --geometry nil --preset HZ --adjoin bogus "
    "--factors SL(3,R) --nonuniform",
    "zimmer summary --geometry nil --preset HZ --adjoin bogus",
    "zimmer verdict --geometry sol --preset fib --adjoin full "
    "--factors SL(3,R) --nonuniform",
    "zimmer summary --geometry sol --preset fib --adjoin full",
    # "x" joins two factors without spaces too
    "zimmer verdict --geometry s3 --component SO(4) "
    "--factors SO(2,2)xSO(4) --uniform",
    # an identity component outside the table is a schema error that names
    # the known tags; it once answered FactorsThroughFinite
    "zimmer verdict --geometry s3 --component banana --factors SO(2,2) "
    "--uniform",
    "zimmer summary --geometry s2xr --component banana",
    # exact maps commute only if the commutator is exactly the identity;
    # this one is within 1e-6 of it, which once answered commute: true
    "hyp commute --m1 1,1/1000,0,1 --m2 1,0,1/1000,1",
    # so does a decimal or mixed pair; these are 1.4e-6 apart, and once
    # answered commute: true next to fixed_sets_equal: false
    "hyp commute --m1 1,0.001,0,1 --m2 1,0,0.001,1",
    "hyp commute --m1 1,1/1000,0,1 --m2 1,0,0.001,1",
    # every matrix is exact, whatever its det and however its entries are
    # written.  A det-1 map with a - d = 2e-12, and one of a det that is not
    # a square, were once parabolic: their fixed points are 0 or -1e11 and
    # infinity.  A decimal is the rational it spells: 1e-11 was once read
    # as a float and classified as the identity (exit 1), and a pair of
    # diagonal and triangular maps with entries 1e150 and 1e-150 once
    # commuted in floats
    "hyp classify --matrix 1000000000001/1000000000000,0,0,"
    "1000000000000/1000000000001",
    "hyp classify --matrix 100000000001/100000000000,1,0,1",
    "hyp classify --matrix 1,0.00000000001,0,1",
    "hyp commute --m1 1,0.00000000001,0,1 --m2 1,0,0.00000000001,1",
    "hyp commute --m1 1,1/100000000000,0,1 --m2 1,0,1/100000000000,1",
    "hyp commute --m1 1e150,0,0,1e-150 --m2 1e-150,1,0,1e150",
    # a fixed point or an entry beyond the float range is a domain error
    # that says so; these once raised a bare OverflowError
    "hyp classify --matrix 1,1,1,1e400",
    "hyp classify --matrix 2,1e400,0,1",
    "hyp classify --matrix 0,-1e400,1e-400,0",
    # and so is a nonzero fixed point that rounds to 0: the first, fixing
    # 1e-400 and 2e-400, once divided by zero, and the second, fixing
    # -1e-400, once printed 0.0
    "hyp classify --matrix 0,-2e-800,1,-3e-400",
    "hyp classify --matrix 2,1e-400,0,1",
    # but the midpoint of two fixed points is not reported: one of 1e-400
    # (the decimal is read exactly) leaves the fixed points -1 and 1
    "hyp classify --matrix 3." + "0" * 399 + "2,1,1,3",
    "fiber embed --matrix 1e700,0,0,1",
    # so is an image beyond it, or one that rounds to the boundary: each is
    # computed from the integer matrix and rounded once.  These once printed
    # 0.0 for i 1e-600 and for i 1e-400, or raised a bare ValueError (inf)
    # and ZeroDivisionError
    "hyp apply --matrix 1e-300,0,0,1e300 --z 0,1",
    "hyp apply --matrix 1e300,0,0,1e-300 --z 0,1",
    "fiber embed --matrix 1e200,0,0,1e-200",
    "fiber embed --matrix 1e-200,0,0,1e200",
    # a real coordinate, like the height, is answered when it fits in a
    # float: these once printed 0.0 for 1e-400
    "hyp apply --matrix 1,1e-400,0,1 --z 0,1",
    "fiber embed --matrix 1,1e-400,0,1",
    # 1 - e^t by expm1: at t = 1e-10, p was once 827 off -9999999999.5,
    # and at t = 1e-300 a ZeroDivisionError
    "sol fixed-line --x 1 --y 1 --t 1e-10",
    "sol fixed-line --x 1 --y 1 --t 1e-300",
    # every coordinate that fits in a float is answered, and one that does
    # not is a domain error: p = -1e320 once reached the JSON encoder as
    # -inf, e^800 raised a bare OverflowError though p is 0 and q 1, and p
    # = -1e-604 printed -0.0
    "sol fixed-line --x 1 --y 1 --t 1e-320",
    "sol fixed-line --x 0 --y 1 --t 800",
    "sol fixed-line --x 1e-300 --y 1 --t 700",
    # so on the unit tangent bundle: a norm of 1e200 once squared to inf,
    # one of 1e400 divided by a height squared to 0, and a connection term
    # and a Christoffel symbol of -1e320 reached the encoder as -inf
    "fiber norm --z 0,1e-100 --X 1,0",
    "fiber norm --z 0,1e-200 --X 1,0",
    "fiber decompose --z 0,1e-320 --w 1,0 --X 1,0",
    "fiber christoffel --p 0,1e-320 --i 2 --j 2 --k 2",
    # the trivial Sol centralizer, for a large power of fib and for a
    # matrix over another field
    "sol centralizer --preset fib --power 52",
    "sol centralizer --matrix 3,1,2,1 --power 3",
    # a missing --gens is a schema error, not an internal one
    "nil dichotomy",
    "nil volume",
    # so is a missing Mobius map
    "hyp classify",
    "hyp apply --z 0,1",
    "hyp centralizer",
    "hyp commute",
    "hyp commute --m1 1,1,0,1",
    "fiber embed",
    # trace -3 is hyperbolic, but only trace > 2 is supported; a negative
    # first entry is written --matrix=..., else argparse takes it for an
    # option
    "sol iso --matrix=-2,-1,-1,-1 --power 2",
    "sol qstructure --matrix=-2,-1,-1,-1",
]

# One ordinary input for each action that no case above answers.
ACTIONS = [
    "nil normalizer --preset Gp:3",
    "nil center --preset hex:2",
    "euclid rank --preset slab",
    "euclid volume --preset screw",
    "fiber norm --z 0,1 --w 1,0 --X 0,0 --Z 0,2",
    "fiber decompose --z 0,1 --w 1,0 --X 0,2 --Z 2,0",
    "fiber christoffel --p 0,2 --i 1 --j 1 --k 2",
    "fiber psl2-iso --geometry h2xr",
    "fiber embed --matrix 2,1,1,1",
    "hyp apply --matrix 2,1,1,1 --z 0.3,0.7",
    "hyp centralizer --matrix 1,1,0,1",
]

# Space-separated commands (no argument contains a space), each run as
# written and with --json.
COMMANDS = [c.split(" ") for c in README + SEARCHES + ACTIONS]
ARGVS = [["selfcheck"], ["selfcheck", "--json"]] + [
    a + j for a in COMMANDS for j in ([], ["--json"])]

SUBCOMMANDS = ("nil", "sol", "hyp", "fiber", "euclid", "lookup", "zimmer",
               "selfcheck")
HELP_ARGVS = [["--help"]] + [[name, "--help"] for name in SUBCOMMANDS]


def run(argv):
    out = io.StringIO()
    code = cli.main(argv, out=out)
    return {"argv": argv, "exit": code, "out": out.getvalue()}


def run_help(argv):
    """argparse prints help to sys.stdout, wrapped to $COLUMNS."""
    out = io.StringIO()
    with mock.patch.dict(os.environ, COLUMNS="80"), \
            contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return {"argv": argv, "exit": code, "out": out.getvalue()}


@functools.cache
def _recorded(path) -> dict:
    cases = json.loads(path.read_text(encoding="utf-8"))
    return {tuple(case["argv"]): case for case in cases}


def test_every_recorded_case_is_run():
    assert list(_recorded(CASES_FILE)) == [tuple(argv) for argv in ARGVS]
    assert list(_recorded(HELP_FILE)) == [tuple(argv) for argv in HELP_ARGVS]


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_cli_output_is_unchanged(argv):
    assert run(argv) == _recorded(CASES_FILE)[tuple(argv)]


@pytest.mark.parametrize("argv", HELP_ARGVS, ids=" ".join)
def test_cli_help_is_unchanged(argv):
    assert run_help(argv) == _recorded(HELP_FILE)[tuple(argv)]


def test_hyp_cases_take_no_float_path(monkeypatch):
    # every Mobius map is exact, so GEOM3_TOL, once the tolerance of float
    # maps, is read by none: under any value each hyp case prints what it
    # printed
    argvs = [argv for argv in ARGVS if argv[0] == "hyp"]
    assert len(argvs) > 30
    for value in ("0.5", "nan", "inf", "-1", "abc"):
        monkeypatch.setenv("GEOM3_TOL", value)
        for argv in argvs:
            assert run(argv) == _recorded(CASES_FILE)[tuple(argv)]
    decimal, rational = (
        run(["hyp", "commute", "--m1", f"1,{x},0,1", "--m2", f"1,0,{x},1"])
        for x in ("0.00000000001", "1/100000000000"))
    assert decimal["out"] == rational["out"]


def test_s2r_cases_take_no_float_path(monkeypatch):
    # every S^2 x R group the CLI and selfcheck build is exact, so neither
    # the float orthogonality test nor the 9-digit float key runs
    def refused(*args):
        raise AssertionError("float path taken")

    monkeypatch.setattr(fibered, "_rot_key", refused)
    monkeypatch.setattr(fibered, "_near_identity", refused)
    argvs = [argv for argv in ARGVS if argv[:2] == ["fiber", "s2r"]]
    assert len(argvs) > 30
    for argv in argvs:
        assert run(argv) == _recorded(CASES_FILE)[tuple(argv)]
    assert selfcheck.check_s2r_irrational_example()
    assert selfcheck.check_s2r_components()


def _record(path, runner, argvs):
    old = _recorded(path) if path.exists() else {}
    cases = [runner(argv) for argv in argvs]
    for case in cases:
        if old.get(tuple(case["argv"])) != case:
            print(" ".join(case["argv"]))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(cases, indent=1, ensure_ascii=False) + "\n",
                    encoding="utf-8")


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    _record(CASES_FILE, run, ARGVS)
    _record(HELP_FILE, run_help, HELP_ARGVS)
