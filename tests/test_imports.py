"""Start-up: a CLI call imports only the geometry its subcommand runs,
and no call imports `dataclasses` or the `inspect` it pulls in.

Each case runs in a fresh interpreter, since this process has every
module loaded already.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).parents[1] / "src"
GEOMETRIES = {"geom3.nil", "geom3.sol", "geom3.euclid", "geom3.fibered",
              "geom3.hyperbolic"}

CALL = """
import io, json, sys
from geom3 import cli
code = cli.main(sys.argv[1:], out=io.StringIO())
print(json.dumps([code, sorted(m for m in sys.modules
                               if m.split(".")[0] == "geom3"),
                  sorted({"dataclasses", "inspect"} & set(sys.modules))]))
"""


def run_fresh(script: str, *argv: str):
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, *argv],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# an exact Mobius map converts its entries to integers itself, with no
# algebra or intmat
NOT_FOR_HYP = (GEOMETRIES - {"geom3.hyperbolic"}) | {
    "geom3.zimmer", "geom3.selfcheck", "geom3.algebra", "geom3.intmat"}
# only the Galois-twist demo computes over Q(sqrt 2)
NOT_FOR_ZIMMER = GEOMETRIES | {"geom3.selfcheck", "geom3.algebra",
                               "geom3.intmat"}

# command -> (a module it must load, modules it must not load)
CASES = {
    "hyp verdict --dim 3": ("geom3.hyperbolic", NOT_FOR_HYP),
    "hyp classify --matrix 2,0,0,1/2": ("geom3.hyperbolic", NOT_FOR_HYP),
    "hyp commute --m1 2,0,0,0.5 --m2 1,1,0,1": ("geom3.hyperbolic",
                                                NOT_FOR_HYP),
    "sol iso --matrix 2,1,1,1 --power 5": ("geom3.sol",
                                           {"geom3.nil", "geom3.euclid"}),
    # a fixed line beyond the float range raises the FloatRangeError of
    # descriptors, which every call loads
    "sol fixed-line --x 1 --y 1 --t 1": ("geom3.sol", {"geom3.hyperbolic",
                                                       "geom3.nil",
                                                       "geom3.euclid"}),
    "lookup --family all": ("geom3.euclid", {"geom3.nil"}),
    "euclid betti --preset Z3xD4xy": ("geom3.euclid", {"geom3.nil"}),
    "zimmer maxdim --space-dim 3": ("geom3.zimmer", NOT_FOR_ZIMMER),
    "zimmer verdict --geometry s3 --component SO(4) --factors SO(2,2) "
    "--uniform": ("geom3.zimmer", NOT_FOR_ZIMMER),
    "zimmer galois-demo": ("geom3.algebra", GEOMETRIES | {"geom3.selfcheck"}),
    "nil iso --preset HZ": ("geom3.nil", {"geom3.sol", "geom3.euclid",
                                          "geom3.selfcheck"}),
    # the dichotomy's Z-rank and covolume come from the lattice kernel in
    # intmat, not from euclid
    "nil dichotomy --gens rot6;1,0,0;0,1,0": ("geom3.intmat",
                                              {"geom3.euclid", "geom3.sol",
                                               "geom3.selfcheck"}),
    "nil volume --gens rot4;1,0,0;1/3,0,0": ("geom3.intmat",
                                             {"geom3.euclid", "geom3.sol",
                                              "geom3.selfcheck"}),
}


@pytest.mark.parametrize("command", CASES)
def test_a_call_imports_only_its_geometry(command):
    loads, skips = CASES[command]
    code, modules, heavy = run_fresh(CALL, *command.split(" "))
    assert code == 0
    assert loads in modules
    assert not skips & set(modules)
    assert heavy == []


def test_selfcheck_imports_no_dataclasses():
    # selfcheck builds every value class of the geometry modules
    code, modules, heavy = run_fresh(CALL, "selfcheck")
    assert code == 0
    assert {"geom3.nil", "geom3.sol", "geom3.fibered"} <= set(modules)
    assert heavy == []


def test_adjoining_the_point_group_loads_no_further_module():
    # the congruences mod n use intmat, which a Nil call loads anyway
    plain = run_fresh(CALL, "nil", "iso", "--preset", "HZ")
    full = run_fresh(CALL, "nil", "iso", "--preset", "HZ", "--adjoin", "full")
    assert plain[0] == full[0] == 0
    assert full[1] == plain[1]


PACKAGE = """
import json, sys
import geom3
loaded = sorted(m for m in sys.modules if m.startswith("geom3."))
star = {}
exec("from geom3 import *", star)
del star["__builtins__"]
from geom3 import nil               # a submodule, not a re-export
try:
    geom3.no_such_name
    unknown_raises = False
except AttributeError:
    unknown_raises = True
print(json.dumps({
    "loaded": loaded,
    "star": sorted(star),
    "all": sorted(geom3.__all__),
    "star_is_getattr": all(getattr(geom3, k) is v for k, v in star.items()),
    "submodule": nil.__name__,
    "unknown_raises": unknown_raises,
    "not_in_dir": sorted(set(geom3.__all__) - set(dir(geom3))),
}))
"""


def test_package_reexports_resolve_on_use():
    got = run_fresh(PACKAGE)
    assert got["loaded"] == []
    assert got["star"] == got["all"]
    assert got["star_is_getattr"]
    assert got["submodule"] == "geom3.nil"
    assert got["unknown_raises"]
    assert got["not_in_dir"] == []


def test_no_module_reads_the_environment():
    # an answer depends on the arguments alone: no knob in the environment
    for path in sorted((SRC / "geom3").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for name in ("os.environ", "getenv"):
            assert name not in text, f"{path.name} reads {name}"
