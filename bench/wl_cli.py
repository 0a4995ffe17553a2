"""Workload `cli-cold`: one fresh `python -m geom3 ... --json` per task.

This is the path most users take: interpreter start-up and imports are
paid on every call.  The commands are the README examples across every
subcommand plus `selfcheck`; the interpreter is called directly, never
through a version-manager shim.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time

from harness import Probe, Task, TaskTimeout, TIME_LIMIT_S
from seq import round_rng

FLOAT_TOL = 1e-5        # as in selfcheck item fiber/frame-display

# `python -c pass` on the reference machine when idle
REFERENCE_START_S = 0.08


def _fixes_zero_and_infinity(points) -> bool:
    bounds = [p["boundary"] for p in points]
    return (len(bounds) == 2 and "inf" in bounds
            and any(matches(b, 0.0) for b in bounds))


def _pins_rows(*components):
    return lambda rows: sorted(r["identity_component"] for r in rows) \
        == sorted(components)


def _selfcheck_report(text: str) -> bool:
    """Every item passes, and the summary counts them (51 at least)."""
    *items, summary = text.splitlines()
    return (all(line.startswith("PASS ") for line in items)
            and summary == f"{len(items)}/{len(items)} passed"
            and len(items) >= 51)


# The README examples, one per line of its CLI section, each with what its
# output must be.  Only what tests/, selfcheck or the benchmark's own
# oracles pin is checked, as (JSON path, expected) pairs: a callable is a
# predicate, a float is compared within FLOAT_TOL.  The first pair is
# always a plain value.  A string is the whole output, byte for byte (the
# Sol n = 5 golden file); a function checks a text report.
EXPECT = {
    "sol iso --matrix 2,1,1,1 --power 5":       # tests/golden/sol_n5.json
        '{\n  "finite": {\n    "abelian_invariants": [\n      11,\n      11\n'
        '    ],\n    "cyclic_extension": 5,\n    "order": 605\n  },\n'
        '  "identity_component": "trivial"\n}\n',
    "nil iso --preset HZ": [                    # Gp:1: order 8 N^2
        (("finite_part", "order"), 8),
        (("finite_part", "point_group"), "D4"),
        (("finite_part", "structure"), "D4"),
        (("identity_component",), "S1")],
    "nil iso --preset HZ --adjoin full": [
        (("total_order",), 2),
        (("finite_part", "structure"), "Z2"),
        (("identity_component",), "trivial")],
    "nil iso --preset hex:2": [                 # order 12 N^2
        (("finite_part", "order"), 48),
        (("finite_part", "point_group"), "D6"),
        (("identity_component",), "S1")],
    "nil volume --gens 1,0,1;1/3,0,1;-1": [
        (("dichotomy", "kind"), "AbelianFixesLine"),
        (("volume",), "InfiniteVolume")],
    # (1,0), (1/2,1/2) span a square lattice: basis (1/2,+-1/2)
    "nil point-group --u 1,0 --v 1/2,1/2": [
        (("tag",), "D4"),
        (("order",), 8)],
    "sol normalizer --matrix 2,1,1,1 --power 2": [     # |2 - tr(A^2)|
        (("index",), 5)],
    "sol qstructure --matrix 2,1,1,1": [        # square-free part of 3^2 - 4
        (("d",), 5),
        (("galois_pair_check",), True)],
    "hyp classify --matrix 2,0,0,1/2": [        # fixes 0 and infinity
        (("class",), "Hyperbolic"),
        (("fixed_set",), _fixes_zero_and_infinity)],
    "hyp commute --m1 2,0,0,0.5 --m2 1,1,0,1": [       # fixed sets differ
        (("commute",), False),
        (("fixed_sets_equal",), False)],
    "hyp verdict --dim 3": [
        (("verdict",), "FiniteIsometryGroup"),
        (("dim",), 3)],
    "fiber frame": [
        (("frame", 0, "X"), [0.0, 2.0]),
        (("frame", 0, "Z"), [2.0, 0.0]),
        (("frame", 1, "X"), [0.0, 0.0]),
        (("frame", 1, "Z"), [0.0, 2.0]),
        (("frame", 2, "X"), [2.0, 0.0]),
        (("frame", 2, "Z"), [0.0, -2.0]),
        (("frame",), lambda frame: len(frame) == 3)],
    "fiber s2r --preset klein": [
        (("identity_component",), "S1")],
    "euclid iso --preset Z2": [
        (("finite_part", "order"), 8),
        (("finite_part", "structure"), "D4"),
        (("identity_component",), "T2")],
    "euclid betti --preset Z3xD4xy": [
        (("betti",), 1),
        (("abelianization_rank",), 1)],
    "lookup --family spherical-orbifold-orientation-preserving": [
        (("family",), "spherical-orbifold-orientation-preserving"),
        (("rows",), _pins_rows("S1", "S1xS1", "trivial"))],
    "zimmer verdict --geometry nil --preset HZ --factors SL(3,R) "
    "--nonuniform": [
        (("verdict", "tag"), "FactorsThroughFinite"),
        (("verdict", "reasons", 0, "rule"), "nonuniform-excluded")],
    "zimmer verdict --geometry s3 --component SO(4) --factors SO(2,2) "
    "--uniform": [
        (("verdict", "tag"), "PossibleInfiniteIsometricAction")],
    "zimmer aspherical --sl-degree 3 --manifold-dim 2": [
        (("verdict", "tag"), "FactorsThroughFinite")],
    "zimmer maxdim --space-dim 3": [            # dim SO(4) = 3 * 4 / 2
        (("bound",), 6)],
    "selfcheck": _selfcheck_report,
}
README_COMMANDS = tuple(EXPECT)


def argv_of(command: str) -> list[str]:
    """Split on spaces (no argument above contains one); add --json."""
    argv = command.split(" ")
    return argv if argv[0] == "selfcheck" else argv + ["--json"]


# Stress: the same hangs as the library workloads, through the CLI.
STRESS = (
    ("nil iso --preset Gp:700", [
        (("finite_part", "order"), 8 * 700 * 700),
        (("finite_part", "point_group"), "D4"),
        (("finite_part", "translation_part"), [700, 700]),
        (("identity_component",), "S1")]),
    ("nil point-group --u 1,0 --v 24,1", [       # a basis of Z^2
        (("tag",), "D4"),
        (("order",), 8)]),
    ("sol centralizer --preset fib --power 52", [
        (("group",), "trivial")]),
)


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def matches(got, want) -> bool:
    if callable(want):
        return want(got)
    if isinstance(want, float):
        return (type(got) in (int, float)
                and math.isclose(got, want, abs_tol=FLOAT_TOL))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(map(matches, got, want)))
    return type(got) is type(want) and got == want


def output_ok(expected, out: str) -> bool:
    if isinstance(expected, str):
        return out == expected
    if callable(expected):
        return expected(out)
    doc = json.loads(out)
    return all(matches(at(doc, path), want) for path, want in expected)


class CliCold:
    name = "cli-cold"
    round_seconds = 19.0        # nominal, see harness.rounds_for

    def __init__(self, seed: int, root: str, src: str):
        self.seed = seed
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=src)
        self.extra_flags: list[str] = []      # e.g. ["-X", "importtime"]
        self.last_stderr = ""
        # a child's time is mostly start-up, the operating system's work,
        # which a kernel in this process does not track; a bare interpreter
        # does (no PYTHONPATH, so no code of the checkout runs in it).  One
        # probe per two tasks keeps the probes to a sixth of the run.
        self.probe = Probe(self.start_seconds, REFERENCE_START_S, every=2)

    @staticmethod
    def start_seconds() -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                       timeout=TIME_LIMIT_S)
        return time.perf_counter() - t0

    @staticmethod
    def execute(task: Task):
        return task.call()

    def spawn(self, argv: list[str], limit: float = TIME_LIMIT_S):
        """Run the interpreter on argv; returns (code, stdout, stderr)."""
        cmd = [sys.executable, *self.extra_flags, *argv]
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(timeout=limit)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise TaskTimeout() from None
        return proc.returncode, out, err

    def _task(self, command: str, expected, stress: bool) -> Task:
        argv = ["-m", "geom3", *argv_of(command)]

        def call():
            code, out, err = self.spawn(argv)
            self.last_stderr = err
            return code, out

        def check(result):
            code, out = result
            return code == 0 and output_ok(expected, out)

        return Task("cli." + command.split(" ")[0], call, check,
                    stress=stress, describe=command)

    def tasks_for(self, r: int, stress_index: int) -> list[Task]:
        """The README commands twice, plus one stress command."""
        tasks = [self._task(c, EXPECT[c], False)
                 for c in README_COMMANDS * 2]
        command, expected = STRESS[stress_index % len(STRESS)]
        tasks.append(self._task(command, expected, True))
        round_rng(self.seed, self.name, r).shuffle(tasks)
        return tasks

    def round(self, r: int) -> list[Task]:
        return self.tasks_for(r, r)

    def replay_argv(self, task: Task) -> list[str]:
        return argv_of(task.describe)
