"""Self-test of the benchmark: one round per workload, metric names and
units against BENCHMARK.json, and oracles that reject wrong answers.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import harness  # noqa: E402
import run  # noqa: E402
import wl_cli  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

SEED = 7


@pytest.fixture(scope="module")
def workloads():
    return {name: run.make_workload(name, SEED) for name in run.WORKLOADS}


@pytest.fixture
def one_round(monkeypatch):
    monkeypatch.setattr(harness, "MIN_TASKS", 1)


def _units(metrics):
    return {name: unit for name, (_, unit) in metrics.items()}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_end_to_end_metrics(name, workloads, one_round):
    metrics, outcomes, _ = run.end_to_end(workloads[name], 0.0, [0.5],
                                          name == "cli-cold")
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert _units(metrics) == expected
    correct, problems = harness.correctness(outcomes)
    assert correct, problems
    # every normal input passes; the one stress input per round fails
    assert [o.task.stress for o in outcomes if o.status != "ok"] == [True]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_per_layer_metrics(name, workloads, one_round, tmp_path,
                           monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    metrics, outcomes, notes = run.traced(workloads[name], name, SEED, 0.0,
                                          {"test": True})
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert _units(metrics) == expected
    assert notes["rounds"] == 1
    assert harness.correctness(outcomes)[0]
    assert metrics["trace.overhead_ratio"][0] > 0
    assert metrics["cli.interpreter_start_ms"][0] > 0
    reached = {"quotients": "nil.quotient_iso_ms",
               "word-search": "nil.iso_compose_calls",
               "cli-cold": "descriptors.canonical_json_ms"}[name]
    assert metrics[reached][0] > 0


def _corrupt_cli(command, result):
    """The output of a CLI command with its first pinned value changed."""
    code, out = result
    expected = wl_cli.EXPECT[command]
    if isinstance(expected, str):               # a whole golden file
        return code, out.replace("605", "606")
    if callable(expected):                      # the selfcheck report
        return code, out.replace("PASS", "FAIL", 1)
    doc = json.loads(out)
    path, want = expected[0]
    *parents, last = path
    if isinstance(want, bool):
        wrong = not want
    elif isinstance(want, (str, list)):
        wrong = want[:-1]
    else:
        wrong = want + 1
    wl_cli.at(doc, parents)[last] = wrong
    return code, json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _corrupt(result):
    """A plausible but wrong version of a task's answer."""
    from geom3 import descriptors, fibered, nil

    if isinstance(result, descriptors.IsoDescriptor):
        fp = dict(result.finite_part)
        fp["order"] += 1
        return dataclasses.replace(result, finite_part=fp)
    if isinstance(result, descriptors.Verdict):
        other = "PossibleInfiniteIsometricAction" \
            if result.tag == "FactorsThroughFinite" else "FactorsThroughFinite"
        return descriptors.Verdict(other, result.reasons)
    if isinstance(result, nil.PlanarPointGroup):
        return dataclasses.replace(result, elements=result.elements[:-1]
                                   + (result.elements[0],))
    if isinstance(result, nil.DichotomyResult):
        if result.kind == nil.FIXES_POINT:
            return dataclasses.replace(result, point=(result.point[0] + 1,
                                                      result.point[1]))
        return nil.DichotomyResult(nil.FIXES_POINT, point=(0, 0))
    if isinstance(result, fibered.S2RDecomposition):
        return dataclasses.replace(result,
                                   f_order_bound=result.f_order_bound + 1)
    if isinstance(result, dict) and "group" in result:
        return {**result, "group": "Z2"}
    if isinstance(result, dict) and "total_order" in result:
        return {**result, "total_order": result["total_order"] + 1}
    if isinstance(result, dict) and "d" in result:
        return {**result, "d": result["d"] + 1}
    if isinstance(result, list):              # Mobius words: (entries, tag)
        entries, tag = result[0]
        return [(entries, "Elliptic" if tag != "Elliptic" else "Hyperbolic")
                ] + result[1:]
    if hasattr(result, "index"):                # Sol normalizer
        return dataclasses.replace(result, index=result.index + 1)
    raise AssertionError(f"no corruption for {type(result)}")


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_oracles_reject_wrong_answers(name, workloads):
    seen = set()
    for task in workloads[name].round(0):
        if task.stress:
            continue
        result = workloads[name].execute(task)
        assert task.check(result), task.describe
        if name == "cli-cold":
            assert not task.check(_corrupt_cli(task.describe, result)), \
                task.describe
        elif isinstance(result, harness.BatchResult):
            for i in range(len(result)):    # each part's oracle on its own
                wrong = harness.BatchResult(result)
                wrong[i] = _corrupt(result[i])
                assert not task.check(wrong), (task.describe, i)
        else:
            assert not task.check(_corrupt(result)), task.describe
        seen.add(task.kind)
    assert len(seen) >= 4


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "quotients",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_time_outs_do_not_count_towards_the_task_rate():
    task = harness.Task("k", lambda: None, lambda r: True)
    outcomes = [harness.Outcome(task, 0.5, "ok", scaled=0.5),
                harness.Outcome(task, 0.5, "wrong", scaled=0.5),
                harness.Outcome(task, 2.0, "timeout", scaled=2.0)]
    assert harness.task_rate(outcomes) == 1.0


def test_times_are_scaled_by_the_probes_around_them():
    ref = harness.KERNEL_PROBE.reference
    # the host runs at half speed for the last two tasks
    probes = [ref, ref, ref, 2 * ref, 2 * ref, 2 * ref, 2 * ref, 2 * ref]
    seconds = [1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 2.0]
    out = harness.scaled(seconds, probes, ref)
    assert out[0] == 1.0 and out[-1] == 1.0
    assert all(0.5 <= x <= 1.0 for x in out)


def test_a_probe_every_two_tasks_covers_both():
    ref = 0.08
    probes = [ref, 2 * ref, 2 * ref]
    out = harness.scaled([1.0, 1.0, 1.0, 1.0], probes, ref, every=2)
    assert len(out) == 4 and out[0] == out[1] and out[2] == out[3]
