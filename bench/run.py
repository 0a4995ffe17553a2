"""geom3 benchmark: one command, three workloads, checked answers.

    python3 bench/run.py --workload quotients --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout (the library is imported from
./src).  --seconds sets the amount of work: the number of rounds that
take about that long on the reference machine.  With --trace 0 it measures
the end-to-end metrics; with --trace 1 it runs half as many rounds
untraced, then the same rounds again with spans around every public
function of the library, and reports the per-layer metrics.
The last line of standard output is one JSON object; the lines above it
are a readable table with the sample counts and the run record.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("quotients", "word-search", "cli-cold")
SETUP_SAMPLES = 9
FLOOR_SAMPLES = 7
IMPORTTIME_PROBES = 3


def make_workload(name: str, seed: int):
    if name == "quotients":
        from wl_quotients import Quotients
        return Quotients(seed)
    if name == "word-search":
        from wl_words import WordSearch
        return WordSearch(seed)
    from wl_cli import CliCold
    return CliCold(seed, ROOT, SRC)


# -- set-up time -------------------------------------------------------------------

def _probe_cmd(workload: str, seed: int, flags=()) -> list[str]:
    return [sys.executable, *flags, os.path.join(HERE, "run.py"),
            "--setup-probe", "--workload", workload, "--seed", str(seed)]


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from launching a fresh interpreter until it is ready to
    issue the first task (imports plus input generation).

    Wall time, not scaled by the speed probe: start-up is largely the
    operating system's work (exec, page faults, file reads), which the
    probe's speed does not track."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(_probe_cmd(workload, seed), cwd=ROOT,
                                stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        samples.append(ready)
    return samples


def run_child(cmd: list[str], limit: float = 60.0):
    """(wall seconds, stderr) of a helper process."""
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=limit,
                          env=dict(os.environ, PYTHONPATH=SRC))
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd} exited with {proc.returncode}")
    return time.perf_counter() - t0, proc.stderr


def interpreter_floor() -> tuple[float, set]:
    """Median wall ms of `python -c pass`, and the modules it imports."""
    walls = [run_child([sys.executable, "-c", "pass"])[0]
             for _ in range(FLOOR_SAMPLES)]
    _, err = run_child([sys.executable, "-X", "importtime", "-c", "pass"])
    import layers
    return statistics.median(walls) * 1000.0, layers.startup_modules(err)


# -- the two kinds of run -------------------------------------------------------------

def end_to_end(workload, seconds: float, setup: list[float], cli: bool):
    import harness
    rounds = harness.rounds_for(workload, seconds, harness.MIN_TASKS)
    phase = harness.run_rounds(workload, rounds)
    summary = harness.phase_summary(phase)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "tasks_per_s": (summary["tasks_per_s"], "1/s"),
        "latency_p50_ms": (summary["latency_p50_ms"], "ms"),
        "latency_p90_ms": (summary["latency_p90_ms"], "ms"),
        "fail_ratio": (summary["fail_ratio"], "ratio"),
        "peak_rss_mb": (harness.peak_rss_mb(children=cli), "MB"),
    }
    notes = {
        "samples": summary["attempted"],
        "samples_above_p90": summary["above_p90"],
        "rounds": phase.rounds,
        "wall_s": round(phase.wall, 3),
        "setup_samples": len(setup),
        "slowest_normal_ms": round(harness.slowest_normal_ms(phase.outcomes),
                                   1),
    }
    return metrics, phase.outcomes, notes


def replay(workload, outcomes, tracer=None) -> list:
    """Run the commands of `outcomes` again through geom3.cli.main in this
    process, each checked by its own oracle, in spans if `tracer` is set."""
    import harness
    from geom3 import cli as geom3_cli
    counter = itertools.count()

    def call(task):
        out = io.StringIO()
        code = geom3_cli.main(workload.replay_argv(task), out=out)
        return code, out.getvalue()

    def execute(task):
        span = (contextlib.nullcontext() if tracer is None
                else tracer.task_span(next(counter), task.kind))
        with span:
            return harness.call_with_limit(lambda: call(task),
                                           harness.TIME_LIMIT_S)

    return harness.run_tasks([o.task for o in outcomes], execute).outcomes


def traced(workload, name: str, seed: int, seconds: float, record: dict):
    import geom3
    import harness
    import layers
    from tracer import Tracer

    cli = name == "cli-cold"
    rounds = harness.rounds_for(workload, seconds / 2,
                                harness.MIN_TASKS // 2)
    floor_ms, startup = interpreter_floor()
    tracer = Tracer(layers.WORK_COUNTERS, layers.RESULT_COUNTERS)
    import_rows = []

    if cli:
        # the layer breakdown of a cold call: each call under -X importtime
        workload.extra_flags = ["-X", "importtime"]

        def on_done(outcome):
            if outcome.status == "ok" and not outcome.task.stress:
                row = layers.import_breakdown(workload.last_stderr, startup)
                row["cli.run_ms"] = (outcome.seconds * 1000.0 - floor_ms
                                     - row["cli.import_total_ms"])
                import_rows.append(row)
        base = harness.run_rounds(workload, rounds, on_done=on_done,
                                  scale=False)
        workload.extra_flags = []
        # per-module spans: the same commands replayed in this process, once
        # untraced and once traced, so the overhead compares like with like
        untraced = replay(workload, base.outcomes)
        tracer.install(geom3)
        traced_outcomes = replay(workload, base.outcomes, tracer)
        tracer.uninstall()
        checked = base.outcomes + untraced
    else:
        for _ in range(IMPORTTIME_PROBES):
            wall, err = run_child(_probe_cmd(name, seed,
                                             ("-X", "importtime")))
            row = layers.import_breakdown(err, startup)
            row["cli.run_ms"] = (wall * 1000.0 - floor_ms
                                 - row["cli.import_total_ms"])
            import_rows.append(row)
        counter = itertools.count()

        def execute(task):
            with tracer.task_span(next(counter), task.kind):
                return workload.execute(task)

        # the traced pass repeats the untraced rounds, input for input
        base = harness.run_rounds(workload, rounds)
        untraced = base.outcomes
        tracer.install(geom3)
        traced_outcomes = harness.run_rounds(workload, rounds,
                                             execute=execute).outcomes
        tracer.uninstall()
        checked = base.outcomes

    metrics = {n: 0.0 for n, _ in layers.catalogue()}
    metrics.update(layers.span_metrics(tracer))
    metrics.update(layers.median_rows(import_rows) if import_rows else {})
    metrics["cli.interpreter_start_ms"] = floor_ms
    for bucket, p50 in harness.bucket_p50(base.outcomes).items():
        metrics[f"size.{bucket}.latency_p50_ms"] = p50
    metrics["trace.overhead_ratio"] = (harness.task_rate(traced_outcomes)
                                       / harness.task_rate(untraced))
    units = dict(layers.catalogue())
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write_spans(os.path.join(OUT_DIR, f"spans-{name}-{seed}.jsonl"),
                       record)
    notes = {
        "rounds": base.rounds,
        "traced_tasks": len(traced_outcomes),
        "kept_spans": len(tracer.spans),
        "dropped_spans": tracer.dropped_spans,
    }
    out = {k: (metrics[k], units[k]) for k, _ in layers.catalogue()}
    return out, checked + traced_outcomes, notes


# -- entry point ---------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "geom3", "__init__.py")):
        print(f"error: no geom3 sources under {SRC}; run from the root of "
              "a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_probe:
        make_workload(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    import harness
    record = harness.run_record(ROOT, args.workload, args.seed, args.seconds,
                                bool(args.trace))
    if args.trace:
        workload = make_workload(args.workload, args.seed)
        metrics, outcomes, notes = traced(workload, args.workload, args.seed,
                                          args.seconds, record)
    else:
        setup = measure_setup(args.workload, args.seed)
        workload = make_workload(args.workload, args.seed)
        metrics, outcomes, notes = end_to_end(
            workload, args.seconds, setup, args.workload == "cli-cold")
    correct, problems = harness.correctness(outcomes)
    failed = sum(1 for o in outcomes if o.status != "ok")

    print(f"run: {json.dumps(record, sort_keys=True)}")
    print(f"notes: {json.dumps(notes, sort_keys=True)}")
    for line in problems[:20]:
        print(f"problem: {line}")
    width = max(len(k) for k in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:>14.6g}  {unit}")
    result = {
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.exit(main())
