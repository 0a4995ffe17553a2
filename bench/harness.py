"""Closed-loop runner shared by the workloads: one caller, no threads.

A workload is a sequence of rounds.  Every round holds the same mix of
normal tasks plus exactly one stress task, so ``fail_ratio`` is a fixed
fraction on code where every stress input hangs, and drops when one is
fixed.  A run executes a fixed number of whole rounds, derived from the
time budget and the workload's nominal round time, so that two commits
(and two runs) measure the same inputs.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

# Every call gets this limit.  It sits at least 3x above the slowest normal
# call and at least 3x below the fastest stress call, measured on the seed
# (see README.md); a call over it counts as failed.
TIME_LIMIT_S = 2.0

# p90 needs at least 10 samples above it (the estimate moves by a sample
# or two either way, hence the margin).
MIN_TASKS = 120

# A library round is this many draws of the normal mix plus one stress
# task: the stress share stays small and fixed.
MIXES_PER_ROUND = 4

# A library workload generates the inputs of this many rounds; a run that
# needs more starts over from the first.
SPEC_ROUNDS = 32


class TaskTimeout(BaseException):
    """Raised in the running task when its time limit expires.

    A BaseException, so the library's own ``except ValueError`` handlers
    cannot swallow it.
    """


@dataclass
class Task:
    kind: str                               # e.g. "nil.gp"; groups stats
    call: Callable[[], object]              # the timed work
    check: Callable[[object], bool]         # oracle on the result
    stress: bool = False
    bucket: Optional[str] = None            # size bucket, e.g. "gp_n.16-63"
    describe: str = ""


class BatchResult(list):
    """The results of a batched task, one per part."""


def batch(kind: str, parts: list) -> Task:
    """One task that runs several small ones back to back.

    Tasks of a few milliseconds swing far more with the host's load than
    longer ones, so small calls are timed in batches of tens of ms.  The
    batch keeps its parts' size bucket when they share one."""
    def call():
        return BatchResult(p.call() for p in parts)

    def check(results):
        return len(results) == len(parts) and all(
            p.check(r) for p, r in zip(parts, results))

    buckets = {p.bucket for p in parts}
    return Task(kind, call, check,
                bucket=buckets.pop() if len(buckets) == 1 else None,
                describe="; ".join(p.describe for p in parts))


@dataclass
class Outcome:
    task: Task
    seconds: float                          # wall time
    status: str                             # ok | timeout | error | wrong
    detail: str = ""
    scaled: float = 0.0                     # seconds at reference speed


def _on_alarm(signum, frame):
    raise TaskTimeout()


def call_with_limit(fn: Callable[[], object], limit: float):
    """Run fn in this thread; raise TaskTimeout once `limit` seconds pass."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_task(task: Task, execute) -> Outcome:
    """Time one task.  `execute(task)` returns the result or raises."""
    t0 = time.perf_counter()
    try:
        result = execute(task)
    except TaskTimeout:
        return Outcome(task, time.perf_counter() - t0, "timeout")
    except Exception as exc:  # a failed task is recorded, the run goes on
        return Outcome(task, time.perf_counter() - t0, "error",
                       f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - t0
    try:
        ok = task.check(result)
    except Exception as exc:  # an answer the oracle cannot read is wrong
        ok = False
        result = f"{type(exc).__name__}: {exc}"
    if not ok:
        return Outcome(task, seconds, "wrong", repr(result)[:300])
    return Outcome(task, seconds, "ok")


def library_execute(task: Task):
    return call_with_limit(task.call, TIME_LIMIT_S)


@dataclass
class Phase:
    outcomes: list = field(default_factory=list)
    wall: float = 0.0
    rounds: int = 0


# -- host speed -------------------------------------------------------------------
#
# The host's speed drifts by tens of percent from one second to the next
# (other tenants share its cores), and the same task's CPU time drifts with
# it.  So a probe of fixed cost is timed between every two tasks, and each
# task's time is scaled by the probe's reference time over the median of
# the probes around it: the time the task would take on the reference
# machine when idle.  No probe runs geom3 code, so no change to the library
# moves one.  A library workload probes with a stdlib kernel; cli-cold,
# whose tasks are fresh processes, with a fresh interpreter.

PROBE_WINDOW = 3                            # probes on each side of a task


@dataclass(frozen=True)
class Probe:
    measure: Callable[[], float]            # seconds the probe takes now
    reference: float                        # ... on the idle reference host
    every: int = 1                          # tasks between two probes


def _kernel() -> Fraction:
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(1, i * i)
    return total


def kernel_seconds() -> float:
    """Seconds one run of the reference kernel takes now.

    The kernel runs once untimed first, so the caches the last task (or
    child process) evicted are refilled, and gc is paused, so a collection
    of the library's garbage is not charged to the probe."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _kernel()
        t0 = time.perf_counter()
        _kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


KERNEL_PROBE = Probe(kernel_seconds, 0.4e-3)


def scaled(seconds: list, probes: list, reference: float,
           every: int = 1) -> list:
    """seconds[i] at reference speed; probes[j] and probes[j + 1], with
    j = i // every, were taken before and after it."""
    out = []
    for i, s in enumerate(seconds):
        j = i // every
        window = probes[max(0, j + 1 - PROBE_WINDOW): j + 1 + PROBE_WINDOW]
        out.append(s * reference / statistics.median(window))
    return out


def run_tasks(tasks, execute, on_done=None,
              probe: Optional[Probe] = KERNEL_PROBE) -> Phase:
    """Run tasks one after another, with `probe` timed between any two;
    without a probe the scaled time is the wall time."""
    phase = Phase()
    probes = [probe.measure()] if probe else []
    t0 = time.perf_counter()
    for i, task in enumerate(tasks):
        outcome = run_task(task, execute)
        if probe and ((i + 1) % probe.every == 0 or i + 1 == len(tasks)):
            probes.append(probe.measure())
        phase.outcomes.append(outcome)
        if on_done is not None:
            on_done(outcome)
    phase.wall = time.perf_counter() - t0
    seconds = [o.seconds for o in phase.outcomes]
    for o, s in zip(phase.outcomes,
                    scaled(seconds, probes, probe.reference, probe.every)
                    if probe else seconds):
        o.scaled = s
    return phase


def rounds_for(workload, seconds: float, min_tasks: int) -> int:
    """Rounds that take about `seconds` at the workload's nominal round
    time, and at least `min_tasks` tasks."""
    per_round = len(workload.round(0))
    return max(1, math.ceil(seconds / workload.round_seconds),
               math.ceil(min_tasks / per_round))


def run_rounds(workload, rounds: int, execute=None, on_done=None,
               scale: bool = True) -> Phase:
    """Run rounds 0 .. rounds - 1, scaled by the workload's probe."""
    tasks = [t for r in range(rounds) for t in workload.round(r)]
    phase = run_tasks(tasks, execute or workload.execute, on_done,
                      workload.probe if scale else None)
    phase.rounds = rounds
    return phase


# -- statistics ------------------------------------------------------------------

def percentile(values, q: int) -> float:
    """q-th percentile, q in 1..99, by the Harrell-Davis estimator.

    A weighted mean of all order statistics with Beta((n+1)p, (n+1)(1-p))
    weights (taken at the midpoints of n equal cells).  Task costs come in
    clusters with gaps between them; one order statistic jumps across a gap
    when the host's speed drifts by a few percent, this estimate does not.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    p = q / 100.0
    a, b = p * (n + 1), (1 - p) * (n + 1)
    logw = [(a - 1) * math.log((i + 0.5) / n)
            + (b - 1) * math.log(1 - (i + 0.5) / n) for i in range(n)]
    top = max(logw)
    w = [math.exp(v - top) for v in logw]
    return sum(wi * x for wi, x in zip(w, xs)) / sum(w)


def task_rate(outcomes) -> float:
    """Completed tasks per second of the time spent in tasks that ended
    before their limit.

    A time-out always costs TIME_LIMIT_S, whatever the code does, so its
    time would only dilute the rate; time-outs are counted by fail_ratio.
    The oracles' time between tasks is not the program's and is left out.
    """
    completed = sum(1 for o in outcomes if o.status == "ok")
    busy = sum(o.scaled for o in outcomes if o.status != "timeout")
    return completed / busy if busy else 0.0


def phase_summary(phase: Phase) -> dict:
    lat = [o.scaled * 1000.0 for o in phase.outcomes]
    failed = sum(1 for o in phase.outcomes if o.status != "ok")
    completed = len(phase.outcomes) - failed
    p90 = percentile(lat, 90)
    return {
        "attempted": len(phase.outcomes),
        "failed": failed,
        "completed": completed,
        "tasks_per_s": task_rate(phase.outcomes),
        "latency_p50_ms": percentile(lat, 50),
        "latency_p90_ms": p90,
        "above_p90": sum(1 for x in lat if x > p90),
        "fail_ratio": failed / len(phase.outcomes),
    }


def correctness(outcomes) -> tuple[bool, list[str]]:
    """No wrong answer anywhere, and no normal task raised.

    Time-outs are failures, not wrong answers.  A stress input may also end
    in a domain error (a bounded-size refusal is a legitimate fix).
    """
    problems = []
    for o in outcomes:
        if o.status == "wrong" or (o.status == "error" and not o.task.stress):
            problems.append(f"{o.status} {o.task.kind} {o.task.describe}: "
                            f"{o.detail}")
    return not problems, problems


def slowest_normal_ms(outcomes) -> float:
    return max((o.seconds * 1000.0 for o in outcomes
                if not o.task.stress and o.status == "ok"), default=0.0)


def bucket_p50(outcomes) -> dict:
    groups: dict = {}
    for o in outcomes:
        if o.task.bucket and o.status == "ok":
            groups.setdefault(o.task.bucket, []).append(o.scaled * 1000.0)
    return {b: statistics.median(v) for b, v in groups.items()}


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0   # KiB on Linux


# -- run record --------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit(root: str) -> str:
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def run_record(root: str, workload: str, seed: int,
               seconds: int, trace: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "interpreter": sys.executable,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "commit": _commit(root),
        "time_limit_s": TIME_LIMIT_S,
    }
