"""Check the per-call time limit against both sides.

    python3 bench/calibrate.py --seed 1

Every stress input must still be running at 3 x TIME_LIMIT_S (so the limit
is under a third of the fastest stress call), and the slowest normal call
of one round sequence must take under TIME_LIMIT_S / 3.  Prints one line
per input and exits 1 if either side fails.  Takes a few minutes: each
stress input runs until 3 x TIME_LIMIT_S.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import harness  # noqa: E402
import wl_cli  # noqa: E402
import wl_quotients as q  # noqa: E402
import wl_words as w  # noqa: E402
from harness import TIME_LIMIT_S  # noqa: E402


def stress_inputs():
    for n in q.STRESS_GP_N:
        yield q._gp_task(n, stress=True)
    for s in q.STRESS_SKEW:
        yield q._point_group_task(((1, 0), (s, 1)), stress=True)
    for n in q.STRESS_FIB_POWERS:
        yield q._centralizer_task(q.IntMat2(2, 1, 1, 1), n, f"fib^{n}",
                                  stress=True)
    for c in w.STRESS_CENTERS:
        for b in w.STRESS_BOUNDS:
            yield w._search_task({"kind": "ord12", "center": c}, b,
                                 stress=True)


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--rounds", type=int, default=8)
    args = p.parse_args()
    floor = 3 * TIME_LIMIT_S
    ok = True
    for task in stress_inputs():
        o = harness.run_task(task, lambda t: harness.call_with_limit(
            t.call, floor))
        hung = o.status == "timeout"
        ok &= hung
        print(f"stress {task.describe:<28} {'>=' if hung else '  '}"
              f"{o.seconds:7.2f} s  {'ok' if hung else 'TOO FAST'}")
    cli = wl_cli.CliCold(args.seed, ROOT, os.path.join(ROOT, "src"))
    for command, _ in wl_cli.STRESS:
        try:
            cli.spawn(["-m", "geom3", *wl_cli.argv_of(command)], floor)
            hung = False
        except harness.TaskTimeout:
            hung = True
        ok &= hung
        print(f"stress cli {command:<40} {'ok' if hung else 'TOO FAST'}")
    for name, workload in (("quotients", q.Quotients(args.seed)),
                           ("word-search", w.WordSearch(args.seed)),
                           ("cli-cold", cli)):
        phase = harness.run_rounds(workload, args.rounds)
        slowest = harness.slowest_normal_ms(phase.outcomes) / 1000.0
        fits = slowest * 3 <= TIME_LIMIT_S
        ok &= fits
        print(f"{name:<12} slowest normal call {slowest:6.3f} s  "
              f"limit/slowest {TIME_LIMIT_S / slowest:4.1f}  "
              f"{'ok' if fits else 'LIMIT TOO TIGHT'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
