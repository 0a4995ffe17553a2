"""Per-layer metrics: derived from the tracer's totals and from
`python -X importtime`.

Names are `module.metric`.  A `_ms` time is busy time, the sum of self
times (a span's duration minus the time its child spans cover); there is
one caller, so no time is spent waiting and none is reported.  Ratios per
unit of work use the inclusive time of the calls that returned, over a
work count computed from their inputs.
"""

from __future__ import annotations

import statistics

import oracle

COUNT, MS, US, RATIO = "count", "ms", "us", "ratio"

# (metric, unit, traced name or prefix, field)
_SPAN_METRICS = (
    ("algebra.quadrat_ops", COUNT, "algebra.QuadRat.", "calls"),
    ("algebra.quadrat_ms", MS, "algebra.QuadRat.", "self"),
    ("algebra.squarefree_calls", COUNT, "algebra.squarefree_decompose",
     "calls"),
    ("algebra.squarefree_ms", MS, "algebra.squarefree_decompose", "self"),
    ("intmat.mat2_mul_calls", COUNT, "intmat.mat2_mul", "calls"),
    ("intmat.mat2_mul_ms", MS, "intmat.mat2_mul", "self"),
    ("intmat.snf_calls", COUNT, "intmat.smith_normal_form", "calls"),
    ("intmat.snf_ms", MS, "intmat.smith_normal_form", "self"),
    ("intmat.diagonalize_sl2_ms", MS, "intmat.diagonalize_sl2", "self"),
    ("nil.quotient_iso_ms", MS, "nil.nil_quotient_isometry", "self"),
    ("nil.point_group_ms", MS, "nil.planar_point_group", "self"),
    ("nil.iso_compose_calls", COUNT, "nil.HeisIsometry.compose", "calls"),
    ("nil.iso_compose_ms", MS, "nil.HeisIsometry.compose", "self"),
    ("nil.dichotomy_ms", MS, "nil.nil_projection_dichotomy", "self"),
    ("nil.lift_ms", MS, "nil.lift_point_symmetry", "self"),
    ("sol.quotient_iso_ms", MS, "sol.sol_quotient_isometry", "self"),
    ("sol.normalizer_ms", MS, "sol.sol_normalizer_lattice", "self"),
    ("sol.centralizer_ms", MS, "sol.sol_centralizer", "self"),
    ("sol.qstructure_ms", MS, "sol.sol_q_structure", "self"),
    ("fibered.s2r_decompose_ms", MS, "fibered.s2r_decompose", "self"),
    ("fibered.s2r_compose_calls", COUNT, "fibered.S2RIsometry.compose",
     "calls"),
    ("fibered.s2r_compose_ms", MS, "fibered.S2RIsometry.compose", "self"),
    ("hyperbolic.mobius_compose_calls", COUNT,
     "hyperbolic.MobiusMap.compose", "calls"),
    ("hyperbolic.mobius_compose_ms", MS, "hyperbolic.MobiusMap.compose",
     "self"),
    ("hyperbolic.classify_ms", MS, "hyperbolic.classify_isometry", "self"),
    ("euclid.quotient_iso_ms", MS, "euclid.euclid_quotient_isometry", "self"),
    ("euclid.betti_ms", MS, "euclid.betti_identity_component", "self"),
    ("zimmer.verdict_ms", MS, "zimmer.zimmer_verdict", "self"),
    ("descriptors.canonical_json_ms", MS, "descriptors.canonical_json",
     "self"),
)

BUSY_MODULES = ("algebra", "intmat", "nil", "sol", "euclid", "fibered",
                "hyperbolic", "zimmer")
FAILED_MODULES = ("algebra", "intmat", "descriptors", "nil", "sol", "euclid",
                  "fibered", "hyperbolic", "zimmer", "selfcheck", "cli")

BUCKETS = ("gp_n.4-15", "gp_n.16-63", "gp_n.64-128", "skew.1-2", "skew.3-4",
           "skew.5", "word_bound.4", "word_bound.6", "word_bound.8",
           "s2r_bound.8-11", "s2r_bound.12-16")

IMPORT_MODULES = ("geom3", "geom3.algebra", "geom3.descriptors",
                  "geom3.intmat", "geom3.nil", "geom3.sol", "geom3.euclid",
                  "geom3.hyperbolic", "geom3.fibered", "geom3.zimmer",
                  "geom3.selfcheck", "geom3.cli", "geom3.__main__")

CLI_METRICS = ("cli.interpreter_start_ms", "cli.import_total_ms",
               "cli.import_numpy_ms", "cli.import_geom3_ms", "cli.run_ms")


def catalogue() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    out = [(name, unit) for name, unit, _, _ in _SPAN_METRICS]
    out += [("nil.quotient_iso_us_per_coset", US),
            ("nil.point_group_us_per_box_point", US),
            ("nil.dichotomy_decided_ratio", RATIO)]
    out += [(f"{m}.busy_ms", MS) for m in BUSY_MODULES]
    out += [(f"{m}.failed", COUNT) for m in FAILED_MODULES]
    out += [(name, MS) for name in CLI_METRICS]
    out += [(f"cli.import_ms.{m}", MS) for m in IMPORT_MODULES]
    out += [(f"size.{b}.latency_p50_ms", MS) for b in BUCKETS]
    out += [("trace.overhead_ratio", RATIO)]
    return out


# -- work counted from the inputs ---------------------------------------------------

def _cosets(args, kwargs):
    return args[0].n ** 2          # the lattice's n x n translation cosets


def _box_points(args, kwargs):
    return oracle.box_points(args[0], args[1])


def _decided(result):
    return int(result.kind != "Undetermined")


WORK_COUNTERS = {"nil.nil_quotient_isometry": _cosets,
                 "nil.planar_point_group": _box_points}
RESULT_COUNTERS = {"nil.nil_projection_dichotomy": _decided}


def span_metrics(tracer) -> dict:
    out = {}
    for name, _unit, source, field in _SPAN_METRICS:
        s = tracer.prefixed(source) if source.endswith(".") \
            else tracer.stat(source)
        out[name] = s.calls if field == "calls" else s.self_time * 1000.0
    q = tracer.stat("nil.nil_quotient_isometry")
    out["nil.quotient_iso_us_per_coset"] = \
        q.ok_total * 1e6 / q.work if q.work else 0.0
    p = tracer.stat("nil.planar_point_group")
    out["nil.point_group_us_per_box_point"] = \
        p.ok_total * 1e6 / p.work if p.work else 0.0
    d = tracer.stat("nil.nil_projection_dichotomy")
    out["nil.dichotomy_decided_ratio"] = d.decided / d.calls if d.calls \
        else 0.0
    for m in BUSY_MODULES:
        out[f"{m}.busy_ms"] = tracer.prefixed(m + ".").self_time * 1000.0
    for m in FAILED_MODULES:
        out[f"{m}.failed"] = tracer.module_failed[m]
    return out


# -- python -X importtime --------------------------------------------------------------

def parse_importtime(stderr: str) -> list[tuple[int, str, float]]:
    """(nesting level, module, cumulative ms) for each import line."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|", 2)
        try:
            cum_us = int(cumulative.strip())
        except ValueError:
            continue                # the header line
        stripped = name.lstrip(" ")
        level = (len(name) - len(stripped) - 1) // 2
        rows.append((level, stripped.strip(), cum_us / 1000.0))
    return rows


def import_breakdown(stderr: str, startup: set) -> dict:
    """Import costs of one process beyond those every interpreter pays.

    geom3's own cost is the cumulative time of its outermost modules (those
    not imported from another geom3 module), minus numpy's.
    """
    rows = parse_importtime(stderr)
    top = [(name, ms) for level, name, ms in rows
           if level == 0 and name not in startup]
    numpy_ms = next((ms for _, name, ms in rows if name == "numpy"), 0.0)
    geom3_ms = 0.0
    ancestors: list = []
    # -X importtime prints a module after its imports: walk it backwards so
    # that every parent comes before its children
    for level, name, ms in reversed(rows):
        while ancestors and ancestors[-1][0] >= level:
            ancestors.pop()
        is_geom3 = name == "geom3" or name.startswith("geom3.")
        if is_geom3 and not any(a[2] for a in ancestors):
            geom3_ms += ms
        ancestors.append((level, name, is_geom3))
    out = {"cli.import_total_ms": sum(ms for _, ms in top),
           "cli.import_numpy_ms": numpy_ms,
           "cli.import_geom3_ms": max(geom3_ms - numpy_ms, 0.0)}
    for _, name, ms in rows:
        if name in IMPORT_MODULES:
            out.setdefault(f"cli.import_ms.{name}", ms)
    return out


def startup_modules(stderr: str) -> set:
    return {name for level, name, _ in parse_importtime(stderr) if level == 0}


def median_rows(rows: list[dict]) -> dict:
    keys = {k for r in rows for k in r}
    return {k: statistics.median(r.get(k, 0.0) for r in rows) for k in keys}
