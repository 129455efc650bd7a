"""Turns the raw output of e2e_bench into the benchmark's metrics.

Pure functions only, so test_e2ebench.py can check each rule on its own.
The metric names and units come from BENCHMARK.json; this module holds only
how each one is derived.
"""
import json
import math
import re
import statistics
from pathlib import Path

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_spec(path=SPEC_PATH):
    """(end-to-end, per-layer) metrics of BENCHMARK.json, each name -> unit."""
    spec = json.loads(Path(path).read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


# End-to-end metrics come from untraced runs, per-layer ones from traced
# runs. step_ms_p90 is per-layer: the step-time tail moves between identical
# runs on a shared host by more than any useful regression bound.
END_TO_END, PER_LAYER = load_spec()

# Span-timed metrics: name -> (span names or None for any, role, scale).
# Span durations are in microseconds in the trace file.
SPAN_METRICS = {
    "petsckit.vcycle_ms": (("petsckit:MGSolver::v_cycle",), "", 1e-3),
    "petsckit.apply_ms": (("petsckit:LaplacianOp::apply",), "", 1e-3),
    "petsckit.reduce_us": (("petsckit:Vec::norm2",), "", 1.0),
    "petsckit.scatter_begin_us": (
        ("petsckit:VecScatter::begin", "petsckit:VecScatter::begin_reverse"), "", 1.0),
    "petsckit.scatter_end_us": (("petsckit:ScatterRequest::end",), "", 1.0),
    "petsckit.scatter_build_ms": (None, "build", 1e-3),
    "petsckit.first_exec_ms": (None, "first_exec", 1e-3),
    "coll.ghost_begin_us": (("coll:DMDA::global_to_local_begin",), "", 1.0),
    "coll.ghost_wait_us": (("coll:DMDA::global_to_local_end",), "", 1.0),
    "runtime.barrier_us": (("runtime:Comm::barrier",), "", 1.0),
}

# Counts per step, summed over ranks: metric -> counter fields.
COUNT_METRICS = {
    "coll.schedules_built": ("coll_schedules_built",),
    "coll.schedule_cache_hits": ("coll_schedule_cache_hits",),
    "coll.rounds": ("coll_rounds_executed",),
    "coll.rma_plan_executes": ("coll_rma_plan_executes",),
    "runtime.msgs": ("rt_lane_fast_deliveries", "rt_lane_overflow_deliveries"),
    "runtime.zero_copy_msgs": ("rt_zero_copy_msgs",),
    "runtime.bytes_copied": ("rt_bytes_copied",),
    "runtime.rma_puts": ("rt_rma_puts",),
    "runtime.rma_fences": ("rt_rma_fences",),
    "runtime.cv_waits": ("rt_cv_waits",),
    "runtime.lock_acquisitions": ("rt_lock_acquisitions",),
    "runtime.payload_allocs": ("rt_payload_allocs",),
    "datatype.bytes_packed": ("bytes_packed",),
    "datatype.dispatch.contiguous": ("dt_dispatch_contiguous",),
    "datatype.dispatch.strided": ("dt_dispatch_strided",),
    "datatype.dispatch.blocked": ("dt_dispatch_blocked",),
    "datatype.dispatch.irregular": ("dt_dispatch_irregular",),
    "datatype.engine_builds": ("engine_builds",),
}

# Ratios: metric -> (numerator fields, base fields).
RATIO_METRICS = {
    "runtime.pool_hit_ratio": (("rt_pool_hits",), ("rt_pool_hits", "rt_pool_misses")),
    "runtime.rdzv_share": (("rt_proto_rdzv_chosen",),
                           ("rt_proto_rdzv_chosen", "rt_proto_eager_chosen")),
    "runtime.sparse_polls_per_msg": (("rt_sparse_probe_polls",), ("rt_sparse_msgs_recvd",)),
    "datatype.simd_pack_ratio": (("dt_simd_pack_bytes",), ("bytes_packed",)),
    "datatype.plan_hit_ratio": (("plan_hits",), ("plan_hits", "plan_compiles")),
}

# Phase-timer metrics, per step and rank: metric -> timer field (ns).
TIMER_METRICS = {
    "runtime.comm_ms": "comm_ns",
    "datatype.pack_ms": "pack_ns",
    "datatype.search_ms": "search_ns",
}

TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
PROBE_PHASES = ("probe:mg3d", "probe:scatter16", "probe:remap", "probe:barrier")


def valid_name(name):
    return NAME_RE.fullmatch(name) is not None


def percentile(values, p):
    """Linear interpolation between closest ranks (numpy's default)."""
    if not values:
        raise ValueError("percentile of no samples")
    s = sorted(values)
    pos = (len(s) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def tail_percentile(values, min_beyond=10):
    """The highest candidate percentile with at least `min_beyond` samples
    strictly above it, as (percentile, value, samples beyond); None when
    even the median has fewer."""
    for p in TAIL_CANDIDATES:
        v = percentile(values, p)
        n = sum(1 for x in values if x > v)
        if n >= min_beyond:
            return p, v, n
    return None


def ratio(num, base):
    """num / base, or 0.0 when the base is empty (nothing was attempted)."""
    return num / base if base else 0.0


def end_to_end(raw):
    """Metric name -> value from an untraced run's raw output."""
    return {
        "step_ms_p50": percentile(raw["step_ms"], 50),
        "run_s": statistics.median(raw["run_s"]),
        "setup_s": statistics.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_kib"] / 1024.0,
    }


def span_durations(events, names, role, phase):
    """Durations (us) of the spans recorded in `phase` with `role` and, unless
    `names` is None, one of `names`."""
    return [e["dur"] for e in events
            if e["args"]["phase"] == phase and e["args"]["role"] == role
            and (names is None or e["name"] in names)]


def span_metric(events, workload, names, role):
    """Median span duration (us) from the workload's own pass, else from the
    first probe pass that has such spans. Returns (value, source)."""
    for phase in (workload,) + PROBE_PHASES:
        durs = span_durations(events, names, role, phase)
        if durs:
            return statistics.median(durs), "workload" if phase == workload else phase
    raise ValueError(f"no spans for {names or role!r}")


def self_times(events):
    """Span name -> total self time (us): each span's duration minus the part
    its child spans cover (children nest on the same rank thread)."""
    child = {}
    for e in events:
        parent = e["args"]["parent"]
        if parent:
            child[parent] = child.get(parent, 0.0) + e["dur"]
    out = {}
    for e in events:
        own = e["dur"] - child.get(e["args"]["id"], 0.0)
        out[e["name"]] = out.get(e["name"], 0.0) + own
    return out


def per_layer(raw, events):
    """Metric name -> (value, source) from a traced run's raw output and its
    span events."""
    steps = raw["counted_steps"]
    c = raw["counters"]
    out = {}
    for name, (names, role, scale) in SPAN_METRICS.items():
        v, src = span_metric(events, raw["workload"], names, role)
        out[name] = (v * scale, src)
    apply_ms, src = out["petsckit.apply_ms"]
    ghost_us = out["coll.ghost_begin_us"][0] + out["coll.ghost_wait_us"][0]
    out["petsckit.stencil_self_ms"] = (apply_ms - ghost_us * 1e-3, src)
    serial = [e["dur"] for e in events if e["args"]["phase"] == "serial"]
    out["petsckit.serial_vcycle_ms"] = (statistics.median(serial) * 1e-3, "serial")
    for name, fields in COUNT_METRICS.items():
        out[name] = (ratio(sum(c[f] for f in fields), steps), "workload")
    for name, (num, base) in RATIO_METRICS.items():
        out[name] = (ratio(sum(c[f] for f in num), sum(c[f] for f in base)), "workload")
    for name, field in TIMER_METRICS.items():
        out[name] = (ratio(c[field] * 1e-6, steps * raw["ranks"]), "workload")
    out["datatype.pack_gbps"] = (raw["pack_gbps"], "probe:pack")
    out["host.copy_gbps"] = (min(raw["copy_gbps"]), "probe:copy")
    untraced = percentile(raw["step_ms"], 50)
    traced = percentile(raw["traced_step_ms"], 50)
    out["trace_overhead_pct"] = (100.0 * (traced - untraced) / untraced, "workload")
    out["step_ms_p90"] = (percentile(raw["step_ms"], 90), "workload")
    return out


def check_metrics(metrics, spec):
    """Raises ValueError unless `metrics` holds exactly the names of `spec`
    (name -> unit), each with that unit and a finite number."""
    missing = sorted(set(spec) - set(metrics))
    extra = sorted(set(metrics) - set(spec))
    if missing or extra:
        raise ValueError(f"metrics missing {missing}, unexpected {extra}")
    for name, m in metrics.items():
        if not valid_name(name):
            raise ValueError(f"bad metric name {name!r}")
        if m["unit"] != spec[name]:
            raise ValueError(f"{name}: unit {m['unit']!r}, expected {spec[name]!r}")
        v = m["value"]
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            raise ValueError(f"{name}: value {v!r} is not a finite number")


def result(raw, values, spec):
    """The final JSON object: `values` (name -> number) checked against
    `spec` (name -> unit)."""
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in spec.items()}
    check_metrics(metrics, spec)
    return {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }
