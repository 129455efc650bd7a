"""Tests for the benchmark's own code.

    python3 -m unittest discover -s e2ebench -p 'test_*.py'

The last class builds and runs the benchmark (about a minute on first use).
"""
import json
import math
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import metrics  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def counters(**nonzero):
    fields = {f for fs in metrics.COUNT_METRICS.values() for f in fs}
    for num, base in metrics.RATIO_METRICS.values():
        fields.update(num, base)
    fields.update(metrics.TIMER_METRICS.values())
    c = dict.fromkeys(fields, 0)
    c.update(nonzero)
    return c


def span(name, dur, phase, role="", sid=1, parent=0):
    return {"name": name, "dur": dur,
            "args": {"phase": phase, "role": role, "id": sid, "parent": parent, "step": 0}}


def traced_raw(**nonzero):
    return {"workload": "scatter16", "ranks": 4, "counted_steps": 10,
            "counters": counters(**nonzero), "pack_gbps": 12.5, "copy_gbps": [30.0, 28.0],
            "step_ms": [1.0, 2.0, 3.0], "traced_step_ms": [1.1, 2.2, 3.3],
            "attempted": 13, "failed": 0}


def all_spans():
    """One span for every span metric, in the probe pass of mg3d."""
    out = [span("petsckit:MGSolver::v_cycle", 100.0, "serial")]
    for names, role, _ in metrics.SPAN_METRICS.values():
        out.append(span(names[0] if names else "bench:x", 10.0, "probe:mg3d", role))
    return out


class PercentileRule(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        self.assertEqual(metrics.percentile([1.0, 2.0, 3.0, 4.0], 50), 2.5)
        self.assertEqual(metrics.percentile([5.0], 90), 5.0)

    def test_highest_percentile_with_ten_beyond(self):
        p, v, n = metrics.tail_percentile([float(i) for i in range(1, 101)])
        self.assertEqual((p, n), (90.0, 10))
        self.assertAlmostEqual(v, 90.1)
        p, _, n = metrics.tail_percentile([float(i) for i in range(1000)])
        self.assertEqual((p, n), (99.0, 10))

    def test_too_few_samples_has_no_tail(self):
        self.assertIsNone(metrics.tail_percentile([1.0, 2.0, 3.0, 4.0, 5.0]))

    def test_ties_do_not_count_as_beyond(self):
        self.assertIsNone(metrics.tail_percentile([1.0] * 500))


class Ratios(unittest.TestCase):
    def test_ratio_of_empty_base_is_zero(self):
        self.assertEqual(metrics.ratio(0, 0), 0.0)
        self.assertEqual(metrics.ratio(3, 4), 0.75)

    def test_each_ratio_against_its_base(self):
        raw = traced_raw(rt_pool_hits=3, rt_pool_misses=1,
                         rt_proto_rdzv_chosen=1, rt_proto_eager_chosen=4,
                         rt_sparse_probe_polls=30, rt_sparse_msgs_recvd=6,
                         dt_simd_pack_bytes=256, bytes_packed=1024,
                         plan_hits=9, plan_compiles=1)
        out = metrics.per_layer(raw, all_spans())
        self.assertEqual(out["runtime.pool_hit_ratio"][0], 3 / 4)
        self.assertEqual(out["runtime.rdzv_share"][0], 1 / 5)
        self.assertEqual(out["runtime.sparse_polls_per_msg"][0], 5.0)
        self.assertEqual(out["datatype.simd_pack_ratio"][0], 1 / 4)
        self.assertEqual(out["datatype.plan_hit_ratio"][0], 9 / 10)

    def test_counts_are_per_step_and_timers_per_step_and_rank(self):
        raw = traced_raw(rt_rma_puts=80, rt_lane_fast_deliveries=5,
                         rt_lane_overflow_deliveries=15, comm_ns=8_000_000)
        out = metrics.per_layer(raw, all_spans())
        self.assertEqual(out["runtime.rma_puts"][0], 8.0)
        self.assertEqual(out["runtime.msgs"][0], 2.0)
        self.assertEqual(out["runtime.comm_ms"][0], 0.2)

    def test_trace_overhead_against_untraced_median(self):
        out = metrics.per_layer(traced_raw(), all_spans())
        self.assertAlmostEqual(out["trace_overhead_pct"][0], 10.0)


class Spans(unittest.TestCase):
    def test_own_pass_wins_over_probe(self):
        events = [span("petsckit:ScatterRequest::end", 5.0, "scatter16"),
                  span("petsckit:ScatterRequest::end", 7.0, "scatter16"),
                  span("petsckit:ScatterRequest::end", 99.0, "probe:remap")]
        v, src = metrics.span_metric(events, "scatter16", ("petsckit:ScatterRequest::end",), "")
        self.assertEqual((v, src), (6.0, "workload"))
        v, src = metrics.span_metric(events, "mg3d", ("petsckit:ScatterRequest::end",), "")
        self.assertEqual((v, src), (99.0, "probe:remap"))

    def test_role_separates_setup_spans(self):
        events = [span("petsckit:MGSolver::v_cycle", 50.0, "mg3d", "first_exec"),
                  span("petsckit:MGSolver::v_cycle", 30.0, "mg3d")]
        self.assertEqual(metrics.span_durations(events, None, "first_exec", "mg3d"), [50.0])
        self.assertEqual(
            metrics.span_durations(events, ("petsckit:MGSolver::v_cycle",), "", "mg3d"), [30.0])

    def test_missing_span_is_an_error(self):
        with self.assertRaises(ValueError):
            metrics.span_metric([], "mg3d", ("petsckit:Vec::norm2",), "")

    def test_self_time_subtracts_children(self):
        events = [span("bench:step", 10.0, "w", sid=1),
                  span("petsckit:VecScatter::begin", 3.0, "w", sid=2, parent=1),
                  span("petsckit:ScatterRequest::end", 4.0, "w", sid=3, parent=1),
                  span("bench:step", 5.0, "w", sid=4)]
        st = metrics.self_times(events)
        self.assertEqual(st["bench:step"], 3.0 + 5.0)
        self.assertEqual(st["petsckit:ScatterRequest::end"], 4.0)


class Names(unittest.TestCase):
    def test_pattern(self):
        for good in ("step_ms_p50", "datatype.dispatch.contiguous", "a-b", "9x"):
            self.assertTrue(metrics.valid_name(good), good)
        for bad in ("", "has space", "-lead", ".lead", "x" * 65, "ms/s", "é"):
            self.assertFalse(metrics.valid_name(bad), bad)

    def test_every_metric_name_matches(self):
        for name in list(metrics.END_TO_END) + list(metrics.PER_LAYER):
            self.assertTrue(metrics.valid_name(name), name)

    def test_every_listed_metric_is_derived(self):
        raw = {"step_ms": [1.0, 2.0], "run_s": [0.5], "setup_s": [0.1, 0.2, 0.3],
               "peak_rss_kib": 2048}
        self.assertEqual(set(metrics.end_to_end(raw)), set(metrics.END_TO_END))
        self.assertEqual(set(metrics.per_layer(traced_raw(), all_spans())),
                         set(metrics.PER_LAYER))
        spec = json.loads(metrics.SPEC_PATH.read_text())
        self.assertEqual({w["name"] for w in spec["workloads"]}, {"mg3d", "scatter16", "remap"})


class Presence(unittest.TestCase):
    def test_every_named_metric_is_present_with_its_unit(self):
        raw = {"attempted": 5, "failed": 0}
        values = dict.fromkeys(metrics.END_TO_END, 1.5)
        out = metrics.result(raw, values, metrics.END_TO_END)
        self.assertTrue(out["correct"])
        self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
        for name, unit in metrics.END_TO_END.items():
            self.assertEqual(out["metrics"][name], {"value": 1.5, "unit": unit})

    def test_check_rejects_missing_wrong_unit_and_nan(self):
        spec = {"a": "ms", "b": "s"}
        with self.assertRaises(ValueError):
            metrics.check_metrics({"a": {"value": 1.0, "unit": "ms"}}, spec)
        with self.assertRaises(ValueError):
            metrics.check_metrics({"a": {"value": 1.0, "unit": "ms"},
                                   "b": {"value": 1.0, "unit": "ms"}}, spec)
        with self.assertRaises(ValueError):
            metrics.check_metrics({"a": {"value": math.nan, "unit": "ms"},
                                   "b": {"value": 1.0, "unit": "s"}}, spec)


class CorruptedOutputFails(unittest.TestCase):
    """A perturbed output must make the command exit non-zero and report
    correct: false."""

    def run_bench(self, workload):
        return subprocess.run(
            [sys.executable, "e2ebench/run.py", "--workload", workload, "--seed", "3",
             "--seconds", "1", "--trace", "0", "--corrupt"],
            cwd=ROOT, capture_output=True, text=True, timeout=900)

    def test_each_workload(self):
        for workload in ("scatter16", "remap", "mg3d"):
            with self.subTest(workload=workload):
                proc = self.run_bench(workload)
                self.assertNotEqual(proc.returncode, 0, proc.stderr[-2000:])
                last = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertFalse(last["correct"])
                self.assertGreater(last["failed"], 0)


if __name__ == "__main__":
    unittest.main()
