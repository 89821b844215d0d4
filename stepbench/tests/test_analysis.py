"""Unit tests for the step benchmark's own code.

    python3 -m unittest discover -s stepbench/tests
"""

import json
import math
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import analysis  # noqa: E402
import run  # noqa: E402


def span(tid, name, t0, t1, a0=0):
    return [{"pid": 1, "tid": tid, "ts": t0, "ph": "B", "name": name, "args": {"a0": a0}},
            {"pid": 1, "tid": tid, "ts": t1, "ph": "E", "name": name, "args": {"a0": 0}}]


def sort_track(events):
    # A track's events are exported in timestamp order; ends before begins
    # on a tie, as a closed span precedes the next one.
    return sorted(events, key=lambda e: (e["ts"], e["ph"] == "B"))


class PercentileTest(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond(self):
        values = list(range(100, 0, -1))
        self.assertEqual(analysis.tail_percentile(values, 0.9), (90, 10))
        with self.assertRaises(analysis.Refusal):
            analysis.tail_percentile(values[:99], 0.9)

    def test_p50_of_small_sample(self):
        self.assertEqual(analysis.tail_percentile([3, 1, 2, 5, 4], 0.5, min_beyond=2), (3, 2))
        with self.assertRaises(analysis.Refusal):
            analysis.tail_percentile([], 0.5, min_beyond=0)

    def test_slowest_rank_per_step(self):
        per_rank = [{"step_s": [1.0, 5.0, 2.0]}, {"step_s": [2.0, 1.0, 2.5]}]
        self.assertEqual(analysis.slowest_rank_steps(per_rank), [2.0, 5.0, 2.5])


class FoldTest(unittest.TestCase):
    def synthetic(self):
        meta = [{"pid": 1, "tid": 0, "ph": "M", "name": "thread_name", "args": {"name": "rank 0"}},
                {"pid": 1, "tid": 1, "ph": "M", "name": "thread_name",
                 "args": {"name": "queue default"}}]
        rank = []
        for base in (0.0, 200.0):
            rank += span(0, "stepbench.step", base, base + 100)
            rank += span(0, "step", base + 5, base + 95)
            rank += span(0, "fft.reshape", base + 10, base + 40, a0=64)
            rank += span(0, "plan.publish", base + 20, base + 30, a0=8)
            rank += [{"pid": 1, "tid": 0, "ts": base + 25, "ph": "s", "cat": "flow",
                      "name": "plan", "id": "0x1"},
                     {"pid": 1, "tid": 0, "ts": base + 26, "ph": "i", "s": "t",
                      "name": "plancheck.deadlock", "args": {"a0": 0, "a1": 0}}]
            rank += span(0, "mystery", base + 50, base + 60)
        # A probe between steps, itself containing a layer span that must not
        # count toward per-step totals.
        rank += span(0, "stepbench.gather_halos", 120.0, 150.0)
        rank += span(0, "plan.publish", 130.0, 140.0, a0=1000)
        queue = span(1, "task", 12.0, 30.0)
        queue.append({"pid": 1, "tid": 1, "ts": 20.0, "ph": "f", "cat": "flow", "name": "event",
                      "id": "0x2", "bp": "e"})
        return meta + sort_track(rank) + sort_track(queue)

    def test_self_time_nesting_and_flows(self):
        tracks = analysis.fold_trace(self.synthetic())
        self.assertEqual(set(tracks), {"rank 0", "queue default"})
        r = tracks["rank 0"]
        self.assertEqual(r.steps, 2)
        self.assertAlmostEqual(r.step_s, 200e-6)
        self.assertAlmostEqual(r.self_s["fft.reshape"], 2 * 20e-6)
        self.assertAlmostEqual(r.self_s["plan.publish"], 2 * 10e-6)
        self.assertAlmostEqual(r.self_s["step"], 2 * (90 - 30 - 10) * 1e-6)
        self.assertAlmostEqual(r.self_s["stepbench.step"], 2 * 10e-6)
        self.assertEqual(r.count["plan.publish"], 2)
        self.assertEqual(r.a0["plan.publish"], 16)
        self.assertEqual(r.a0["fft.reshape"], 128)
        self.assertEqual(len(r.probes["stepbench.gather_halos"]), 1)
        self.assertAlmostEqual(r.probes["stepbench.gather_halos"][0], 30e-6)
        layers = r.layer_self_s()
        self.assertAlmostEqual(layers["fft"], 40e-6)
        self.assertAlmostEqual(layers["comm"], 20e-6)
        self.assertAlmostEqual(layers["unattributed"], 20e-6)
        # fft + comm of 200 us of steps; root and unattributed time uncovered.
        self.assertAlmostEqual(r.coverage(), 60 / 200)
        self.assertEqual(tracks["queue default"].steps, 0)

    def test_unclosed_and_dropped(self):
        events = span(0, "stepbench.step", 0.0, 10.0)[:1] + [
            {"pid": 1, "tid": 0, "ts": 10.0, "ph": "E", "name": "stepbench.step", "args": {}},
            {"pid": 1, "tid": 0, "ts": 10.0, "ph": "E", "name": "extra", "args": {}},
            {"pid": 1, "tid": 0, "ts": 10.0, "ph": "i", "s": "t", "name": "telemetry.dropped",
             "args": {"a0": 7, "a1": 0}}]
        t = analysis.fold_trace(events)["tid 0"]
        self.assertEqual((t.steps, t.dropped), (1, 7))

    def test_per_layer_metrics(self):
        tracks = analysis.fold_trace(self.synthetic())
        ranks = analysis.rank_tracks(tracks)
        run_log = {"per_rank": [{"br_untraced_s": 0.01, "hit_pairs": 3, "candidate_pairs": 12}],
                   "episodes": [{"traced": False, "steps": 10}, {"traced": True, "steps": 2}],
                   "copy_probe": {"steps": 0, "copies": 0}}
        m = analysis.per_layer_metrics(ranks, run_log, traced_p50=1.1, untraced_p50=1.0)
        self.assertEqual(set(m), set(analysis.PER_LAYER_METRICS))
        self.assertAlmostEqual(m["fft.reshape_ms"], 20e-3)
        self.assertAlmostEqual(m["grid.halo_ms"], 30e-3)
        self.assertAlmostEqual(m["br.velocity_ms"], 1.0)
        self.assertEqual(m["comm.msgs_per_step"], 1)
        self.assertEqual(m["fft.reshape_bytes_per_step"], 64)
        self.assertAlmostEqual(m["search.hit_ratio"], 0.25)
        self.assertAlmostEqual(m["telemetry.overhead_frac"], 0.1)


class FailureTest(unittest.TestCase):
    def run_log(self):
        ep = {"max_height": 0.25, "vorticity_l2": 10.0}
        return {"per_rank": [{"finite": [1] * 6}, {"finite": [1] * 6}],
                "episodes": [dict(ep, first_step=0, steps=3, traced=False),
                             dict(ep, first_step=3, steps=3, traced=False)]}

    def test_matching_reference_passes(self):
        ref = {"max_height": 0.25 * (1 + 1e-12), "vorticity_l2": 10.0}
        self.assertEqual(analysis.failed_steps(self.run_log(), ref, 1e-9), [])

    def test_perturbed_reference_fails_every_step(self):
        ref = {"max_height": 0.25 * (1 + 1e-6), "vorticity_l2": 10.0}
        self.assertEqual(analysis.failed_steps(self.run_log(), ref, 1e-9), list(range(6)))

    def test_non_finite_state_fails_its_step(self):
        log = self.run_log()
        log["per_rank"][1]["finite"][4] = 0
        ref = {"max_height": 0.25, "vorticity_l2": 10.0}
        self.assertEqual(analysis.failed_steps(log, ref, 1e-9), [4])
        log["episodes"][0]["vorticity_l2"] = math.nan
        self.assertEqual(analysis.failed_steps(log, ref, 1e-9), [0, 1, 2, 4])


class HygieneTest(unittest.TestCase):
    def test_threads_over_nproc_refused(self):
        analysis.check_threads(4, 4)
        with self.assertRaises(analysis.Refusal):
            analysis.check_threads(2 + 3, 4)

    def test_armed_recorders_refused(self):
        analysis.check_environment({"BEATNIK_TRACE": "0", "BEATNIK_DEVCHECK": ""})
        for var in analysis.ARMING_VARS:
            with self.assertRaises(analysis.Refusal):
                analysis.check_environment({var: "1"})

    def test_instrumented_builds_refused(self):
        clean = {"sanitizer": False, "devcheck": False, "cxx_flags": "-O2 -g"}
        analysis.check_build(clean)
        for fp in (dict(clean, sanitizer=True), dict(clean, devcheck=True),
                   dict(clean, cxx_flags="-O1 -fsanitize=thread")):
            with self.assertRaises(analysis.Refusal):
                analysis.check_build(fp)


class BenchmarkFileTest(unittest.TestCase):
    def test_metrics_and_workloads_match_the_code(self):
        root = os.path.dirname(os.path.dirname(HERE))
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            bench = json.load(f)
        with open(os.path.join(os.path.dirname(HERE), "workloads.json")) as f:
            workloads = json.load(f)["workloads"]
        self.assertEqual([w["name"] for w in bench["workloads"]], list(workloads))
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual([m["name"] for m in bench["per_layer"]],
                         list(analysis.PER_LAYER_METRICS))
        for m in bench["per_layer"]:
            self.assertEqual(m["unit"], analysis.unit_of(m["name"]))


if __name__ == "__main__":
    unittest.main()
