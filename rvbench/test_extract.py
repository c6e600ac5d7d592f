#!/usr/bin/env python3
"""Tests for rvbench's metric extraction and output checks.

    python3 rvbench/test_extract.py

Needs no build: the fixtures below are shaped like the documents the
rvbench driver writes (rvma-metrics-v1 run metrics and PDES profiles).
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import extract  # noqa: E402
import run  # noqa: E402


def metrics_doc(counters, gauges=None):
    """A run metrics document in the canonical one-instrument-per-line
    layout obs::to_json writes."""
    lines = ['{', '"schema":"rvma-metrics-v1",', '"tool":"rvma_run",',
             '"meta":{"motif":"kv_store","seed":"2021"},', '"counters":{']
    items = sorted(counters.items())
    for i, (k, v) in enumerate(items):
        lines.append('"%s":%d%s' % (k, v, "," if i + 1 < len(items) else "},"))
    gauges = gauges or {}
    lines.append('"gauges":{%s},' % ",".join(
        '"%s":%d' % kv for kv in sorted(gauges.items())))
    lines += ['"histograms":{},', '"timeseries":[]', '}']
    return "\n".join(lines) + "\n"


GOOD = {
    "engine.events_executed": 1000,
    "engine.events_scheduled": 1200,
    "fabric.packets_delivered": 64,
    "fabric.packets_injected": 64,
    "kv.replies": 32,
    "kv.requests": 32,
    "nic.drops_no_handler": 0,
    "rvma.completions": 64,
    "rvma.drops_no_buffer": 0,
    "rvma.drops_no_mailbox": 0,
}

CELL = {"name": "kv_store", "ok": True, "error": "", "makespan_ps": 5000,
        "packets_injected": 64, "packets_delivered": 64}


def with_counters(**changes):
    c = dict(GOOD)
    c.update({k.replace("__", "."): v for k, v in changes.items()})
    return metrics_doc(c)


class DigestFilter(unittest.TestCase):
    def test_filter_drops_only_engine_event_lines(self):
        text = metrics_doc(GOOD)
        filtered = extract.filter_engine_events(text)
        self.assertNotIn("engine.events", filtered)
        self.assertEqual(len(text.splitlines()) - 2,
                         len(filtered.splitlines()))
        self.assertIn('"fabric.packets_delivered":64', filtered)

    def test_digest_ignores_event_counts(self):
        # Express and sharded runs change only the engine event counters.
        a = with_counters(engine__events_executed=1000)
        b = with_counters(engine__events_executed=777,
                          engine__events_scheduled=900)
        self.assertEqual(extract.metrics_digest(a), extract.metrics_digest(b))

    def test_digest_sees_every_other_instrument(self):
        a = metrics_doc(GOOD)
        self.assertNotEqual(extract.metrics_digest(a),
                            extract.metrics_digest(
                                with_counters(rvma__completions=63)))
        self.assertNotEqual(extract.metrics_digest(a),
                            extract.metrics_digest(
                                metrics_doc(GOOD,
                                            {"fabric.port_backlog_ns": 9})))


SHARDED_PROFILE = {
    "counters": {
        "pdes.shards": 2,
        "pdes.windows": 10,
        "pdes.shard0.busy_wall_ns": 600,
        "pdes.shard0.barrier_wait_wall_ns": 300,
        "pdes.shard0.drain_wall_ns": 100,
        "pdes.shard0.completion_wall_ns": 0,
        "pdes.shard0.items_drained": 5,
        "pdes.shard1.busy_wall_ns": 900,
        "pdes.shard1.barrier_wait_wall_ns": 50,
        "pdes.shard1.drain_wall_ns": 40,
        "pdes.shard1.completion_wall_ns": 10,
        "pdes.shard1.items_drained": 7,
    },
    "gauges": {"pdes.shard0.utilization_pct": 60,
               "pdes.shard1.utilization_pct": 90},
}

SERIAL_PROFILE = {
    "counters": {
        "pdes.shards": 1,
        "pdes.windows": 0,
        "pdes.shard0.busy_wall_ns": 0,
        "pdes.shard0.barrier_wait_wall_ns": 0,
        "pdes.shard0.drain_wall_ns": 0,
        "pdes.shard0.completion_wall_ns": 0,
        "pdes.shard0.items_drained": 0,
    },
    "gauges": {"pdes.shard0.utilization_pct": 100},
}


class PdesProfile(unittest.TestCase):
    def test_sharded_profile(self):
        m = extract.pdes_layer_metrics([SHARDED_PROFILE])
        self.assertEqual(m["pdes.effective_shards"], 2)
        self.assertEqual(m["pdes.windows"], 10)
        self.assertEqual(m["pdes.items_drained"], 12)
        self.assertAlmostEqual(m["pdes.busy_pct"], 75.0)
        self.assertAlmostEqual(m["pdes.utilization_min_pct"], 60.0)
        self.assertAlmostEqual(m["pdes.barrier_wait_pct"], 17.5)
        self.assertAlmostEqual(m["pdes.drain_pct"], 7.0)

    def test_serial_profile_is_fully_busy(self):
        m = extract.pdes_layer_metrics([SERIAL_PROFILE])
        self.assertEqual(m["pdes.effective_shards"], 1)
        self.assertEqual(m["pdes.windows"], 0)
        self.assertEqual(m["pdes.busy_pct"], 100.0)
        self.assertEqual(m["pdes.utilization_min_pct"], 100.0)
        self.assertEqual(m["pdes.barrier_wait_pct"], 0.0)

    def test_cells_combine_and_clamp_shows(self):
        # A serial cell next to a sharded one: the clamp shows as the
        # minimum shard count; the serial cell adds no loop time.
        m = extract.pdes_layer_metrics([SHARDED_PROFILE, SERIAL_PROFILE])
        self.assertEqual(m["pdes.effective_shards"], 1)
        self.assertEqual(m["pdes.windows"], 10)
        self.assertAlmostEqual(m["pdes.busy_pct"], 75.0)

    def test_profile_written_by_the_driver_parses(self):
        text = json.dumps(SHARDED_PROFILE)
        m = extract.pdes_layer_metrics([json.loads(text)])
        self.assertEqual(m["pdes.items_drained"], 12)


class OutputCheck(unittest.TestCase):
    def pins(self, doc_text, **changes):
        p = extract.cell_outputs(CELL, doc_text)
        p.update(changes)
        return p

    def test_pinned_seed_matches(self):
        text = metrics_doc(GOOD)
        self.assertEqual(extract.check_cell(CELL, text, 2021,
                                            self.pins(text)), [])

    def test_pinned_seed_mismatch_fails(self):
        text = metrics_doc(GOOD)
        errors = extract.check_cell(CELL, text, 2021,
                                    self.pins(text, makespan_ps=4999))
        self.assertEqual(len(errors), 1)
        self.assertIn("makespan_ps", errors[0])
        changed = with_counters(rvma__completions=63)
        errors = extract.check_cell(CELL, changed, 2021, self.pins(text))
        self.assertTrue(any("completions" in e for e in errors))
        self.assertTrue(any("metrics_digest" in e for e in errors))

    def test_missing_pins_fail_at_pinned_seed_only(self):
        text = metrics_doc(GOOD)
        self.assertTrue(extract.check_cell(CELL, text, 2021, None))
        self.assertEqual(extract.check_cell(CELL, text, 7, None), [])

    def test_other_seeds_check_invariants(self):
        for changes, what in (({"rvma__drops_no_buffer": 1}, "drops"),
                              ({"nic__drops_no_handler": 2}, "no_handler"),
                              ({"kv__replies": 31}, "kv replies")):
            errors = extract.check_cell(CELL, with_counters(**changes), 7,
                                        None)
            self.assertTrue(any(what in e for e in errors), (what, errors))
        lost = dict(CELL, packets_delivered=63)
        self.assertTrue(extract.check_cell(lost, metrics_doc(GOOD), 7, None))

    def test_failed_run_fails(self):
        bad = dict(CELL, ok=False, error="unknown motif")
        self.assertTrue(extract.check_cell(bad, "{}", 7, None))


class Declaration(unittest.TestCase):
    """BENCHMARK.json, run.py and pinned.json describe the same workloads."""

    def setUp(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            self.bench = json.load(f)

    def test_workloads_match(self):
        self.assertEqual([w["name"] for w in self.bench["workloads"]],
                         list(run.WORKLOADS))

    def test_every_cell_is_pinned(self):
        with open(os.path.join(HERE, "pinned.json")) as f:
            pins = json.load(f)
        for name, workload in run.WORKLOADS.items():
            self.assertEqual(sorted(pins[name]),
                             sorted(c["name"] for c in workload["cells"]))
            for cell in pins[name].values():
                self.assertEqual(sorted(cell), sorted(extract.PINNED_KEYS))


if __name__ == "__main__":
    unittest.main()
