"""Metric extraction and output checks for the rvbench benchmark.

Pure functions over the documents the rvbench driver writes, kept apart
from run.py so test_extract.py can exercise them without a build:

* metrics_digest: a digest of an rvma-metrics-v1 document with the
  engine event counters filtered out, the repository's byte-identity
  convention (express and sharded runs legitimately change event counts).
* pdes_layer_metrics: the pdes.* per-layer metrics from PDES profile
  documents (Cluster::collect_pdes_profile).
* check_cell: the output check for one scenario cell, against pinned
  values at the pinned seed and against seed-independent invariants.
"""

import hashlib
import json
import re

PINNED_SEED = 2021

# Keys compared exactly against pinned.json at the pinned seed.
PINNED_KEYS = ("makespan_ps", "packets_injected", "packets_delivered",
               "completions", "metrics_digest")

_SHARD_COUNTER = re.compile(r"^pdes\.shard(\d+)\.(\w+)$")


def filter_engine_events(doc_text):
    """Drop every line naming an engine.events* counter."""
    return "".join(line for line in doc_text.splitlines(keepends=True)
                   if "engine.events" not in line)


def metrics_digest(doc_text):
    """sha256 (hex, first 16 digits) of the event-filtered metrics doc."""
    filtered = filter_engine_events(doc_text).encode()
    return hashlib.sha256(filtered).hexdigest()[:16]


def counters(doc):
    return doc.get("counters", {})


def cell_outputs(cell, doc_text):
    """The deterministic outputs of one cell run, as pinned.json holds them."""
    doc = json.loads(doc_text)
    return {
        "makespan_ps": cell["makespan_ps"],
        "packets_injected": cell["packets_injected"],
        "packets_delivered": cell["packets_delivered"],
        "completions": counters(doc).get("rvma.completions", 0),
        "metrics_digest": metrics_digest(doc_text),
    }


def invariant_errors(cell, doc):
    """Checks that hold at every seed: no lost packet, no drop, every
    key-value request answered."""
    errors = []
    c = counters(doc)
    if cell["packets_injected"] != cell["packets_delivered"]:
        errors.append("injected %d != delivered %d" %
                      (cell["packets_injected"], cell["packets_delivered"]))
    if cell["packets_delivered"] == 0:
        errors.append("no packet delivered")
    if c.get("fabric.packets_delivered") != cell["packets_delivered"]:
        errors.append("metrics doc disagrees on packets delivered")
    for name, value in sorted(c.items()):
        if (name.startswith("rvma.drops_") or name == "nic.drops_no_handler") \
                and value != 0:
            errors.append("%s = %d" % (name, value))
    if c.get("kv.replies", 0) != c.get("kv.requests", 0):
        errors.append("kv replies %d != requests %d" %
                      (c.get("kv.replies", 0), c.get("kv.requests", 0)))
    return errors


def pinned_errors(outputs, pinned):
    """Mismatches between a cell's outputs and its pinned values."""
    if pinned is None:
        return ["no pinned outputs for this cell"]
    return ["%s: got %r, pinned %r" % (k, outputs.get(k), pinned.get(k))
            for k in PINNED_KEYS if outputs.get(k) != pinned.get(k)]


def check_cell(cell, doc_text, seed, pinned):
    """All output-check failures of one cell run (empty list: correct)."""
    if not cell.get("ok"):
        return ["run failed: %s" % cell.get("error", "")]
    errors = invariant_errors(cell, json.loads(doc_text))
    if seed == PINNED_SEED:
        errors += pinned_errors(cell_outputs(cell, doc_text), pinned)
    return errors


def pdes_layer_metrics(profiles):
    """pdes.* per-layer metrics summed over the cells' PDES profiles.

    Shares are of the shards' total windowed-loop wall time (busy +
    barrier wait + drain + completion); a serial cell has no loop and
    counts as fully busy, as collect_pdes_profile reports it.
    """
    shards = []
    windows = 0
    items = 0
    busy = wait = drain = total = 0
    util_min = 100.0
    for doc in profiles:
        c = counters(doc)
        shards.append(c.get("pdes.shards", 1))
        windows += c.get("pdes.windows", 0)
        per_shard = {}
        for name, value in c.items():
            m = _SHARD_COUNTER.match(name)
            if m:
                per_shard.setdefault(int(m.group(1)), {})[m.group(2)] = value
        for s in per_shard.values():
            b = s.get("busy_wall_ns", 0)
            w = s.get("barrier_wait_wall_ns", 0)
            d = s.get("drain_wall_ns", 0)
            t = b + w + d + s.get("completion_wall_ns", 0)
            items += s.get("items_drained", 0)
            busy += b
            wait += w
            drain += d
            total += t
            if t > 0:
                util_min = min(util_min, 100.0 * b / t)
    return {
        "pdes.effective_shards": min(shards) if shards else 1,
        "pdes.windows": windows,
        "pdes.busy_pct": 100.0 * busy / total if total else 100.0,
        "pdes.utilization_min_pct": util_min,
        "pdes.barrier_wait_pct": 100.0 * wait / total if total else 0.0,
        "pdes.drain_pct": 100.0 * drain / total if total else 0.0,
        "pdes.items_drained": items,
    }

