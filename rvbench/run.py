#!/usr/bin/env python3
"""Host-time benchmark of the RVMA simulator.

    python3 rvbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the rvbench driver (rvbench/CMakeLists.txt, Release) into
.bench_build/ at the repository root, generates the workload's scenario
specs from --seed and runs them through scenario::run_scenario.

--trace 0 samples set-up in a fresh process, then repeats the workload
with tracing off for about S seconds in another, and reports the
end-to-end metrics (medians over the samples and repetitions).
--trace 1 runs each cell untraced, traced, traced, untraced, checks the
traced runs are passive, runs the per-layer drivers and reports the
per-layer metrics.

Every cell run is output-checked (pinned values at seed 2021, invariants
at every seed). The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; the full record, with provenance,
goes to .bench_build/results/. README.md has the workload and metric map.
"""

import argparse
import datetime
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # keep rvbench/ free of generated files

import extract  # noqa: E402

BUILD_DIR = os.path.join(ROOT, ".bench_build", "rvbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "out")
RESULTS_DIR = os.path.join(ROOT, ".bench_build", "results")
DRIVER = os.path.join(BUILD_DIR, "rvbench")

PAR_SHARDS = 4  # requested by every cell
RUN_TIMEOUT_S = 170

# Workload -> scenario cells (run back to back, in order) and the shape of
# the per-layer drivers. Unlisted spec fields keep their defaults: RVMA
# transport, 100 Gbps links, default motif parameters.
WORKLOADS = {
    "halo3d_df8k": {
        "cells": [
            {"name": "halo3d", "topology": "dragonfly", "routing": "static",
             "nodes": 8192, "motif": "halo3d"},
        ],
        # 64^3 cells x 4 vars x 8 B faces = 128 KiB messages, 6 neighbours.
        "layers": {"topology": "dragonfly", "routing": "static",
                   "nodes": 8192, "msg-bytes": 131072, "get-bytes": 4096,
                   "windows": 6},
    },
    "sweep3d_torus4k_adaptive": {
        "cells": [
            {"name": "rdma_half", "topology": "torus3d", "routing": "adaptive",
             "nodes": 4096, "motif": "sweep3d", "transport": "rdma"},
            {"name": "rvma_half", "topology": "torus3d", "routing": "adaptive",
             "nodes": 4096, "motif": "sweep3d", "transport": "rvma"},
        ],
        # 32 x 8 x 1 x 8 B wavefront faces = 2 KiB single-packet messages.
        "layers": {"topology": "torus3d", "routing": "adaptive",
                   "nodes": 4096, "msg-bytes": 2048, "get-bytes": 2048,
                   "windows": 4},
    },
    "api_fattree1k": {
        "cells": [
            {"name": "kv_store", "topology": "fattree", "routing": "static",
             "nodes": 1024, "motif": "kv_store",
             "params": {"requests": "256", "outstanding": "4"}},
            {"name": "remote_paging", "topology": "fattree",
             "routing": "static", "nodes": 1024, "motif": "remote_paging",
             "params": {"faults": "128"}},
        ],
        # 80 B kv records (16 B header + 64 B value) put, 4 KiB pages read.
        "layers": {"topology": "fattree", "routing": "static", "nodes": 1024,
                   "msg-bytes": 80, "get-bytes": 4096, "windows": 2},
    },
}

class BenchError(Exception):
    pass


def log(msg):
    print("rvbench: " + msg, file=sys.stderr, flush=True)


def child_env():
    # RVMA_TRACE / RVMA_LOG switch on process-global tracing and logging,
    # which would change what is measured (a global tracer forces serial).
    return {k: v for k, v in os.environ.items() if not k.startswith("RVMA_")}


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("simulator sources (src/) not found next to rvbench/")
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (configure,
                ["cmake", "--build", BUILD_DIR, "--target", "rvbench",
                 "-j", jobs]):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              env=child_env(), timeout=850)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))


def driver(args):
    """Run the rvbench driver; return its JSON lines."""
    proc = subprocess.run([DRIVER] + args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, env=child_env(),
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError("driver %s failed (%d): %s" %
                         (args[0], proc.returncode, proc.stderr[-2000:]))
    return [json.loads(line) for line in proc.stdout.splitlines()
            if line.startswith("{")]


def cell_spec(cell, seed):
    """rvma-scenario-v1 document for one cell: the only input the
    simulator gets."""
    return {
        "format": "rvma-scenario-v1",
        "scenario": {
            "name": cell["name"],
            "topology": {"kind": cell["topology"],
                         "routing": cell["routing"],
                         "nodes": cell["nodes"],
                         "link_bandwidth": "100Gbps"},
            "transport": {"kind": cell.get("transport", "rvma")},
            "motif": {"kind": cell["motif"],
                      "params": cell.get("params", {})},
            "seed": seed,
            "par_shards": PAR_SHARDS,
        },
    }


def write_specs(workload, seed, work_dir):
    paths = []
    for cell in WORKLOADS[workload]["cells"]:
        path = os.path.join(work_dir, cell["name"] + ".spec.json")
        with open(path, "w") as f:
            json.dump(cell_spec(cell, seed), f, indent=2)
        paths.append(path)
    return paths


def load_pins(workload):
    with open(os.path.join(HERE, "pinned.json")) as f:
        return json.load(f).get(workload, {})


def declared_units(kind):
    """name -> unit of the "end_to_end" or "per_layer" metrics that
    BENCHMARK.json declares, in its order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def read(path):
    with open(path) as f:
        return f.read()


def source_digest():
    """sha256 over the simulator and benchmark sources, for checkouts
    without git metadata."""
    h = hashlib.sha256()
    for top in ("src", "rvbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".pyc"):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    """HEAD of the repository at ROOT, or None when ROOT is not one."""
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse",
                               "--show-toplevel", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def provenance(info, args):
    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "compiler": info["compiler"],
        "build_type": info["build_type"],
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Tally:
    """Attempted and failed cell runs, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, label, errors):
        self.attempted += 1
        if errors:
            self.failures.append("%s: %s" % (label, "; ".join(errors)))


def end_to_end(workload, args, work_dir, record):
    pins = load_pins(workload)
    setups = [l for l in driver(["setup"] + record["specs"])
              if l["kind"] == "setup"]
    reps = [l for l in driver(["run", "--seconds=%s" % args.seconds,
                               "--out=" + work_dir] + record["specs"])
            if l["kind"] == "rep"]
    if not reps:
        raise BenchError("driver reported no repetition")
    docs = {}
    for cell in reps[0]["cells"]:
        path = os.path.join(work_dir, cell["name"] + ".metrics.json")
        if os.path.exists(path):
            docs[cell["name"]] = read(path)
    tally = Tally()
    first = {c["name"]: c for c in reps[0]["cells"]}
    for rep in reps:
        for cell, same in zip(rep["cells"], rep["doc_same_as_first"]):
            name = cell["name"]
            errors = extract.check_cell(cell, docs.get(name, "{}"), args.seed,
                                        pins.get(name))
            # Later repetitions must reproduce the first bit for bit.
            ref = first[name]
            if not same or any(cell[k] != ref[k] for k in
                               ("makespan_ps", "packets_delivered",
                                "engine_events")):
                errors.append("differs from the first repetition")
            tally.add("%s (repetition %d)" % (name, rep["index"]), errors)
    if not setups:
        raise BenchError("driver reported no set-up sample")
    setup_samples = [s["setup_s"] for s in setups]
    metrics = {
        "wall_s": statistics.median([r["wall_s"] for r in reps]),
        "setup_s": statistics.median(setup_samples),
        "packets_per_s": statistics.median(
            [sum(c["packets_delivered"] for c in r["cells"]) /
             sum(c["sim_s"] for c in r["cells"]) for r in reps]),
        # The first repetition runs in a fresh process, as a user's run
        # does; later ones inherit the allocator's retained memory.
        "peak_rss_mb": reps[0]["peak_rss_bytes"] / 1e6,
    }
    record["provenance"]["requested_shards"] = PAR_SHARDS
    record["provenance"]["effective_shards"] = setups[0]["effective_shards"]
    record["provenance"]["peak_rss_reset"] = all(r["rss_reset"] for r in reps)
    record["repetitions"] = reps
    record["setup_samples"] = setup_samples
    return metrics, tally


def per_layer(workload, args, work_dir, record):
    pins = load_pins(workload)
    traces = [l for l in driver(["trace", "--out=" + work_dir] +
                                record["specs"]) if l["kind"] == "trace"]
    shape = WORKLOADS[workload]["layers"]
    layer_args = ["layers", "--seed=%d" % args.seed]
    layer_args += ["--%s=%s" % (k, v) for k, v in shape.items()]
    layers = [l for l in driver(layer_args) if l["kind"] == "layers"]
    if len(traces) != len(WORKLOADS[workload]["cells"]) or len(layers) != 1:
        raise BenchError("driver output incomplete")
    tally = Tally()
    plain_wall = traced_wall = 0.0
    traced_docs, profiles = {}, []
    for t in traces:
        name = t["name"]
        untraced_doc = read(t["untraced_doc"])
        traced_docs[name] = read(t["traced_doc"])
        if t["traced"]["ok"]:
            profiles.append(json.loads(read(t["pdes_profile"])))
        tally.add(name + " (untraced)", extract.check_cell(
            t["untraced"], untraced_doc or "{}", args.seed, pins.get(name)))
        errors = extract.check_cell(t["traced"], traced_docs[name] or "{}",
                                    args.seed, pins.get(name))
        # Passivity: the traced run's table and event-filtered metrics doc
        # equal the untraced run's.
        table = ("makespan_ps", "packets_injected", "packets_delivered",
                 "route_cache_hits")
        if (any(t["untraced"][k] != t["traced"][k] for k in table) or
                extract.metrics_digest(untraced_doc) !=
                extract.metrics_digest(traced_docs[name])):
            errors.append("traced run is not passive")
        if not t["repeats_identical"]:
            errors.append("repeated runs differ")
        if t["flight_dump_bytes"] == 0:
            errors.append("no flight recorder dump")
        tally.add(name + " (traced)", errors)
        plain_wall += t["untraced_wall_s"]
        traced_wall += t["traced_wall_s"]
    tally.add("layer drivers", [] if layers[0]["ok"] else
              ["a driver's deliveries or completions did not add up"])

    traced = [t["traced"] for t in traces]
    total = {}
    docs = [json.loads(text) for text in traced_docs.values() if text]
    for doc in docs:
        for k, v in extract.counters(doc).items():
            total[k] = total.get(k, 0) + v
    backlog = max(doc.get("gauges", {}).get("fabric.port_backlog_ns", 0)
                  for doc in docs)
    sim_s = sum(c["sim_s"] for c in traced)
    events = sum(c["engine_events"] for c in traced)
    packets = total.get("fabric.packets_delivered", 0)
    cell_wall = {t["name"]: t["traced_wall_s"] for t in traces}

    def share(name):
        return 100.0 * cell_wall.get(name, 0.0) / traced_wall

    metrics = {
        "cluster.construct_s": sum(c["construct_s"] for c in traced),
        "scenario.validate_s": sum(c["validate_s"] for c in traced),
        "sim.run_s": sim_s,
        "sim.events": events,
        "sim.ns_per_event": sim_s * 1e9 / events,
        "net.packets": packets,
        "net.hops_per_packet": total.get("fabric.hops", 0) / packets,
        "net.port_backlog_max_ns": backlog,
        "nic.messages_sent": total.get("nic.messages_sent", 0),
        "nic.doorbells": total.get("nic.doorbells", 0),
        "nic.doorbells_merged": total.get("nic.doorbells_merged", 0),
        "nic.tx_queue_stalls": total.get("nic.tx_queue_stalls", 0),
        "nic.drops_no_handler": total.get("nic.drops_no_handler", 0),
        "core.completions": total.get("rvma.completions", 0),
        "core.catch_all_packets": total.get("rvma.catch_all_packets", 0),
        "core.drops": sum(v for k, v in total.items()
                          if k.startswith("rvma.drops_")),
        "core.nacks": total.get("rvma.nacks_sent", 0),
        "motifs.rdma_half_pct": share("rdma_half"),
        "motifs.rvma_half_pct": share("rvma_half"),
        "api.kv_store_pct": share("kv_store"),
        "api.remote_paging_pct": share("remote_paging"),
        "obs.trace_overhead_pct":
            100.0 * (traced_wall - plain_wall) / plain_wall,
    }
    metrics.update(extract.pdes_layer_metrics(profiles))
    metrics.update({k: v for k, v in layers[0].items()
                    if k not in ("kind", "ok")})
    record["provenance"]["requested_shards"] = PAR_SHARDS
    record["provenance"]["effective_shards"] = [
        p["counters"].get("pdes.shards", 1) for p in profiles]
    record["traces"] = traces
    record["layers"] = layers[0]
    return metrics, tally


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=extract.PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=32)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        build()
        info = driver(["info"])[0]
        # Timings from a debug or unoptimized build are meaningless.
        if info["build_type"] != "Release":
            raise BenchError("refusing to report timings from a %r build" %
                             info["build_type"])
        work_dir = os.path.join(OUT_DIR, "%s-seed%d-trace%d" %
                                (args.workload, args.seed, args.trace))
        shutil.rmtree(work_dir, ignore_errors=True)
        os.makedirs(work_dir)
        record = {"provenance": provenance(info, args),
                  "specs": write_specs(args.workload, args.seed, work_dir)}
        run = per_layer if args.trace else end_to_end
        measured, tally = run(args.workload, args, work_dir, record)
        units = declared_units("per_layer" if args.trace else "end_to_end")
        missing = sorted(set(units) - set(measured))
        if missing:
            raise BenchError("metrics not measured: " + ", ".join(missing))
        metrics = {k: measured[k] for k in units}
    except (BenchError, OSError, subprocess.SubprocessError,
            ValueError, KeyError, ZeroDivisionError) as e:
        # No result line: the run could not be measured at all.
        log(str(e))
        return 1

    failed = len(tally.failures)
    record["metrics"] = metrics
    record["attempted"] = tally.attempted
    record["failed"] = failed
    record["failures"] = tally.failures
    os.makedirs(RESULTS_DIR, exist_ok=True)
    stamp = record["provenance"]["date"].replace(":", "")
    result_path = os.path.join(RESULTS_DIR, "%s-seed%d-trace%d-%s.json" % (
        args.workload, args.seed, args.trace, stamp))
    with open(result_path, "w") as f:
        json.dump(record, f, indent=1)

    prov = record["provenance"]
    print("workload %s seed %d trace %d: %s build, %s, nproc %d, shards "
          "requested %d effective %s" % (
              args.workload, args.seed, args.trace, prov["build_type"],
              prov["compiler"], prov["nproc"], prov["requested_shards"],
              prov["effective_shards"]))
    for name, value in metrics.items():
        print("  %-28s %16.6g %s" % (name, value, units[name]))
    print("  %-28s %10d/%d" % ("failed_cells", failed, tally.attempted))
    for failure in tally.failures:
        print("  FAILED " + failure)
    print("record: " + os.path.relpath(result_path, ROOT))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
