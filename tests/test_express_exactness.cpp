// Express cut-through exactness (DESIGN.md §8): the fast path must be a
// pure wall-clock optimization. Under adversarial contention — an incast
// hammering one ejection port plus bidirectional neighbor traffic on a
// torus — every observable (makespan, fabric stats, metrics snapshot,
// flight-recorder spans) must be identical with the express path on and
// off; so must the spans of uncontended halo runs, whose express records
// run folded; and the fig8 mini-grid's metrics JSON must stay
// byte-identical across both modes and any job count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "net/topology.hpp"
#include "cluster/cluster.hpp"
#include "flight_spans.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics_io.hpp"
#include "scenario/figure_grid.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"

namespace rvma {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Drop the one legitimate difference between express and hop-by-hop
/// runs: the engine event counters (the express path exists to execute
/// fewer events). Everything else must match exactly.
obs::MetricsSnapshot scrub_engine_counters(obs::MetricsSnapshot snap) {
  snap.counters.erase("engine.events_executed");
  snap.counters.erase("engine.events_scheduled");
  return snap;
}

struct ContentionResult {
  net::FabricStats fabric;
  obs::MetricsSnapshot metrics;
  Time makespan = 0;
  std::uint64_t received = 0;
  std::vector<obs::SpanRecord> spans;  ///< empty unless the recorder was armed
  std::uint64_t spans_dropped = 0;
};

/// Adversarial contention on a 2x2x2 torus with static routes: every
/// node floods node 0 (ejection-port incast — express commits early,
/// then conflicts and falls back) while also exchanging messages with
/// both ring neighbors (bidirectional transit traffic crossing the
/// incast paths mid-route). Multi-packet messages exercise the burst
/// path; staggered completion-driven sends keep open express records
/// around for later injections to conflict with.
ContentionResult run_contention(bool express, bool record) {
  net::NetworkConfig cfg;
  cfg.topology = net::TopologyKind::kTorus3D;
  cfg.routing = net::Routing::kStatic;
  cfg.nodes_hint = 8;
  cfg.express = express;
  cluster::Cluster cluster(cfg, nic::NicParams{});
  if (record) cluster.arm_flight_recorder();
  const int n = cluster.num_nodes();

  ContentionResult out;
  std::vector<int> rounds_left(static_cast<std::size_t>(n), 3);
  std::function<void(int)> send_round = [&](int node) {
    if (rounds_left[static_cast<std::size_t>(node)]-- <= 0) return;
    auto send_to = [&](int dst, std::uint64_t bytes) {
      if (dst == node) return;
      net::Message msg;
      msg.src = node;
      msg.dst = dst;
      msg.bytes = bytes;
      msg.hdr.kind = net::make_kind(nic::kProtoRdma, 1);
      cluster.nic(node).send(std::move(msg), [] {});
    };
    send_to(0, 20'000);                // incast: 5 packets at node 0
    send_to((node + 1) % n, 10'000);   // ring neighbor, forward
    send_to((node + n - 1) % n, 6'000);  // ring neighbor, backward
  };
  for (int node = 0; node < n; ++node) {
    cluster.nic(node).register_proto(
        nic::kProtoRdma, [&, node](const net::Packet& pkt) {
          ++out.received;
          // Next round when a full message lands: keeps traffic (and open
          // express records) alive across many injection instants.
          if (pkt.seq + 1 == pkt.total) send_round(node);
        });
  }
  // Kick off in descending node order: the far corner (3 hops from node
  // 0) injects — and express-commits — first, so the near nodes' incast
  // packets, injected the same instant but processed after, can reach the
  // shared ejection port before the committed packets' virtual
  // arbitration times. That is exactly the eager-charge conflict that
  // forces a rematerialize.
  for (int node = n - 1; node >= 0; --node) send_round(node);
  out.makespan = cluster.engine().run();
  out.fabric = cluster.network().fabric().stats();
  out.metrics = scrub_engine_counters(cluster.collect_metrics());
  if (record) {
    out.spans = cluster.flight_recorder_for_shard(0)->snapshot();
    out.spans_dropped = cluster.flight_recorder_for_shard(0)->dropped();
  }
  return out;
}

TEST(ExpressExactness, ContentionStatsAndMetricsIdentical) {
  const ContentionResult fast = run_contention(true, false);
  const ContentionResult slow = run_contention(false, false);

  // The fast path must actually engage AND be contested in this workload,
  // including the conflict unwind — otherwise the test proves nothing.
  EXPECT_GT(fast.fabric.express_commits, 0u);
  EXPECT_GT(fast.fabric.express_fallbacks, 0u);
  EXPECT_GT(fast.fabric.express_remats, 0u);
  EXPECT_EQ(slow.fabric.express_commits, 0u);

  EXPECT_EQ(fast.makespan, slow.makespan);
  EXPECT_EQ(fast.received, slow.received);
  EXPECT_GT(fast.received, 0u);
  EXPECT_EQ(fast.fabric.packets_injected, slow.fabric.packets_injected);
  EXPECT_EQ(fast.fabric.packets_delivered, slow.fabric.packets_delivered);
  EXPECT_EQ(fast.fabric.total_hops, slow.fabric.total_hops);
  EXPECT_EQ(fast.fabric.wire_bytes_delivered, slow.fabric.wire_bytes_delivered);
  EXPECT_EQ(fast.fabric.route_cache_hits, slow.fabric.route_cache_hits);
  EXPECT_EQ(fast.fabric.max_port_backlog, slow.fabric.max_port_backlog);
  EXPECT_EQ(fast.metrics, slow.metrics);
}

TEST(ExpressExactness, ContentionSpansIdentical) {
  const ContentionResult fast = run_contention(true, true);
  const ContentionResult slow = run_contention(false, true);

  // The recorder is passive, so the express run still commits folded
  // records (delivery and NIC receive in one event), and the contention
  // rematerializes them. Per-packet spans, timestamps included, must
  // still match the hop-by-hop run record for record.
  EXPECT_GT(fast.fabric.express_commits, 0u);
  EXPECT_EQ(slow.fabric.express_commits, 0u);
  EXPECT_EQ(fast.spans_dropped, 0u);
  EXPECT_EQ(slow.spans_dropped, 0u);
  EXPECT_FALSE(fast.spans.empty());
  EXPECT_EQ(span_multiset(fast.spans), span_multiset(slow.spans));
}

/// Span multiset of a recorded halo3d scenario run, and how many of its
/// injections took the express path.
std::vector<SpanKey> halo_spans(const std::string& topology, bool express,
                                std::size_t* express_commits) {
  scenario::ScenarioSpec spec;
  spec.topology = topology;
  spec.nodes = 64;
  spec.motif = "halo3d";
  // Default 64^3-cell faces: multi-packet messages whose express records
  // mostly run folded to completion instead of rematerializing.
  spec.motif_params = {{"iterations", "2"}};
  spec.express = express;
  spec.flight_recorder_path = ::testing::TempDir() + "express_halo.rvfr";
  scenario::ScenarioResult result;
  std::string error;
  obs::FlightDump dump;
  EXPECT_TRUE(scenario::run_scenario(spec, &result, &error)) << error;
  EXPECT_TRUE(obs::read_flight_file(spec.flight_recorder_path, &dump, &error))
      << error;
  std::remove(spec.flight_recorder_path.c_str());
  const std::vector<obs::SpanRecord> records = dump.merged();
  *express_commits = static_cast<std::size_t>(std::count_if(
      records.begin(), records.end(), [](const obs::SpanRecord& r) {
        return r.kind == static_cast<std::uint32_t>(obs::SpanKind::kExpressCommit);
      }));
  return span_multiset(records);
}

TEST(ExpressExactness, HaloSpansIdenticalOnStaticTopologies) {
  // Uncontended halo traffic: committed express records run folded to
  // completion — the path production runs take — and must record the
  // same spans as hop-by-hop.
  for (const char* topology : {"torus3d", "fattree", "dragonfly", "hyperx"}) {
    std::size_t fast_commits = 0, slow_commits = 0;
    const std::vector<SpanKey> fast = halo_spans(topology, true, &fast_commits);
    const std::vector<SpanKey> slow =
        halo_spans(topology, false, &slow_commits);
    EXPECT_GT(fast_commits, 0u) << topology;
    EXPECT_EQ(slow_commits, 0u) << topology;
    EXPECT_EQ(fast, slow) << topology;
  }
}

scenario::GridSpec mini_grid() {
  scenario::GridSpec grid;
  grid.figure = "test";
  grid.motif_label = "Halo3D";
  grid.base.nodes = 8;
  grid.base.motif = "halo3d";
  grid.base.motif_params = {{"px", "2"},  {"py", "2"},
                            {"pz", "2"},  {"nx", "8"},
                            {"ny", "8"},  {"nz", "8"},
                            {"vars", "2"}, {"iterations", "2"},
                            {"compute_per_cell", "50ps"}};
  grid.gbps = {100, 400};
  // First three grid rows cover torus + fat-tree and static + adaptive
  // routing while keeping the test fast.
  grid.cases = {"torus3d-static", "torus3d-adaptive", "fattree-static"};
  return grid;
}

/// The metrics JSON minus the engine event-count lines — the one
/// legitimate difference between express and hop-by-hop documents.
std::string filter_engine_events(const std::string& json) {
  std::istringstream in(json);
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("engine.events") == std::string::npos) out << line << '\n';
  }
  return out.str();
}

TEST(ExpressExactness, Fig8MiniGridJsonIdenticalAcrossModesAndJobs) {
  const scenario::GridSpec grid_fast = mini_grid();
  scenario::GridSpec grid_slow = mini_grid();
  grid_slow.base.express = false;
  // Sampling stays off — sampled gauge timeseries may observe express's
  // eager port charges (DESIGN.md §8), and the document must be identical
  // without that caveat.

  std::vector<scenario::GridCell> fast, slow_serial, slow_parallel;
  std::string error;
  ASSERT_TRUE(scenario::run_grid(grid_fast, 1, &fast, &error)) << error;
  ASSERT_TRUE(scenario::run_grid(grid_slow, 1, &slow_serial, &error)) << error;
  ASSERT_TRUE(scenario::run_grid(grid_slow, 4, &slow_parallel, &error))
      << error;

  ASSERT_EQ(fast.size(), slow_serial.size());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    // Same simulation results cell by cell; only event counts may move.
    EXPECT_EQ(fast[i].rdma.makespan, slow_serial[i].rdma.makespan) << i;
    EXPECT_EQ(fast[i].rvma.makespan, slow_serial[i].rvma.makespan) << i;
    EXPECT_EQ(fast[i].rdma.packets_delivered,
              slow_serial[i].rdma.packets_delivered)
        << i;
    EXPECT_EQ(fast[i].rvma.packets_delivered,
              slow_serial[i].rvma.packets_delivered)
        << i;
    EXPECT_EQ(fast[i].rdma.route_cache_hits,
              slow_serial[i].rdma.route_cache_hits)
        << i;
    EXPECT_EQ(scrub_engine_counters(fast[i].rvma.metrics),
              scrub_engine_counters(slow_serial[i].rvma.metrics))
        << i;
    EXPECT_EQ(slow_serial[i], slow_parallel[i]) << i;  // jobs determinism
  }

  const std::string dir = ::testing::TempDir();
  const std::string path_fast = dir + "express_grid_fast.json";
  const std::string path_slow = dir + "express_grid_slow.json";
  const std::string path_slow4 = dir + "express_grid_slow4.json";
  ASSERT_TRUE(obs::write_metrics_file(
      scenario::build_grid_metrics_doc(grid_fast, fast), path_fast));
  ASSERT_TRUE(obs::write_metrics_file(
      scenario::build_grid_metrics_doc(grid_slow, slow_serial), path_slow));
  ASSERT_TRUE(obs::write_metrics_file(
      scenario::build_grid_metrics_doc(grid_slow, slow_parallel), path_slow4));

  const std::string slow_bytes = read_file(path_slow);
  EXPECT_EQ(slow_bytes, read_file(path_slow4));  // byte-identical across jobs
  EXPECT_EQ(filter_engine_events(read_file(path_fast)),
            filter_engine_events(slow_bytes));
  std::remove(path_fast.c_str());
  std::remove(path_slow.c_str());
  std::remove(path_slow4.c_str());
}

}  // namespace
}  // namespace rvma
