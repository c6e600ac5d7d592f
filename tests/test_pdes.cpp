// Sharded parallel engine (PDES) tests: ShardedEngine window mechanics,
// the Cluster's shard-count clamps, and the headline guarantee — a
// windowed K-shard run reproduces the serial run's observable results
// exactly, for both transports and both routing modes (DESIGN.md §12).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <vector>

#include "cluster/cluster.hpp"
#include "motifs/halo3d.hpp"
#include "motifs/rdma_transport.hpp"
#include "motifs/runner.hpp"
#include "motifs/rvma_transport.hpp"
#include "sim/engine.hpp"
#include "sim/sharded_engine.hpp"

namespace rvma {
namespace {

using motifs::build_halo3d;
using motifs::Halo3DConfig;
using motifs::MotifResult;
using motifs::MotifRunner;
using motifs::RdmaTransport;
using motifs::RvmaTransport;

// ----------------------------------------------------------- ShardedEngine

TEST(ShardedEngine, MergedModeStepsGloballyEarliestAndSyncsClocks) {
  sim::Engine a, b;
  sim::ShardedEngine se;
  se.attach(&a);
  se.attach(&b);

  std::vector<int> order;
  a.schedule_at(10, [&] { order.push_back(1); });
  b.schedule_at(5, [&] { order.push_back(2); });
  // Scheduled from b's event at t=5 with a relative delay: the merged
  // phase keeps a's clock synced to the global time, so a cross-engine
  // schedule() anchors at 5, not at a's last local event time.
  b.schedule_at(5, [&] {
    a.schedule(2, [&] { order.push_back(3); });
  });
  a.schedule_at(20, [&] { order.push_back(4); });

  se.run_merged_until([] { return false; });  // drain everything
  // Global order: b@5, then the cross-scheduled a@7, then a@10, a@20.
  EXPECT_EQ(order, (std::vector<int>{2, 3, 1, 4}));
  EXPECT_EQ(a.now(), 20u);
}

TEST(ShardedEngine, WindowedRunDrainsCrossShardPostsInOrder) {
  sim::Engine a, b;
  sim::ShardedEngine se;
  se.attach(&a);
  se.attach(&b);
  se.set_lookahead(100);

  // Each shard fires local work, then posts an event into the other
  // shard at now + lookahead — the canonical conservative handoff.
  std::atomic<int> fired{0};
  a.schedule_at(10, [&] {
    se.post(0, 1, 110, sim::Callback([&, when = Time{110}] {
              b.schedule_at_ranked(when, 10, 0, [&] { ++fired; });
            }));
  });
  b.schedule_at(30, [&] {
    se.post(1, 0, 130, sim::Callback([&, when = Time{130}] {
              a.schedule_at_ranked(when, 30, 0, [&] { ++fired; });
            }));
  });

  const Time end = se.run_windowed();
  EXPECT_EQ(fired.load(), 2);
  // Clocks land on window edges, so the final time is at or past the
  // last real event, never before it.
  EXPECT_GE(end, 130u);
  EXPECT_GE(a.now(), 130u);
  EXPECT_EQ(a.pending(), 0u);
  EXPECT_EQ(b.pending(), 0u);
}

// ----------------------------------------------------- Cluster shard clamps

net::NetworkConfig torus27(net::Routing routing) {
  net::NetworkConfig cfg;
  cfg.topology = net::TopologyKind::kTorus3D;
  cfg.routing = routing;
  cfg.nodes_hint = 27;
  cfg.link.bw = Bandwidth::gbps(100);
  cfg.seed = 7;
  return cfg;
}

TEST(ClusterSharding, SerialByDefault) {
  cluster::Cluster c(torus27(net::Routing::kStatic), nic::NicParams{});
  EXPECT_FALSE(c.sharded());
  EXPECT_EQ(c.num_shards(), 1);
}

TEST(ClusterSharding, ShardCountClampsToSwitchCount) {
  // 27 switches cannot feed 64 shards; the cluster clamps rather than
  // spinning empty workers.
  cluster::Cluster c(torus27(net::Routing::kStatic), nic::NicParams{}, 64);
  EXPECT_LE(c.num_shards(), 27);
  EXPECT_GT(c.num_shards(), 1);
}

TEST(ClusterSharding, ShardedClusterPartitionsNodes) {
  cluster::Cluster c(torus27(net::Routing::kStatic), nic::NicParams{}, 3);
  ASSERT_EQ(c.num_shards(), 3);
  EXPECT_GT(c.lookahead(), 0u);
  int counts[3] = {0, 0, 0};
  for (net::NodeId n = 0; n < c.num_nodes(); ++n) {
    const int s = c.shard_of_node(n);
    ASSERT_GE(s, 0);
    ASSERT_LT(s, 3);
    ++counts[s];
    // engine_for must agree with the shard map.
    EXPECT_EQ(&c.engine_for(n), &c.engine_for_shard(s));
  }
  for (int s = 0; s < 3; ++s) EXPECT_GT(counts[s], 0);
}

// ------------------------------------------- windowed == serial, bit-exact

Halo3DConfig halo27() {
  Halo3DConfig cfg;
  cfg.px = cfg.py = cfg.pz = 3;
  cfg.nx = cfg.ny = cfg.nz = 8;
  cfg.iterations = 2;
  cfg.compute_per_cell = 0;
  return cfg;
}

/// Everything a motif run observes, minus engine_events (sharded runs
/// execute extra window-boundary bookkeeping events; DESIGN.md §12).
struct Observed {
  MotifResult result;
  net::FabricStats fabric;
};

template <typename MakeTransport>
Observed run_halo(int par_shards, MakeTransport make,
                  net::Routing routing = net::Routing::kStatic) {
  cluster::Cluster cluster(torus27(routing), nic::NicParams{}, par_shards);
  EXPECT_EQ(cluster.num_shards(), par_shards);
  auto transport = make(cluster);
  Observed obs;
  obs.result = MotifRunner(cluster, *transport, build_halo3d(halo27())).run();
  obs.fabric = cluster.fabric_stats();
  return obs;
}

auto make_rvma = [](cluster::Cluster& c) {
  return std::make_unique<RvmaTransport>(c, core::RvmaParams{});
};
auto make_rdma = [](cluster::Cluster& c) {
  // ordered_network: the test fabric is statically routed.
  return std::make_unique<RdmaTransport>(c, rdma::RdmaParams{}, true);
};
auto make_rdma_adaptive = [](cluster::Cluster& c) {
  // Unordered fabric: the trailing completion send rides every message.
  return std::make_unique<RdmaTransport>(c, rdma::RdmaParams{}, false);
};

void expect_identical(const Observed& serial, const Observed& sharded) {
  EXPECT_EQ(serial.result.makespan, sharded.result.makespan);
  EXPECT_EQ(serial.result.setup_done, sharded.result.setup_done);
  EXPECT_EQ(serial.result.ops_executed, sharded.result.ops_executed);
  EXPECT_EQ(serial.result.transport.data_messages,
            sharded.result.transport.data_messages);
  EXPECT_EQ(serial.result.transport.control_messages,
            sharded.result.transport.control_messages);
  EXPECT_EQ(serial.result.transport.credit_stalls,
            sharded.result.transport.credit_stalls);
  EXPECT_EQ(serial.fabric.packets_injected, sharded.fabric.packets_injected);
  EXPECT_EQ(serial.fabric.packets_delivered, sharded.fabric.packets_delivered);
  EXPECT_EQ(serial.fabric.total_hops, sharded.fabric.total_hops);
  EXPECT_EQ(serial.fabric.wire_bytes_delivered,
            sharded.fabric.wire_bytes_delivered);
  EXPECT_EQ(serial.fabric.max_port_backlog, sharded.fabric.max_port_backlog);
}

TEST(PdesExactness, RvmaWindowedMatchesSerial) {
  const Observed serial = run_halo(1, make_rvma);
  for (int k : {2, 3}) {
    SCOPED_TRACE(k);
    const Observed sharded = run_halo(k, make_rvma);
    expect_identical(serial, sharded);
  }
}

TEST(PdesExactness, RdmaWindowedMatchesSerial) {
  // RDMA's small credit/control messages create dense equal-time
  // collisions between cross-shard and local events — the content
  // tie-break's hardest case.
  const Observed serial = run_halo(1, make_rdma);
  for (int k : {2, 3}) {
    SCOPED_TRACE(k);
    const Observed sharded = run_halo(k, make_rdma);
    expect_identical(serial, sharded);
  }
}

TEST(PdesExactness, AdaptiveRoutingShardsAndMatchesSerial) {
  // Adaptive routing reads only the packet and the deciding switch's own
  // port backlogs, so an adaptive cluster really runs K shards (run_halo
  // asserts num_shards() == K) and reproduces the serial run exactly.
  const auto adaptive = net::Routing::kAdaptive;
  const Observed rvma_serial = run_halo(1, make_rvma, adaptive);
  const Observed rdma_serial = run_halo(1, make_rdma_adaptive, adaptive);
  for (int k : {2, 3}) {
    SCOPED_TRACE(k);
    expect_identical(rvma_serial, run_halo(k, make_rvma, adaptive));
    expect_identical(rdma_serial, run_halo(k, make_rdma_adaptive, adaptive));
  }
}

TEST(PdesExactness, ShardedRunsReplayIdentically) {
  const Observed a = run_halo(3, make_rvma);
  const Observed b = run_halo(3, make_rvma);
  EXPECT_EQ(a.result.makespan, b.result.makespan);
  EXPECT_EQ(a.result.engine_events, b.result.engine_events);
  EXPECT_EQ(a.fabric.total_hops, b.fabric.total_hops);
}

}  // namespace
}  // namespace rvma
