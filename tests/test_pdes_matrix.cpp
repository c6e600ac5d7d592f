// Per-shard-pair lookahead matrix tests (DESIGN.md §12): the min-plus
// closure helpers, the Cluster's matrix construction over non-uniform
// link latencies, unreachable (+inf) pairs in a hand-built ShardedEngine,
// bit-identity of windowed runs against serial across every topology at
// K in {2, 3, 5} under static and adaptive routing (RVMA and RDMA
// transports), and the windows_executed regression the matrix buys
// over the scalar global-minimum lookahead on a wavefront workload.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cluster/cluster.hpp"
#include "motifs/halo3d.hpp"
#include "motifs/rdma_transport.hpp"
#include "motifs/runner.hpp"
#include "motifs/rvma_transport.hpp"
#include "motifs/sweep3d.hpp"
#include "net/topology.hpp"
#include "sim/engine.hpp"
#include "sim/sharded_engine.hpp"

namespace rvma {
namespace {

using motifs::build_halo3d;
using motifs::build_sweep3d;
using motifs::Halo3DConfig;
using motifs::MotifResult;
using motifs::MotifRunner;
using motifs::RdmaTransport;
using motifs::RvmaTransport;
using motifs::Sweep3DConfig;

// ------------------------------------------------------- min-plus closure

TEST(LookaheadClosure, TransitivePathsTightenDirectEntries) {
  // The DESIGN.md §12 counterexample: a -> b -> c chains with total
  // latency 2 while the direct a -> c link costs 100. An unclosed matrix
  // would let c run 100 ahead of a — closure must tighten it to 2.
  constexpr Time inf = kTimeInfinity;
  std::vector<Time> la = {
      0, 1, 100,  //
      inf, 0, 1,  //
      inf, inf, 0,
  };
  net::close_min_latency_matrix(la, 3);
  EXPECT_EQ(la[0 * 3 + 1], 1u);
  EXPECT_EQ(la[0 * 3 + 2], 2u);  // through b, not the direct 100
  EXPECT_EQ(la[1 * 3 + 2], 1u);
  // Unreachable stays unreachable; infinity is absorbing, not wrapping.
  EXPECT_EQ(la[1 * 3 + 0], inf);
  EXPECT_EQ(la[2 * 3 + 0], inf);
  EXPECT_EQ(la[2 * 3 + 1], inf);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(la[i * 3 + i], 0u);
}

TEST(LookaheadClosure, SatisfiesTriangleInequality) {
  constexpr Time inf = kTimeInfinity;
  std::vector<Time> la = {
      0,   7,   inf, 40,  //
      3,   0,   9,   inf,  //
      inf, 2,   0,   5,   //
      1,   inf, 60,  0,
  };
  net::close_min_latency_matrix(la, 4);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      for (int m = 0; m < 4; ++m) {
        const Time im = la[i * 4 + m], mj = la[m * 4 + j];
        if (im == inf || mj == inf) continue;
        EXPECT_LE(la[i * 4 + j], im + mj) << i << "->" << m << "->" << j;
      }
    }
  }
}

// ------------------------------------------- Cluster matrix construction

TEST(ClusterLookaheadMatrix, TorusSlabsCloseOverShardDistance) {
  // A 4x4x4 torus cut into 4 slabs along x: adjacent slabs cross with one
  // link latency L, and the wrap-around ring makes shard 0 and shard 3
  // adjacent too, so the closed distance between slabs i and j is
  // min(|i-j|, 4 - |i-j|) * L.
  net::NetworkConfig cfg;
  cfg.topology = net::TopologyKind::kTorus3D;
  cfg.routing = net::Routing::kStatic;
  cfg.nodes_hint = 64;
  cluster::Cluster c(cfg, nic::NicParams{}, 4);
  ASSERT_EQ(c.num_shards(), 4);
  const Time l = cfg.link.latency;
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      const int d = i > j ? i - j : j - i;
      const int ring = d < 4 - d ? d : 4 - d;
      EXPECT_EQ(c.lookahead(i, j), static_cast<Time>(ring) * l)
          << i << "->" << j;
    }
  }
  // The scalar baseline equals the matrix minimum: one link crossing.
  EXPECT_EQ(c.lookahead(), l);
}

TEST(ClusterLookaheadMatrix, LongWrapLinksWidenFarPairs) {
  // With 10x wrap-around links the ring shortcut through the long wire is
  // no longer free: shard 0 -> 3 now costs min(3L, Llong) and the matrix
  // is no longer the uniform ring metric.
  net::NetworkConfig cfg;
  cfg.topology = net::TopologyKind::kTorus3D;
  cfg.routing = net::Routing::kStatic;
  cfg.nodes_hint = 64;
  cfg.long_link_latency = 10 * cfg.link.latency;
  cluster::Cluster c(cfg, nic::NicParams{}, 4);
  ASSERT_EQ(c.num_shards(), 4);
  const Time l = cfg.link.latency;
  EXPECT_EQ(c.lookahead(0, 1), l);
  EXPECT_EQ(c.lookahead(0, 2), 2 * l);
  EXPECT_EQ(c.lookahead(0, 3), 3 * l);  // 3 local hops beat the 10L wrap
  EXPECT_EQ(c.lookahead(3, 0), 3 * l);
  EXPECT_EQ(c.lookahead(), l);
}

// --------------------------------------------- unreachable (+inf) pairs

TEST(ShardedEngineMatrix, UnreachablePairNeverConstrainsWindow) {
  // Hand-built two-shard machine where shard 1 can never influence shard
  // 0 (la[1][0] = +inf): shard 0's window must be unbounded — it runs its
  // entire timeline in one window — while shard 1 stays conservatively
  // windowed behind shard 0's posts. The matrix is trivially path-closed.
  sim::Engine a, b;
  sim::ShardedEngine se;
  se.attach(&a);
  se.attach(&b);
  se.set_lookahead_matrix({0, 100, kTimeInfinity, 0});
  EXPECT_TRUE(se.lookahead_is_matrix());
  EXPECT_EQ(se.lookahead(1, 0), kTimeInfinity);
  EXPECT_EQ(se.lookahead(0, 1), 100u);

  int fired = 0;
  for (Time t : {Time{10}, Time{500}, Time{90000}}) {
    a.schedule_at(t, [&, t] {
      se.post(0, 1, t + 100, sim::Callback([&, when = t + 100] {
                b.schedule_at_ranked(when, 0, 0, [&] { ++fired; });
              }));
    });
  }
  b.schedule_at(5, [&] { ++fired; });

  const Time end = se.run_windowed();
  EXPECT_EQ(fired, 4);
  EXPECT_GE(end, 90100u);
  EXPECT_EQ(a.pending(), 0u);
  EXPECT_EQ(b.pending(), 0u);
}

// ------------------------------- bit-identity across topologies and K

net::NetworkConfig topo_cfg(net::TopologyKind kind,
                            net::Routing routing = net::Routing::kStatic) {
  net::NetworkConfig cfg;
  cfg.topology = kind;
  cfg.routing = routing;
  cfg.nodes_hint = 64;
  // Non-uniform latencies: the long tier (torus wrap, dragonfly global,
  // fat-tree agg<->core, hyperx dim-1) at 7x — the matrix's entries then
  // genuinely differ per pair, which is the case worth gating.
  cfg.long_link_latency = 700 * kNanosecond;
  cfg.seed = 7;
  return cfg;
}

struct Observed {
  MotifResult result;
  net::FabricStats fabric;
  int shards = 1;
};

enum class Wire { kRvma, kRdma };

Observed run_halo(net::TopologyKind kind, int par_shards,
                  net::Routing routing = net::Routing::kStatic,
                  Wire wire = Wire::kRvma) {
  cluster::Cluster cluster(topo_cfg(kind, routing), nic::NicParams{},
                           par_shards);
  std::unique_ptr<motifs::Transport> transport;
  if (wire == Wire::kRvma) {
    transport = std::make_unique<RvmaTransport>(cluster, core::RvmaParams{});
  } else {
    transport = std::make_unique<RdmaTransport>(
        cluster, rdma::RdmaParams{}, routing == net::Routing::kStatic);
  }
  Halo3DConfig halo;
  halo.px = halo.py = halo.pz = 4;  // 64 ranks
  halo.nx = halo.ny = halo.nz = 4;
  halo.iterations = 2;
  halo.compute_per_cell = 0;
  Observed obs;
  obs.result = MotifRunner(cluster, *transport, build_halo3d(halo)).run();
  obs.fabric = cluster.fabric_stats();
  obs.shards = cluster.num_shards();
  return obs;
}

void expect_identical(const Observed& serial, const Observed& sharded) {
  EXPECT_EQ(serial.result.makespan, sharded.result.makespan);
  EXPECT_EQ(serial.result.ops_executed, sharded.result.ops_executed);
  EXPECT_EQ(serial.result.transport.data_messages,
            sharded.result.transport.data_messages);
  EXPECT_EQ(serial.result.transport.control_messages,
            sharded.result.transport.control_messages);
  EXPECT_EQ(serial.fabric.packets_injected, sharded.fabric.packets_injected);
  EXPECT_EQ(serial.fabric.packets_delivered,
            sharded.fabric.packets_delivered);
  EXPECT_EQ(serial.fabric.total_hops, sharded.fabric.total_hops);
  EXPECT_EQ(serial.fabric.wire_bytes_delivered,
            sharded.fabric.wire_bytes_delivered);
  EXPECT_EQ(serial.fabric.max_port_backlog, sharded.fabric.max_port_backlog);
}

constexpr net::TopologyKind kAllTopologies[] = {
    net::TopologyKind::kStar, net::TopologyKind::kTorus3D,
    net::TopologyKind::kFatTree, net::TopologyKind::kDragonfly,
    net::TopologyKind::kHyperX};

TEST(PdesMatrixExactness, AllTopologiesMatchSerialAtK235) {
  for (net::TopologyKind kind : kAllTopologies) {
    SCOPED_TRACE(static_cast<int>(kind));
    const Observed serial = run_halo(kind, 1);
    for (int k : {2, 3, 5}) {
      SCOPED_TRACE(k);
      const Observed sharded = run_halo(kind, k);
      expect_identical(serial, sharded);
    }
  }
}

TEST(PdesMatrixExactness, AdaptiveRoutingMatchesSerialAtK235) {
  // Adaptive routing shards too: every decision reads only the packet
  // (the dragonfly's Valiant group is a draw keyed on packet content) and
  // its own switch's port backlogs, so windowed runs stay exact for both
  // the RVMA and the RDMA transport. Star has one switch and clamps to
  // serial; every other topology must really run K shards.
  for (net::TopologyKind kind : kAllTopologies) {
    for (Wire wire : {Wire::kRvma, Wire::kRdma}) {
      SCOPED_TRACE(static_cast<int>(kind) * 10 + static_cast<int>(wire));
      const Observed serial = run_halo(kind, 1, net::Routing::kAdaptive, wire);
      for (int k : {2, 3, 5}) {
        SCOPED_TRACE(k);
        const Observed sharded =
            run_halo(kind, k, net::Routing::kAdaptive, wire);
        if (kind != net::TopologyKind::kStar) {
          EXPECT_EQ(sharded.shards, k);
        }
        expect_identical(serial, sharded);
      }
    }
  }
}

// ------------------------- dragonfly Valiant draw is shard-invariant

/// One delivered packet as the destination NIC would see it: its identity,
/// the Valiant group it committed to (rt_aux: >= 0 detoured, -2 minimal)
/// and when and over how many hops it arrived.
struct Delivered {
  net::MsgId id = 0;
  std::uint32_t seq = 0;
  std::int32_t valiant = -1;
  std::uint16_t hops = 0;
  Time at = 0;
  bool operator==(const Delivered&) const = default;
};

/// Every node sends `pkts` 2 KiB packets to the same-index node of the
/// next group at t=0, so each group's single global link to its neighbour
/// saturates and UGAL has a reason to detour. Returns per-node delivery
/// logs in arrival order.
std::vector<std::vector<Delivered>> run_dragonfly_neighbour_flood(
    int par_shards, int pkts) {
  net::NetworkConfig cfg;
  cfg.topology = net::TopologyKind::kDragonfly;
  cfg.routing = net::Routing::kAdaptive;
  cfg.df_p = 2;
  cfg.df_a = 4;
  cfg.df_h = 2;  // 9 groups x 4 switches x 2 nodes = 72
  cfg.seed = 7;
  cluster::Cluster cluster(cfg, nic::NicParams{}, par_shards);
  EXPECT_EQ(cluster.num_shards(), par_shards);
  const int n = cluster.num_nodes();
  const int group_nodes = cfg.df_a * cfg.df_p;
  // One log per node, written only by the shard thread owning that node.
  std::vector<std::vector<Delivered>> log(static_cast<std::size_t>(n));
  for (net::NodeId node = 0; node < n; ++node) {
    sim::Engine& eng = cluster.engine_for(node);
    cluster.network_for(node).set_delivery(
        node, [&log, &eng, node](net::Packet&& pkt) {
          log[static_cast<std::size_t>(node)].push_back(
              {pkt.msg->id, pkt.seq, pkt.rt_aux, pkt.hops, eng.now()});
        });
  }
  for (net::NodeId src = 0; src < n; ++src) {
    const net::NodeId dst = (src + group_nodes) % n;
    net::Network& net = cluster.network_for(src);
    cluster.engine_for(src).schedule_at(0, [&net, src, dst, pkts] {
      for (int i = 0; i < pkts; ++i) {
        net::Message msg;
        msg.src = src;
        msg.dst = dst;
        msg.id = (static_cast<net::MsgId>(src) << 40) |
                 static_cast<net::MsgId>(i + 1);
        msg.bytes = 2048;
        net::Packet pkt;
        pkt.src = src;
        pkt.dst = dst;
        pkt.msg = net::MsgRef::make(std::move(msg));
        pkt.bytes = 2048;
        net.inject(std::move(pkt));
      }
    });
  }
  if (cluster.sharded()) {
    cluster.sharded_engine().run_windowed();
  } else {
    cluster.engine().run();
  }
  return log;
}

TEST(DragonflyValiant, ChoiceIsShardInvariantAndTakenUnderCongestion) {
  const auto serial = run_dragonfly_neighbour_flood(1, 24);
  const auto sharded = run_dragonfly_neighbour_flood(3, 24);
  ASSERT_EQ(serial.size(), sharded.size());
  std::size_t delivered = 0, detoured = 0;
  for (std::size_t node = 0; node < serial.size(); ++node) {
    SCOPED_TRACE(node);
    // Same packets, same arrival order and instants, same Valiant group.
    EXPECT_EQ(serial[node], sharded[node]);
    delivered += serial[node].size();
    for (const Delivered& d : serial[node]) {
      if (d.valiant >= 0) ++detoured;
    }
  }
  EXPECT_EQ(delivered, serial.size() * 24);
  // The saturated neighbour links push some packets onto Valiant paths.
  EXPECT_GT(detoured, 0u);
}

// ------------------------------------- windows regression vs scalar mode

TEST(PdesMatrixWindows, WavefrontNeedsStrictlyFewerWindowsThanScalar) {
  // A KBA sweep keeps only the wavefront diagonal busy; the matrix's
  // self-exclusion lets the active shard run ahead while idle shards
  // publish +inf, so barrier rounds drop. The scalar ablation pins every
  // shard — including the global minimum's holder — to min + lookahead.
  // Both counts are deterministic, so strict inequality is a hard gate.
  net::NetworkConfig cfg;
  cfg.topology = net::TopologyKind::kDragonfly;
  cfg.routing = net::Routing::kStatic;
  cfg.nodes_hint = 64;
  cfg.long_link_latency = 1000 * kNanosecond;
  cfg.seed = 7;

  Sweep3DConfig sweep;
  sweep.pex = sweep.pey = 8;  // 64 ranks
  sweep.nx = sweep.ny = 8;
  sweep.nz = 16;
  sweep.kba = 4;

  auto run_once = [&](bool scalar) {
    cluster::Cluster cluster(cfg, nic::NicParams{}, 4);
    EXPECT_EQ(cluster.num_shards(), 4);
    if (scalar) {
      cluster.sharded_engine().set_lookahead(cluster.lookahead());
      EXPECT_FALSE(cluster.sharded_engine().lookahead_is_matrix());
    } else {
      EXPECT_TRUE(cluster.sharded_engine().lookahead_is_matrix());
    }
    RvmaTransport transport(cluster, core::RvmaParams{});
    const MotifResult result =
        MotifRunner(cluster, transport, build_sweep3d(sweep)).run();
    return std::pair<Time, std::uint64_t>(
        result.makespan, cluster.sharded_engine().windows_executed());
  };

  const auto [makespan_matrix, windows_matrix] = run_once(/*scalar=*/false);
  const auto [makespan_scalar, windows_scalar] = run_once(/*scalar=*/true);
  EXPECT_EQ(makespan_matrix, makespan_scalar);
  EXPECT_LT(windows_matrix, windows_scalar);
}

}  // namespace
}  // namespace rvma
