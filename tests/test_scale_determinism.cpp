// Scale smoke tests and determinism guarantees: multi-hundred-node motif
// runs complete correctly, identical configurations replay identically,
// and the transports' control-message accounting matches their protocols.
// Also drives the rvma_metrics binary's argument checking end to end.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include <sys/wait.h>

#include "cluster/cluster.hpp"
#include "motifs/halo3d.hpp"
#include "motifs/rdma_transport.hpp"
#include "motifs/runner.hpp"
#include "motifs/rvma_transport.hpp"
#include "motifs/sweep3d.hpp"
#include "obs/metrics_io.hpp"

namespace rvma::motifs {
namespace {

net::NetworkConfig dragonfly342(net::Routing routing) {
  net::NetworkConfig cfg;
  cfg.topology = net::TopologyKind::kDragonfly;
  cfg.routing = routing;
  cfg.df_p = 3;
  cfg.df_a = 6;
  cfg.df_h = 3;  // 19 groups * 6 switches * 3 nodes = 342
  cfg.seed = 2021;
  return cfg;
}

Halo3DConfig halo342() {
  Halo3DConfig cfg;
  cfg.px = 7;
  cfg.py = 7;
  cfg.pz = 6;  // 294 ranks on 342 nodes
  cfg.nx = cfg.ny = cfg.nz = 16;
  cfg.iterations = 2;
  cfg.compute_per_cell = 0;
  return cfg;
}

TEST(Scale, Halo3DAt294RanksOnDragonfly342) {
  Time rvma_time = 0, rdma_time = 0;
  {
    cluster::Cluster cluster(dragonfly342(net::Routing::kAdaptive),
                         nic::NicParams{});
    ASSERT_EQ(cluster.num_nodes(), 342);
    RvmaTransport transport(cluster, core::RvmaParams{});
    const MotifResult result =
        MotifRunner(cluster, transport, build_halo3d(halo342())).run();
    rvma_time = result.makespan;
    EXPECT_GT(result.ops_executed, 9000u);
    EXPECT_EQ(result.transport.control_messages, 0u);
  }
  {
    cluster::Cluster cluster(dragonfly342(net::Routing::kAdaptive),
                         nic::NicParams{});
    RdmaTransport transport(cluster, rdma::RdmaParams{}, false);
    rdma_time =
        MotifRunner(cluster, transport, build_halo3d(halo342())).run().makespan;
  }
  EXPECT_GT(rvma_time, 0u);
  EXPECT_LT(rvma_time, rdma_time);
}

TEST(Determinism, IdenticalConfigsReplayIdentically) {
  auto run_once = [] {
    cluster::Cluster cluster(dragonfly342(net::Routing::kAdaptive),
                         nic::NicParams{});
    RvmaTransport transport(cluster, core::RvmaParams{});
    Sweep3DConfig cfg;
    cfg.pex = 8;
    cfg.pey = 8;
    cfg.nz = 16;
    cfg.kba = 8;
    const MotifResult result =
        MotifRunner(cluster, transport, build_sweep3d(cfg)).run();
    return std::make_pair(result.makespan, result.engine_events);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);    // identical makespan
  EXPECT_EQ(a.second, b.second);  // identical event counts
}

TEST(Determinism, GoldenHalo3DStatsPinnedAcrossEngineRewrites) {
  // Golden values originally recorded from the seed engine (commit
  // d9148ab, std::function callbacks + std::priority_queue + per-packet
  // injection) on this exact configuration; re-pinned once when the
  // engine adopted the content-determined (time, rank, tie, seq)
  // tie-break (DESIGN.md §12) — an intentional, documented change to
  // equal-time arbitration order. The SBO-callback/slot-pool engine,
  // dense NIC dispatch, and burst fabric injection must replay this run
  // bit-identically: every timestamp, tie-break, and adaptive routing
  // decision. Any drift here means an engine change altered observable
  // simulation behaviour, not just its speed.
  cluster::Cluster cluster(dragonfly342(net::Routing::kAdaptive),
                       nic::NicParams{});
  RvmaTransport transport(cluster, core::RvmaParams{});
  const MotifResult result =
      MotifRunner(cluster, transport, build_halo3d(halo342())).run();

  EXPECT_EQ(result.makespan, 21803840u);
  EXPECT_EQ(result.engine_events, 45980u);
  EXPECT_EQ(result.ops_executed, 9576u);
  EXPECT_EQ(result.setup_done, 0u);
  EXPECT_EQ(result.transport.data_messages, 2996u);
  EXPECT_EQ(result.transport.control_messages, 0u);

  const net::FabricStats& fs = cluster.network().fabric().stats();
  EXPECT_EQ(fs.packets_delivered, 5992u);
  EXPECT_EQ(fs.wire_bytes_delivered, 24734976u);
  EXPECT_EQ(fs.total_hops, 17501u);
}

TEST(Determinism, SeedChangesAdaptiveOutcome) {
  auto run_with_seed = [](std::uint64_t seed) {
    net::NetworkConfig cfg = dragonfly342(net::Routing::kAdaptive);
    cfg.seed = seed;
    cluster::Cluster cluster(cfg, nic::NicParams{});
    RvmaTransport transport(cluster, core::RvmaParams{});
    Sweep3DConfig sweep;
    sweep.pex = 8;
    sweep.pey = 8;
    sweep.nz = 16;
    sweep.kba = 8;
    return MotifRunner(cluster, transport, build_sweep3d(sweep))
        .run()
        .makespan;
  };
  // Different seeds make different UGAL decisions (paths differ), so the
  // makespans should not be identical — the randomness is real but seeded.
  EXPECT_NE(run_with_seed(1), run_with_seed(999));
}

TEST(ControlTraffic, StaticRdmaHasNoCompletionSends) {
  Halo3DConfig cfg;
  cfg.px = cfg.py = 2;
  cfg.pz = 1;
  cfg.iterations = 2;
  cfg.nx = cfg.ny = cfg.nz = 8;

  auto control_msgs = [&](bool ordered) {
    net::NetworkConfig net_cfg;
    net_cfg.topology = net::TopologyKind::kStar;
    net_cfg.nodes_hint = cfg.ranks();
    net_cfg.routing = ordered ? net::Routing::kStatic : net::Routing::kAdaptive;
    cluster::Cluster cluster(net_cfg, nic::NicParams{});
    RdmaTransport transport(cluster, rdma::RdmaParams{}, ordered);
    return MotifRunner(cluster, transport, build_halo3d(cfg))
        .run()
        .transport.control_messages;
  };
  const auto static_msgs = control_msgs(true);
  const auto adaptive_msgs = control_msgs(false);
  // Adaptive needs one extra completion send per data message.
  const std::uint64_t data_msgs = 4u /*ranks*/ * 2 /*neighbors*/ * 2 /*iters*/;
  EXPECT_EQ(adaptive_msgs, static_msgs + data_msgs);
}

TEST(MetricsTool, DiffRejectsMalformedRelTol) {
  // Only a plain non-negative number may reach the comparison: with a
  // bare strtod, "abc" would run as tolerance 0 and "-1" would pass.
  // Anything else is a usage error (exit 2).
  obs::MetricsDoc a;
  a.totals.counters["pkts"] = 1000;
  obs::MetricsDoc b = a;
  b.totals.counters["pkts"] = 1010;  // a 1% difference
  const std::string dir = ::testing::TempDir();
  const std::string path_a = dir + "reltol_a.json";
  const std::string path_b = dir + "reltol_b.json";
  ASSERT_TRUE(obs::write_metrics_file(a, path_a));
  ASSERT_TRUE(obs::write_metrics_file(b, path_b));

  auto diff_exit = [&](const std::string& tol_arg) {
    const std::string cmd = std::string(RVMA_METRICS_BIN) + " diff " +
                            path_a + " " + path_b + " '" + tol_arg +
                            "' > /dev/null 2>&1";
    const int status = std::system(cmd.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  };
  EXPECT_EQ(diff_exit("--rel-tol=0.05"), 0);  // within tolerance
  EXPECT_EQ(diff_exit("--rel-tol=0.001"), 1);  // flagged difference
  EXPECT_EQ(diff_exit("--rel-tol=0"), 1);
  for (const char* bad : {"--rel-tol=abc", "--rel-tol=0.05x", "--rel-tol=-1",
                          "--rel-tol=", "--rel-tol=nan"}) {
    EXPECT_EQ(diff_exit(bad), 2) << bad;
  }
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

}  // namespace
}  // namespace rvma::motifs
