// Algebraic-routing equivalence: the O(1) coordinate arithmetic in
// static_next_hop must agree with route(kStatic) — the oracle that builds
// the materialized LUT — for every topology, every switch, and every
// destination. Exhaustive up to 256 nodes, splitmix64-sampled at the
// 4,096- and 8,192-node paper scales, plus the end-to-end gate: a fig8
// mini-grid is bit-identical under algebraic and materialized route
// tables at jobs=1, jobs=4, and par_shards=2.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "net/topologies.hpp"
#include "net/topology.hpp"
#include "scenario/figure_grid.hpp"
#include "scenario/spec.hpp"
#include "sim/engine.hpp"

namespace rvma::net {
namespace {

NetworkConfig config_for(TopologyKind kind, int nodes, int concentration) {
  NetworkConfig cfg;
  cfg.topology = kind;
  cfg.routing = Routing::kStatic;
  cfg.nodes_hint = nodes;
  cfg.concentration = concentration;
  cfg.seed = 99;
  return cfg;
}

/// A built topology + fabric pair the oracle route() can run against.
struct BuiltTopo {
  sim::Engine engine;
  Fabric fabric;
  std::unique_ptr<Topology> topo;

  explicit BuiltTopo(const NetworkConfig& cfg) : fabric(engine, nullptr) {
    topo = make_topology(cfg);
    const TopologyFootprint fp = topo->footprint();
    fabric.reserve(fp.switches, fp.ports, fp.nodes);
    topo->build(fabric);
    fabric.check_wired();
  }
};

void expect_hop_matches(BuiltTopo& bt, int sw, NodeId dst) {
  Packet probe;
  probe.dst = dst;
  const int oracle = bt.topo->route(bt.fabric, sw, probe, Routing::kStatic);
  const int algebraic = bt.topo->static_next_hop(sw, dst);
  ASSERT_EQ(oracle, algebraic)
      << bt.topo->num_nodes() << " nodes, sw=" << sw << " dst=" << dst;
}

void check_exhaustive(const NetworkConfig& cfg) {
  BuiltTopo bt(cfg);
  const int nodes = bt.topo->num_nodes();
  const int switches = bt.fabric.num_switches();
  ASSERT_LE(nodes, 256) << "exhaustive check meant for small machines";
  for (NodeId dst = 0; dst < nodes; ++dst) {
    const int dst_sw = bt.fabric.switch_of_node(dst);
    for (int sw = 0; sw < switches; ++sw) {
      if (sw == dst_sw) continue;  // ejection precedes routing
      expect_hop_matches(bt, sw, dst);
    }
  }
}

void check_sampled(const NetworkConfig& cfg, int samples) {
  BuiltTopo bt(cfg);
  const int nodes = bt.topo->num_nodes();
  const int switches = bt.fabric.num_switches();
  std::uint64_t state = cfg.seed ^ 0xa1beb7a1ULL;
  for (int i = 0; i < samples; ++i) {
    const int sw = static_cast<int>(splitmix64(state) %
                                    static_cast<std::uint64_t>(switches));
    const NodeId dst = static_cast<NodeId>(
        splitmix64(state) % static_cast<std::uint64_t>(nodes));
    if (sw == bt.fabric.switch_of_node(dst)) continue;
    expect_hop_matches(bt, sw, dst);
  }
}

TEST(RoutingAlgebra, ExhaustiveSmallMachines) {
  // Torus 4x4x4 at two concentrations (node->switch division changes).
  check_exhaustive(config_for(TopologyKind::kTorus3D, 64, 1));
  check_exhaustive(config_for(TopologyKind::kTorus3D, 256, 4));
  // Fat-tree k=8: 128 nodes, 80 switches, all three levels exercised.
  check_exhaustive(config_for(TopologyKind::kFatTree, 128, 1));
  // Dragonfly h=2 (p=2, a=4, g=9): 72 nodes.
  check_exhaustive(config_for(TopologyKind::kDragonfly, 72, 1));
  // HyperX 8x8 with 4 nodes per switch.
  check_exhaustive(config_for(TopologyKind::kHyperX, 256, 4));
}

TEST(RoutingAlgebra, SampledPaperScale) {
  const int kSamples = 20000;
  // 4,096 nodes: torus 16x16x16, hyperx 64x64, fat-tree k=26 -> 4394.
  check_sampled(config_for(TopologyKind::kTorus3D, 4096, 1), kSamples);
  check_sampled(config_for(TopologyKind::kHyperX, 4096, 1), kSamples);
  check_sampled(config_for(TopologyKind::kFatTree, 4096, 1), kSamples);
  check_sampled(config_for(TopologyKind::kDragonfly, 4096, 1), kSamples);
  // 8,192 nodes (the Fig 7/8 paper scale), concentrated variants too.
  check_sampled(config_for(TopologyKind::kTorus3D, 8192, 2), kSamples);
  check_sampled(config_for(TopologyKind::kHyperX, 8192, 2), kSamples);
  check_sampled(config_for(TopologyKind::kFatTree, 8192, 1), kSamples);
  check_sampled(config_for(TopologyKind::kDragonfly, 8192, 1), kSamples);
}

TEST(RoutingAlgebra, RouteTableBytes) {
  // Algebraic mode keeps zero resident route-table bytes; the materialized
  // ablation pays the full S*N*4. Both build the same wiring.
  sim::Engine e1, e2;
  NetworkConfig cfg = config_for(TopologyKind::kTorus3D, 512, 1);
  Network algebraic(e1, cfg);
  EXPECT_EQ(algebraic.fabric().route_table_bytes(), 0u);
  EXPECT_TRUE(algebraic.fabric().has_static_routes());

  cfg.route_table = RouteTable::kMaterialized;
  Network materialized(e2, cfg);
  const std::size_t switches =
      static_cast<std::size_t>(materialized.fabric().num_switches());
  const std::size_t nodes =
      static_cast<std::size_t>(materialized.num_nodes());
  EXPECT_EQ(materialized.fabric().route_table_bytes(),
            switches * nodes * sizeof(std::int32_t));
  EXPECT_TRUE(materialized.fabric().has_static_routes());
}

}  // namespace
}  // namespace rvma::net

namespace rvma::scenario {
namespace {

GridSpec mini_grid(const std::string& route_table, int par_shards) {
  GridSpec grid;
  grid.figure = "test";
  grid.motif_label = "Halo3D";
  grid.base.nodes = 8;
  grid.base.motif = "halo3d";
  grid.base.motif_params = {{"nx", "8"},    {"ny", "8"},
                            {"nz", "8"},    {"vars", "2"},
                            {"iterations", "2"}, {"compute_per_cell", "50ps"}};
  grid.base.route_table = route_table;
  grid.base.par_shards = par_shards;
  grid.gbps = {100, 400};
  grid.cases = {"torus3d-static", "torus3d-adaptive", "fattree-static"};
  return grid;
}

void expect_grids_equal(const GridSpec& a, int jobs_a, const GridSpec& b,
                        int jobs_b) {
  std::vector<GridCell> cells_a, cells_b;
  std::string error;
  ASSERT_TRUE(run_grid(a, jobs_a, &cells_a, &error)) << error;
  ASSERT_TRUE(run_grid(b, jobs_b, &cells_b, &error)) << error;
  ASSERT_EQ(cells_a.size(), cells_b.size());
  for (std::size_t i = 0; i < cells_a.size(); ++i) {
    EXPECT_EQ(cells_a[i], cells_b[i]) << "cell " << i;
    EXPECT_GT(cells_a[i].rvma.packets_delivered, 0u) << "cell " << i;
  }
}

TEST(RoutingAlgebra, Fig8GridIdenticalUnderMaterializedLut) {
  // The ablation axis: algebraic vs materialized must not move a single
  // simulated quantity, serial or fanned out.
  expect_grids_equal(mini_grid("algebraic", 1), 1, mini_grid("materialized", 1),
                     1);
  expect_grids_equal(mini_grid("algebraic", 1), 4, mini_grid("materialized", 1),
                     4);
}

TEST(RoutingAlgebra, Fig8GridIdenticalUnderShardedMaterializedLut) {
  // Cross the ablation with PDES sharding: materialized shards replicate
  // the LUT per shard, algebraic shards share nothing — same bytes out.
  expect_grids_equal(mini_grid("algebraic", 2), 1, mini_grid("materialized", 2),
                     1);
}

}  // namespace
}  // namespace rvma::scenario
