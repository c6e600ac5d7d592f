// Algebraic-routing equivalence: the O(1) coordinate arithmetic in
// static_next_hop — the fabric's only static-routing path — must agree
// with each topology's independent route(kStatic) for every topology,
// every switch, and every destination. Exhaustive up to 256 nodes,
// splitmix64-sampled at the 4,096- and 8,192-node paper scales. The
// fabric reads nothing else from static routing, so per-hop equality is
// what makes every static run match the reference routing byte for byte.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "net/topologies.hpp"
#include "net/topology.hpp"
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

}  // namespace
}  // namespace rvma::net
