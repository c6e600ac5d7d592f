#include "net/topology.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "net/topologies.hpp"

namespace rvma::net {

std::string to_string(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kStar: return "star";
    case TopologyKind::kTorus3D: return "torus3d";
    case TopologyKind::kFatTree: return "fattree";
    case TopologyKind::kDragonfly: return "dragonfly";
    case TopologyKind::kHyperX: return "hyperx";
  }
  return "?";
}

std::string to_string(Routing routing) {
  return routing == Routing::kStatic ? "static" : "adaptive";
}

std::unique_ptr<Topology> make_topology(const NetworkConfig& config) {
  switch (config.topology) {
    case TopologyKind::kStar:
      return std::make_unique<StarTopology>(config);
    case TopologyKind::kTorus3D:
      return std::make_unique<Torus3DTopology>(config);
    case TopologyKind::kFatTree:
      return std::make_unique<FatTreeTopology>(config);
    case TopologyKind::kDragonfly:
      return std::make_unique<DragonflyTopology>(config);
    case TopologyKind::kHyperX:
      return std::make_unique<HyperXTopology>(config);
  }
  throw std::invalid_argument("unknown topology kind");
}

std::vector<Time> cross_shard_min_latency(
    const Fabric& fabric, const std::vector<std::int32_t>& shard_of_switch,
    int num_shards) {
  const std::size_t k = static_cast<std::size_t>(num_shards);
  std::vector<Time> la(k * k, kTimeInfinity);
  const int num_sw = fabric.num_switches();
  for (int sw = 0; sw < num_sw; ++sw) {
    const std::size_t src =
        static_cast<std::size_t>(shard_of_switch[static_cast<std::size_t>(sw)]);
    const int ports = fabric.switch_num_ports(sw);
    for (int p = 0; p < ports; ++p) {
      const std::int32_t peer = fabric.port_peer_switch(sw, p);
      if (peer < 0) continue;
      const std::size_t dst = static_cast<std::size_t>(
          shard_of_switch[static_cast<std::size_t>(peer)]);
      if (src == dst) continue;
      la[src * k + dst] =
          std::min(la[src * k + dst], fabric.port_link(sw, p).latency);
    }
  }
  return la;
}

void close_min_latency_matrix(std::vector<Time>& la, int num_shards) {
  const std::size_t k = static_cast<std::size_t>(num_shards);
  assert(la.size() == k * k);
  const auto sat_add = [](Time a, Time b) {
    return (kTimeInfinity - a < b) ? kTimeInfinity : a + b;
  };
  for (std::size_t i = 0; i < k; ++i) la[i * k + i] = 0;
  for (std::size_t m = 0; m < k; ++m) {
    for (std::size_t i = 0; i < k; ++i) {
      const Time im = la[i * k + m];
      if (im == kTimeInfinity) continue;
      for (std::size_t j = 0; j < k; ++j) {
        const Time cand = sat_add(im, la[m * k + j]);
        if (cand < la[i * k + j]) la[i * k + j] = cand;
      }
    }
  }
}

Network::Network(sim::Engine& engine, const NetworkConfig& config,
                 obs::MetricsRegistry* metrics)
    : config_(config), fabric_(engine, metrics) {
  topology_ = make_topology(config_);
  const TopologyFootprint fp = topology_->footprint();
  fabric_.reserve(fp.switches, fp.ports, fp.nodes);
  topology_->build(fabric_);
  fabric_.check_wired();
  fabric_.set_router([this](int sw, const Packet& pkt) {
    // route() may stash per-packet state (Valiant detours), so cast away
    // the const the Fabric::Router signature imposes on transit packets.
    return topology_->route(fabric_, sw, const_cast<Packet&>(pkt),
                            config_.routing);
  });
  assert(config_.route_table == RouteTable::kAlgebraic &&
         "static next hops are always computed, never tabled");
  if (config_.routing == Routing::kStatic) {
    // Static routes depend only on (switch, dst) — every topology's
    // static mode is deterministic and consults no per-packet state — so
    // the next hop is pure O(1) arithmetic on (switch, dst) coordinates
    // (static_next_hop), resolved without the per-hop std::function
    // dispatch. topology_ outlives fabric_ callbacks: both die with this
    // Network, and the fabric never routes after destruction begins.
    fabric_.set_algebraic_routes(
        +[](const void* ctx, int sw, NodeId dst) {
          return static_cast<const Topology*>(ctx)->static_next_hop(sw, dst);
        },
        topology_.get());
    fabric_.set_express_enabled(config_.express);
  }
}

}  // namespace rvma::net
