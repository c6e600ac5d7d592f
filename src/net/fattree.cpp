#include "net/topologies.hpp"

namespace rvma::net {

FatTreeTopology::FatTreeTopology(const NetworkConfig& config) : config_(config) {
  k_ = config.fat_k;
  if (k_ == 0) {
    k_ = 2;
    while (k_ * k_ * k_ / 4 < config.nodes_hint) k_ += 2;
  }
  if (k_ < 2) k_ = 2;
  if (k_ % 2 != 0) ++k_;  // arity must be even
  num_edges_ = k_ * half();
  num_aggs_ = k_ * half();
  num_cores_ = half() * half();
}

void FatTreeTopology::build(Fabric& fabric) {
  const Bandwidth xbar = config_.link.bw.scaled(config_.xbar_factor);
  const int h = half();
  // Long tier: the agg<->core links spanning the machine-room spine.
  LinkParams long_link = config_.link;
  if (config_.long_link_latency != 0) {
    long_link.latency = config_.long_link_latency;
  }
  // Pass 1 — one switch at a time, in id order (edges, aggs, cores), each
  // with ALL of its ports: the fabric's SoA port arrays require per-switch
  // contiguous blocks. Local port numbering matches the pre-SoA builder:
  //   Edge ports 0..h-1: uplinks to the pod's aggregation switches;
  //     ports h..k-1: ejection links to the edge's h nodes.
  //   Agg ports 0..h-1: downlinks to edges; ports h..k-1: uplinks to cores.
  //   Core ports 0..k-1: downlinks, one per pod.
  const int nodes_per_pod = h * h;
  for (int sw = 0; sw < num_edges_; ++sw) {
    fabric.add_switch(config_.switch_latency, xbar);
    for (int p = 0; p < h; ++p) fabric.add_port(sw, config_.link);
    const int pod = sw / h, e = sw % h;
    for (int n = 0; n < h; ++n) {
      fabric.attach_node(sw, pod * nodes_per_pod + e * h + n, config_.link);
    }
  }
  for (int sw = num_edges_; sw < num_edges_ + num_aggs_; ++sw) {
    fabric.add_switch(config_.switch_latency, xbar);
    for (int p = 0; p < h; ++p) fabric.add_port(sw, config_.link);
    for (int p = h; p < k_; ++p) fabric.add_port(sw, long_link);
  }
  for (int c = 0; c < num_cores_; ++c) {
    fabric.add_switch(config_.switch_latency, xbar);
    for (int p = 0; p < k_; ++p) fabric.add_port(core_id(c), long_link);
  }

  // Pass 2 — wiring only (no port creation).
  for (int pod = 0; pod < k_; ++pod) {
    for (int e = 0; e < h; ++e) {
      for (int a = 0; a < h; ++a) {
        // Edge (pod, e) uplink a <-> agg (pod, a) downlink e.
        fabric.connect(edge_id(pod, e), a, agg_id(pod, a), e);
      }
    }
    for (int a = 0; a < h; ++a) {
      for (int j = 0; j < h; ++j) {
        const int c = a * h + j;
        // Agg (pod, a) uplink j <-> core c downlink for this pod.
        fabric.connect(agg_id(pod, a), h + j, core_id(c), pod);
      }
    }
  }
}

TopologyFootprint FatTreeTopology::footprint() const {
  return TopologyFootprint{
      num_edges_ + num_aggs_ + num_cores_,
      num_edges_ * half() + num_aggs_ * k_ + num_cores_ * k_, num_nodes()};
}

int FatTreeTopology::static_next_hop(int sw, NodeId dst) const {
  // Same D-mod-k arithmetic as route(kStatic); dst's edge switch is
  // dst / h (node = pod*h*h + e*h + n, edge id = pod*h + e).
  const int h = half();
  if (sw < num_edges_) return static_cast<int>(dst) % h;  // deterministic up
  if (sw < num_edges_ + num_aggs_) {
    const int pod = (sw - num_edges_) / h;
    const int dst_edge_sw = static_cast<int>(dst) / h;
    if (pod == dst_edge_sw / h) return dst_edge_sw % h;  // down to the edge
    return h + static_cast<int>(dst) % h;                // deterministic up
  }
  return static_cast<int>(dst) / (h * h);  // core: unique downward pod port
}

int FatTreeTopology::route(Fabric& fabric, int sw, Packet& pkt, Routing mode) {
  const int h = half();
  const int nodes_per_pod = h * h;
  const int dst = pkt.dst;
  const int dst_pod = dst / nodes_per_pod;
  const int dst_edge = (dst % nodes_per_pod) / h;

  if (sw < num_edges_) {
    // Edge switch; dst is elsewhere, so go up.
    if (mode == Routing::kStatic) return dst % h;
    int best = 0;
    Time best_backlog = kTimeInfinity;
    for (int p = 0; p < h; ++p) {
      const Time backlog = fabric.port_backlog(sw, p);
      if (backlog < best_backlog) {
        best_backlog = backlog;
        best = p;
      }
    }
    return best;
  }

  if (sw < num_edges_ + num_aggs_) {
    const int pod = (sw - num_edges_) / h;
    if (pod == dst_pod) return dst_edge;  // down to the destination edge
    if (mode == Routing::kStatic) return h + dst % h;
    int best = h;
    Time best_backlog = kTimeInfinity;
    for (int p = h; p < k_; ++p) {
      const Time backlog = fabric.port_backlog(sw, p);
      if (backlog < best_backlog) {
        best_backlog = backlog;
        best = p;
      }
    }
    return best;
  }

  // Core switch: the downward path is unique.
  return dst_pod;
}

}  // namespace rvma::net
