#include <cmath>

#include "net/topologies.hpp"

namespace rvma::net {

HyperXTopology::HyperXTopology(const NetworkConfig& config)
    : config_(config), conc_(config.concentration < 1 ? 1 : config.concentration) {
  l1_ = config.hx_l1;
  l2_ = config.hx_l2;
  if (l1_ == 0 || l2_ == 0) {
    const int want = (config.nodes_hint + conc_ - 1) / conc_;
    l1_ = static_cast<int>(std::ceil(std::sqrt(static_cast<double>(want))));
    if (l1_ < 2) l1_ = 2;
    l2_ = (want + l1_ - 1) / l1_;
    if (l2_ < 2) l2_ = 2;
  }
  if (l1_ < 2) l1_ = 2;
  if (l2_ < 2) l2_ = 2;
}

void HyperXTopology::build(Fabric& fabric) {
  const Bandwidth xbar = config_.link.bw.scaled(config_.xbar_factor);
  // Long tier: dimension-1 links (the second lattice axis spans racks).
  LinkParams long_link = config_.link;
  if (config_.long_link_latency != 0) {
    long_link.latency = config_.long_link_latency;
  }
  // Pass 1 — one switch at a time, in id order, with ALL of its ports
  // (dim-0 peers, dim-1 peers, then conc_ ejection links): the fabric's
  // SoA port arrays require per-switch contiguous blocks. Local port
  // numbering is unchanged from the pre-SoA builder.
  for (int i = 0; i < l1_; ++i) {
    for (int j = 0; j < l2_; ++j) {
      const int sw = fabric.add_switch(config_.switch_latency, xbar);
      for (int p = 0; p < l1_ - 1; ++p) fabric.add_port(sw, config_.link);
      for (int p = 0; p < l2_ - 1; ++p) fabric.add_port(sw, long_link);
      for (int c = 0; c < conc_; ++c) {
        fabric.attach_node(sw, sw * conc_ + c, config_.link);
      }
    }
  }
  // Pass 2 — wiring only (no port creation).
  // Dimension 0: all-to-all among switches sharing j.
  for (int j = 0; j < l2_; ++j) {
    for (int i = 0; i < l1_; ++i) {
      for (int i2 = i + 1; i2 < l1_; ++i2) {
        fabric.connect(switch_id(i, j), dim0_port(i, i2),
                       switch_id(i2, j), dim0_port(i2, i));
      }
    }
  }
  // Dimension 1: all-to-all among switches sharing i.
  for (int i = 0; i < l1_; ++i) {
    for (int j = 0; j < l2_; ++j) {
      for (int j2 = j + 1; j2 < l2_; ++j2) {
        fabric.connect(switch_id(i, j), dim1_port(j, j2),
                       switch_id(i, j2), dim1_port(j2, j));
      }
    }
  }
}

TopologyFootprint HyperXTopology::footprint() const {
  const int switches = l1_ * l2_;
  return TopologyFootprint{switches, switches * ((l1_ - 1) + (l2_ - 1)),
                           switches * conc_};
}

int HyperXTopology::static_next_hop(int sw, NodeId dst) const {
  // Dimension-order (dim 0 first), as route(kStatic); dst's switch is
  // dst / conc_ (nodes are attached in switch-id order).
  const int dst_sw = static_cast<int>(dst) / conc_;
  const int i = sw / l2_, j = sw % l2_;
  const int di = dst_sw / l2_, dj = dst_sw % l2_;
  if (i != di) return dim0_port(i, di);
  if (j != dj) return dim1_port(j, dj);
  return -1;  // unreachable: dst attached here
}

int HyperXTopology::route(Fabric& fabric, int sw, Packet& pkt, Routing mode) {
  const int dst_sw = fabric.switch_of_node(pkt.dst);
  const int i = sw / l2_, j = sw % l2_;
  const int di = dst_sw / l2_, dj = dst_sw % l2_;

  const bool need0 = i != di;
  const bool need1 = j != dj;
  if (need0 && need1 && mode == Routing::kAdaptive) {
    const int p0 = dim0_port(i, di);
    const int p1 = dim1_port(j, dj);
    return fabric.port_backlog(sw, p0) <= fabric.port_backlog(sw, p1) ? p0 : p1;
  }
  if (need0) return dim0_port(i, di);  // static: dimension-order, dim 0 first
  if (need1) return dim1_port(j, dj);
  return -1;  // unreachable: dst attached here
}

}  // namespace rvma::net
