// Concrete topology classes. Most callers go through Network/make_topology;
// these are exposed so tests can exercise wiring and routing directly.
#pragma once

#include "net/topology.hpp"

namespace rvma::net {

/// All nodes on one switch. Used by the two-node microbenchmark figures
/// (Figures 4-6) where topology is not under study.
class StarTopology final : public Topology {
 public:
  explicit StarTopology(const NetworkConfig& config);

  int num_nodes() const override { return nodes_; }
  void build(Fabric& fabric) override;
  int route(Fabric&, int, Packet&, Routing) override;
  /// Never consulted: every destination is on the single switch, so the
  /// fabric always takes the ejection path before routing. Declaring the
  /// topology algebraic keeps static-mode semantics (express eligibility,
  /// sequence reservation) identical with zero route-table bytes.
  int static_next_hop(int, NodeId) const override { return -1; }
  bool algebraic_routing() const override { return true; }
  TopologyFootprint footprint() const override {
    return TopologyFootprint{1, 0, nodes_};
  }
  int diameter() const override { return 1; }

 private:
  NetworkConfig config_;
  int nodes_;
};

/// 3-D torus, one switch per coordinate, +/- links in x, y, z.
/// Static: dimension-order routing, shortest direction, positive tie-break.
/// Adaptive: minimal-adaptive — among dimensions still needing correction,
/// take the least-backlogged productive port.
class Torus3DTopology final : public Topology {
 public:
  explicit Torus3DTopology(const NetworkConfig& config);

  int num_nodes() const override { return dx_ * dy_ * dz_ * conc_; }
  void build(Fabric& fabric) override;
  int route(Fabric& fabric, int sw, Packet& pkt, Routing mode) override;
  int static_next_hop(int sw, NodeId dst) const override;
  bool algebraic_routing() const override { return true; }
  TopologyFootprint footprint() const override;
  int diameter() const override { return dx_ / 2 + dy_ / 2 + dz_ / 2; }

  int dim_x() const { return dx_; }
  int dim_y() const { return dy_; }
  int dim_z() const { return dz_; }

 private:
  int switch_of(int x, int y, int z) const { return (x * dy_ + y) * dz_ + z; }
  NetworkConfig config_;
  int dx_, dy_, dz_, conc_;
};

/// k-ary three-level fat-tree (k pods, k^2/4 cores, k^3/4 nodes).
/// Static: D-mod-k style deterministic up-ports; adaptive: least-backlog
/// up-port, deterministic down path.
class FatTreeTopology final : public Topology {
 public:
  explicit FatTreeTopology(const NetworkConfig& config);

  int num_nodes() const override { return k_ * k_ * k_ / 4; }
  void build(Fabric& fabric) override;
  int route(Fabric& fabric, int sw, Packet& pkt, Routing mode) override;
  int static_next_hop(int sw, NodeId dst) const override;
  bool algebraic_routing() const override { return true; }
  TopologyFootprint footprint() const override;
  int diameter() const override { return 6; }

  int arity() const { return k_; }

 private:
  int half() const { return k_ / 2; }
  int edge_id(int pod, int e) const { return pod * half() + e; }
  int agg_id(int pod, int a) const { return num_edges_ + pod * half() + a; }
  int core_id(int c) const { return num_edges_ + num_aggs_ + c; }

  NetworkConfig config_;
  int k_;
  int num_edges_, num_aggs_, num_cores_;
};

/// Canonical fully-connected dragonfly(p, a, h): a switches per group each
/// with p nodes and h global links; g = a*h + 1 groups.
/// Static: minimal local-global-local with deterministic gateway.
/// Adaptive: UGAL-lite — per packet, compare the backlog of the minimal
/// first hop against a Valiant detour via a pseudo-random intermediate
/// group (weighted by its longer path) and take the cheaper one. The group
/// is a counter-based draw keyed on packet content (valiant_group), so
/// every shard replica makes the same choice.
class DragonflyTopology final : public Topology {
 public:
  explicit DragonflyTopology(const NetworkConfig& config);

  int num_nodes() const override { return groups_ * a_ * p_; }
  void build(Fabric& fabric) override;
  int route(Fabric& fabric, int sw, Packet& pkt, Routing mode) override;
  int static_next_hop(int sw, NodeId dst) const override;
  bool algebraic_routing() const override { return true; }
  TopologyFootprint footprint() const override;
  int diameter() const override { return 5; }  // l-g-l worst case (+detour)

  int groups() const { return groups_; }
  int switches_per_group() const { return a_; }

 private:
  /// The Valiant intermediate-group candidate for `pkt`, in [0, groups()):
  /// splitmix64 over (seed, src, dst, message id, packet index). A pure
  /// function of the packet and the configured seed — no stream state —
  /// so serial and sharded runs draw the same group for the same packet.
  int valiant_group(const Packet& pkt) const;

  int switch_id(int group, int s) const { return group * a_ + s; }
  int group_of_switch(int sw) const { return sw / a_; }
  int local_port(int s, int neighbor) const {
    return neighbor < s ? neighbor : neighbor - 1;  // a-1 local ports
  }
  int global_port(int link_in_group) const {
    return (a_ - 1) + link_in_group % h_;
  }
  /// Group-level link index connecting `group` to `target_group`.
  int link_to_group(int group, int target_group) const {
    return (target_group - group - 1 + groups_) % groups_;
  }
  /// Next hop toward dst switch within/between groups (minimal). Pure
  /// coordinate arithmetic — shared by route(kStatic) and
  /// static_next_hop.
  int minimal_port(int sw, int dst_sw) const;

  NetworkConfig config_;
  int p_, a_, h_, groups_;
};

/// 2-D HyperX: L1 x L2 lattice of switches, each dimension fully connected.
/// Static: dimension-order (dim 0 then dim 1) — the "DOR" flavor Figure 8
/// highlights. Adaptive: choose the productive dimension with the smaller
/// first-hop backlog.
class HyperXTopology final : public Topology {
 public:
  explicit HyperXTopology(const NetworkConfig& config);

  int num_nodes() const override { return l1_ * l2_ * conc_; }
  void build(Fabric& fabric) override;
  int route(Fabric& fabric, int sw, Packet& pkt, Routing mode) override;
  int static_next_hop(int sw, NodeId dst) const override;
  bool algebraic_routing() const override { return true; }
  TopologyFootprint footprint() const override;
  int diameter() const override { return 2; }

  int extent1() const { return l1_; }
  int extent2() const { return l2_; }

 private:
  int switch_id(int i, int j) const { return i * l2_ + j; }
  // Port layout per switch (i,j): dim-0 peers (L1-1 ports), then dim-1
  // peers (L2-1 ports), then attached nodes.
  int dim0_port(int i, int peer_i) const { return peer_i < i ? peer_i : peer_i - 1; }
  int dim1_port(int j, int peer_j) const {
    return (l1_ - 1) + (peer_j < j ? peer_j : peer_j - 1);
  }

  NetworkConfig config_;
  int l1_, l2_, conc_;
};

}  // namespace rvma::net
