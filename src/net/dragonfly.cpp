#include "net/topologies.hpp"

#include "common/rng.hpp"

namespace rvma::net {

DragonflyTopology::DragonflyTopology(const NetworkConfig& config)
    : config_(config) {
  p_ = config.df_p;
  a_ = config.df_a;
  h_ = config.df_h;
  if (p_ == 0 || a_ == 0 || h_ == 0) {
    // Balanced dragonfly: a = 2h, p = h (Kim et al.); grow h to cover hint.
    int h = 1;
    auto nodes_for = [](int hh) {
      const std::int64_t a = 2 * hh, p = hh;
      const std::int64_t g = a * hh + 1;
      return g * a * p;
    };
    while (nodes_for(h) < config.nodes_hint) ++h;
    h_ = h;
    a_ = 2 * h;
    p_ = h;
  }
  groups_ = a_ * h_ + 1;
}

void DragonflyTopology::build(Fabric& fabric) {
  const Bandwidth xbar = config_.link.bw.scaled(config_.xbar_factor);
  const int total_switches = groups_ * a_;
  // Long tier: the global (inter-group) links — optical cables in a real
  // dragonfly, an order of magnitude longer than intra-group copper.
  LinkParams long_link = config_.link;
  if (config_.long_link_latency != 0) {
    long_link.latency = config_.long_link_latency;
  }
  // Pass 1 — one switch at a time, in id order, with ALL of its ports
  // (a-1 local, then h global, then p ejection links): the fabric's SoA
  // port arrays require per-switch contiguous blocks. Local port
  // numbering is unchanged from the pre-SoA builder.
  for (int sw = 0; sw < total_switches; ++sw) {
    fabric.add_switch(config_.switch_latency, xbar);
    for (int p = 0; p < a_ - 1; ++p) fabric.add_port(sw, config_.link);
    for (int p = 0; p < h_; ++p) fabric.add_port(sw, long_link);
    for (int n = 0; n < p_; ++n) {
      fabric.attach_node(sw, sw * p_ + n, config_.link);
    }
  }

  // Pass 2 — wiring only (no port creation).
  for (int g = 0; g < groups_; ++g) {
    // Local all-to-all within the group.
    for (int s = 0; s < a_; ++s) {
      for (int t = s + 1; t < a_; ++t) {
        fabric.connect(switch_id(g, s), local_port(s, t),
                       switch_id(g, t), local_port(t, s));
      }
    }
    // Global links: group-level link l connects g to (g + l + 1) mod G; the
    // reverse link in the target group has index G - 2 - l. Wire each pair
    // once (g < target only).
    for (int l = 0; l < groups_ - 1; ++l) {
      const int target_group = (g + l + 1) % groups_;
      if (target_group < g) continue;
      const int back = groups_ - 2 - l;
      fabric.connect(switch_id(g, l / h_), global_port(l),
                     switch_id(target_group, back / h_), global_port(back));
    }
  }
}

TopologyFootprint DragonflyTopology::footprint() const {
  const int switches = groups_ * a_;
  return TopologyFootprint{switches, switches * (a_ - 1 + h_),
                           switches * p_};
}

int DragonflyTopology::minimal_port(int sw, int dst_sw) const {
  const int g = group_of_switch(sw);
  const int dg = group_of_switch(dst_sw);
  const int s = sw % a_;
  if (g == dg) {
    return local_port(s, dst_sw % a_);
  }
  const int l = link_to_group(g, dg);
  const int gateway = l / h_;
  if (s == gateway) return global_port(l);
  return local_port(s, gateway);
}

int DragonflyTopology::static_next_hop(int sw, NodeId dst) const {
  // Minimal local-global-local; dst's switch is dst / p_ (nodes are
  // attached in switch-id order).
  return minimal_port(sw, static_cast<int>(dst) / p_);
}

int DragonflyTopology::valiant_group(const Packet& pkt) const {
  // Chain splitmix64 over the key words: each step folds one word into the
  // running state and re-mixes it.
  const std::uint64_t words[] = {
      static_cast<std::uint64_t>(pkt.src), static_cast<std::uint64_t>(pkt.dst),
      pkt.msg ? pkt.msg->id : 0, pkt.seq};
  std::uint64_t h = config_.seed;
  for (const std::uint64_t w : words) {
    std::uint64_t state = h ^ w;
    h = splitmix64(state);
  }
  // Multiply-shift onto [0, groups): the bias is below 2^-50.
  return static_cast<int>((static_cast<__uint128_t>(h) *
                           static_cast<std::uint64_t>(groups_)) >>
                          64);
}

int DragonflyTopology::route(Fabric& fabric, int sw, Packet& pkt,
                             Routing mode) {
  const int dst_sw = fabric.switch_of_node(pkt.dst);
  const int g = group_of_switch(sw);
  const int dg = group_of_switch(dst_sw);

  if (mode == Routing::kStatic) {
    return minimal_port(sw, dst_sw);
  }

  // UGAL-lite: decide minimal vs Valiant at the injection switch only.
  if (pkt.hops == 1 && pkt.rt_aux == -1 && g != dg && groups_ > 2) {
    const int min_port = minimal_port(sw, dst_sw);
    // Candidate intermediate group, uniformly among "others".
    int vg = valiant_group(pkt);
    if (vg == g || vg == dg) vg = -1;
    if (vg >= 0) {
      const int l = link_to_group(g, vg);
      const int gateway = l / h_;
      const int s = sw % a_;
      const int val_port =
          s == gateway ? global_port(l) : local_port(s, gateway);
      const Time q_min = fabric.port_backlog(sw, min_port);
      const Time q_val = fabric.port_backlog(sw, val_port);
      // Valiant roughly doubles the path, so it must look at least twice
      // as uncongested to be worth taking.
      if (q_min > 2 * q_val + config_.switch_latency) {
        pkt.rt_aux = vg;
        return val_port;
      }
    }
    pkt.rt_aux = -2;  // committed to minimal
    return min_port;
  }

  if (pkt.rt_aux >= 0 && !pkt.rt_mid_done) {
    if (g == pkt.rt_aux) {
      pkt.rt_mid_done = true;  // reached the intermediate group
    } else {
      // Continue toward the intermediate group's gateway.
      const int l = link_to_group(g, pkt.rt_aux);
      const int gateway = l / h_;
      const int s = sw % a_;
      return s == gateway ? global_port(l) : local_port(s, gateway);
    }
  }

  return minimal_port(sw, dst_sw);
}

}  // namespace rvma::net
