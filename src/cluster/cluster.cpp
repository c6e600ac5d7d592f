#include "cluster/cluster.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <new>

#include "common/log.hpp"

namespace rvma::cluster {

Cluster::NicSlab::NicSlab(std::size_t capacity) : capacity_(capacity) {
  slots_ = static_cast<nic::Nic*>(::operator new(
      capacity * sizeof(nic::Nic), std::align_val_t{alignof(nic::Nic)}));
}

Cluster::NicSlab::~NicSlab() {
  for (std::size_t i = count_; i > 0; --i) {
    slots_[i - 1].~Nic();
  }
  ::operator delete(slots_, std::align_val_t{alignof(nic::Nic)});
}

nic::Nic* Cluster::NicSlab::emplace(sim::Engine& engine, net::Network& network,
                                    net::NodeId node,
                                    const nic::NicParams& params,
                                    obs::MetricsRegistry* metrics) {
  assert(count_ < capacity_ && "NIC slab overflow");
  nic::Nic* nic =
      new (slots_ + count_) nic::Nic(engine, network, node, params, metrics);
  ++count_;
  return nic;
}

Cluster::Cluster(const net::NetworkConfig& net_config,
                 const nic::NicParams& nic_params, int par_shards) {
  // Every experiment builds a Cluster, so this is the one-time hook for
  // the environment-driven log level (RVMA_LOG).
  static const bool env_initialized = [] {
    init_log_from_env();
    return true;
  }();
  (void)env_initialized;

  // Every routing mode shards exactly: a routing decision reads only the
  // packet and its own switch's port state (the dragonfly's Valiant group
  // is drawn from packet content, not from a per-Network stream), so each
  // shard-local Network replica decides as the serial one would.
  int k = std::max(1, par_shards);

  // Shard 0 is built first: its network tells us the switch count and the
  // cross-shard lookahead, which bound how many shards are viable.
  shards_.push_back(std::make_unique<Shard>());
  Shard& s0 = *shards_[0];
  sharded_.attach(&s0.engine);
  s0.network =
      std::make_unique<net::Network>(s0.engine, net_config, &s0.metrics);
  net::Fabric& f0 = s0.network->fabric();
  const int num_sw = f0.num_switches();
  k = std::min(k, num_sw);

  // Contiguous slab assignment: switch sw belongs to shard sw*k/S. Every
  // topology builder numbers switches so that adjacent indices are
  // adjacent in the machine (torus z-slabs, fat-tree pods...), keeping
  // most links intra-shard.
  std::vector<std::int32_t> shard_of_switch;
  if (k > 1) {
    shard_of_switch.resize(static_cast<std::size_t>(num_sw));
    for (int sw = 0; sw < num_sw; ++sw) {
      shard_of_switch[static_cast<std::size_t>(sw)] = static_cast<std::int32_t>(
          static_cast<std::int64_t>(sw) * k / num_sw);
    }
    // Conservative lookahead, per shard pair: the minimum latency of any
    // link crossing shard src -> dst — an event on src can influence dst
    // no earlier than t + la[src][dst]. A zero crossing latency anywhere
    // (or a topology where no link crosses at all) means windows cannot
    // make progress exactly — fall back to serial.
    std::vector<Time> la =
        net::cross_shard_min_latency(f0, shard_of_switch, k);
    Time la_min = kTimeInfinity;
    bool la_zero = false;
    for (int src = 0; src < k; ++src) {
      for (int dst = 0; dst < k; ++dst) {
        if (src == dst) continue;
        const Time d = la[static_cast<std::size_t>(src) *
                              static_cast<std::size_t>(k) +
                          static_cast<std::size_t>(dst)];
        if (d == 0) la_zero = true;
        if (d != kTimeInfinity) la_min = std::min(la_min, d);
      }
    }
    if (la_zero || la_min == kTimeInfinity) {
      k = 1;
      shard_of_switch.clear();
    } else {
      lookahead_ = la_min;
      // Close the direct-crossing matrix over shard paths (min-plus
      // all-pairs shortest path): influence can chain src -> m -> dst
      // across rounds with a smaller total latency than any direct
      // src -> dst link, so the window bound must use path distances —
      // DESIGN.md §12 has the two-hop counterexample. Pairs with no path
      // stay infinite and never constrain a window.
      net::close_min_latency_matrix(la, k);
      lookahead_matrix_ = std::move(la);
    }
  }

  // Remaining shards: identical construction (same config, same seed)
  // yields identical wiring and route tables; each shard's fabric only
  // ever arbitrates ports on its own switches.
  for (int s = 1; s < k; ++s) {
    shards_.push_back(std::make_unique<Shard>());
    Shard& sh = *shards_[static_cast<std::size_t>(s)];
    sharded_.attach(&sh.engine);
    sh.network =
        std::make_unique<net::Network>(sh.engine, net_config, &sh.metrics);
  }

  if (k > 1) {
    // Install after every shard is attached: the matrix is K x K.
    sharded_.set_lookahead_matrix(lookahead_matrix_);
    for (int s = 0; s < k; ++s) {
      net::Fabric& f = shards_[static_cast<std::size_t>(s)]->network->fabric();
      // The handoff hook runs on the source shard's thread mid-event. The
      // Message descriptor lives in the source thread's MsgRef pool
      // (non-atomic refcount), so it is copied out to a plain value here
      // and re-pooled on the destination thread when the posted callback
      // runs. Message::owned is a shared_ptr (atomic refcount) — safe to
      // carry across. The callback itself exceeds the inline Callback
      // capacity and rides in a pooled block, which simply migrates to
      // the destination thread's free list; the window barriers provide
      // the happens-before edge for both.
      f.set_shard_map(
          s, shard_of_switch,
          [this, s](int dst_shard, int next_sw, Time arrival, Time rank,
                    net::Packet&& pkt) {
            net::Message msg = *pkt.msg;
            msg.pool_rc = 0;
            pkt.msg.reset();
            net::Fabric* dst_fabric =
                &shards_[static_cast<std::size_t>(dst_shard)]
                     ->network->fabric();
            sharded_.post(
                s, dst_shard, arrival,
                sim::Callback([dst_fabric, next_sw, arrival, rank,
                               pkt = std::move(pkt),
                               msg = std::move(msg)]() mutable {
                  pkt.msg = net::MsgRef::make(std::move(msg));
                  dst_fabric->receive_remote(next_sw, arrival, rank,
                                             std::move(pkt));
                }));
          });
    }
  }

  // One NIC per node, living on the shard that owns its switch: delivery
  // and the express-rx hook register only there, so a packet reaching its
  // ejection switch is always on the right shard. NICs are arena-allocated
  // per shard: resolve every node's shard first, size one slab per shard,
  // then placement-construct in node order.
  const int n = s0.network->num_nodes();
  shard_of_node_.resize(static_cast<std::size_t>(n), 0);
  std::vector<std::size_t> shard_nics(static_cast<std::size_t>(k), 0);
  for (net::NodeId node = 0; node < n; ++node) {
    int s = 0;
    if (k > 1) {
      s = shard_of_switch[static_cast<std::size_t>(f0.switch_of_node(node))];
    }
    shard_of_node_[static_cast<std::size_t>(node)] =
        static_cast<std::int32_t>(s);
    ++shard_nics[static_cast<std::size_t>(s)];
  }
  nic_slabs_.reserve(static_cast<std::size_t>(k));
  for (int s = 0; s < k; ++s) {
    nic_slabs_.push_back(
        std::make_unique<NicSlab>(shard_nics[static_cast<std::size_t>(s)]));
  }
  nics_.reserve(static_cast<std::size_t>(n));
  for (net::NodeId node = 0; node < n; ++node) {
    const std::size_t s =
        static_cast<std::size_t>(shard_of_node_[static_cast<std::size_t>(node)]);
    Shard& sh = *shards_[s];
    nics_.push_back(nic_slabs_[s]->emplace(sh.engine, *sh.network, node,
                                           nic_params, &sh.metrics));
  }

  if (!sharded()) {
    // Standard sampler columns. Providers only dereference Cluster-owned
    // state (engine, fabric, NICs, registry), all of which outlives the
    // sampler's use. Same-named providers sum into one column (NIC
    // queues). Sharded runs never sample: the providers read one shard's
    // engine mid-flight, which the windowed phase cannot do exactly — the
    // scenario layer clamps par_shards to 1 whenever sampling is armed.
    sampler_ = std::make_unique<obs::Sampler>(s0.metrics);
    sampler_->add_gauge("engine.heap_depth", [this] {
      return static_cast<std::int64_t>(shards_[0]->engine.pending());
    });
    sampler_->add_gauge("fabric.inflight_packets", [this] {
      return shards_[0]->network->fabric().inflight_packets();
    });
    sampler_->add_gauge("fabric.port_backlog_ns", [this] {
      // Single conversion point for this column lives on the Fabric
      // (current_port_backlog_max_ns), shared with the registry gauge's
      // unit.
      return shards_[0]->network->fabric().current_port_backlog_max_ns();
    });
    for (nic::Nic* raw : nics_) {
      sampler_->add_gauge("nic.tx_queue_depth",
                          [raw] { return raw->tx_queue_depth(); });
    }
    // Endpoint levels derived from counter pairs: endpoints come and go
    // per experiment, but the registry counters they mirror into are
    // stable.
    sampler_->add_gauge("rvma.posted_buffers", [this] {
      return static_cast<std::int64_t>(
          shards_[0]->metrics.counter("rvma.buffers_posted").value() -
          shards_[0]->metrics.counter("rvma.buffers_retired").value());
    });
    sampler_->add_gauge("rvma.nic_counters_in_use", [this] {
      return static_cast<std::int64_t>(
          shards_[0]->metrics.counter("rvma.nic_counters_acquired").value() -
          shards_[0]->metrics.counter("rvma.nic_counters_released").value());
    });
  }
}

Cluster::Cluster(const ClusterBuilder& builder)
    : Cluster(builder.net_config(), builder.nic_params(),
              builder.par_shards()) {}

void Cluster::enable_sampling(Time period) {
  assert(!sharded() && "sampling requires a serial (one-shard) cluster");
  sampler_->enable(period);
  shards_[0]->engine.set_sampler(sampler_.get());
}

std::size_t Cluster::route_table_bytes() const {
  std::size_t bytes = 0;
  for (const auto& sh : shards_) {
    bytes += sh->network->fabric().route_table_bytes();
  }
  return bytes;
}

net::FabricStats Cluster::fabric_stats() const {
  net::FabricStats total = shards_[0]->network->fabric().stats();
  for (std::size_t s = 1; s < shards_.size(); ++s) {
    const net::FabricStats fs = shards_[s]->network->fabric().stats();
    total.packets_delivered += fs.packets_delivered;
    total.packets_injected += fs.packets_injected;
    total.total_hops += fs.total_hops;
    total.wire_bytes_delivered += fs.wire_bytes_delivered;
    total.packets_dropped_dead_node += fs.packets_dropped_dead_node;
    total.route_cache_hits += fs.route_cache_hits;
    total.max_port_backlog = std::max(total.max_port_backlog,
                                      fs.max_port_backlog);
    total.express_commits += fs.express_commits;
    total.express_fallbacks += fs.express_fallbacks;
    total.express_remats += fs.express_remats;
  }
  return total;
}

void Cluster::arm_flight_recorder(std::size_t capacity_per_shard) {
  recorders_.clear();
  recorders_.reserve(shards_.size());
  for (auto& sh : shards_) {
    recorders_.push_back(
        std::make_unique<obs::FlightRecorder>(capacity_per_shard));
    sh->engine.set_flight_recorder(recorders_.back().get());
  }
}

bool Cluster::write_flight_dump(const std::string& path,
                                std::string* error) const {
  std::vector<const obs::FlightRecorder*> recs;
  recs.reserve(recorders_.size());
  for (const auto& r : recorders_) recs.push_back(r.get());
  return obs::write_flight_file(path, recs, error);
}

void Cluster::enable_pdes_profiling() {
  if (sharded()) sharded_.enable_profiling(true);
}

obs::MetricsSnapshot Cluster::collect_pdes_profile() const {
  obs::MetricsRegistry reg;
  const int k = num_shards();
  reg.counter("pdes.shards").inc(static_cast<std::uint64_t>(k));
  // Per-pair lookahead spread (min / max / mean over finite off-diagonal
  // entries of the path-closed matrix, in picoseconds): how much wider the
  // matrix lets windows open compared to the old single global minimum
  // (which equals lookahead_min_ps). All zero when serial.
  {
    Time lmin = 0, lmax = 0;
    std::uint64_t lsum = 0, finite = 0, unreachable = 0;
    const std::size_t ks = static_cast<std::size_t>(k);
    if (lookahead_matrix_.size() == ks * ks) {
      lmin = kTimeInfinity;
      for (std::size_t src = 0; src < ks; ++src) {
        for (std::size_t dst = 0; dst < ks; ++dst) {
          if (src == dst) continue;
          const Time d = lookahead_matrix_[src * ks + dst];
          if (d == kTimeInfinity) {
            ++unreachable;
            continue;
          }
          lmin = std::min(lmin, d);
          lmax = std::max(lmax, d);
          lsum += d;
          ++finite;
        }
      }
      if (finite == 0) lmin = 0;
    }
    reg.gauge("pdes.lookahead_min_ps").set(static_cast<std::int64_t>(lmin));
    reg.gauge("pdes.lookahead_max_ps").set(static_cast<std::int64_t>(lmax));
    reg.gauge("pdes.lookahead_mean_ps")
        .set(static_cast<std::int64_t>(finite == 0 ? 0 : lsum / finite));
    reg.gauge("pdes.lookahead_unreachable_pairs")
        .set(static_cast<std::int64_t>(unreachable));
  }
  reg.counter("pdes.windows").inc(sharded_.windows_executed());
  reg.histogram("pdes.window_stride_ps").merge(sharded_.window_stride_ps());
  char name[64];
  for (int s = 0; s < k; ++s) {
    const bool have = sharded() && sharded_.profiling();
    // A serial cluster has no barriers: its one shard is 100% busy by
    // definition, which keeps the K=1 row comparable in bench sweeps.
    const sim::ShardedEngine::ShardProfile* prof =
        have ? &sharded_.profile(s) : nullptr;
    std::snprintf(name, sizeof(name), "pdes.shard%d.busy_wall_ns", s);
    reg.counter(name).inc(prof != nullptr ? prof->busy_wall_ns : 0);
    std::snprintf(name, sizeof(name), "pdes.shard%d.barrier_wait_wall_ns", s);
    reg.counter(name).inc(prof != nullptr ? prof->barrier_wait_wall_ns : 0);
    std::snprintf(name, sizeof(name), "pdes.shard%d.drain_wall_ns", s);
    reg.counter(name).inc(prof != nullptr ? prof->drain_wall_ns : 0);
    std::snprintf(name, sizeof(name), "pdes.shard%d.completion_wall_ns", s);
    reg.counter(name).inc(prof != nullptr ? prof->completion_wall_ns : 0);
    std::snprintf(name, sizeof(name), "pdes.shard%d.items_drained", s);
    reg.counter(name).inc(prof != nullptr ? prof->items_drained : 0);
    std::snprintf(name, sizeof(name), "pdes.shard%d.utilization_pct", s);
    reg.gauge(name).set(static_cast<std::int64_t>(
        prof != nullptr ? prof->utilization_pct() : 100.0));
    std::snprintf(name, sizeof(name), "pdes.shard%d.drain_depth", s);
    if (prof != nullptr) reg.histogram(name).merge(prof->drain_depth);
  }
  return reg.snapshot();
}

obs::MetricsSnapshot Cluster::collect_metrics() const {
  obs::MetricsSnapshot snap = shards_[0]->metrics.snapshot();
  std::uint64_t executed = shards_[0]->engine.executed_events();
  std::uint64_t scheduled = shards_[0]->engine.scheduled_events();
  for (std::size_t s = 1; s < shards_.size(); ++s) {
    snap.merge(shards_[s]->metrics.snapshot());
    executed += shards_[s]->engine.executed_events();
    scheduled += shards_[s]->engine.scheduled_events();
  }
  snap.counters["engine.events_executed"] = executed;
  snap.counters["engine.events_scheduled"] = scheduled;
  return snap;
}

}  // namespace rvma::cluster
