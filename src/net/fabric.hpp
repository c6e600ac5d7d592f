// Switch fabric: output-queued switches connected by point-to-point links.
//
// Model (paper §V-B1): each switch forwards a packet through its crossbar
// at 1.5x the link bandwidth (configurable factor) plus a fixed traversal
// latency, then serializes it onto the chosen output port. Output ports are
// FIFO resources (`busy_until`), so a single deterministic path delivers
// in order — the property RDMA's last-byte polling depends on — while
// adaptive per-packet path choice yields genuine out-of-order arrival.
//
// Express cut-through (static routing only): when the precomputed next-hop
// table is installed, an injection may walk its whole route inline,
// eagerly charging every port's busy window, and keep a single chained
// delivery event per *message* instead of one arrival event per hop per
// packet. The fast path is timing-exact — it engages only when every hop
// would arbitrate with zero queue wait, and any later injection that
// could reach a charged port before its virtual arbitration time
// rematerializes the outstanding express packets back onto the hop-by-hop
// path. See DESIGN.md §8 for the exactness argument.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/units.hpp"
#include "net/types.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"

namespace rvma::net {

struct LinkParams {
  Bandwidth bw = Bandwidth::gbps(100);
  Time latency = 100 * kNanosecond;  ///< propagation (wire/SerDes) delay
};

/// Per-port state lives in flat fabric-wide SoA arrays indexed by global
/// port id (Switch::port_base + local port index), not in per-Port
/// objects: the express walk and hop arbitration touch only busy/express
/// times, so packing those into dense dedicated arrays keeps the hot
/// working set at 16 bytes/port instead of dragging link parameters and
/// wiring (cold, read at build/walk-setup time) through the cache.
struct Switch {
  Time latency = 100 * kNanosecond;  ///< fixed crossbar traversal latency
  Bandwidth xbar_bw;                 ///< crossbar serialization bandwidth
  std::int32_t port_base = 0;        ///< first global port id of this switch
  std::int32_t num_ports = 0;
};

struct FabricStats {
  std::uint64_t packets_delivered = 0;
  std::uint64_t packets_injected = 0;
  std::uint64_t total_hops = 0;
  std::uint64_t wire_bytes_delivered = 0;
  std::uint64_t packets_dropped_dead_node = 0;  ///< failure injection
  /// Transit hops resolved from the precomputed static next-hop table
  /// instead of the routing callback (static routing only).
  std::uint64_t route_cache_hits = 0;
  Time max_port_backlog = 0;  ///< worst queue wait beyond the crossbar seen
  /// Express cut-through telemetry. Deliberately *not* registry
  /// instruments: metrics documents must stay byte-identical between
  /// --no-express and express runs, and these counters are the one
  /// legitimate difference.
  std::uint64_t express_commits = 0;    ///< packets that took the fast path
  std::uint64_t express_fallbacks = 0;  ///< walks that arbitrated hop-by-hop
  std::uint64_t express_remats = 0;     ///< conflict unwinds of open records
};

class Fabric {
 public:
  /// Routes a transit packet at `sw`; returns the output port index.
  using Router = std::function<int(int sw, const Packet&)>;
  /// Per-node delivery callback (installed by the NIC model).
  using Delivery = std::function<void(Packet&&)>;
  /// Cross-shard handoff hook (sharded runs only): invoked when a packet's
  /// next hop lands on a switch owned by another shard. `rank` is the
  /// handing-off arbitration's instant — where a serial engine would have
  /// allocated the arrival event's sequence number. The hook must
  /// eventually call receive_remote(next_sw, arrival, rank, pkt) on the
  /// owning shard's fabric; the Cluster wires it through
  /// sim::ShardedEngine.
  using RemoteHop = std::function<void(int dst_shard, int next_sw,
                                       Time arrival, Time rank, Packet&&)>;

  /// When `metrics` is non-null the fabric records into that shared
  /// registry (the Cluster's); otherwise it owns a private one so
  /// standalone fabrics (unit tests, topology experiments) keep working.
  explicit Fabric(sim::Engine& engine,
                  obs::MetricsRegistry* metrics = nullptr);

  /// Pre-size the switch and port arrays (Topology::footprint()), so a
  /// paper-scale build is a single allocation per array instead of a
  /// doubling-growth sequence. `ports` counts switch-to-switch ports;
  /// attach_node adds one ejection port per node on top.
  void reserve(int switches, int ports, int nodes);

  int add_switch(Time latency, Bandwidth xbar_bw);
  /// Append a port to `sw`; wiring is set later via connect()/attach_node().
  /// Ports live in fabric-wide contiguous arrays, so all of a switch's
  /// ports must be added before the next switch's first port (every
  /// topology builds switch-by-switch in id order).
  int add_port(int sw, LinkParams link);
  /// Wire two existing switch ports together (bidirectional pair).
  void connect(int sw_a, int port_a, int sw_b, int port_b);
  /// Create a port on `sw` facing `node` and an injection link back.
  /// Returns the switch-side port index.
  int attach_node(int sw, NodeId node, LinkParams link);

  void set_delivery(NodeId node, Delivery fn);
  void set_router(Router fn) { router_ = std::move(fn); }

  /// Register the folded receive hook for `node`: unless a failure was
  /// ever injected, an express-committed packet's delivery and NIC
  /// receive pipeline collapse into one event at delivery + `rx_delay`
  /// (the NIC's per-packet receive cost), which runs the fabric delivery
  /// bookkeeping and then hands the packet to `rx`. Installed by the NIC
  /// model; without it express packets still collapse hops but keep a
  /// separate delivery event.
  void set_express_rx(NodeId node, Time rx_delay, Delivery rx);

  /// O(1) algebraic next-hop resolver: returns the output (local) port at
  /// `sw` for a transit packet to node `dst` (never called when dst's
  /// switch == sw). Plain function pointer + context — not std::function —
  /// so the per-hop dispatch is one indirect call with no capture storage.
  using NextHopFn = int (*)(const void* ctx, int sw, NodeId dst);

  /// Install the static next-hop resolver for deterministic routing.
  /// While one is installed, transit hops bypass the router_ std::function
  /// call entirely; adaptive routing never installs one. `ctx` must
  /// outlive the fabric's routing (Network owns both).
  void set_algebraic_routes(NextHopFn fn, const void* ctx);

  /// True when static next hops are resolvable without the router_
  /// callback.
  bool has_static_routes() const { return next_hop_fn_ != nullptr; }

  /// Arm or disarm the express cut-through fast path (--no-express
  /// ablation). Only effective while static routes are installed;
  /// timing and stats are bit-identical either way, and flight-recorder
  /// spans differ only in express_commit standing for tx_inject.
  void set_express_enabled(bool on) { express_enabled_ = on; }
  bool express_enabled() const { return express_enabled_; }

  /// Shard this fabric: switches whose `shard_of_switch` entry differs
  /// from `my_shard` are foreign — a packet hopping onto one is handed to
  /// `hook` instead of being scheduled locally, and express walks stop at
  /// the boundary. Nodes always inject and eject on the shard owning
  /// their attachment switch, so only transit hops cross.
  void set_shard_map(int my_shard, std::vector<std::int32_t> shard_of_switch,
                     RemoteHop hook);
  bool sharded() const { return !shard_of_switch_.empty(); }

  /// Entry point for a packet handed off by a peer shard: accounts it as
  /// an in-flight hop-mode packet of this fabric and schedules its
  /// arrival at switch `sw` (owned by this shard) at time `arrival`,
  /// tie-break-ranked at `rank` (the source-side handoff instant). Open
  /// express records are rematerialized first — their eager charges were
  /// committed without knowledge of this packet.
  void receive_remote(int sw, Time arrival, Time rank, Packet&& pkt);

  /// Inject a packet from its source node's injection link.
  void inject(Packet&& pkt);

  /// Inject every packet of one message (same src/dst) back to back on the
  /// source node's injection link. Timing, stats, and tie-break order are
  /// identical to calling inject() per packet — the link is charged for the
  /// whole burst immediately and delivery sequence numbers are reserved up
  /// front — but only one chained engine event stays queued per message
  /// instead of one arrival event per packet (zero events per message when
  /// the whole burst commits to the express path). Consumes the contents
  /// of `pkts` and leaves it empty with its capacity intact, so callers
  /// can reuse the buffer allocation-free.
  void inject_burst(std::vector<Packet>& pkts);

  sim::Engine& engine() { return engine_; }
  int num_switches() const { return static_cast<int>(switches_.size()); }
  int num_attached_nodes() const { return static_cast<int>(node_attach_.size()); }
  const Switch& switch_at(int sw) const { return switches_[sw]; }
  int switch_of_node(NodeId node) const { return node_attach_[node].sw; }

  // Per-port wiring accessors (SoA arrays; `port` is the local index).
  int switch_num_ports(int sw) const { return switches_[sw].num_ports; }
  std::int32_t port_peer_switch(int sw, int port) const {
    return port_peer_sw_[pid(sw, port)];
  }
  NodeId port_peer_node(int sw, int port) const {
    return port_peer_node_[pid(sw, port)];
  }
  const LinkParams& port_link(int sw, int port) const {
    return port_link_[pid(sw, port)];
  }

  /// Output-queue backlog of (sw, port) relative to now; the congestion
  /// signal adaptive routing policies compare.
  Time port_backlog(int sw, int port) const;

  /// Backlog (in serialization time) of `node`'s injection link — how far
  /// ahead of the wire the NIC's transmit queue currently runs.
  Time injection_backlog(NodeId node) const;

  /// Compatibility view assembled from the registry instruments (the
  /// counters live in obs::MetricsRegistry now). Returned by value;
  /// callers binding a const reference get lifetime extension.
  FabricStats stats() const;

  /// Registry this fabric records into (shared or privately owned).
  obs::MetricsRegistry& metrics_registry() { return *metrics_; }

  /// Packets currently inside the fabric (injected, not yet delivered or
  /// dropped) — a sampler gauge provider.
  std::int64_t inflight_packets() const { return inflight_; }

  /// Worst output-port or injection-link backlog right now (in time) —
  /// the instantaneous congestion level, for the sampler. O(ports).
  Time current_port_backlog_max() const;

  /// The same instantaneous worst backlog in nanoseconds — the single
  /// picosecond->nanosecond conversion point shared by the Cluster
  /// sampler's `fabric.port_backlog_ns` column (DESIGN.md §7).
  std::int64_t current_port_backlog_max_ns() const {
    return static_cast<std::int64_t>(current_port_backlog_max() / kNanosecond);
  }

  /// Failure injection: from now on, packets destined to or originating
  /// from `node` are silently dropped (the node has died). Rematerializes
  /// every open express packet first — a failure invalidates the
  /// no-divergence window eager charging relies on — and permanently
  /// disables event folding for the rest of the run. Used by the
  /// fault-tolerance experiments (paper §IV-F).
  void fail_node(NodeId node);
  /// Revive a failed node (e.g. restart after recovery).
  void revive_node(NodeId node);
  bool node_failed(NodeId node) const;

  /// Validate that every port is wired and every node has a delivery
  /// callback; aborts with a message otherwise. Call after topology build.
  void check_wired() const;

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  struct NodeAttach {
    std::int32_t sw = -1;
    std::int32_t port = -1;       ///< switch-side (ejection) port, local idx
    LinkParams inj_link;          ///< node -> switch link parameters
    Time inj_busy = 0;            ///< node -> switch link busy_until
    Delivery delivery;
    Delivery express_rx;          ///< folded NIC receive hook (optional)
    Time express_rx_delay = 0;    ///< NIC per-packet rx pipeline cost
    bool failed = false;
  };

  /// In-flight state of a multi-packet injection: the packets, their
  /// precomputed switch-arrival times, and the sequence numbers reserved so
  /// execution order matches eager per-packet scheduling.
  struct Burst {
    int sw = -1;
    std::uint64_t seq_base = 0;
    std::size_t next = 0;
    std::vector<Packet> pkts;
    std::vector<Time> arrivals;
  };

  /// One eagerly charged hop of an express-committed burst: the port, the
  /// saved pre-charge state for an exact unwind, and `epoch` to order
  /// unwinds LIFO across interleaved records. Per-packet arbitration and
  /// finish times are NOT stored — express eligibility means every packet
  /// arbitrated with zero queue wait, so they are pure functions of the
  /// packet's injection-link arrival and the per-hop constants, and the
  /// (rare) rematerialize path recomputes them.
  struct ExpressHop {
    std::int32_t sw = -1;
    std::int32_t pid = -1;  ///< global port id
    Time prev_busy = 0;
    Time prev_express_until = 0;
    std::uint64_t epoch = 0;
    bool transit = false;  ///< resolved via static routing (route_cache_hits)
  };

  /// Scratch row built once per walk: the route plus every per-hop
  /// constant the whole burst needs, including the serialization times for
  /// the two packet sizes a burst can contain (all full-MTU packets are
  /// `wire_f`; the final packet may be the shorter `wire_l`). Computing
  /// these once replaces two Bandwidth::serialize divisions per packet per
  /// hop with table lookups.
  struct WalkHop {
    std::int32_t sw = -1;
    std::int32_t pid = -1;  ///< global port id
    Time sw_latency = 0;
    Time link_latency = 0;
    Time xser_f = 0;  ///< crossbar serialization, full-size packet
    Time xser_l = 0;  ///< crossbar serialization, last packet
    Time pser_f = 0;  ///< port serialization, full-size packet
    Time pser_l = 0;  ///< port serialization, last packet
    Time prev_busy = 0;
    Time prev_express_until = 0;
    bool transit = false;
  };

  /// One port-state restore gathered during rematerialize: applied in
  /// descending epoch order so every restore sees the state it saved.
  struct UndoHop {
    std::uint64_t epoch = 0;
    std::int32_t pid = -1;  ///< global port id
    Time restore_busy = 0;
    Time restore_express_until = 0;
    Time expect_busy = 0;  ///< asserted == the port's busy_until pre-restore
  };

  /// What the record's one pending reserved-sequence event must do.
  enum class XState : std::uint8_t {
    kDelivery,  ///< chained deliver() events at (delivers[k], res_k)
    kFolded,    ///< chained deliver+rx events at (delivers[k]+rx, res_k+1)
    kRemRx,     ///< delivery bookkeeping handled; NIC receive of pkts[next]
    kRemDead,   ///< rematerialized onto the hop path; free only
  };

  /// An express-committed burst between commit and its last delivery.
  /// One record per inject/inject_burst commit; at most ONE engine event
  /// is pending per record at any time — each chained event delivers
  /// packet `next` and schedules the next packet's event at its exact
  /// reserved (time, sequence). Pooled (free list + capacity-retaining
  /// vectors): steady-state express traffic allocates nothing.
  struct ExpressRecord {
    std::vector<Packet> pkts;
    std::vector<Time> arrivals;  ///< first-switch arrival per packet
    std::vector<Time> delivers;  ///< delivery instant per packet
    std::vector<ExpressHop> hops;
    NodeId node = -1;
    std::uint32_t next = 0;       ///< next undelivered packet index
    std::uint32_t chain_end = 0;  ///< chain stops here (== pkts.size() unless
                                  ///< a remat handed the tail to the hop path)
    XState state = XState::kDelivery;
    std::uint32_t prev_open = kNone;
    std::uint32_t next_open = kNone;
    std::uint32_t next_free = kNone;
    bool open = false;
  };

  /// Global port id of `sw`'s local port index.
  std::size_t pid(int sw, int port) const {
    return static_cast<std::size_t>(switches_[sw].port_base + port);
  }

  /// Static next hop (local port at `sw`) for a transit packet to `dst`:
  /// O(1) arithmetic. Only valid while has_static_routes().
  int next_hop(int sw, NodeId dst) const {
    return next_hop_fn_(next_hop_ctx_, sw, dst);
  }

  void arrive_at_switch(int sw, Packet&& pkt);
  void deliver(NodeId node, Packet&& pkt);
  void burst_step(std::unique_ptr<Burst> burst);

  /// Attempt the express cut-through for the `n`-packet burst `pkts`
  /// (same src/dst, back-to-back on the injection link) whose first-switch
  /// arrivals are `arrivals`. Walks the route once, commits the longest
  /// eligible prefix as ONE pooled record with a single chained delivery
  /// event, and returns the number of packets committed (0 on fallback).
  /// Detects eager-charge conflicts along the way and rematerializes open
  /// records when one is found. Maintains express_commits_/fallbacks_.
  std::size_t try_express_burst(Packet* pkts, std::size_t n,
                                const Time* arrivals);
  /// Convert every open express record back to exact hop-by-hop execution:
  /// unwind not-yet-arbitrated charges in reverse charge order, reschedule
  /// each packet's continuation from its current wire position, and leave
  /// already-final delivery events in place.
  void rematerialize_open();
  void express_event(std::uint32_t idx);
  void express_finalize(std::uint32_t idx);
  /// deliver()'s fabric-side bookkeeping for an express packet, using the
  /// stored delivery instant (the executing event may run later).
  void deliver_stats(const Packet& pkt, Time deliver_at);
  std::uint32_t acquire_record();
  void release_record(std::uint32_t idx);
  /// Drop the record from the open list (if still there) and free it.
  void close_record(std::uint32_t idx);
  void open_list_remove(ExpressRecord& r, std::uint32_t idx);

  sim::Engine& engine_;
  std::vector<Switch> switches_;
  // ---- per-port SoA arrays, indexed by global port id ----
  // Hot (touched per arbitration / express walk):
  std::vector<Time> port_busy_;    ///< output FIFO busy_until
  /// Latest *virtual* arbitration time among express (eagerly charged)
  /// packets on the port. A later injection whose optimistic arrival at
  /// the port is <= this could arbitrate out of charge order — the
  /// conflict that rematerializes open express records. Restored per
  /// charge on unwind; contributions from completed packets are always in
  /// the past and can never conflict.
  std::vector<Time> port_xuntil_;
  // Cold (wiring + link parameters, read at walk setup / hop setup):
  std::vector<LinkParams> port_link_;
  std::vector<std::int32_t> port_peer_sw_;  ///< -1 when the peer is a node
  std::vector<NodeId> port_peer_node_;      ///< -1 when the peer is a switch
  std::vector<NodeAttach> node_attach_;
  Router router_;
  /// Static next-hop resolver; null under adaptive routing (per-packet
  /// router_ calls).
  NextHopFn next_hop_fn_ = nullptr;
  const void* next_hop_ctx_ = nullptr;
  /// Sharding (empty when this fabric owns the whole topology): owning
  /// shard per switch, this fabric's shard id, and the handoff hook.
  std::vector<std::int32_t> shard_of_switch_;
  int my_shard_ = 0;
  RemoteHop remote_hop_;

  /// Shared (Cluster) or privately owned registry, plus the instruments
  /// resolved once at construction — a record is one add through a
  /// cached pointer, no name lookups on the hot path.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_;
  obs::Counter* c_injected_;
  obs::Counter* c_delivered_;
  obs::Counter* c_hops_;
  obs::Counter* c_wire_bytes_;
  obs::Counter* c_drops_dead_node_;
  obs::Counter* c_route_cache_hits_;
  obs::Gauge* g_port_backlog_ns_;
  obs::Histogram* h_pkt_latency_ns_;
  std::int64_t inflight_ = 0;

  // ---- express cut-through state ----
  bool express_enabled_ = false;
  bool ever_failed_ = false;   ///< any fail_node() this run: folding off
  /// Packets currently traversing hop-by-hop (injected or rematerialized,
  /// last arbitration not yet executed). Express commits require zero:
  /// an in-flight hop packet's future arbitrations are not captured by
  /// any port's express_until, so eager charging could reorder with them.
  std::int64_t hop_inflight_ = 0;
  std::uint64_t express_epoch_ = 0;  ///< global eager-charge order
  std::uint64_t express_commits_ = 0;
  std::uint64_t express_fallbacks_ = 0;
  std::uint64_t express_remats_ = 0;
  std::vector<std::unique_ptr<ExpressRecord>> xrecords_;
  std::uint32_t xfree_ = kNone;
  std::uint32_t xopen_head_ = kNone;
  std::uint32_t xopen_tail_ = kNone;
  // Reused scratch buffers (steady state allocates nothing).
  std::vector<WalkHop> walk_;
  std::vector<Time> burst_arrivals_;
  std::vector<Time> commit_busy_;     ///< per-hop busy after committed prefix
  std::vector<Time> trial_busy_;      ///< candidate packet's busy column
  std::vector<Time> commit_arr_;      ///< last committed packet's arrivals
  std::vector<Time> trial_arr_;       ///< candidate packet's arrivals
  std::vector<Time> scratch_delivers_;
  std::vector<Time> replay_arr_;      ///< remat: n x hops arbitration times
  std::vector<Time> replay_fin_;      ///< remat: n x hops port-finish times
  std::vector<UndoHop> undo_;
};

}  // namespace rvma::net
