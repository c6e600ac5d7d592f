#include "net/fabric.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "common/log.hpp"

namespace rvma::net {

Fabric::Fabric(sim::Engine& engine, obs::MetricsRegistry* metrics)
    : engine_(engine) {
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics = owned_metrics_.get();
  }
  metrics_ = metrics;
  c_injected_ = &metrics_->counter("fabric.packets_injected");
  c_delivered_ = &metrics_->counter("fabric.packets_delivered");
  c_hops_ = &metrics_->counter("fabric.hops");
  c_wire_bytes_ = &metrics_->counter("fabric.wire_bytes_delivered");
  c_drops_dead_node_ = &metrics_->counter("fabric.drops_dead_node");
  c_route_cache_hits_ = &metrics_->counter("fabric.route_cache_hits");
  g_port_backlog_ns_ = &metrics_->gauge("fabric.port_backlog_ns");
  h_pkt_latency_ns_ = &metrics_->histogram("fabric.pkt_latency_ns");
}

FabricStats Fabric::stats() const {
  FabricStats s;
  s.packets_injected = c_injected_->value();
  s.packets_delivered = c_delivered_->value();
  s.total_hops = c_hops_->value();
  s.wire_bytes_delivered = c_wire_bytes_->value();
  s.packets_dropped_dead_node = c_drops_dead_node_->value();
  s.route_cache_hits = c_route_cache_hits_->value();
  s.max_port_backlog =
      static_cast<Time>(g_port_backlog_ns_->high_water()) * kNanosecond;
  s.express_commits = express_commits_;
  s.express_fallbacks = express_fallbacks_;
  s.express_remats = express_remats_;
  return s;
}

Time Fabric::current_port_backlog_max() const {
  const Time now = engine_.now();
  Time worst = 0;
  for (const Time busy : port_busy_) {
    if (busy > now) worst = std::max(worst, busy - now);
  }
  for (const NodeAttach& at : node_attach_) {
    if (at.inj_busy > now) worst = std::max(worst, at.inj_busy - now);
  }
  return worst;
}

void Fabric::reserve(int switches, int ports, int nodes) {
  switches_.reserve(static_cast<std::size_t>(switches));
  const std::size_t total =
      static_cast<std::size_t>(ports) + static_cast<std::size_t>(nodes);
  port_busy_.reserve(total);
  port_xuntil_.reserve(total);
  port_link_.reserve(total);
  port_peer_sw_.reserve(total);
  port_peer_node_.reserve(total);
  node_attach_.reserve(static_cast<std::size_t>(nodes));
}

int Fabric::add_switch(Time latency, Bandwidth xbar_bw) {
  Switch s;
  s.latency = latency;
  s.xbar_bw = xbar_bw;
  s.port_base = static_cast<std::int32_t>(port_link_.size());
  s.num_ports = 0;
  switches_.push_back(s);
  return static_cast<int>(switches_.size()) - 1;
}

int Fabric::add_port(int sw, LinkParams link) {
  Switch& s = switches_[sw];
  // Ports are SoA-contiguous per switch: a switch's block must still sit
  // at the tail of the arrays when a port is appended to it.
  assert(static_cast<std::size_t>(s.port_base + s.num_ports) ==
             port_link_.size() &&
         "ports must be added switch-by-switch in id order");
  port_busy_.push_back(0);
  port_xuntil_.push_back(0);
  port_link_.push_back(link);
  port_peer_sw_.push_back(-1);
  port_peer_node_.push_back(-1);
  return s.num_ports++;
}

void Fabric::connect(int sw_a, int port_a, int sw_b, int port_b) {
  const std::size_t a = pid(sw_a, port_a);
  const std::size_t b = pid(sw_b, port_b);
  assert(port_peer_sw_[a] == -1 && port_peer_node_[a] == -1 &&
         "port already wired");
  assert(port_peer_sw_[b] == -1 && port_peer_node_[b] == -1 &&
         "port already wired");
  port_peer_sw_[a] = sw_b;
  port_peer_sw_[b] = sw_a;
}

int Fabric::attach_node(int sw, NodeId node, LinkParams link) {
  if (node >= static_cast<NodeId>(node_attach_.size())) {
    node_attach_.resize(node + 1);
  }
  NodeAttach& at = node_attach_[node];
  assert(at.sw == -1 && "node attached twice");
  const int port = add_port(sw, link);
  port_peer_node_[pid(sw, port)] = node;
  at.sw = sw;
  at.port = port;
  at.inj_link = link;
  at.inj_busy = 0;
  return port;
}

void Fabric::set_delivery(NodeId node, Delivery fn) {
  assert(node >= 0 && node < static_cast<NodeId>(node_attach_.size()));
  node_attach_[node].delivery = std::move(fn);
}

void Fabric::set_express_rx(NodeId node, Time rx_delay, Delivery rx) {
  assert(node >= 0 && node < static_cast<NodeId>(node_attach_.size()));
  node_attach_[node].express_rx = std::move(rx);
  node_attach_[node].express_rx_delay = rx_delay;
}

void Fabric::set_algebraic_routes(NextHopFn fn, const void* ctx) {
  assert(fn != nullptr);
  next_hop_fn_ = fn;
  next_hop_ctx_ = ctx;
}

void Fabric::set_shard_map(int my_shard,
                           std::vector<std::int32_t> shard_of_switch,
                           RemoteHop hook) {
  assert(shard_of_switch.size() == switches_.size());
  my_shard_ = my_shard;
  shard_of_switch_ = std::move(shard_of_switch);
  remote_hop_ = std::move(hook);
}

void Fabric::receive_remote(int sw, Time arrival, Time rank, Packet&& pkt) {
  assert(sharded() && shard_of_switch_[static_cast<std::size_t>(sw)] ==
                          my_shard_);
  // This packet's future arbitrations are invisible to the express path's
  // eager charges (it never went through a local conflict walk), so any
  // open record could interleave with it: fall back to exact arbitration.
  rematerialize_open();
  ++hop_inflight_;
  ++inflight_;
  const std::uint64_t tie = packet_tie(pkt);
  engine_.schedule_at_ranked(
      arrival, rank, tie, [this, sw, pkt = std::move(pkt)]() mutable {
        arrive_at_switch(sw, std::move(pkt));
      });
}

Time Fabric::port_backlog(int sw, int port) const {
  const Time busy = port_busy_[pid(sw, port)];
  const Time now = engine_.now();
  return busy > now ? busy - now : 0;
}

Time Fabric::injection_backlog(NodeId node) const {
  const Time busy = node_attach_[node].inj_busy;
  const Time now = engine_.now();
  return busy > now ? busy - now : 0;
}

void Fabric::fail_node(NodeId node) {
  assert(node >= 0 && node < static_cast<NodeId>(node_attach_.size()));
  // Failure injection is a whole-fabric event (liveness is checked at
  // delivery wherever the packet entered); a sharded run would need the
  // failure mirrored on every shard at the same instant. Unsupported —
  // the Cluster clamps to one shard before any failure experiment.
  assert(!sharded() && "fail_node is not supported on a sharded fabric");
  // A dead node invalidates the no-divergence window the eager charges rely
  // on: put every open express packet back on the exact hop-by-hop path
  // before marking the node, and never fold delivery+rx again this run
  // (folded events check liveness later than deliver() would have).
  rematerialize_open();
  ever_failed_ = true;
  node_attach_[node].failed = true;
}

void Fabric::revive_node(NodeId node) {
  assert(node >= 0 && node < static_cast<NodeId>(node_attach_.size()));
  node_attach_[node].failed = false;
}

bool Fabric::node_failed(NodeId node) const {
  return node_attach_[node].failed;
}

void Fabric::inject(Packet&& pkt) {
  assert(pkt.src >= 0 && pkt.src < static_cast<NodeId>(node_attach_.size()));
  assert(pkt.dst >= 0 && pkt.dst < static_cast<NodeId>(node_attach_.size()));
  if (node_attach_[pkt.src].failed || node_attach_[pkt.dst].failed) {
    c_drops_dead_node_->inc();
    return;
  }
  c_injected_->inc();
  ++inflight_;
  pkt.injected_at = engine_.now();

  NodeAttach& at = node_attach_[pkt.src];
  const std::uint64_t wire = pkt.wire_bytes();
  const Time start = std::max(engine_.now(), at.inj_busy);
  const Time finish = start + at.inj_link.bw.serialize(wire);
  at.inj_busy = finish;
  const Time arrival = finish + at.inj_link.latency;
  const int sw = at.sw;
  if (has_static_routes()) {
    // Reserve the delivery/rx sequence pair whether or not the express
    // path engages, so tie-break order of all events shared between the
    // two modes is identical (the exactness invariant, DESIGN.md §8).
    pkt.res_seq = engine_.reserve_sequence(2);
    if (express_enabled_ && try_express_burst(&pkt, 1, &arrival) == 1) return;
  }
  // Express-committed packets record kExpressCommit in phase C instead.
  RVMA_FREC(engine_, pkt.injected_at, obs::SpanKind::kTxInject, pkt.msg->id,
            pkt.src, static_cast<std::int64_t>(pkt.seq));
  ++hop_inflight_;
  const std::uint64_t tie = packet_tie(pkt);
  engine_.schedule_at_ranked(arrival, engine_.now(), tie,
                             [this, sw, pkt = std::move(pkt)]() mutable {
                               arrive_at_switch(sw, std::move(pkt));
                             });
}

void Fabric::inject_burst(std::vector<Packet>& pkts) {
  assert(!pkts.empty());
  const NodeId src = pkts.front().src;
  const NodeId dst = pkts.front().dst;
  assert(src >= 0 && src < static_cast<NodeId>(node_attach_.size()));
  assert(dst >= 0 && dst < static_cast<NodeId>(node_attach_.size()));
  if (node_attach_[src].failed || node_attach_[dst].failed) {
    c_drops_dead_node_->inc(pkts.size());
    pkts.clear();
    return;
  }

  NodeAttach& at = node_attach_[src];
  const bool reserved = has_static_routes();
  burst_arrivals_.clear();
  burst_arrivals_.reserve(pkts.size());
  // Phase 1 — identical in every routing/express mode: per-packet
  // accounting, sequence-pair reservation, and the eager injection-link
  // charge. Backlog-based admission and the per-packet arrival times are
  // exactly what N inject() calls at this instant would have produced.
  for (Packet& pkt : pkts) {
    c_injected_->inc();
    ++inflight_;
    pkt.injected_at = engine_.now();
    if (reserved) pkt.res_seq = engine_.reserve_sequence(2);
    const std::uint64_t wire = pkt.wire_bytes();
    const Time start = std::max(engine_.now(), at.inj_busy);
    const Time finish = start + at.inj_link.bw.serialize(wire);
    at.inj_busy = finish;
    burst_arrivals_.push_back(finish + at.inj_link.latency);
  }

  // Phase 2 — commit the longest possible prefix to the express path as a
  // single pooled record with one chained delivery event. The first
  // ineligible packet clears the whole suffix: later packets follow the
  // same static route, FIFO ports forbid overtaking, so their real
  // arrivals are bounded below by the cleared packet's optimistic ones.
  std::size_t i = 0;
  if (reserved && express_enabled_) {
    i = try_express_burst(pkts.data(), pkts.size(), burst_arrivals_.data());
  }
  if (i == pkts.size()) {
    pkts.clear();  // whole message committed: zero queued events remain
    return;
  }
  hop_inflight_ += static_cast<std::int64_t>(pkts.size() - i);
  if (engine_.recording_enabled()) {
    // The committed prefix recorded kExpressCommit in phase C; the suffix
    // takes the hop path.
    for (std::size_t k = i; k < pkts.size(); ++k) {
      engine_.frecord(pkts[k].injected_at, obs::SpanKind::kTxInject,
                      pkts[k].msg->id, pkts[k].src,
                      static_cast<std::int64_t>(pkts[k].seq));
    }
  }
  auto burst = std::make_unique<Burst>();
  burst->sw = at.sw;
  if (i == 0) {
    burst->pkts = std::move(pkts);
    burst->arrivals = std::move(burst_arrivals_);
  } else {
    burst->pkts.assign(std::make_move_iterator(pkts.begin() +
                                               static_cast<std::ptrdiff_t>(i)),
                       std::make_move_iterator(pkts.end()));
    burst->arrivals.assign(burst_arrivals_.begin() +
                               static_cast<std::ptrdiff_t>(i),
                           burst_arrivals_.end());
  }
  pkts.clear();
  burst->seq_base = engine_.reserve_sequence(burst->pkts.size());
  const Time first_arrival = burst->arrivals.front();
  const std::uint64_t first_seq = burst->seq_base;
  // Rank = the reservation instant (== every packet's injected_at: the
  // whole burst is stamped inside this event); tie = the packet the
  // chained event hands to the switch.
  const Time rank = burst->pkts.front().injected_at;
  const std::uint64_t tie = packet_tie(burst->pkts.front());
  engine_.schedule_at_seq(first_arrival, first_seq, rank, tie,
                          [this, b = std::move(burst)]() mutable {
                            burst_step(std::move(b));
                          });
}

void Fabric::burst_step(std::unique_ptr<Burst> burst) {
  const std::size_t i = burst->next++;
  const int sw = burst->sw;
  Packet pkt = std::move(burst->pkts[i]);
  if (burst->next < burst->pkts.size()) {
    const Time arrival = burst->arrivals[burst->next];
    const std::uint64_t seq = burst->seq_base + burst->next;
    const Time rank = burst->pkts[burst->next].injected_at;
    const std::uint64_t tie = packet_tie(burst->pkts[burst->next]);
    engine_.schedule_at_seq(arrival, seq, rank, tie,
                            [this, b = std::move(burst)]() mutable {
                              burst_step(std::move(b));
                            });
  }
  arrive_at_switch(sw, std::move(pkt));
}

std::size_t Fabric::try_express_burst(Packet* pkts, std::size_t n,
                                      const Time* arrivals) {
  // With a hop-mode packet in flight a commit is impossible, and with no
  // open records no conflict is possible either (completed records'
  // express_until marks are all in the past, below any future arrival):
  // skip the walk entirely.
  if (hop_inflight_ > 0 && xopen_head_ == kNone) {
    express_fallbacks_ += n;
    return 0;
  }

  const NodeId dst = pkts[0].dst;
  const NodeAttach& dst_at = node_attach_[dst];
  // A burst is full-MTU packets plus a possibly shorter final packet, so
  // exactly two wire sizes cover every serialization the walk needs.
  const std::uint64_t wire_f = pkts[0].wire_bytes();
  const std::uint64_t wire_l = pkts[n - 1].wire_bytes();

  // Phase A — discover the route once, cache every per-hop constant, and
  // run the eager-charge conflict test. `opt_f`/`opt_l` are the
  // zero-queue-wait lower bounds on the first and last packets' arrivals
  // at each switch; every real hop-by-hop arrival is >= its bound, which
  // makes the conflict test sound. Middle packets need no track of their
  // own: they are full-size with injection arrivals between the two, so
  // their bounds are bracketed by these.
  walk_.clear();
  Time opt_f = arrivals[0];
  Time opt_l = arrivals[n - 1];
  int sw = node_attach_[pkts[0].src].sw;
  while (true) {
    const Switch& s = switches_[sw];
    int port;
    bool transit = false;
    if (dst_at.sw == sw) {
      port = dst_at.port;  // ejection to the destination node
    } else {
      port = next_hop(sw, dst);
      assert(port >= 0 && port < s.num_ports);
      transit = true;
    }
    const std::size_t p = pid(sw, port);
    // An open express packet already holds this port with a virtual
    // arbitration time at or after some burst packet's earliest possible
    // arrival: real hop-by-hop execution could order the two the other
    // way. Unwind everything speculative and let exact arbitration decide.
    if (opt_f <= port_xuntil_[p] || opt_l <= port_xuntil_[p]) {
      rematerialize_open();
      express_fallbacks_ += n;
      return 0;
    }
    const LinkParams& link = port_link_[p];
    const Time xser_f = s.xbar_bw.serialize(wire_f);
    const Time pser_f = link.bw.serialize(wire_f);
    const Time xser_l = wire_l == wire_f ? xser_f : s.xbar_bw.serialize(wire_l);
    const Time pser_l = wire_l == wire_f ? pser_f : link.bw.serialize(wire_l);
    walk_.push_back(WalkHop{sw, static_cast<std::int32_t>(p), s.latency,
                            link.latency, xser_f, xser_l, pser_f, pser_l,
                            port_busy_[p], port_xuntil_[p], transit});
    opt_f += s.latency + xser_f + pser_f + link.latency;
    opt_l += s.latency + xser_l + pser_l + link.latency;
    if (port_peer_node_[p] >= 0) break;  // ejection hop: walk complete
    assert(port_peer_sw_[p] >= 0 && "packet routed to an unwired port");
    sw = port_peer_sw_[p];
    if (!shard_of_switch_.empty() &&
        shard_of_switch_[static_cast<std::size_t>(sw)] != my_shard_) {
      // The route leaves this shard: the remaining hops belong to a peer
      // fabric whose port state we can neither read nor charge. The walk
      // only read state so far — plain fallback, no unwinding needed.
      express_fallbacks_ += n;
      return 0;
    }
  }
  if (hop_inflight_ > 0) {
    express_fallbacks_ += n;  // conflict scan only; commits impossible
    return 0;
  }

  // Phase B — eligibility, packet by packet, pure arithmetic. A packet is
  // eligible when every hop arbitrates with zero queue wait against the
  // port state left by the committed prefix (commit_busy_). Trial columns
  // are swapped in wholesale on success, so a failed candidate leaves the
  // committed state untouched without any copying.
  const std::size_t nh = walk_.size();
  commit_busy_.resize(nh);
  trial_busy_.resize(nh);
  commit_arr_.resize(nh);
  trial_arr_.resize(nh);
  scratch_delivers_.clear();
  for (std::size_t h = 0; h < nh; ++h) commit_busy_[h] = walk_[h].prev_busy;
  std::size_t m = 0;
  while (m < n) {
    const bool last = m == n - 1;
    Time a = arrivals[m];
    bool ok = true;
    for (std::size_t h = 0; h < nh; ++h) {
      const WalkHop& w = walk_[h];
      const Time xbar_done = a + w.sw_latency + (last ? w.xser_l : w.xser_f);
      if (commit_busy_[h] > xbar_done) {
        // Nonzero queue wait: the packet would sit behind earlier traffic
        // here, and events executing in the meantime may change what it
        // observes. The suffix falls back to the hop path.
        ok = false;
        break;
      }
      trial_arr_[h] = a;
      trial_busy_[h] = xbar_done + (last ? w.pser_l : w.pser_f);
      a = trial_busy_[h] + w.link_latency;
    }
    if (!ok) break;
    commit_busy_.swap(trial_busy_);
    commit_arr_.swap(trial_arr_);
    scratch_delivers_.push_back(a);  // last-hop finish + ejection latency
    ++m;
  }
  if (m == 0) {
    express_fallbacks_ += n;
    return 0;
  }

  // Phase C — commit the prefix: the route arbitrates with zero queue
  // wait for every committed packet and no open record can interleave, so
  // eager charging is exact. Charge each port once with the prefix's
  // final state and collapse the whole traversal into one pending event.
  express_commits_ += m;
  express_fallbacks_ += n - m;
  const std::uint32_t idx = acquire_record();
  ExpressRecord& r = *xrecords_[idx];
  r.node = dst;
  r.next = 0;
  r.chain_end = static_cast<std::uint32_t>(m);
  std::uint64_t transit_hops = 0;
  for (std::size_t h = 0; h < nh; ++h) {
    const WalkHop& w = walk_[h];
    const std::size_t p = static_cast<std::size_t>(w.pid);
    port_busy_[p] = commit_busy_[h];
    port_xuntil_[p] = std::max(port_xuntil_[p], commit_arr_[h]);
    r.hops.push_back(ExpressHop{w.sw, w.pid, w.prev_busy,
                                w.prev_express_until, ++express_epoch_,
                                w.transit});
    if (w.transit) ++transit_hops;
  }
  if (transit_hops > 0) {
    c_route_cache_hits_->inc(transit_hops * static_cast<std::uint64_t>(m));
  }
  for (std::size_t k = 0; k < m; ++k) {
    pkts[k].hops = static_cast<std::uint16_t>(pkts[k].hops + nh);
    RVMA_FREC(engine_, pkts[k].injected_at, obs::SpanKind::kExpressCommit,
              pkts[k].msg->id, pkts[k].src,
              static_cast<std::int64_t>(pkts[k].seq));
    r.pkts.push_back(std::move(pkts[k]));
    r.arrivals.push_back(arrivals[k]);
    r.delivers.push_back(scratch_delivers_[k]);
  }
  NodeAttach& at = node_attach_[dst];
  // Fold the delivery and the NIC receive pipeline into one event only
  // when nothing downstream can tell: no failure ever injected (deliver()
  // checks destination liveness at the delivery instant; a folded event
  // checks later). Neither a sampler nor the flight recorder blocks
  // folding: both observe without scheduling, so observed and unobserved
  // runs must execute the same events — the recorder stamps the true
  // delivery instant (deliver_stats), and only the express-vs-hop gauge
  // timeseries differ, which eager charging causes anyway (DESIGN.md §8).
  const bool fold = !ever_failed_ && static_cast<bool>(at.express_rx);
  if (fold) {
    r.state = XState::kFolded;
    engine_.schedule_at_seq(r.delivers[0] + at.express_rx_delay,
                            r.pkts[0].res_seq + 1, r.pkts[0].injected_at,
                            packet_tie(r.pkts[0]),
                            [this, idx] { express_event(idx); });
  } else {
    r.state = XState::kDelivery;
    engine_.schedule_at_seq(r.delivers[0], r.pkts[0].res_seq,
                            r.pkts[0].injected_at, packet_tie(r.pkts[0]),
                            [this, idx] { express_event(idx); });
  }
  // Append to the open list (ordered by commit, i.e. by charge epoch).
  r.prev_open = xopen_tail_;
  r.next_open = kNone;
  if (xopen_tail_ != kNone) {
    xrecords_[xopen_tail_]->next_open = idx;
  } else {
    xopen_head_ = idx;
  }
  xopen_tail_ = idx;
  r.open = true;
  return m;
}

void Fabric::open_list_remove(ExpressRecord& r, std::uint32_t idx) {
  if (r.prev_open != kNone) {
    xrecords_[r.prev_open]->next_open = r.next_open;
  } else {
    xopen_head_ = r.next_open;
  }
  if (r.next_open != kNone) {
    xrecords_[r.next_open]->prev_open = r.prev_open;
  } else {
    xopen_tail_ = r.prev_open;
  }
  (void)idx;
  r.prev_open = kNone;
  r.next_open = kNone;
  r.open = false;
}

void Fabric::deliver_stats(const Packet& pkt, Time deliver_at) {
  c_delivered_->inc();
  c_hops_->inc(pkt.hops);
  c_wire_bytes_->inc(pkt.wire_bytes());
  --inflight_;
  h_pkt_latency_ns_->record(
      static_cast<std::uint64_t>((deliver_at - pkt.injected_at) /
                                 kNanosecond));
  // `deliver_at` is the true delivery instant even when this runs inside
  // a later folded event, so the recorded span is fold-invariant.
  RVMA_FREC(engine_, deliver_at, obs::SpanKind::kPktDeliver, pkt.msg->id,
            pkt.dst, static_cast<std::int64_t>(pkt.seq));
}

void Fabric::express_event(std::uint32_t idx) {
  // The record's ONE pending event: handle packet `next`, then either
  // chain the next packet's event at its exact reserved (time, sequence)
  // or free the record. The chain is scheduled before the delivery/rx
  // callback runs so any re-entrant injection sees consistent state.
  ExpressRecord& r = *xrecords_[idx];
  const std::uint32_t k = r.next;
  switch (r.state) {
    case XState::kDelivery: {
      // Exact replay of the hop-by-hop delivery event: same time
      // (delivers[k]), same sequence (res_seq), same liveness check.
      Packet pkt = std::move(r.pkts[k]);
      const NodeId node = r.node;
      r.next = k + 1;
      if (r.next < r.chain_end) {
        engine_.schedule_at_seq(r.delivers[r.next], r.pkts[r.next].res_seq,
                                r.pkts[r.next].injected_at,
                                packet_tie(r.pkts[r.next]),
                                [this, idx] { express_event(idx); });
      } else {
        close_record(idx);
      }
      deliver(node, std::move(pkt));
      break;
    }
    case XState::kFolded: {
      // Delivery bookkeeping plus the NIC receive hook in one event. The
      // fold preconditions guarantee nothing observed the window between
      // the delivery instant and now (a failure would have rematerialized
      // this record first); the stats use the stored delivery instant.
      NodeAttach& at = node_attach_[r.node];
      assert(!at.failed && "folded record outlived a node failure");
      deliver_stats(r.pkts[k], r.delivers[k]);
      Packet pkt = std::move(r.pkts[k]);
      r.next = k + 1;
      if (r.next < r.chain_end) {
        engine_.schedule_at_seq(r.delivers[r.next] + at.express_rx_delay,
                                r.pkts[r.next].res_seq + 1,
                                r.pkts[r.next].injected_at,
                                packet_tie(r.pkts[r.next]),
                                [this, idx] { express_event(idx); });
      } else {
        close_record(idx);
      }
      at.express_rx(std::move(pkt));
      break;
    }
    case XState::kRemRx: {
      // Delivery bookkeeping already ran (at rematerialize or via
      // express_finalize); hand the packet to the NIC receive pipeline —
      // in exact semantics a delivered packet's rx proceeds even if the
      // node died after delivery. Later packets were re-scheduled
      // individually by the rematerialize, so the chain ends here.
      Packet pkt = std::move(r.pkts[k]);
      const NodeId node = r.node;
      close_record(idx);
      node_attach_[node].express_rx(std::move(pkt));
      break;
    }
    case XState::kRemDead:
      // Bookkeeping handled elsewhere; this event only frees.
      close_record(idx);
      break;
  }
}

void Fabric::express_finalize(std::uint32_t idx) {
  // Scheduled at (delivers[next], res_seq) when a folded record is
  // rematerialized before packet `next`'s delivery instant: performs
  // exactly what deliver() would have — liveness check included — at the
  // exact time and tie-break position hop-by-hop execution would have
  // used. The NIC receive half stays on the record's pending
  // (res_seq + 1) event, which frees the record (kRemRx) or, if the node
  // died in between, just drops it (kRemDead).
  ExpressRecord& r = *xrecords_[idx];
  const std::uint32_t k = r.next;
  NodeAttach& at = node_attach_[r.node];
  if (at.failed) {
    c_drops_dead_node_->inc();
    --inflight_;
    r.state = XState::kRemDead;
    return;
  }
  deliver_stats(r.pkts[k], r.delivers[k]);
  r.state = XState::kRemRx;
}

void Fabric::rematerialize_open() {
  if (xopen_head_ == kNone) return;
  ++express_remats_;
  const Time now = engine_.now();

  // One pass per open record: recompute every packet's per-hop
  // arbitration and finish times (pure arithmetic — eligibility at commit
  // time meant zero queue wait, so the recurrence needs no max() against
  // port state), gather the port restores for charges whose arbitration
  // instant is still in the future, and convert each undelivered packet
  // back to exact execution. Conversions only schedule events and read no
  // port state, so all restores can be applied after the scan, in global
  // LIFO (epoch) order — each then sees exactly the state it saved.
  undo_.clear();
  std::uint32_t i = xopen_head_;
  xopen_head_ = kNone;
  xopen_tail_ = kNone;
  while (i != kNone) {
    ExpressRecord& r = *xrecords_[i];
    const std::uint32_t nexti = r.next_open;
    r.prev_open = kNone;
    r.next_open = kNone;
    r.open = false;

    const std::size_t n = r.pkts.size();
    const std::size_t nh = r.hops.size();
    // Replay rows: arr[k*nh+h] is packet k's arbitration instant at hop
    // h, fin[k*nh+h] its port-serialization finish. Wire sizes come from
    // the stored packets — delivered entries are moved-from, but moves
    // leave the scalar fields (bytes, header_bytes) intact.
    replay_arr_.resize(n * nh);
    replay_fin_.resize(n * nh);
    for (std::size_t k = 0; k < n; ++k) {
      Time a = r.arrivals[k];
      const std::uint64_t wire = r.pkts[k].wire_bytes();
      for (std::size_t h = 0; h < nh; ++h) {
        const Switch& s = switches_[r.hops[h].sw];
        const LinkParams& link = port_link_[r.hops[h].pid];
        replay_arr_[k * nh + h] = a;
        const Time fin = a + s.latency + s.xbar_bw.serialize(wire) +
                         link.bw.serialize(wire);
        replay_fin_[k * nh + h] = fin;
        a = fin + link.latency;
      }
    }

    // Port restores. Arbitration instants are nondecreasing in k at every
    // hop (FIFO), so "the packets already arbitrated here" is a prefix
    // [0, j): the port rolls back to that prefix's state. Charges whose
    // last arbitration has passed are real history and stay.
    for (std::size_t h = 0; h < nh; ++h) {
      if (replay_arr_[(n - 1) * nh + h] <= now) continue;
      std::size_t j = n;
      while (j > 0 && replay_arr_[(j - 1) * nh + h] > now) --j;
      const ExpressHop& eh = r.hops[h];
      UndoHop u;
      u.epoch = eh.epoch;
      u.pid = eh.pid;
      u.expect_busy = replay_fin_[(n - 1) * nh + h];
      if (j > 0) {
        u.restore_busy = replay_fin_[(j - 1) * nh + h];
        u.restore_express_until =
            std::max(eh.prev_express_until, replay_arr_[(j - 1) * nh + h]);
      } else {
        u.restore_busy = eh.prev_busy;
        u.restore_express_until = eh.prev_express_until;
      }
      undo_.push_back(u);
    }

    // Packet conversions. "All arbitrations past" is monotone across the
    // burst (arrivals are FIFO-ordered), so the undelivered packets split
    // into an all-past prefix and a mid-flight suffix.
    const std::uint32_t d = r.next;
    NodeAttach& at = node_attach_[r.node];
    for (std::size_t k = d; k < n; ++k) {
      std::size_t jfut = 0;
      while (jfut < nh && replay_arr_[k * nh + jfut] <= now) ++jfut;
      if (jfut == nh) {
        // Every arbitration already happened; only wire propagation (and
        // possibly the folded rx) remains.
        if (r.state == XState::kDelivery) {
          // The chained events at (delivers[k], res_k) ARE the exact
          // hop-mode deliveries — keep the chain running through this
          // packet. (delivers[k] >= now here: the chain's pending event
          // at delivers[d] has not fired and delivers are nondecreasing.)
          r.chain_end = static_cast<std::uint32_t>(k + 1);
          continue;
        }
        if (k == d) {
          // This packet's folded (res_d + 1) event is the record's
          // pending event; split the delivery half back out of it.
          if (r.delivers[k] < now) {
            // Hop-by-hop delivery would already have run (node was alive
            // then — a current failure postdates it); the pending event
            // at delivers[d] + rx_delay is already the exact rx instant.
            deliver_stats(r.pkts[k], r.delivers[k]);
          } else {
            // Re-create the delivery at its exact time and reserved
            // sequence; it performs deliver()'s bookkeeping — liveness
            // check included — and may flip the record to kRemDead.
            const std::uint32_t idx = i;
            engine_.schedule_at_seq(r.delivers[k], r.pkts[k].res_seq,
                                    r.pkts[k].injected_at,
                                    packet_tie(r.pkts[k]),
                                    [this, idx] { express_finalize(idx); });
          }
          r.state = XState::kRemRx;
        } else {
          // No pending event backs this packet (the chain never got to
          // it): re-create its exact delivery — or, when its delivery
          // instant already passed inside the fold window, its exact
          // receive event — on the packet's own reserved pair.
          const NodeId node = r.node;
          if (r.delivers[k] >= now) {
            Packet pkt = std::move(r.pkts[k]);
            const std::uint64_t seq = pkt.res_seq;
            const Time rank = pkt.injected_at;
            const std::uint64_t tie = packet_tie(pkt);
            engine_.schedule_at_seq(
                r.delivers[k], seq, rank, tie,
                [this, node, pkt = std::move(pkt)]() mutable {
                  deliver(node, std::move(pkt));
                });
          } else {
            deliver_stats(r.pkts[k], r.delivers[k]);
            Packet pkt = std::move(r.pkts[k]);
            const std::uint64_t seq = pkt.res_seq + 1;
            const Time rank = pkt.injected_at;
            const std::uint64_t tie = packet_tie(pkt);
            engine_.schedule_at_seq(
                r.delivers[k] + at.express_rx_delay, seq, rank, tie,
                [this, node, pkt = std::move(pkt)]() mutable {
                  node_attach_[node].express_rx(std::move(pkt));
                });
          }
        }
      } else {
        // Mid-flight: the packet has really traversed hops [0, jfut) and
        // its charges beyond are being unwound. Resume exact hop-by-hop
        // execution from its current wire position.
        std::uint64_t future_transit = 0;
        for (std::size_t h = jfut; h < nh; ++h) {
          if (r.hops[h].transit) ++future_transit;
        }
        if (future_transit > 0) c_route_cache_hits_->dec(future_transit);
        Packet pkt = std::move(r.pkts[k]);
        pkt.hops = static_cast<std::uint16_t>(jfut);
        if (k == d) {
          // The reserved pair backs this record's still-queued (now dead)
          // event; the resumed path must not reuse it. Later packets'
          // pairs are unclaimed and ride along, so their delivery and rx
          // keep the exact hop-mode tie-break positions.
          pkt.res_seq = kNoResSeq;
          r.state = XState::kRemDead;
        }
        ++hop_inflight_;
        const int sw = r.hops[jfut].sw;
        const std::uint64_t tie = packet_tie(pkt);
        // Rank = the instant hop-by-hop execution would have scheduled
        // this arrive event: hop jfut-1's arbitration (the previous row
        // entry), or the injection instant for a packet still on its
        // injection link — NOT the remat instant, which is a property of
        // the schedule, not of the packet.
        const Time rank =
            jfut > 0 ? replay_arr_[k * nh + (jfut - 1)] : pkt.injected_at;
        engine_.schedule_at_ranked(replay_arr_[k * nh + jfut], rank, tie,
                                   [this, sw, pkt = std::move(pkt)]() mutable {
                                     arrive_at_switch(sw, std::move(pkt));
                                   });
      }
    }
    i = nexti;
  }

  // Unwind every not-yet-arbitrated charge, newest first, so each
  // prev_* restore sees exactly the port state it saved.
  std::sort(undo_.begin(), undo_.end(),
            [](const UndoHop& x, const UndoHop& y) { return x.epoch > y.epoch; });
  for (const UndoHop& u : undo_) {
    const std::size_t p = static_cast<std::size_t>(u.pid);
    assert(port_busy_[p] == u.expect_busy &&
           "a future express charge was overwritten");
    port_busy_[p] = u.restore_busy;
    port_xuntil_[p] = u.restore_express_until;
  }
}

void Fabric::arrive_at_switch(int sw, Packet&& pkt) {
  ++pkt.hops;
  const Switch& s = switches_[sw];

  int port;
  const NodeAttach& dst_at = node_attach_[pkt.dst];
  if (dst_at.sw == sw) {
    port = dst_at.port;  // ejection to the destination node
  } else if (has_static_routes()) {
    // Deterministic routing: O(1) coordinate arithmetic instead of a
    // std::function call into the topology's route logic per hop.
    port = next_hop(sw, pkt.dst);
    c_route_cache_hits_->inc();
    assert(port >= 0 && port < s.num_ports);
  } else {
    port = router_(sw, pkt);
    assert(port >= 0 && port < s.num_ports);
  }

  const std::size_t p = pid(sw, port);
  const LinkParams& link = port_link_[p];
  const std::uint64_t wire = pkt.wire_bytes();
  const Time xbar_done = engine_.now() + s.latency + s.xbar_bw.serialize(wire);
  if (port_busy_[p] > xbar_done) {
    // True queue wait beyond the crossbar (DESIGN.md §7). Recorded only
    // when positive, so zero-wait arbitrations — the ones the express
    // path elides — leave the gauge untouched in both modes.
    g_port_backlog_ns_->set(
        static_cast<std::int64_t>((port_busy_[p] - xbar_done) / kNanosecond));
  }
  const Time start = std::max(xbar_done, port_busy_[p]);
  const Time finish = start + link.bw.serialize(wire);
  port_busy_[p] = finish;
  const Time arrival = finish + link.latency;

  if (port_peer_node_[p] >= 0) {
    --hop_inflight_;  // final arbitration for this packet
    const NodeId node = port_peer_node_[p];
    const Time rank = pkt.injected_at;
    const std::uint64_t tie = packet_tie(pkt);
    if (pkt.res_seq == kRemoteResSeq) {
      // Crossed a shard boundary: the source-side reserved pair is gone,
      // but (rank, tie) — properties of the packet, not of the schedule —
      // give this delivery exactly the heap position the serial run's
      // reserved sequence would have (sim/engine.hpp).
      engine_.schedule_at_ranked(arrival, rank, tie,
                                 [this, node, pkt = std::move(pkt)]() mutable {
                                   deliver(node, std::move(pkt));
                                 });
    } else if (pkt.res_seq != kNoResSeq) {
      const std::uint64_t seq = pkt.res_seq;
      engine_.schedule_at_seq(arrival, seq, rank, tie,
                              [this, node, pkt = std::move(pkt)]() mutable {
                                deliver(node, std::move(pkt));
                              });
    } else {
      engine_.schedule_at_ranked(arrival, rank, tie,
                                 [this, node, pkt = std::move(pkt)]() mutable {
                                   deliver(node, std::move(pkt));
                                 });
    }
  } else {
    const int next = port_peer_sw_[p];
    assert(next >= 0 && "packet routed to an unwired port");
    if (!shard_of_switch_.empty() &&
        shard_of_switch_[static_cast<std::size_t>(next)] != my_shard_) {
      // The next hop's switch belongs to a peer shard: this fabric's part
      // of the traversal (the arbitration above) is done. Hand the packet
      // across; the owning fabric re-accounts it via receive_remote. The
      // reserved sequence pair is an index into *this* engine's sequence
      // space — meaningless (and possibly unreserved) on the peer — so
      // it is replaced by the kRemoteResSeq marker: the peer schedules
      // delivery/rx on fresh local sequences ranked at injected_at, and
      // the hop event itself is ranked at this arbitration instant, so
      // both resume the positions the serial tie-break would have given
      // them (sim/engine.hpp).
      --hop_inflight_;
      --inflight_;
      pkt.res_seq = kRemoteResSeq;
      remote_hop_(shard_of_switch_[static_cast<std::size_t>(next)], next,
                  arrival, engine_.now(), std::move(pkt));
      return;
    }
    const std::uint64_t tie = packet_tie(pkt);
    engine_.schedule_at_ranked(arrival, engine_.now(), tie,
                               [this, next, pkt = std::move(pkt)]() mutable {
                                 arrive_at_switch(next, std::move(pkt));
                               });
  }
}

void Fabric::deliver(NodeId node, Packet&& pkt) {
  if (node_attach_[node].failed) {
    c_drops_dead_node_->inc();
    --inflight_;
    return;
  }
  c_delivered_->inc();
  c_hops_->inc(pkt.hops);
  c_wire_bytes_->inc(pkt.wire_bytes());
  --inflight_;
  h_pkt_latency_ns_->record((engine_.now() - pkt.injected_at) / kNanosecond);
  RVMA_FREC(engine_, engine_.now(), obs::SpanKind::kPktDeliver, pkt.msg->id,
            pkt.dst, static_cast<std::int64_t>(pkt.seq));
  NodeAttach& at = node_attach_[node];
  assert(at.delivery && "packet delivered to node without a NIC");
  at.delivery(std::move(pkt));
}

std::uint32_t Fabric::acquire_record() {
  if (xfree_ != kNone) {
    const std::uint32_t idx = xfree_;
    xfree_ = xrecords_[idx]->next_free;
    xrecords_[idx]->next_free = kNone;
    return idx;
  }
  xrecords_.push_back(std::make_unique<ExpressRecord>());
  return static_cast<std::uint32_t>(xrecords_.size() - 1);
}

void Fabric::release_record(std::uint32_t idx) {
  ExpressRecord& r = *xrecords_[idx];
  r.pkts.clear();  // drops the MsgRefs now, not when the slot is reused
  r.arrivals.clear();
  r.delivers.clear();
  r.hops.clear();  // capacities retained for the record's next commit
  r.node = -1;
  r.next = 0;
  r.chain_end = 0;
  r.state = XState::kDelivery;
  r.next_free = xfree_;
  xfree_ = idx;
}

void Fabric::close_record(std::uint32_t idx) {
  ExpressRecord& r = *xrecords_[idx];
  if (r.open) open_list_remove(r, idx);
  release_record(idx);
}

void Fabric::check_wired() const {
  for (std::size_t sw = 0; sw < switches_.size(); ++sw) {
    const Switch& s = switches_[sw];
    for (int p = 0; p < s.num_ports; ++p) {
      const std::size_t id = pid(static_cast<int>(sw), p);
      if (port_peer_sw_[id] < 0 && port_peer_node_[id] < 0) {
        std::fprintf(stderr, "fabric: switch %zu port %d unwired\n", sw, p);
        std::abort();
      }
    }
  }
  for (std::size_t n = 0; n < node_attach_.size(); ++n) {
    if (node_attach_[n].sw < 0) {
      std::fprintf(stderr, "fabric: node %zu unattached\n", n);
      std::abort();
    }
  }
}

}  // namespace rvma::net
