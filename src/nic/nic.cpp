#include "nic/nic.hpp"

#include <cassert>

#include "common/log.hpp"
#include <memory>

namespace rvma::nic {

Nic::Nic(sim::Engine& engine, net::Network& network, NodeId node,
         const NicParams& params, obs::MetricsRegistry* metrics)
    : engine_(engine), network_(network), node_(node), params_(params) {
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics = owned_metrics_.get();
  }
  metrics_ = metrics;
  c_messages_sent_ = &metrics->counter("nic.messages_sent");
  c_messages_injected_ = &metrics->counter("nic.messages_injected");
  c_packets_received_ = &metrics->counter("nic.packets_received");
  c_tx_queue_stalls_ = &metrics->counter("nic.tx_queue_stalls");
  c_drops_no_handler_ = &metrics->counter("nic.drops_no_handler");
  c_doorbells_ = &metrics->counter("nic.doorbells");
  c_doorbells_merged_ = &metrics->counter("nic.doorbells_merged");
  network_.set_delivery(node_, [this](Packet&& pkt) {
    handle_delivery(std::move(pkt));
  });
  network_.fabric().set_express_rx(node_, params_.rx_proc,
                                   [this](Packet&& pkt) {
                                     express_rx(std::move(pkt));
                                   });
}

void Nic::send(Message msg, SendDone on_sent) {
  assert(msg.dst >= 0 && msg.dst < network_.num_nodes() && "bad destination");
  msg.src = node_;
  if (msg.id == 0) {
    msg.id = (static_cast<std::uint64_t>(node_) << 40) | next_msg_seq_++;
  }
  msg.created_at = engine_.now();
  ++messages_sent_;
  c_messages_sent_->inc();
  RVMA_FREC(engine_, engine_.now(), obs::SpanKind::kMsgPost, msg.id, node_,
            static_cast<std::int64_t>(msg.bytes));

  // Move the descriptor into its pooled shared slot now: the closure below
  // captures an 8-byte handle instead of the whole Message, keeping the
  // event inline in its slot (no pooled-block detour).
  net::MsgRef mref = net::MsgRef::make(std::move(msg));

  // Host posts the descriptor, rings the doorbell; the NIC fetches it one
  // PCIe crossing later and runs transmit-queue admission. With doorbell
  // batching (RDMAbox), a descriptor whose post lands while the previous
  // doorbell's crossing is still in flight rides that crossing: its
  // admission fires at the same arrival instant, in post order, and the
  // PCIe latency is paid once per batch. At doorbell_batch == 1 the ride
  // condition is never taken and the schedule is exactly the old one.
  const Time posted = engine_.now() + params_.host_overhead;
  Time arrival;
  if (params_.doorbell_batch > 1 && doorbell_count_ > 0 &&
      doorbell_count_ < params_.doorbell_batch &&
      posted <= doorbell_arrival_) {
    arrival = doorbell_arrival_;
    ++doorbell_count_;
    c_doorbells_merged_->inc();
  } else {
    arrival = posted + params_.pcie_latency;
    doorbell_arrival_ = arrival;
    doorbell_count_ = 1;
    c_doorbells_->inc();
  }
  engine_.schedule(arrival - engine_.now(), [this, mref = std::move(mref),
                           on_sent = std::move(on_sent)]() mutable {
    // Admission: if the injection link already runs further ahead of the
    // wire than the queue depth allows, the descriptor waits its turn.
    if (!tx_queue_.empty() ||
        network_.fabric().injection_backlog(node_) > params_.tx_queue_limit) {
      ++tx_queue_stalls_;
      c_tx_queue_stalls_->inc();
      RVMA_FREC(engine_, engine_.now(), obs::SpanKind::kTxQueue, mref->id,
                node_, static_cast<std::int64_t>(tx_queue_.size()));
      tx_queue_.emplace_back(std::move(mref), std::move(on_sent));
      drain_tx_queue();
      return;
    }
    inject_message(std::move(mref), std::move(on_sent));
  });
}

void Nic::drain_tx_queue() {
  if (drain_scheduled_) return;
  // One backlog lookup per admission decision: recompute only after an
  // injection actually moved the link, and reuse the final value for the
  // re-check delay below.
  Time backlog = network_.fabric().injection_backlog(node_);
  while (!tx_queue_.empty() && backlog <= params_.tx_queue_limit) {
    auto [msg, on_sent] = std::move(tx_queue_.front());
    tx_queue_.pop_front();
    inject_message(std::move(msg), std::move(on_sent));
    backlog = network_.fabric().injection_backlog(node_);
  }
  if (tx_queue_.empty()) return;
  // Re-check when enough backlog has drained to admit the next message.
  const Time wait = backlog - params_.tx_queue_limit;
  drain_scheduled_ = true;
  engine_.schedule(std::max<Time>(wait, kNanosecond), [this] {
    drain_scheduled_ = false;
    drain_tx_queue();
  });
}

void Nic::inject_message(net::MsgRef msg, SendDone on_sent) {
  c_messages_injected_->inc();
  const std::uint64_t bytes = msg->bytes;
  const std::uint32_t total = bytes == 0
      ? 1
      : static_cast<std::uint32_t>((bytes + params_.mtu - 1) / params_.mtu);
  std::uint64_t offset = 0;
  if (total > 1) {
    burst_scratch_.clear();
    burst_scratch_.reserve(total);
  }
  for (std::uint32_t seq = 0; seq < total; ++seq) {
    Packet pkt;
    pkt.src = msg->src;
    pkt.dst = msg->dst;
    pkt.offset = offset;
    pkt.bytes = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(params_.mtu, bytes - offset));
    pkt.header_bytes = params_.header_bytes;
    pkt.seq = seq;
    pkt.total = total;
    offset += pkt.bytes;
    if (total == 1) {
      pkt.msg = std::move(msg);
      network_.inject(std::move(pkt));
    } else {
      pkt.msg = msg;  // non-atomic refcount bump, no allocation
      burst_scratch_.push_back(std::move(pkt));
    }
  }
  // Multi-packet messages go down as one batch: the fabric charges the
  // injection link for every packet up front (so backlog/admission see the
  // whole message, as before) but keeps at most a single chained engine
  // event in flight instead of one queued arrival per packet — and zero
  // when the whole burst commits to the express path.
  if (total > 1) network_.inject_burst(burst_scratch_);
  if (on_sent) on_sent();
}

void Nic::register_proto(std::uint32_t proto, PacketHandler handler,
                         net::Pid pid) {
  assert(proto < kMaxProto);
  std::vector<PacketHandler>& table = dispatch_[proto];
  if (pid >= table.size()) table.resize(std::size_t{pid} + 1);
  table[pid] = std::move(handler);
}

void Nic::handle_delivery(Packet&& pkt) {
  ++packets_received_;
  c_packets_received_->inc();
  const std::uint32_t proto = net::proto_of(pkt.msg->hdr.kind);
  const net::Pid pid = pkt.msg->hdr.dst_pid;
  if (proto >= kMaxProto || pid >= dispatch_[proto].size() ||
      !dispatch_[proto][pid]) {
    // A remote peer targeted a protocol/process this node does not run —
    // a network-visible condition, not a local bug: drop.
    ++packets_dropped_no_handler_;
    c_drops_no_handler_->inc();
    RVMA_LOG_WARN("nic %d: dropping packet for proto %u pid %u", node_,
                  proto, pid);
    return;
  }
  // Receive pipeline: fixed per-packet processing before the protocol
  // engine (lookup, placement, counting) sees it. Packets with a reserved
  // sequence pair use its second half so the dispatch tie-break position
  // is identical whether or not the fabric took the express path; packets
  // that crossed a shard boundary lost their pair but keep the serial
  // position via a fresh sequence ranked at the injection instant.
  const Time rank = pkt.injected_at;
  const std::uint64_t tie = net::packet_tie(pkt);
  if (pkt.res_seq == net::kRemoteResSeq) {
    engine_.schedule_at_ranked(engine_.now() + params_.rx_proc, rank, tie,
                               [this, proto, pid, pkt = std::move(pkt)]() {
                                 dispatch_packet(proto, pid, pkt);
                               });
  } else if (pkt.res_seq != net::kNoResSeq) {
    const std::uint64_t seq = pkt.res_seq + 1;
    engine_.schedule_at_seq(engine_.now() + params_.rx_proc, seq, rank, tie,
                            [this, proto, pid, pkt = std::move(pkt)]() {
                              dispatch_packet(proto, pid, pkt);
                            });
  } else {
    engine_.schedule_at_ranked(engine_.now() + params_.rx_proc, rank, tie,
                               [this, proto, pid, pkt = std::move(pkt)]() {
                                 dispatch_packet(proto, pid, pkt);
                               });
  }
}

void Nic::express_rx(Packet&& pkt) {
  // The fabric folded delivery and receive into one event firing at
  // deliver_at + rx_proc — exactly when the unfolded pipeline's dispatch
  // event would run. Do handle_delivery's counting and the dispatch
  // directly; the fold precondition (no failure injection) guarantees
  // nothing could have observed the counters in between.
  ++packets_received_;
  c_packets_received_->inc();
  const std::uint32_t proto = net::proto_of(pkt.msg->hdr.kind);
  const net::Pid pid = pkt.msg->hdr.dst_pid;
  if (proto >= kMaxProto || pid >= dispatch_[proto].size() ||
      !dispatch_[proto][pid]) {
    ++packets_dropped_no_handler_;
    c_drops_no_handler_->inc();
    RVMA_LOG_WARN("nic %d: dropping packet for proto %u pid %u", node_,
                  proto, pid);
    return;
  }
  dispatch_packet(proto, pid, pkt);
}

void Nic::dispatch_packet(std::uint32_t proto, net::Pid pid,
                          const Packet& pkt) {
  // Fires at the same simulated instant on both rx paths: the unfolded
  // pipeline's dispatch event runs at deliver + rx_proc, and the folded
  // express event is scheduled at exactly that time, so the recorded
  // rx-dispatch span instant is fold-invariant.
  RVMA_FREC(engine_, engine_.now(), obs::SpanKind::kRxDispatch, pkt.msg->id,
            node_, static_cast<std::int64_t>(pkt.seq));
  dispatch_[proto][pid](pkt);
}

}  // namespace rvma::nic
