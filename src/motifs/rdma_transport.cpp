#include "cluster/cluster.hpp"
#include "motifs/rdma_transport.hpp"

#include <cassert>
#include <utility>

namespace rvma::motifs {

RdmaTransport::RdmaTransport(cluster::Cluster& cluster,
                             const rdma::RdmaParams& params,
                             bool ordered_network, int slots)
    : cluster_(cluster),
      params_(params),
      ordered_network_(ordered_network),
      slots_(slots < 1 ? 1 : slots) {
  endpoints_.reserve(cluster.num_nodes());
  for (int node = 0; node < cluster.num_nodes(); ++node) {
    endpoints_.push_back(
        std::make_unique<rdma::RdmaEndpoint>(cluster.nic(node), params));
  }
}

RdmaTransport::ChannelState& RdmaTransport::state(int src, int dst,
                                                  std::uint64_t tag) {
  const auto it = channels_.find({src, dst, tag});
  assert(it != channels_.end() && "undeclared channel");
  return it->second;
}

void RdmaTransport::setup(const std::vector<Channel>& channels,
                          std::function<void()> ready) {
  for (const Channel& ch : channels) {
    ChannelState cs;
    cs.ch = ch;
    cs.index = static_cast<std::uint32_t>(by_index_.size());
    auto [it, inserted] = channels_.emplace(
        std::make_tuple(ch.src, ch.dst, ch.tag), std::move(cs));
    assert(inserted && "duplicate channel");
    by_index_.push_back(&it->second);
  }

  // Target-side middleware: allocate timing-only regions for handshakes and
  // record each channel's region address (needed to arm last-byte polls).
  for (auto& ep : endpoints_) {
    ep->serve_buffer_requests(
        [](std::uint64_t, std::uint64_t) { return std::span<std::byte>{}; },
        [this](std::uint64_t tag, std::uint64_t addr, std::uint64_t) {
          by_index_[tag]->region_addr = addr;
        });
  }
  // Shared recv-CQ pump per node: credits and completion sends arrive here.
  for (int node = 0; node < cluster_.num_nodes(); ++node) {
    pump_cq(node);
  }

  // One negotiation handshake per channel, all in flight concurrently.
  auto pending = std::make_shared<int>(static_cast<int>(by_index_.size()));
  if (*pending == 0) {
    cluster_.engine().schedule(0, std::move(ready));
    return;
  }
  for (ChannelState* cs : by_index_) {
    cs->ctrl_src += 2;  // request + reply
    endpoints_[cs->ch.src]->request_buffer(
        cs->ch.dst, cs->ch.bytes * static_cast<std::uint64_t>(slots_),
        [cs, pending, ready](rdma::RemoteBuffer rb) {
          cs->remote = rb;
          if (--*pending == 0) ready();
        },
        cs->index);
  }
}

void RdmaTransport::pump_cq(int node) {
  endpoints_[node]->post_recv([this, node](const rdma::Completion& entry) {
    const std::uint64_t type = entry.imm >> 32;
    ChannelState& cs = *by_index_[entry.imm & 0xffffffffULL];
    if (type == kImmCredit) {
      ++cs.credits;
      if (cs.credit_waiter) {
        std::function<void()> resume =
            std::exchange(cs.credit_waiter, nullptr);
        resume();
      }
    } else if (type == kImmComplete) {
      on_channel_complete(cs);
    }
    pump_cq(node);
  });
}

void RdmaTransport::on_channel_complete(ChannelState& cs) {
  ++cs.completed;
  // A slot just freed up: grant a queued credit, if any.
  if (cs.pending_posts > 0) {
    --cs.pending_posts;
    grant_credit(cs);
  }
  if (cs.waiter && cs.completed > cs.consumed) {
    ++cs.consumed;
    std::function<void()> done = std::exchange(cs.waiter, nullptr);
    done();
  }
}

void RdmaTransport::grant_credit(ChannelState& cs) {
  if (ordered_network_) {
    // Arm the last-byte poll for the slot this message will land in.
    // The credit below is what authorizes the sender, so the poll is
    // always armed before its byte can be written.
    const std::uint64_t slot = cs.arm_seq % static_cast<std::uint64_t>(slots_);
    ++cs.arm_seq;
    endpoints_[cs.ch.dst]->arm_last_byte_poll(
        cs.region_addr, slot * cs.ch.bytes + cs.ch.bytes,
        [this, &cs](Time, std::uint64_t) { on_channel_complete(cs); });
  }
  // Return a credit: the initiator owns the region, so the target must
  // tell it when a slot is safe to overwrite.
  ++cs.credits_granted;
  ++cs.ctrl_dst;
  endpoints_[cs.ch.dst]->send(cs.ch.src, (kImmCredit << 32) | cs.index);
}

void RdmaTransport::recv_post(int dst, int src, std::uint64_t tag) {
  ChannelState& cs = state(src, dst, tag);
  // A credit may only be outstanding while a registered slot is free;
  // posts beyond the slot depth queue until a message completes.
  if (cs.credits_granted - cs.completed <
      static_cast<std::uint64_t>(slots_)) {
    grant_credit(cs);
  } else {
    ++cs.pending_posts;
  }
}

void RdmaTransport::send(int src, int dst, std::uint64_t tag,
                         std::function<void()> done) {
  ChannelState& cs = state(src, dst, tag);
  if (cs.credits == 0) {
    ++cs.stalls;
    assert(!cs.credit_waiter && "a channel has at most one blocked sender");
    cs.credit_waiter = [this, &cs, done = std::move(done)]() mutable {
      issue_send(cs, std::move(done));
    };
    return;
  }
  issue_send(cs, std::move(done));
}

void RdmaTransport::issue_send(ChannelState& cs, std::function<void()> done) {
  assert(cs.credits > 0);
  --cs.credits;
  ++cs.sent;
  const std::uint64_t slot = cs.send_seq % static_cast<std::uint64_t>(slots_);
  ++cs.send_seq;
  const int src = cs.ch.src;
  const int dst = cs.ch.dst;
  // The sender pipelines: it continues as soon as the put is handed to the
  // wire (multiple outstanding WRs, as a tuned RDMA application would).
  // The spec-compliant trailing completion send on adaptively routed
  // fabrics still waits for the put's local completion (target-NIC ack),
  // preserving the data-before-notification ordering guarantee.
  endpoints_[src]->put(
      cs.remote, slot * cs.ch.bytes, nullptr, cs.ch.bytes,
      [this, src, dst, idx = cs.index] {
        if (!ordered_network_) {
          // Local completion fires on src's shard thread: src-side counter.
          ++by_index_[idx]->ctrl_src;
          endpoints_[src]->send(dst, (kImmComplete << 32) | idx);
        }
      },
      std::move(done));
}

void RdmaTransport::recv_wait(int dst, int src, std::uint64_t tag,
                              std::function<void()> done) {
  ChannelState& cs = state(src, dst, tag);
  if (cs.completed > cs.consumed) {
    ++cs.consumed;
    cluster_.engine_for(dst).schedule(0, std::move(done));
    return;
  }
  assert(!cs.waiter && "a channel has at most one blocked receiver");
  cs.waiter = std::move(done);
}

const TransportStats& RdmaTransport::stats() const {
  stats_ = TransportStats{};
  for (const ChannelState* cs : by_index_) {
    stats_.data_messages += cs->sent;
    stats_.control_messages += cs->ctrl_src + cs->ctrl_dst;
    stats_.credit_stalls += cs->stalls;
  }
  return stats_;
}

}  // namespace rvma::motifs
