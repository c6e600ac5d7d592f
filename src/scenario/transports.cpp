#include "scenario/transports.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "motifs/rdma_transport.hpp"
#include "motifs/rvma_transport.hpp"
#include "scenario/registry.hpp"

namespace rvma::scenario {

// ---------------------------------------------------------------- sockets

SocketsTransport::SocketsTransport(cluster::Cluster& cluster,
                                   const sockets::SocketParams& params)
    : cluster_(cluster) {
  endpoints_.reserve(cluster.num_nodes());
  stacks_.reserve(cluster.num_nodes());
  for (int node = 0; node < cluster.num_nodes(); ++node) {
    endpoints_.push_back(std::make_unique<core::RvmaEndpoint>(
        cluster.nic(node), core::RvmaParams{}));
    stacks_.push_back(
        std::make_unique<sockets::SocketStack>(*endpoints_.back(), params));
  }
}

SocketsTransport::ChannelState& SocketsTransport::state(int src, int dst,
                                                        std::uint64_t tag) {
  const auto it = channels_.find({src, dst, tag});
  assert(it != channels_.end() && "undeclared channel");
  return it->second;
}

void SocketsTransport::setup(const std::vector<motifs::Channel>& channels,
                             std::function<void()> ready) {
  std::uint64_t max_bytes = 0;
  std::uint16_t port = 1;
  // One listening port per channel so concurrent connects cannot cross:
  // channel index -> port, assigned in declaration order. Setup is done
  // only when every accept AND every connect ACK has landed — the sender
  // side must hold its ConnId before the motif's first send.
  auto pending = std::make_shared<int>(2 * static_cast<int>(channels.size()));
  auto maybe_ready = [this, pending, ready]() {
    if (--*pending == 0) cluster_.engine().schedule(0, ready);
  };
  for (const motifs::Channel& ch : channels) {
    ChannelState cs;
    cs.ch = ch;
    max_bytes = std::max(max_bytes, ch.bytes);
    auto [it, inserted] =
        channels_.emplace(std::make_tuple(ch.src, ch.dst, ch.tag),
                          std::move(cs));
    assert(inserted && "duplicate channel");
    ChannelState* slot = &it->second;
    stacks_[ch.dst]->listen(port, [slot, maybe_ready](sockets::ConnId id) {
      slot->recv_conn = id;
      maybe_ready();
    });
    stacks_[ch.src]->connect(ch.dst, port,
                             [slot, maybe_ready](sockets::ConnId id) {
                               slot->send_conn = id;
                               maybe_ready();
                             });
    ++port;
  }
  scratch_.assign(static_cast<std::size_t>(cluster_.num_shards()),
                  std::vector<std::byte>(max_bytes, std::byte{0}));
  if (channels.empty()) cluster_.engine().schedule(0, std::move(ready));
}

void SocketsTransport::recv_post(int, int, std::uint64_t) {
  // Receiver-managed placement: the stack owns its segment ring; arming a
  // receive requires no action and no message (paper §IV-B).
}

void SocketsTransport::send(int src, int dst, std::uint64_t tag,
                            std::function<void()> done) {
  ChannelState& cs = state(src, dst, tag);
  ++cs.sent;
  stacks_[src]->send(cs.send_conn, scratch(src).data(), cs.ch.bytes);
  // Stream semantics: the send is fire-and-forget; the sender's buffer is
  // reusable as soon as the stack has staged the put.
  cluster_.engine_for(src).schedule(0, std::move(done));
}

void SocketsTransport::drain(ChannelState& cs) {
  sockets::SocketStack& stack = *stacks_[cs.ch.dst];
  std::vector<std::byte>& sink = scratch(cs.ch.dst);
  while (cs.draining > 0) {
    const std::uint64_t got = stack.recv(
        cs.recv_conn, sink.data(),
        std::min<std::uint64_t>(cs.draining, sink.size()));
    if (got == 0) break;
    cs.draining -= got;
  }
  if (cs.draining > 0) {
    stack.recv_wait(cs.recv_conn, [this, &cs] { drain(cs); });
    return;
  }
  // Clear the slot before resuming: a recv_wait that done() issues on this
  // channel arms it again and starts its own drain.
  std::function<void()> done = std::exchange(cs.waiter, nullptr);
  done();
}

void SocketsTransport::recv_wait(int dst, int src, std::uint64_t tag,
                                 std::function<void()> done) {
  ChannelState& cs = state(src, dst, tag);
  assert(!cs.waiter && "a channel has at most one blocked receiver");
  cs.waiter = std::move(done);
  cs.draining = cs.ch.bytes;
  drain(cs);
}

const motifs::TransportStats& SocketsTransport::stats() const {
  stats_ = motifs::TransportStats{};
  for (const auto& [key, cs] : channels_) stats_.data_messages += cs.sent;
  return stats_;
}

// --------------------------------------------------------- registration

void register_builtin_transports(Registry<TransportEntry>& reg) {
  // The three mailbox keys share one transport; the key fixes how a
  // receiver learns that a message has landed.
  const auto mailbox = [](motifs::RvmaTransport::Completion completion) {
    return [completion](cluster::Cluster& cluster, const ScenarioSpec&) {
      return std::unique_ptr<motifs::Transport>(
          std::make_unique<motifs::RvmaTransport>(
              cluster, core::RvmaParams{}, completion));
    };
  };
  using Completion = motifs::RvmaTransport::Completion;
  reg.add("rvma", {"RVMA mailboxes: byte-threshold windows, no handshakes",
                   mailbox(Completion::kBytes)});
  reg.add("rma",
          {"op-counted RVMA epochs: one operation completes a message",
           mailbox(Completion::kOps)});
  reg.add("portals",
          {"RVMA wire with Portals-style match-list receive resolution",
           mailbox(Completion::kMatched)});
  reg.add("rdma",
          {"RDMA baseline: buffer negotiation, credits, CQ completions",
           [](cluster::Cluster& cluster, const ScenarioSpec& spec) {
             net::Routing routing = net::Routing::kStatic;
             parse_routing(spec.routing, &routing);
             return std::unique_ptr<motifs::Transport>(
                 std::make_unique<motifs::RdmaTransport>(
                     cluster, rdma::RdmaParams{},
                     routing == net::Routing::kStatic, spec.rdma_slots));
           }});
  reg.add("sockets",
          {"stream sockets over receiver-managed RVMA mailboxes",
           [](cluster::Cluster& cluster, const ScenarioSpec&) {
             return std::unique_ptr<motifs::Transport>(
                 std::make_unique<SocketsTransport>(cluster,
                                                    sockets::SocketParams{}));
           }});
}

}  // namespace rvma::scenario
