// The sockets scenario transport: the receiver-managed stream middleware
// as a motifs::Transport, so any registered motif runs over it. The
// mailbox transports (rvma, rma, portals) are modes of
// motifs::RvmaTransport; rdma is motifs::RdmaTransport.
#pragma once

#include <functional>
#include <map>
#include <memory>

#include "core/endpoint.hpp"
#include "motifs/transport.hpp"
#include "cluster/cluster.hpp"
#include "sockets/socket_stack.hpp"

namespace rvma::scenario {

/// Messages as stream writes over the sockets middleware (paper §IV-B):
/// one connection per channel, send() is a fire-and-forget stream write,
/// recv_wait() consumes exactly one message's bytes off the stream. No
/// per-message coordination — but also no message boundaries, so the
/// receiver counts bytes.
class SocketsTransport final : public motifs::Transport {
 public:
  SocketsTransport(cluster::Cluster& cluster,
                   const sockets::SocketParams& params);

  std::string name() const override { return "sockets"; }
  void setup(const std::vector<motifs::Channel>& channels,
             std::function<void()> ready) override;
  void recv_post(int dst, int src, std::uint64_t tag) override;
  void send(int src, int dst, std::uint64_t tag,
            std::function<void()> done) override;
  void recv_wait(int dst, int src, std::uint64_t tag,
                 std::function<void()> done) override;
  const motifs::TransportStats& stats() const override;

  sockets::SocketStack& stack(int node) { return *stacks_[node]; }

 private:
  struct ChannelState {
    motifs::Channel ch;
    sockets::ConnId send_conn = 0;  ///< valid on the src node's stack
    sockets::ConnId recv_conn = 0;  ///< valid on the dst node's stack
    std::uint64_t sent = 0;  ///< written only on src's shard thread
    /// Bytes of the message currently being drained by recv_wait.
    std::uint64_t draining = 0;
    std::function<void()> waiter;  ///< the one blocked recv_wait, if any
  };

  ChannelState& state(int src, int dst, std::uint64_t tag);
  void drain(ChannelState& cs);
  std::vector<std::byte>& scratch(int node) {
    return scratch_[static_cast<std::size_t>(cluster_.shard_of_node(node))];
  }

  cluster::Cluster& cluster_;
  std::vector<std::unique_ptr<core::RvmaEndpoint>> endpoints_;
  std::vector<std::unique_ptr<sockets::SocketStack>> stacks_;
  std::map<std::tuple<int, int, std::uint64_t>, ChannelState> channels_;
  /// Zero payload for timing sends and sink for drains, one per shard so
  /// only that shard's thread ever touches it.
  std::vector<std::vector<std::byte>> scratch_;
  /// Aggregated from per-channel counters on demand (see RvmaTransport).
  mutable motifs::TransportStats stats_;
};

}  // namespace rvma::scenario
