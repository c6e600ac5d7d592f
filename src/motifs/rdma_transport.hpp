// RDMA-backed motif transport (the baseline the paper compares against).
//
// Setup: one buffer-negotiation handshake per channel — the initiator asks
// the target to allocate and register a region and ships back its address
// and length (Fig. 1 steps 1-3).
//
// Steady state per message:
//  * the receiver returns a credit (a small send) when it re-arms the
//    channel's buffer slot — RDMA targets must coordinate buffer reuse with
//    initiators because initiators "own" the remote region;
//  * the sender puts the payload once it holds a credit and continues when
//    its CQ reports local completion (target-NIC ack);
//  * completion at the target: under static routing, the last-byte polling
//    cheat; under adaptive routing, the InfiniBand-spec-compliant trailing
//    send/recv, observed through the shared recv CQ with its polling cost.
//
// RVMA removes every one of these control messages; this class exists so
// the benches can measure exactly how much they cost.
#pragma once

#include <functional>
#include <map>
#include <memory>

#include "motifs/transport.hpp"
#include "cluster/cluster.hpp"
#include "rdma/rdma.hpp"

namespace rvma::motifs {

class RdmaTransport final : public Transport {
 public:
  /// `ordered_network`: true when the fabric is statically routed (byte
  /// ordering holds), enabling the last-byte completion cheat. `slots`:
  /// registered buffer slots per channel (credit pipeline depth).
  RdmaTransport(cluster::Cluster& cluster, const rdma::RdmaParams& params,
                bool ordered_network, int slots = 1);

  std::string name() const override {
    return ordered_network_ ? "rdma-static" : "rdma-adaptive";
  }
  void setup(const std::vector<Channel>& channels,
             std::function<void()> ready) override;
  void recv_post(int dst, int src, std::uint64_t tag) override;
  void send(int src, int dst, std::uint64_t tag,
            std::function<void()> done) override;
  void recv_wait(int dst, int src, std::uint64_t tag,
                 std::function<void()> done) override;
  const TransportStats& stats() const override;

  rdma::RdmaEndpoint& endpoint(int node) { return *endpoints_[node]; }

 private:
  // The two halves of a ChannelState are touched from two different shard
  // threads on a sharded cluster: sender-side fields only from events on
  // shard_of(src) (send/issue_send and the credit arrivals pumped through
  // src's recv CQ), receiver-side fields only from events on shard_of(dst)
  // (recv_post/recv_wait, last-byte polls, completion sends through dst's
  // CQ). Stats counters are therefore split per side and aggregated in
  // stats(); a shared TransportStats total would race.
  struct ChannelState {
    Channel ch;
    std::uint32_t index = 0;
    // Sender side.
    rdma::RemoteBuffer remote;
    int credits = 0;
    std::uint64_t send_seq = 0;
    std::uint64_t sent = 0;
    std::uint64_t stalls = 0;
    std::uint64_t ctrl_src = 0;  ///< handshakes + trailing completion sends
    std::function<void()> credit_waiter;  ///< the one credit-blocked send
    // Receiver side.
    std::uint64_t ctrl_dst = 0;  ///< credit sends
    std::uint64_t region_addr = 0;
    std::uint64_t arm_seq = 0;
    std::uint64_t credits_granted = 0;  ///< credits sent to the initiator
    std::uint64_t pending_posts = 0;    ///< recv_posts waiting for a slot
    std::uint64_t completed = 0;
    std::uint64_t consumed = 0;
    std::function<void()> waiter;  ///< the one blocked recv_wait, if any
  };

  // Control-message immediate encoding: (type << 32) | channel index.
  static constexpr std::uint64_t kImmCredit = 1;
  static constexpr std::uint64_t kImmComplete = 2;

  ChannelState& state(int src, int dst, std::uint64_t tag);
  void issue_send(ChannelState& cs, std::function<void()> done);
  void on_channel_complete(ChannelState& cs);
  void grant_credit(ChannelState& cs);
  void pump_cq(int node);

  cluster::Cluster& cluster_;
  rdma::RdmaParams params_;
  bool ordered_network_;
  int slots_;
  std::vector<std::unique_ptr<rdma::RdmaEndpoint>> endpoints_;
  std::map<std::tuple<int, int, std::uint64_t>, ChannelState> channels_;
  std::vector<ChannelState*> by_index_;
  mutable TransportStats stats_;  ///< scratch for stats() aggregation
};

}  // namespace rvma::motifs
