// RVMA-backed motif transport — the one mailbox transport.
//
// Setup is purely local: the receiver creates one mailbox per channel and
// posts a bucket of timing-only buffers. No address exchange crosses the
// network. Senders fire RVMA_Puts and continue; receivers observe
// hardware completions via the completion pointer (Monitor/MWait wake).
// The receiver tops its bucket up locally as buffers complete — the
// paper's RVMA_Win_get_epoch "keep N buffers posted" pattern — so senders
// never stall on the receiver.
//
// The same machinery serves the three ways the paper lets a receiver
// learn that a message has landed; the mode is fixed at construction:
//  - kBytes   byte-threshold mailbox, threshold = message bytes (§III-B);
//  - kOps     op-counted epoch, one put completes a message whatever its
//             length (EPOCH_OPS, the RMA fence primitive of §IV-E);
//  - kMatched byte threshold plus a Portals-style walk of the node's
//             posted-order match list on every completion (§II / §IV-A).
//             The walk changes no timing; it counts the matching work
//             RVMA's single LUT lookup avoids in the destination NIC's
//             portals.entries_traversed / portals.matches counters.
#pragma once

#include <functional>
#include <map>
#include <memory>

#include "core/endpoint.hpp"
#include "motifs/transport.hpp"
#include "cluster/cluster.hpp"
#include "portals/match_list.hpp"

namespace rvma::motifs {

class RvmaTransport final : public Transport {
 public:
  enum class Completion { kBytes, kOps, kMatched };

  /// `bucket_depth`: buffers kept posted per mailbox at any time.
  RvmaTransport(cluster::Cluster& cluster, const core::RvmaParams& params,
                Completion completion = Completion::kBytes,
                int bucket_depth = 16);

  std::string name() const override;
  void setup(const std::vector<Channel>& channels,
             std::function<void()> ready) override;
  void recv_post(int dst, int src, std::uint64_t tag) override;
  void send(int src, int dst, std::uint64_t tag,
            std::function<void()> done) override;
  void recv_wait(int dst, int src, std::uint64_t tag,
                 std::function<void()> done) override;
  const TransportStats& stats() const override;

  core::RvmaEndpoint& endpoint(int node) { return *endpoints_[node]; }

 private:
  struct ChannelState {
    Channel ch;
    std::uint64_t vaddr = 0;
    std::uint64_t sent = 0;     ///< written only on src's shard thread
    int remaining_posts = 0;    ///< buffers not yet posted
    std::uint64_t completed = 0;
    std::uint64_t consumed = 0;
    std::function<void()> waiter;  ///< the one blocked recv_wait, if any
  };

  /// kMatched: one node's matching unit. The counters live on that node's
  /// NIC registry, so each is written only from its own shard thread.
  struct MatchUnit {
    portals::MatchList list;
    obs::Counter* traversed = nullptr;
    obs::Counter* matched = nullptr;
  };

  ChannelState& state(int src, int dst, std::uint64_t tag);
  void complete(ChannelState& cs);
  void match(const ChannelState& cs);

  cluster::Cluster& cluster_;
  Completion completion_;
  int bucket_depth_;
  std::vector<std::unique_ptr<core::RvmaEndpoint>> endpoints_;
  std::vector<MatchUnit> match_units_;  ///< per node; kMatched only
  std::map<std::tuple<int, int, std::uint64_t>, ChannelState> channels_;
  /// Aggregated from per-channel counters on demand: channel counters are
  /// single-writer on a sharded cluster, a shared total would race.
  mutable TransportStats stats_;
  std::uint64_t next_vaddr_;  ///< per-mode mailbox namespace
};

}  // namespace rvma::motifs
