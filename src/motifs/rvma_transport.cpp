#include "cluster/cluster.hpp"
#include "motifs/rvma_transport.hpp"

#include <cassert>
#include <utility>

namespace rvma::motifs {

namespace {

/// Each mode keeps its own mailbox namespace, so a trace or flight dump
/// shows which mode a mailbox vaddr belongs to.
std::uint64_t vaddr_base(RvmaTransport::Completion completion) {
  switch (completion) {
    case RvmaTransport::Completion::kOps: return 0x33AA0000;
    case RvmaTransport::Completion::kMatched: return 0x44BB0000;
    case RvmaTransport::Completion::kBytes: break;
  }
  return 0x11FF0000;
}

}  // namespace

RvmaTransport::RvmaTransport(cluster::Cluster& cluster,
                             const core::RvmaParams& params,
                             Completion completion, int bucket_depth)
    : cluster_(cluster),
      completion_(completion),
      bucket_depth_(bucket_depth),
      next_vaddr_(vaddr_base(completion)) {
  endpoints_.reserve(cluster.num_nodes());
  for (int node = 0; node < cluster.num_nodes(); ++node) {
    endpoints_.push_back(
        std::make_unique<core::RvmaEndpoint>(cluster.nic(node), params));
  }
  if (completion_ != Completion::kMatched) return;
  match_units_.resize(static_cast<std::size_t>(cluster.num_nodes()));
  for (int node = 0; node < cluster.num_nodes(); ++node) {
    obs::MetricsRegistry& m = cluster.nic(node).metrics();
    MatchUnit& unit = match_units_[static_cast<std::size_t>(node)];
    unit.traversed = &m.counter("portals.entries_traversed");
    unit.matched = &m.counter("portals.matches");
  }
}

std::string RvmaTransport::name() const {
  switch (completion_) {
    case Completion::kOps: return "rma";
    case Completion::kMatched: return "portals";
    case Completion::kBytes: break;
  }
  return "rvma";
}

RvmaTransport::ChannelState& RvmaTransport::state(int src, int dst,
                                                  std::uint64_t tag) {
  const auto it = channels_.find({src, dst, tag});
  assert(it != channels_.end() && "undeclared channel");
  return it->second;
}

void RvmaTransport::setup(const std::vector<Channel>& channels,
                          std::function<void()> ready) {
  for (const Channel& ch : channels) {
    ChannelState cs;
    cs.ch = ch;
    cs.vaddr = next_vaddr_++;
    cs.remaining_posts = ch.count;
    channels_.emplace(std::make_tuple(ch.src, ch.dst, ch.tag), std::move(cs));
  }
  // Receiver-side, purely local: create windows, fill buckets, install
  // the per-mailbox completion observers.
  for (auto& [key, cs_ref] : channels_) {
    ChannelState& cs = cs_ref;
    core::RvmaEndpoint& ep = *endpoints_[cs.ch.dst];
    if (completion_ == Completion::kOps) {
      // One operation per epoch: the message completes when its put has
      // fully arrived, independent of length.
      ep.init_window(cs.vaddr, 1, core::EpochType::kOps);
    } else {
      ep.init_window(cs.vaddr, static_cast<std::int64_t>(cs.ch.bytes),
                     core::EpochType::kBytes);
    }
    for (int i = 0; i < bucket_depth_ && cs.remaining_posts > 0; ++i) {
      ep.post_buffer_timing_only(cs.vaddr, cs.ch.bytes);
      --cs.remaining_posts;
    }
    if (completion_ == Completion::kMatched) {
      // The posted receive as a persistent match entry: source-qualified,
      // exact match bits, appended in channel order.
      match_units_[static_cast<std::size_t>(cs.ch.dst)].list.append(
          portals::MatchEntry{
              .match_bits = cs.ch.tag,
              .source = cs.ch.src,
              .use_once = false,
          });
      ep.set_completion_observer(cs.vaddr, [this, &cs](void*, std::int64_t) {
        match(cs);
        complete(cs);
      });
    } else {
      ep.set_completion_observer(
          cs.vaddr, [this, &cs](void*, std::int64_t) { complete(cs); });
    }
  }
  // No network traffic was required: channels are usable immediately.
  cluster_.engine().schedule(0, std::move(ready));
}

void RvmaTransport::complete(ChannelState& cs) {
  ++cs.completed;
  // Top the bucket back up — a local post, no coordination message.
  if (cs.remaining_posts > 0) {
    endpoints_[cs.ch.dst]->post_buffer_timing_only(cs.vaddr, cs.ch.bytes);
    --cs.remaining_posts;
  }
  if (cs.waiter && cs.completed > cs.consumed) {
    ++cs.consumed;
    std::function<void()> done = std::exchange(cs.waiter, nullptr);
    done();
  }
}

void RvmaTransport::match(const ChannelState& cs) {
  // The matching unit's list walk for this arrival, accounting the
  // entries it touched — the cost a single-lookup LUT never pays.
  MatchUnit& unit = match_units_[static_cast<std::size_t>(cs.ch.dst)];
  const std::uint64_t before = unit.list.entries_traversed();
  unit.list.match(cs.ch.src, cs.ch.tag);
  unit.traversed->inc(unit.list.entries_traversed() - before);
  unit.matched->inc();
}

void RvmaTransport::recv_post(int, int, std::uint64_t) {
  // Buffers are managed locally by the bucket top-up in complete();
  // posting a receive requires no action and, critically, no network
  // message.
}

void RvmaTransport::send(int src, int dst, std::uint64_t tag,
                         std::function<void()> done) {
  ChannelState& cs = state(src, dst, tag);
  ++cs.sent;
  endpoints_[src]->put(dst, cs.vaddr, 0, nullptr, cs.ch.bytes,
                       std::move(done));
}

void RvmaTransport::recv_wait(int dst, int src, std::uint64_t tag,
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

const TransportStats& RvmaTransport::stats() const {
  stats_ = TransportStats{};
  for (const auto& [key, cs] : channels_) stats_.data_messages += cs.sent;
  return stats_;
}

}  // namespace rvma::motifs
