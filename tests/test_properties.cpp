// Property-based tests: randomized workloads checked against invariants.
// Seeds are fixed per test-case instantiation, so failures reproduce.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <vector>

#include "common/rng.hpp"
#include "core/endpoint.hpp"
#include "net/topology.hpp"
#include "cluster/cluster.hpp"

namespace rvma {
namespace {

using core::EpochType;
using core::RvmaEndpoint;
using core::RvmaParams;
using core::Window;

// Property: a buffer covered by randomly-sized, randomly-ordered,
// non-overlapping puts over an adaptively routed network completes exactly
// once with every byte intact, regardless of arrival order. This is the
// paper's central correctness claim (§IV-D).
class RandomCoverageTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomCoverageTest, OutOfOrderCoverageCompletesIntact) {
  Rng rng(GetParam());

  net::NetworkConfig cfg;
  cfg.topology = net::TopologyKind::kHyperX;
  cfg.routing = net::Routing::kAdaptive;
  cfg.hx_l1 = 3;
  cfg.hx_l2 = 3;
  cfg.seed = GetParam();
  nic::NicParams nic_params;
  nic_params.mtu = 512;  // force multi-packet puts
  cluster::Cluster cluster(cfg, nic_params);

  RvmaEndpoint sender(cluster.nic(0), RvmaParams{});
  RvmaEndpoint receiver(cluster.nic(8), RvmaParams{});  // far corner

  const std::uint64_t total =
      1024 + rng.next_below(16 * KiB);  // 1 KiB .. 17 KiB
  std::vector<std::byte> buf(total, std::byte{0});
  std::vector<std::byte> reference(total);
  for (std::uint64_t i = 0; i < total; ++i) {
    reference[i] = static_cast<std::byte>(rng() & 0xff);
  }

  void* notif = nullptr;
  std::int64_t len = -1;
  Window win = receiver.init_window(0xC0FFEE, static_cast<std::int64_t>(total),
                                    EpochType::kBytes);
  ASSERT_EQ(win.post(buf, &notif, &len), Status::kOk);

  // Random partition of [0, total) into chunks, issued in shuffled order.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> chunks;
  std::uint64_t off = 0;
  while (off < total) {
    const std::uint64_t sz = std::min<std::uint64_t>(
        total - off, 1 + rng.next_below(3 * KiB));
    chunks.emplace_back(off, sz);
    off += sz;
  }
  for (std::size_t i = chunks.size(); i > 1; --i) {
    std::swap(chunks[i - 1], chunks[rng.next_below(i)]);
  }
  int completions = 0;
  receiver.set_completion_observer(0xC0FFEE,
                                   [&](void*, std::int64_t) { ++completions; });
  for (const auto& [chunk_off, chunk_sz] : chunks) {
    sender.put(8, 0xC0FFEE, chunk_off, reference.data() + chunk_off, chunk_sz);
  }
  cluster.engine().run();

  EXPECT_EQ(completions, 1) << "threshold completion must fire exactly once";
  EXPECT_EQ(notif, buf.data());
  EXPECT_EQ(len, static_cast<std::int64_t>(total));
  EXPECT_EQ(std::memcmp(buf.data(), reference.data(), total), 0)
      << "payload corrupted despite out-of-order delivery";
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCoverageTest,
                         ::testing::Range<std::uint64_t>(1, 11));

// Property: NIC segmentation partitions any message exactly: packet
// payloads are contiguous, non-overlapping, and sum to the message size.
class SegmentationTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SegmentationTest, ExactPartition) {
  Rng rng(GetParam() * 977);
  net::NetworkConfig cfg;
  cfg.topology = net::TopologyKind::kStar;
  cfg.nodes_hint = 2;
  nic::NicParams params;
  params.mtu = static_cast<std::uint32_t>(64 + rng.next_below(8192));
  cluster::Cluster cluster(cfg, params);

  const std::uint64_t bytes = rng.next_below(100 * KiB) + 1;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> got;
  cluster.nic(1).register_proto(nic::kProtoRvma, [&](const net::Packet& pkt) {
    got.emplace_back(pkt.offset, pkt.bytes);
    EXPECT_LE(pkt.bytes, params.mtu);
  });
  net::Message msg;
  msg.dst = 1;
  msg.bytes = bytes;
  msg.hdr.kind = net::make_kind(nic::kProtoRvma, 1);
  cluster.nic(0).send(std::move(msg));
  cluster.engine().run();

  std::sort(got.begin(), got.end());
  std::uint64_t expect_off = 0;
  for (const auto& [o, b] : got) {
    EXPECT_EQ(o, expect_off);
    expect_off += b;
  }
  EXPECT_EQ(expect_off, bytes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SegmentationTest,
                         ::testing::Range<std::uint64_t>(1, 9));

// Property: on any topology x routing, a random batch of messages is
// delivered exactly once to the right node with no losses.
struct FuzzCase {
  net::TopologyKind kind;
  net::Routing routing;
  std::uint64_t seed;
};

class DeliveryFuzzTest : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(DeliveryFuzzTest, EveryMessageDeliveredExactlyOnce) {
  const FuzzCase& fc = GetParam();
  Rng rng(fc.seed);
  net::NetworkConfig cfg;
  cfg.topology = fc.kind;
  cfg.routing = fc.routing;
  cfg.nodes_hint = 60;
  cfg.seed = fc.seed;
  cluster::Cluster cluster(cfg, nic::NicParams{});
  const int n = cluster.num_nodes();

  // One catch-all RVMA endpoint per node counts arriving puts.
  std::vector<std::unique_ptr<RvmaEndpoint>> eps;
  std::vector<std::uint64_t> received(n, 0);
  for (int node = 0; node < n; ++node) {
    eps.push_back(std::make_unique<RvmaEndpoint>(cluster.nic(node),
                                                 RvmaParams{}));
    eps[node]->init_window(0x1, 1, EpochType::kOps);
    for (int i = 0; i < 40; ++i) eps[node]->post_buffer_timing_only(0x1, 1 * MiB);
    eps[node]->set_completion_observer(
        0x1, [&received, node](void*, std::int64_t) { ++received[node]; });
  }

  std::vector<std::uint64_t> expected(n, 0);
  const int messages = 150;
  for (int m = 0; m < messages; ++m) {
    const int src = static_cast<int>(rng.next_below(n));
    int dst = static_cast<int>(rng.next_below(n - 1));
    if (dst >= src) ++dst;
    ++expected[dst];
    eps[src]->put(dst, 0x1, 0, nullptr, 1 + rng.next_below(8 * KiB));
  }
  cluster.engine().run();
  EXPECT_EQ(received, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DeliveryFuzzTest,
    ::testing::Values(
        FuzzCase{net::TopologyKind::kTorus3D, net::Routing::kStatic, 1},
        FuzzCase{net::TopologyKind::kTorus3D, net::Routing::kAdaptive, 2},
        FuzzCase{net::TopologyKind::kFatTree, net::Routing::kStatic, 3},
        FuzzCase{net::TopologyKind::kFatTree, net::Routing::kAdaptive, 4},
        FuzzCase{net::TopologyKind::kDragonfly, net::Routing::kStatic, 5},
        FuzzCase{net::TopologyKind::kDragonfly, net::Routing::kAdaptive, 6},
        FuzzCase{net::TopologyKind::kHyperX, net::Routing::kStatic, 7},
        FuzzCase{net::TopologyKind::kHyperX, net::Routing::kAdaptive, 8}),
    [](const ::testing::TestParamInfo<FuzzCase>& info) {
      return net::to_string(info.param.kind) + "_" +
             net::to_string(info.param.routing);
    });

// Property: epoch count always equals hardware + software completions, and
// the retire ring never exceeds its depth, for random op interleavings.
class EpochInvariantTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EpochInvariantTest, EpochEqualsCompletions) {
  Rng rng(GetParam() * 31);
  net::NetworkConfig cfg;
  cfg.topology = net::TopologyKind::kStar;
  cfg.nodes_hint = 2;
  cluster::Cluster cluster(cfg, nic::NicParams{});
  RvmaParams params;
  params.retire_depth = 3;
  RvmaEndpoint sender(cluster.nic(0), params);
  RvmaEndpoint receiver(cluster.nic(1), params);

  Window win = receiver.init_window(0x9, 256, EpochType::kBytes);
  int posted = 0;
  for (int step = 0; step < 40; ++step) {
    switch (rng.next_below(3)) {
      case 0:
        if (win.post_timing_only(256) == Status::kOk) ++posted;
        break;
      case 1:
        sender.put(1, 0x9, 0, nullptr, 256);
        break;
      case 2:
        win.inc_epoch();  // may fail with kNoBuffer; that's fine
        break;
    }
    cluster.engine().run();
  }
  const auto& stats = receiver.stats();
  EXPECT_EQ(static_cast<std::uint64_t>(win.epoch()),
            stats.completions + stats.soft_completions);
  const core::Mailbox* mb = receiver.find_mailbox(0x9);
  ASSERT_NE(mb, nullptr);
  EXPECT_LE(mb->retired_count(), 3u);
  EXPECT_EQ(mb->posted_count() + static_cast<std::size_t>(win.epoch()),
            static_cast<std::size_t>(posted));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EpochInvariantTest,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace rvma
