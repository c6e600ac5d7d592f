// Pure unit tests for the RVMA NIC data structures: Mailbox buckets,
// posted-buffer thresholds, the retire ring / rewind, and the counter pool.
#include <gtest/gtest.h>

#include <array>

#include "core/mailbox.hpp"

namespace rvma::core {
namespace {

Mailbox make_mailbox(std::int64_t threshold = 1024,
                     EpochType type = EpochType::kBytes, int retire_depth = 4) {
  return Mailbox(0x11FF0011, threshold, type, Placement::kSteered,
                 retire_depth);
}

TEST(PostedBuffer, ByteThreshold) {
  PostedBuffer buf;
  buf.threshold = 100;
  buf.type = EpochType::kBytes;
  buf.bytes_received = 99;
  EXPECT_FALSE(buf.threshold_reached());
  buf.bytes_received = 100;
  EXPECT_TRUE(buf.threshold_reached());
  buf.bytes_received = 150;  // overshoot still complete
  EXPECT_TRUE(buf.threshold_reached());
}

TEST(PostedBuffer, OpsThreshold) {
  PostedBuffer buf;
  buf.threshold = 3;
  buf.type = EpochType::kOps;
  buf.bytes_received = 1 << 20;  // bytes irrelevant in ops mode
  buf.ops_received = 2;
  EXPECT_FALSE(buf.threshold_reached());
  buf.ops_received = 3;
  EXPECT_TRUE(buf.threshold_reached());
}

TEST(Mailbox, PostInheritsWindowThreshold) {
  Mailbox mb = make_mailbox(512, EpochType::kOps);
  PostedBuffer buf;
  buf.size = 4096;
  ASSERT_EQ(mb.post(buf), Status::kOk);
  EXPECT_EQ(mb.active().threshold, 512);
  EXPECT_EQ(mb.active().type, EpochType::kOps);
}

TEST(Mailbox, PostKeepsExplicitThreshold) {
  Mailbox mb = make_mailbox(512, EpochType::kOps);
  PostedBuffer buf;
  buf.size = 4096;
  buf.threshold = 7;
  buf.type = EpochType::kBytes;
  ASSERT_EQ(mb.post(buf), Status::kOk);
  EXPECT_EQ(mb.active().threshold, 7);
  EXPECT_EQ(mb.active().type, EpochType::kBytes);
}

TEST(Mailbox, PostWithDefaultThresholdPreservesMatchingType) {
  // Regression: post() used to overwrite a caller-specified epoch type with
  // the window default whenever threshold <= 0, silently discarding it.
  Mailbox mb = make_mailbox(512, EpochType::kOps);
  PostedBuffer buf;
  buf.size = 4096;
  buf.type = EpochType::kOps;  // explicit, consistent with the window
  ASSERT_EQ(mb.post(buf), Status::kOk);
  EXPECT_EQ(mb.active().threshold, 512);
  EXPECT_EQ(mb.active().type, EpochType::kOps);
}

TEST(Mailbox, PostWithDefaultThresholdRejectsMismatchedType) {
  // The window default threshold is counted in the window's units, so a
  // default-threshold post naming a different type is inconsistent.
  Mailbox mb = make_mailbox(512, EpochType::kOps);
  PostedBuffer buf;
  buf.size = 4096;
  buf.type = EpochType::kBytes;  // explicit, conflicts with kOps window
  EXPECT_EQ(mb.post(buf), Status::kInvalidArg);
  EXPECT_EQ(mb.posted_count(), 0u);
}

TEST(Mailbox, PostExplicitThresholdInheritsWindowType) {
  Mailbox mb = make_mailbox(512, EpochType::kOps);
  PostedBuffer buf;
  buf.size = 4096;
  buf.threshold = 9;  // explicit count, type left as kInherit
  ASSERT_EQ(mb.post(buf), Status::kOk);
  EXPECT_EQ(mb.active().threshold, 9);
  EXPECT_EQ(mb.active().type, EpochType::kOps);
}

TEST(Mailbox, PostNegativeThresholdRejected) {
  Mailbox mb = make_mailbox();
  PostedBuffer buf;
  buf.size = 64;
  buf.threshold = -5;
  EXPECT_EQ(mb.post(buf), Status::kInvalidArg);
}

TEST(Mailbox, RejectsInvalidPosts) {
  Mailbox mb = make_mailbox();
  PostedBuffer empty;  // size 0
  EXPECT_EQ(mb.post(empty), Status::kInvalidArg);

  Mailbox no_threshold(1, 0, EpochType::kBytes, Placement::kSteered, 4);
  PostedBuffer buf;
  buf.size = 64;
  EXPECT_EQ(no_threshold.post(buf), Status::kInvalidArg);
}

TEST(Mailbox, ClosedRejectsPosts) {
  Mailbox mb = make_mailbox();
  mb.close();
  PostedBuffer buf;
  buf.size = 64;
  EXPECT_EQ(mb.post(buf), Status::kClosed);
  EXPECT_TRUE(mb.closed());
}

TEST(Mailbox, BucketIsFifo) {
  Mailbox mb = make_mailbox();
  std::array<std::byte, 3> marks{};
  for (int i = 0; i < 3; ++i) {
    PostedBuffer buf;
    buf.base = &marks[i];
    buf.size = 64;
    ASSERT_EQ(mb.post(buf), Status::kOk);
  }
  EXPECT_EQ(mb.posted_count(), 3u);
  EXPECT_EQ(mb.active().base, &marks[0]);
  mb.retire_active(false);
  EXPECT_EQ(mb.active().base, &marks[1]);
  mb.retire_active(false);
  EXPECT_EQ(mb.active().base, &marks[2]);
}

TEST(Mailbox, RetireAdvancesEpochAndCount) {
  Mailbox mb = make_mailbox();
  for (int i = 0; i < 3; ++i) {
    PostedBuffer buf;
    buf.size = 64;
    ASSERT_EQ(mb.post(buf), Status::kOk);
  }
  EXPECT_EQ(mb.epoch(), 0);
  mb.retire_active(false);
  EXPECT_EQ(mb.epoch(), 1);
  EXPECT_EQ(mb.completed_count(), 1u);
  mb.retire_active(true);  // soft (inc_epoch) also advances
  EXPECT_EQ(mb.epoch(), 2);
}

TEST(Mailbox, RetiredBufferRecordsReceivedBytesAndEpoch) {
  Mailbox mb = make_mailbox();
  PostedBuffer buf;
  buf.size = 256;
  ASSERT_EQ(mb.post(buf), Status::kOk);
  mb.active().bytes_received = 200;
  const std::optional<RetiredBuffer> r = mb.retire_active(true);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->bytes_received, 200u);
  EXPECT_EQ(r->epoch, 0);
  EXPECT_TRUE(r->soft);
}

TEST(Mailbox, RetireOnEmptyMailboxFailsWithoutStateChange) {
  // Regression: retire_active used to dereference queue_.front() with an
  // empty bucket (a completion racing an already-drained mailbox) — UB.
  Mailbox mb = make_mailbox();
  EXPECT_FALSE(mb.retire_active(false).has_value());
  EXPECT_FALSE(mb.retire_active(true).has_value());
  EXPECT_EQ(mb.epoch(), 0);
  EXPECT_EQ(mb.completed_count(), 0u);
  EXPECT_EQ(mb.retired_count(), 0u);

  // A drained mailbox behaves the same as a never-filled one.
  PostedBuffer buf;
  buf.size = 64;
  ASSERT_EQ(mb.post(buf), Status::kOk);
  EXPECT_TRUE(mb.retire_active(false).has_value());
  EXPECT_FALSE(mb.retire_active(false).has_value());
  EXPECT_EQ(mb.epoch(), 1);
  EXPECT_EQ(mb.completed_count(), 1u);
}

TEST(Mailbox, RewindReturnsPreviousEpochs) {
  Mailbox mb = make_mailbox();
  std::array<std::array<std::byte, 8>, 3> bufs{};
  for (auto& b : bufs) {
    PostedBuffer pb;
    pb.base = b.data();
    pb.size = b.size();
    ASSERT_EQ(mb.post(pb), Status::kOk);
  }
  for (int i = 0; i < 3; ++i) {
    mb.active().bytes_received = static_cast<std::uint64_t>(i + 1);
    mb.retire_active(false);
  }
  RetiredBuffer r;
  ASSERT_EQ(mb.rewind(1, &r), Status::kOk);  // most recent epoch
  EXPECT_EQ(r.base, bufs[2].data());
  EXPECT_EQ(r.bytes_received, 3u);
  ASSERT_EQ(mb.rewind(3, &r), Status::kOk);  // oldest retained
  EXPECT_EQ(r.base, bufs[0].data());
  EXPECT_EQ(r.bytes_received, 1u);
}

TEST(Mailbox, RewindBeyondRingFails) {
  Mailbox mb = make_mailbox(1024, EpochType::kBytes, /*retire_depth=*/2);
  for (int i = 0; i < 5; ++i) {
    PostedBuffer buf;
    buf.size = 64;
    ASSERT_EQ(mb.post(buf), Status::kOk);
    mb.retire_active(false);
  }
  RetiredBuffer r;
  EXPECT_EQ(mb.rewind(1, &r), Status::kOk);
  EXPECT_EQ(mb.rewind(2, &r), Status::kOk);
  EXPECT_EQ(mb.rewind(3, &r), Status::kNoBuffer);  // aged out (depth 2)
  EXPECT_EQ(mb.rewind(0, &r), Status::kInvalidArg);
  EXPECT_EQ(mb.rewind(1, nullptr), Status::kInvalidArg);
}

TEST(Mailbox, RetireRingBounded) {
  Mailbox mb = make_mailbox(1024, EpochType::kBytes, /*retire_depth=*/3);
  for (int i = 0; i < 10; ++i) {
    PostedBuffer buf;
    buf.size = 64;
    ASSERT_EQ(mb.post(buf), Status::kOk);
    mb.retire_active(false);
  }
  EXPECT_EQ(mb.retired_count(), 3u);
  EXPECT_EQ(mb.epoch(), 10);
}

TEST(Mailbox, CollectNotifPtrs) {
  Mailbox mb = make_mailbox();
  void* slots[4] = {};
  void** notif_a = &slots[0];
  void** notif_b = &slots[1];
  PostedBuffer a;
  a.size = 64;
  a.notif_ptr = notif_a;
  PostedBuffer b;
  b.size = 64;
  b.notif_ptr = notif_b;
  ASSERT_EQ(mb.post(a), Status::kOk);
  ASSERT_EQ(mb.post(b), Status::kOk);

  void* out[4] = {};
  EXPECT_EQ(mb.collect_notif_ptrs(out, 4), 2);
  EXPECT_EQ(out[0], static_cast<void*>(notif_a));
  EXPECT_EQ(out[1], static_cast<void*>(notif_b));
  EXPECT_EQ(mb.collect_notif_ptrs(out, 1), 1);  // count-limited
}

TEST(Mailbox, PostResetsCountersOnReusedDescriptor) {
  Mailbox mb = make_mailbox();
  PostedBuffer buf;
  buf.size = 64;
  buf.bytes_received = 42;  // stale state from a prior use
  buf.ops_received = 3;
  buf.write_cursor = 17;
  ASSERT_EQ(mb.post(buf), Status::kOk);
  EXPECT_EQ(mb.active().bytes_received, 0u);
  EXPECT_EQ(mb.active().ops_received, 0);
  EXPECT_EQ(mb.active().write_cursor, 0u);
}

TEST(Mailbox, BucketStaysFifoAcrossWrapAndGrowth) {
  // The posted-buffer ring wraps when retires free its head slots and
  // regrows while wrapped; neither may reorder the bucket.
  Mailbox mb = make_mailbox();
  std::uint64_t next_post = 1, next_retire = 1;
  auto post = [&](int n) {
    for (int i = 0; i < n; ++i) {
      PostedBuffer buf;
      buf.size = next_post++;  // the size tags the buffer's post order
      ASSERT_EQ(mb.post(buf), Status::kOk);
    }
  };
  auto retire = [&](int n) {
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(mb.has_active());
      EXPECT_EQ(mb.active().size, next_retire++);
      ASSERT_TRUE(mb.retire_active(false).has_value());
    }
  };
  post(4);
  retire(3);
  post(2);  // wraps inside the 4-slot ring
  post(5);  // grows while wrapped
  EXPECT_EQ(mb.posted_count(), 8u);
  retire(6);
  post(9);
  retire(11);
  EXPECT_FALSE(mb.has_active());
  EXPECT_EQ(mb.posted_count(), 0u);
}

TEST(Mailbox, RetireRingKeepsNewestEpochsAfterWrapping) {
  Mailbox mb = make_mailbox(1024, EpochType::kBytes, /*retire_depth=*/3);
  for (std::uint64_t i = 0; i < 7; ++i) {
    PostedBuffer buf;
    buf.size = 100 + i;
    ASSERT_EQ(mb.post(buf), Status::kOk);
    mb.retire_active(false);
  }
  EXPECT_EQ(mb.retired_count(), 3u);
  RetiredBuffer r;
  for (int back = 1; back <= 3; ++back) {
    ASSERT_EQ(mb.rewind(back, &r), Status::kOk);
    EXPECT_EQ(r.size, 107u - static_cast<std::uint64_t>(back));
    EXPECT_EQ(r.epoch, 7 - back);
  }
  EXPECT_EQ(mb.rewind(4, &r), Status::kNoBuffer);
}

TEST(Mailbox, OooDegreeTracksEachSenderSeparately) {
  Mailbox mb = make_mailbox();
  EXPECT_EQ(mb.ooo_degree(9, 5), 0u);
  EXPECT_EQ(mb.ooo_degree(2, 1), 0u);  // new sender sorts before 9
  EXPECT_EQ(mb.ooo_degree(9, 3), 2u);  // overtaken by counter 5
  EXPECT_EQ(mb.ooo_degree(2, 4), 0u);
  EXPECT_EQ(mb.ooo_degree(5, 0), 0u);  // new sender between 2 and 9
  EXPECT_EQ(mb.ooo_degree(2, 2), 2u);
  EXPECT_EQ(mb.ooo_degree(9, 8), 0u);  // in order, with a gap
  EXPECT_EQ(mb.ooo_degree(9, 7), 1u);
}

TEST(CounterPool, AcquireRelease) {
  CounterPool pool(2);
  EXPECT_EQ(pool.capacity(), 2);
  EXPECT_TRUE(pool.try_acquire());
  EXPECT_TRUE(pool.try_acquire());
  EXPECT_FALSE(pool.try_acquire());  // exhausted -> host-memory counters
  EXPECT_EQ(pool.in_use(), 2);
  pool.release();
  EXPECT_TRUE(pool.try_acquire());
  EXPECT_EQ(pool.available(), 0);
}

TEST(CounterPool, ReleaseNeverUnderflows) {
  CounterPool pool(1);
  pool.release();
  EXPECT_EQ(pool.in_use(), 0);
  EXPECT_TRUE(pool.try_acquire());
}

}  // namespace
}  // namespace rvma::core
