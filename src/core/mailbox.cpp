#include "core/mailbox.hpp"

#include <algorithm>

namespace rvma::core {

Status Mailbox::post(PostedBuffer buf) {
  if (closed_) return Status::kClosed;
  if (buf.size == 0) return Status::kInvalidArg;
  // 0 is the "unset" descriptor default; a negative count is a caller bug.
  if (buf.threshold < 0) return Status::kInvalidArg;
  if (buf.threshold == 0) {
    // Defaults path: inherit the window threshold. A caller-specified epoch
    // type is only consistent here if it matches the window's — the default
    // threshold is counted in the window's units — so reject mismatches
    // instead of silently overwriting the caller's choice.
    if (buf.type != EpochType::kInherit && buf.type != type_) {
      return Status::kInvalidArg;
    }
    buf.threshold = threshold_;
    buf.type = type_;
    if (buf.threshold <= 0) return Status::kInvalidArg;  // window has no default
  } else if (buf.type == EpochType::kInherit) {
    // Explicit threshold, inherited units.
    buf.type = type_;
  }
  // A window misconfigured with kInherit can never resolve a concrete type.
  if (buf.type == EpochType::kInherit) return Status::kInvalidArg;
  buf.bytes_received = 0;
  buf.ops_received = 0;
  buf.write_cursor = 0;
  if (posted_ == queue_.size()) {
    // Full: unroll the ring into a block twice the size, oldest first.
    std::vector<PostedBuffer> grown(std::max<std::size_t>(1, 2 * posted_));
    for (std::size_t i = 0; i < posted_; ++i) grown[i] = posted_at(i);
    queue_ = std::move(grown);
    head_ = 0;
  }
  queue_[(head_ + posted_) % queue_.size()] = buf;
  ++posted_;
  return Status::kOk;
}

std::optional<RetiredBuffer> Mailbox::retire_active(bool soft) {
  if (posted_ == 0) return std::nullopt;
  const PostedBuffer& buf = queue_[head_];
  RetiredBuffer retired{buf.base, buf.size, buf.bytes_received, epoch_, soft};
  head_ = (head_ + 1) % queue_.size();
  --posted_;
  if (retire_depth_ > 0) {
    if (retired_.empty()) {
      retired_.resize(static_cast<std::size_t>(retire_depth_));
    }
    retired_[retired_next_] = retired;
    retired_next_ = (retired_next_ + 1) % retired_.size();
    retired_count_ = std::min(retired_count_ + 1, retired_.size());
  }
  ++epoch_;
  ++completed_count_;
  return retired;
}

Status Mailbox::rewind(int epochs_back, RetiredBuffer* out) const {
  if (epochs_back < 1 || out == nullptr) return Status::kInvalidArg;
  const auto back = static_cast<std::size_t>(epochs_back);
  if (back > retired_count_) {
    return Status::kNoBuffer;  // aged out of the retire ring
  }
  *out = retired_[(retired_next_ + retired_.size() - back) % retired_.size()];
  return Status::kOk;
}

int Mailbox::collect_notif_ptrs(void** out, int count) const {
  int n = 0;
  for (std::size_t i = 0; i < posted_ && n < count; ++i) {
    out[n++] = static_cast<void*>(posted_at(i).notif_ptr);
  }
  return n;
}

std::uint64_t Mailbox::ooo_degree(std::int32_t src, std::uint64_t counter) {
  auto it = std::lower_bound(
      ooo_high_.begin(), ooo_high_.end(), src,
      [](const std::pair<std::int32_t, std::uint64_t>& e, std::int32_t s) {
        return e.first < s;
      });
  if (it == ooo_high_.end() || it->first != src) {
    it = ooo_high_.insert(it, {src, 0});
  }
  std::uint64_t& high = it->second;
  if (counter >= high) {
    high = counter;
    return 0;
  }
  return high - counter;
}

}  // namespace rvma::core
