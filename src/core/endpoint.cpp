#include "core/endpoint.hpp"

#include <cassert>
#include <cstring>

#include "common/log.hpp"

namespace rvma::core {

namespace {
constexpr std::uint32_t kind_of(RvmaOp op) {
  return net::make_kind(nic::kProtoRvma, op);
}
}  // namespace

// ----------------------------------------------------------------- Window

Status Window::post(std::span<std::byte> buffer, void** notif_ptr,
                    std::int64_t* len_ptr) {
  return ep_->post_buffer(vaddr_, buffer, notif_ptr, len_ptr);
}
Status Window::post_timing_only(std::uint64_t size) {
  return ep_->post_buffer_timing_only(vaddr_, size);
}
Status Window::close() { return ep_->close_window(vaddr_); }
Status Window::inc_epoch() { return ep_->inc_epoch(vaddr_); }
std::int64_t Window::epoch() const { return ep_->get_epoch(vaddr_); }
int Window::get_buf_ptrs(void** out, int count) const {
  return ep_->get_buf_ptrs(vaddr_, out, count);
}
Status Window::rewind(int epochs_back, void** buf, std::int64_t* len) const {
  return ep_->rewind(vaddr_, epochs_back, buf, len);
}
void Window::notify_wait(std::function<void(void*, std::int64_t)> fn) {
  ep_->notify_wait(vaddr_, std::move(fn));
}
std::uint64_t Window::completions() const { return ep_->completions(vaddr_); }

// ----------------------------------------------------------- RvmaEndpoint

RvmaEndpoint::RvmaEndpoint(nic::Nic& nic, const RvmaParams& params,
                           net::Pid pid)
    : nic_(nic),
      engine_(nic.engine()),
      params_(params),
      pid_(pid),
      counters_(params.nic_counters) {
  obs::MetricsRegistry& m = nic_.metrics();
  c_puts_ = &m.counter("rvma.puts_received");
  c_packets_ = &m.counter("rvma.packets_received");
  c_bytes_ = &m.counter("rvma.bytes_received");
  c_completions_ = &m.counter("rvma.completions");
  c_soft_completions_ = &m.counter("rvma.soft_completions");
  c_nacks_sent_ = &m.counter("rvma.nacks_sent");
  c_nacks_received_ = &m.counter("rvma.nacks_received");
  c_drops_no_mailbox_ = &m.counter("rvma.drops_no_mailbox");
  c_drops_closed_ = &m.counter("rvma.drops_closed");
  c_drops_no_buffer_ = &m.counter("rvma.drops_no_buffer");
  c_drops_overflow_ = &m.counter("rvma.drops_overflow");
  c_drops_bad_key_ = &m.counter("rvma.drops_bad_key");
  c_catch_all_ = &m.counter("rvma.catch_all_packets");
  c_host_counter_packets_ = &m.counter("rvma.host_counter_packets");
  c_buffers_posted_ = &m.counter("rvma.buffers_posted");
  c_buffers_retired_ = &m.counter("rvma.buffers_retired");
  c_counters_acquired_ = &m.counter("rvma.nic_counters_acquired");
  c_counters_released_ = &m.counter("rvma.nic_counters_released");
  h_completion_latency_ns_ = &m.histogram("rvma.completion_latency_ns");
  h_mailbox_ooo_degree_ = &m.histogram("rvma.mailbox_ooo_degree");
  nic_.register_proto(
      nic::kProtoRvma,
      [this](const net::Packet& pkt) { handle_packet(pkt); }, pid_);
}

Window RvmaEndpoint::init_window(std::uint64_t vaddr, std::int64_t threshold,
                                 EpochType type, Placement placement,
                                 std::uint64_t key) {
  auto it = lut_.find(vaddr);
  if (it == lut_.end()) {
    lut_.emplace(vaddr,
                 std::make_unique<Mailbox>(vaddr, threshold, type, placement,
                                           params_.retire_depth, key));
  }
  return Window(this, vaddr);
}

Window RvmaEndpoint::init_catch_all(std::int64_t threshold, EpochType type) {
  // Catch-all traffic has unpredictable offsets, so it always appends.
  return init_window(kCatchAllVaddr, threshold, type, Placement::kManaged);
}

Status RvmaEndpoint::post_buffer(std::uint64_t vaddr,
                                 std::span<std::byte> buffer, void** notif_ptr,
                                 std::int64_t* len_ptr) {
  auto it = lut_.find(vaddr);
  if (it == lut_.end()) return Status::kNoMailbox;
  Mailbox& mb = *it->second;
  PostedBuffer buf;
  buf.base = buffer.data();
  buf.size = buffer.size();
  buf.notif_ptr = notif_ptr;
  buf.len_ptr = len_ptr;
  const Status st = mb.post(buf);
  if (ok(st)) {
    c_buffers_posted_->inc();
    if (mb.posted_count() == 1) assign_counter(mb.active());
  }
  return st;
}

Status RvmaEndpoint::post_buffer_timing_only(std::uint64_t vaddr,
                                             std::uint64_t size) {
  auto it = lut_.find(vaddr);
  if (it == lut_.end()) return Status::kNoMailbox;
  Mailbox& mb = *it->second;
  PostedBuffer buf;
  buf.size = size;
  const Status st = mb.post(buf);
  if (ok(st)) {
    c_buffers_posted_->inc();
    if (mb.posted_count() == 1) assign_counter(mb.active());
  }
  return st;
}

Status RvmaEndpoint::close_window(std::uint64_t vaddr) {
  auto it = lut_.find(vaddr);
  if (it == lut_.end()) return Status::kNoMailbox;
  it->second->close();
  return Status::kOk;
}

Status RvmaEndpoint::free_window(std::uint64_t vaddr) {
  auto it = lut_.find(vaddr);
  if (it == lut_.end()) return Status::kNoMailbox;
  Mailbox& mb = *it->second;
  // Release the active buffer's on-NIC counter, if it holds one.
  if (mb.has_active() && mb.active().counter_on_nic) {
    counters_.release();
    c_counters_released_->inc();
  }
  // The mailbox's still-posted buffers are discarded with it; account them
  // as retired so the posted-buffers level (posted - retired) returns to 0.
  c_buffers_retired_->inc(mb.posted_count());
  lut_.erase(it);
  waiters_.erase(vaddr);
  observers_.erase(vaddr);
  op_observers_.erase(vaddr);
  return Status::kOk;
}

Status RvmaEndpoint::inc_epoch(std::uint64_t vaddr) {
  auto it = lut_.find(vaddr);
  if (it == lut_.end()) return Status::kNoMailbox;
  Mailbox& mb = *it->second;
  if (!mb.has_active()) return Status::kNoBuffer;
  complete_active(mb, /*soft=*/true);
  return Status::kOk;
}

std::int64_t RvmaEndpoint::get_epoch(std::uint64_t vaddr) const {
  const auto it = lut_.find(vaddr);
  return it == lut_.end() ? -1 : it->second->epoch();
}

int RvmaEndpoint::get_buf_ptrs(std::uint64_t vaddr, void** out,
                               int count) const {
  const auto it = lut_.find(vaddr);
  if (it == lut_.end()) return 0;
  return it->second->collect_notif_ptrs(out, count);
}

Status RvmaEndpoint::rewind(std::uint64_t vaddr, int epochs_back, void** buf,
                            std::int64_t* len) const {
  const auto it = lut_.find(vaddr);
  if (it == lut_.end()) return Status::kNoMailbox;
  RetiredBuffer retired;
  const Status st = it->second->rewind(epochs_back, &retired);
  if (!ok(st)) return st;
  if (buf != nullptr) *buf = retired.base;
  if (len != nullptr) *len = static_cast<std::int64_t>(retired.bytes_received);
  return Status::kOk;
}

void RvmaEndpoint::notify_wait(std::uint64_t vaddr, NotifyFn fn) {
  waiters_[vaddr].push_back(std::move(fn));
}

void RvmaEndpoint::set_completion_observer(std::uint64_t vaddr, NotifyFn fn) {
  // A null fn clears the observer (erase, never store an empty function:
  // the completion unit invokes whatever it finds).
  if (fn) {
    observers_[vaddr] = std::move(fn);
  } else {
    observers_.erase(vaddr);
  }
}

void RvmaEndpoint::detach_notification(std::uint64_t vaddr, void** notif_ptr,
                                       std::int64_t* len_ptr) {
  const auto it = lut_.find(vaddr);
  if (it != lut_.end()) it->second->detach_notifications(notif_ptr, len_ptr);
}

void RvmaEndpoint::set_op_observer(std::uint64_t vaddr, OpObserver fn) {
  op_observers_[vaddr] = std::move(fn);
}

std::uint64_t RvmaEndpoint::completions(std::uint64_t vaddr) const {
  const auto it = lut_.find(vaddr);
  return it == lut_.end() ? 0 : it->second->completed_count();
}

const Mailbox* RvmaEndpoint::find_mailbox(std::uint64_t vaddr) const {
  const auto it = lut_.find(vaddr);
  return it == lut_.end() ? nullptr : it->second.get();
}

void RvmaEndpoint::put(NodeId dst, std::uint64_t vaddr, std::uint64_t offset,
                       const std::byte* data, std::uint64_t bytes,
                       std::function<void()> on_sent, std::uint64_t key,
                       net::Pid dst_pid) {
  net::Message msg;
  msg.dst = dst;
  msg.bytes = bytes;
  msg.data = data;
  msg.hdr.kind = kind_of(kRvmaPut);
  msg.hdr.dst_pid = dst_pid;
  msg.hdr.src_pid = pid_;
  msg.hdr.addr = vaddr;
  msg.hdr.offset = offset;
  msg.hdr.imm = key;
  nic_.send(std::move(msg), std::move(on_sent));
}

void RvmaEndpoint::put_owned(NodeId dst, std::uint64_t vaddr,
                             std::uint64_t offset, std::vector<std::byte> data,
                             std::function<void()> on_sent) {
  net::Message msg;
  msg.dst = dst;
  msg.bytes = data.size();
  msg.owned = std::make_shared<const std::vector<std::byte>>(std::move(data));
  msg.data = msg.owned->data();
  msg.hdr.kind = kind_of(kRvmaPut);
  msg.hdr.src_pid = pid_;
  msg.hdr.addr = vaddr;
  msg.hdr.offset = offset;
  nic_.send(std::move(msg), std::move(on_sent));
}

void RvmaEndpoint::get(NodeId dst, std::uint64_t vaddr, std::uint64_t offset,
                       std::uint64_t bytes, std::uint64_t reply_vaddr,
                       net::Pid dst_pid, std::function<void()> on_sent) {
  net::Message msg;
  msg.dst = dst;
  msg.bytes = params_.ctrl_bytes;
  msg.hdr.kind = kind_of(kRvmaGet);
  msg.hdr.dst_pid = dst_pid;
  msg.hdr.src_pid = pid_;
  msg.hdr.addr = vaddr;
  msg.hdr.offset = offset;
  msg.hdr.imm = bytes;
  msg.hdr.imm2 = reply_vaddr;
  nic_.send(std::move(msg), std::move(on_sent));
}

void RvmaEndpoint::send_nack(NodeId to, net::Pid to_pid, std::uint64_t vaddr,
                             Status reason) {
  if (!params_.nacks_enabled) return;
  ++stats_.nacks_sent;
  c_nacks_sent_->inc();
  net::Message msg;
  msg.dst = to;
  msg.bytes = params_.ctrl_bytes;
  msg.hdr.kind = kind_of(kRvmaNack);
  msg.hdr.dst_pid = to_pid;
  msg.hdr.src_pid = pid_;
  msg.hdr.addr = vaddr;
  msg.hdr.imm = static_cast<std::uint64_t>(reason);
  nic_.send(std::move(msg));
}

void RvmaEndpoint::assign_counter(PostedBuffer& buf) {
  buf.counter_on_nic = counters_.try_acquire();
  if (buf.counter_on_nic) c_counters_acquired_->inc();
}

void RvmaEndpoint::handle_packet(const net::Packet& pkt) {
  const auto op = static_cast<RvmaOp>(net::op_of(pkt.msg->hdr.kind));
  switch (op) {
    case kRvmaPut: {
      // Single LUT lookup (no wildcards: hit or miss, one resolution).
      net::Packet copy = pkt;
      engine_.schedule(params_.lut_lookup, [this, copy = std::move(copy)] {
        const std::uint64_t vaddr = copy.msg->hdr.addr;
        auto it = lut_.find(vaddr);
        bool via_catch_all = false;
        if (it == lut_.end()) {
          it = lut_.find(kCatchAllVaddr);
          via_catch_all = true;
          if (it == lut_.end()) {
            ++stats_.drops_no_mailbox;
            c_drops_no_mailbox_->inc();
            send_nack(copy.src, copy.msg->hdr.src_pid, vaddr, Status::kNoMailbox);
            return;
          }
        }
        Mailbox& mb = *it->second;
        if (mb.closed()) {
          ++stats_.drops_closed;
          c_drops_closed_->inc();
          send_nack(copy.src, copy.msg->hdr.src_pid, vaddr, Status::kClosed);
          return;
        }
        if (!via_catch_all && params_.enforce_keys && mb.key() != 0 &&
            copy.msg->hdr.imm != mb.key()) {
          ++stats_.drops_bad_key;
          c_drops_bad_key_->inc();
          send_nack(copy.src, copy.msg->hdr.src_pid, vaddr, Status::kError);
          return;
        }
        if (!mb.has_active()) {
          ++stats_.drops_no_buffer;
          c_drops_no_buffer_->inc();
          send_nack(copy.src, copy.msg->hdr.src_pid, vaddr, Status::kNoBuffer);
          return;
        }
        // Counter update cost: free when the buffer's counter lives on the
        // NIC; one extra host-memory round trip otherwise.
        if (mb.active().counter_on_nic) {
          process_put(copy, mb, via_catch_all);
        } else {
          ++stats_.host_counter_packets;
          c_host_counter_packets_->inc();
          engine_.schedule(params_.host_counter_penalty,
                           [this, copy, &mb, via_catch_all] {
                             if (!mb.has_active() || mb.closed()) {
                               ++stats_.drops_no_buffer;
                               c_drops_no_buffer_->inc();
                               return;
                             }
                             process_put(copy, mb, via_catch_all);
                           });
        }
      });
      return;
    }

    case kRvmaNack: {
      ++stats_.nacks_received;
      c_nacks_received_->inc();
      if (nack_fn_) {
        nack_fn_(pkt.msg->hdr.addr, static_cast<Status>(pkt.msg->hdr.imm));
      }
      return;
    }

    case kRvmaGet: {
      const NodeId requester = pkt.src;
      const net::Pid requester_pid = pkt.msg->hdr.src_pid;
      const std::uint64_t vaddr = pkt.msg->hdr.addr;
      const std::uint64_t offset = pkt.msg->hdr.offset;
      const std::uint64_t bytes = pkt.msg->hdr.imm;
      const std::uint64_t reply_vaddr = pkt.msg->hdr.imm2;
      engine_.schedule(params_.lut_lookup, [this, requester, requester_pid,
                                            vaddr, offset, bytes,
                                            reply_vaddr] {
        const auto it = lut_.find(vaddr);
        if (it == lut_.end() || it->second->closed() ||
            !it->second->has_active()) {
          send_nack(requester, requester_pid, vaddr, Status::kNoBuffer);
          return;
        }
        const PostedBuffer& buf = it->second->active();
        const std::byte* data = nullptr;
        if (buf.base != nullptr && offset + bytes <= buf.size) {
          data = buf.base + offset;
        }
        // The get response is an ordinary RVMA put into the requester's
        // reply mailbox — gets reuse the whole put machinery.
        put(requester, reply_vaddr, 0, data, bytes, {}, 0, requester_pid);
      });
      return;
    }
  }
  RVMA_LOG_WARN("rvma: unknown opcode %u", net::op_of(pkt.msg->hdr.kind));
}

void RvmaEndpoint::process_put(const net::Packet& pkt, Mailbox& mb,
                               bool via_catch_all) {
  const bool managed =
      mb.placement() == Placement::kManaged || via_catch_all;
  ++stats_.packets_received;
  c_packets_->inc();
  if (via_catch_all) {
    ++stats_.catch_all_packets;
    c_catch_all_->inc();
  }

  // Place the packet's payload. Steered mode lands at the initiator's
  // offset within the active buffer; receiver-managed (stream) mode
  // appends in arrival order and spills across buffer boundaries — the
  // NIC switches to the next posted buffer mid-packet if needed.
  std::uint64_t src_off = pkt.offset;
  std::uint64_t remaining = pkt.bytes;
  bool completed_any = false;
  while (remaining > 0) {
    if (!mb.has_active()) {
      ++stats_.drops_no_buffer;
      c_drops_no_buffer_->inc();
      send_nack(pkt.src, pkt.msg->hdr.src_pid, pkt.msg->hdr.addr, Status::kNoBuffer);
      return;
    }
    PostedBuffer& buf = mb.active();
    if (buf.first_rx_at == kTimeInfinity) buf.first_rx_at = engine_.now();
    const std::uint64_t place_at =
        managed ? buf.write_cursor : pkt.msg->hdr.offset + src_off;
    if (place_at + remaining > buf.size && !managed) {
      ++stats_.drops_overflow;
      c_drops_overflow_->inc();
      send_nack(pkt.src, pkt.msg->hdr.src_pid, pkt.msg->hdr.addr, Status::kOverflow);
      return;
    }
    const std::uint64_t chunk =
        managed ? std::min(remaining, buf.size - place_at) : remaining;
    if (buf.base != nullptr && pkt.msg->data != nullptr) {
      std::memcpy(buf.base + place_at, pkt.msg->data + src_off, chunk);
    }
    buf.write_cursor = place_at + chunk;
    buf.bytes_received += chunk;
    stats_.bytes_received += chunk;
    c_bytes_->inc(chunk);
    src_off += chunk;
    remaining -= chunk;

    if (buf.threshold_reached() ||
        (managed && remaining > 0 && buf.write_cursor == buf.size)) {
      complete_active(mb, /*soft=*/false);
      completed_any = true;
    }
  }

  // Operation counting: a put counts once, when its last packet arrives.
  const std::uint32_t arrived = ++msg_arrived_[pkt.msg->id];
  if (arrived == pkt.total) {
    msg_arrived_.erase(pkt.msg->id);
    ++stats_.puts_received;
    c_puts_->inc();
    // Message::id packs (src_node << 40) | per-sender post counter, so the
    // low 40 bits order this sender's posts; the mailbox turns them into
    // an arrival-vs-post out-of-order degree.
    h_mailbox_ooo_degree_->record(
        mb.ooo_degree(pkt.src, pkt.msg->id & ((std::uint64_t{1} << 40) - 1)));
    RVMA_FREC(engine_, engine_.now(), obs::SpanKind::kMbMatch, pkt.msg->id,
              node(), static_cast<std::int64_t>(mb.vaddr()));
    if (mb.has_active()) {
      PostedBuffer& buf = mb.active();
      ++buf.ops_received;
      if (buf.threshold_reached()) {
        complete_active(mb, /*soft=*/false);
      } else if (!completed_any) {
        const auto it = op_observers_.find(mb.vaddr());
        if (it != op_observers_.end() && it->second) {
          it->second(buf.ops_received, buf.bytes_received);
        }
      }
    }
  }
}

void RvmaEndpoint::complete_active(Mailbox& mb, bool soft) {
  // A completion can race a mailbox drained by free/close paths; an empty
  // bucket means there is nothing to retire.
  if (!mb.has_active()) return;
  PostedBuffer& buf = mb.active();
  if (buf.counter_on_nic) {
    counters_.release();
    c_counters_released_->inc();
  }

  void** notif_ptr = buf.notif_ptr;
  std::int64_t* len_ptr = buf.len_ptr;
  void* head = static_cast<void*>(buf.base);
  const auto len = static_cast<std::int64_t>(buf.bytes_received);
  const std::uint64_t vaddr = mb.vaddr();
  // Buffer latency: first payload byte in -> completion-pointer write
  // visible in host memory. Zero when the buffer completed without ever
  // receiving payload (e.g. inc_epoch on an untouched buffer).
  const Time lat = buf.first_rx_at == kTimeInfinity
                       ? 0
                       : engine_.now() - buf.first_rx_at +
                             params_.completion_write;
  if (lat != 0) h_completion_latency_ns_->record(lat / kNanosecond);

  mb.retire_active(soft);  // non-empty: checked above, cannot fail
  c_buffers_retired_->inc();
  if (soft) {
    ++stats_.soft_completions;
    c_soft_completions_->inc();
  } else {
    ++stats_.completions;
    c_completions_->inc();
  }
  RVMA_FREC(engine_, engine_.now(), obs::SpanKind::kCompletion, vaddr, node(),
            static_cast<std::int64_t>(lat));
  if (mb.has_active()) {
    assign_counter(mb.active());
  }

  // Completion unit: one cache-line write of (head, length) to the
  // completion pointer, pipelined behind the payload DMA into host memory;
  // Monitor/MWait waiters wake a few cycles after the line is modified.
  engine_.schedule(params_.completion_write, [this, notif_ptr, len_ptr, head,
                                              len, vaddr] {
    if (notif_ptr != nullptr) *notif_ptr = head;
    if (len_ptr != nullptr) *len_ptr = len;

    std::vector<NotifyFn> fns;
    auto wit = waiters_.find(vaddr);
    if (wit != waiters_.end() && !wit->second.empty()) {
      fns = std::move(wit->second);
      wit->second.clear();
    }
    const auto oit = observers_.find(vaddr);
    const bool observed = oit != observers_.end();
    if (fns.empty() && !observed) return;
    engine_.schedule(params_.mwait_wake,
                     [this, fns = std::move(fns), head, len, vaddr, observed] {
                       if (observed) {
                         // Re-look-up: the observer may have been replaced.
                         const auto it = observers_.find(vaddr);
                         if (it != observers_.end()) it->second(head, len);
                       }
                       for (const NotifyFn& fn : fns) fn(head, len);
                     });
  });
}

}  // namespace rvma::core
