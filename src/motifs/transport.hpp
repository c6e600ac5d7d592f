// Transport abstraction the motif engine runs over.
//
// A Channel is a (sender, receiver, tag) stream of equally sized messages
// whose count is known before the motif starts — exactly the "operations
// on a buffer are predictable" condition the paper says makes RVMA's
// threshold completion definable (§III-B). Motifs declare their channels
// up front; the transport performs whatever setup its protocol requires
// (RDMA: buffer-negotiation handshakes; RVMA: local window init + buffer
// posting, no network traffic), then serves sends and receives.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace rvma::motifs {

struct Channel {
  int src = -1;
  int dst = -1;
  std::uint64_t tag = 0;
  std::uint64_t bytes = 0;  ///< per-message payload
  int count = 0;            ///< messages the motif will send on this channel

  bool operator==(const Channel&) const = default;
};

struct TransportStats {
  std::uint64_t data_messages = 0;
  std::uint64_t control_messages = 0;  ///< credits, completions, handshakes
  std::uint64_t credit_stalls = 0;     ///< sends that had to wait for credit
};

class Transport {
 public:
  virtual ~Transport() = default;

  virtual std::string name() const = 0;

  /// Declare every channel and run protocol setup; `ready` fires (in sim
  /// time) when all channels are usable.
  virtual void setup(const std::vector<Channel>& channels,
                     std::function<void()> ready) = 0;

  /// Receiver pre-arms the next incoming message on (src -> dst, tag).
  /// Local and non-blocking; RDMA uses it to return a credit to the sender.
  virtual void recv_post(int dst, int src, std::uint64_t tag) = 0;

  /// Sender transfers one message on the channel. `done` fires when the
  /// sender may continue (local completion semantics of the protocol).
  /// A rank is a sequential program: it issues no further send on the
  /// channel until `done` has fired, so at most one send per channel is
  /// ever waiting (e.g. for an RDMA credit).
  virtual void send(int src, int dst, std::uint64_t tag,
                    std::function<void()> done) = 0;

  /// Receiver blocks until the next message on the channel has fully
  /// arrived and the protocol's completion notification has been observed.
  /// Likewise at most one recv_wait per channel is outstanding: `done`
  /// fires before the receiver can issue the next one. Transports rely on
  /// this and keep one waiter slot per channel side, not a queue.
  virtual void recv_wait(int dst, int src, std::uint64_t tag,
                         std::function<void()> done) = 0;

  virtual const TransportStats& stats() const = 0;
};

}  // namespace rvma::motifs
