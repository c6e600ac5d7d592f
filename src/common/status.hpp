// Status codes shared by the RVMA core API and the RDMA baseline model.
//
// The paper's API returns `RVMA_Status`; this enum is the C++ spelling, and
// the RVMA_* status codes of the C surface in api/rvma.h map it 1:1.
#pragma once

#include <string_view>

namespace rvma {

enum class Status {
  kOk = 0,
  kError,           ///< generic failure
  kInvalidArg,      ///< bad pointer / size / window handle
  kClosed,          ///< operation on a closed window (paper: may NACK)
  kNoBuffer,        ///< no posted buffer available for the mailbox
  kNoMailbox,       ///< mailbox address not present in the LUT
  kOutOfResources,  ///< NIC resource pool (counters, LUT slots) exhausted
  kOverflow,        ///< write beyond the head buffer's extent
  kNotReady,        ///< completion not yet available
  kUnreachable,     ///< destination node does not exist in the fabric
  kNacked,          ///< initiator received a NACK from the target NIC
};

constexpr std::string_view to_string(Status s) {
  switch (s) {
    case Status::kOk: return "OK";
    case Status::kError: return "ERROR";
    case Status::kInvalidArg: return "INVALID_ARG";
    case Status::kClosed: return "CLOSED";
    case Status::kNoBuffer: return "NO_BUFFER";
    case Status::kNoMailbox: return "NO_MAILBOX";
    case Status::kOutOfResources: return "OUT_OF_RESOURCES";
    case Status::kOverflow: return "OVERFLOW";
    case Status::kNotReady: return "NOT_READY";
    case Status::kUnreachable: return "UNREACHABLE";
    case Status::kNacked: return "NACKED";
  }
  return "UNKNOWN";
}

constexpr bool ok(Status s) { return s == Status::kOk; }

}  // namespace rvma
