// Schedule-independent view of a flight-recorder run, shared by the
// exactness tests that compare two runs which must simulate the same
// message lifecycle (express on vs off, serial vs sharded).
#pragma once

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include "obs/flight_recorder.hpp"

namespace rvma {

using SpanKey =
    std::tuple<std::uint32_t, Time, std::uint64_t, std::int32_t, std::int64_t>;

/// The records as a sorted (kind, t, key, node, aux) multiset. An express
/// packet records kExpressCommit where a hop-by-hop packet records
/// kTxInject (same instant, key, node and aux), so both count as one
/// injection kind; every other kind compares as recorded.
inline std::vector<SpanKey> span_multiset(
    const std::vector<obs::SpanRecord>& records) {
  constexpr auto kInject = static_cast<std::uint32_t>(obs::SpanKind::kTxInject);
  constexpr auto kCommit =
      static_cast<std::uint32_t>(obs::SpanKind::kExpressCommit);
  std::vector<SpanKey> out;
  out.reserve(records.size());
  for (const obs::SpanRecord& r : records) {
    out.emplace_back(r.kind == kCommit ? kInject : r.kind, r.t, r.key, r.node,
                     r.aux);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace rvma
