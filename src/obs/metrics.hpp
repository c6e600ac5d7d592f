// Unified metrics instruments: named counters, gauges, and HDR-style
// log-bucket histograms behind a per-cluster registry.
//
// Design constraints (DESIGN.md §7):
//  * O(1) record on the simulation hot path — a counter increment is one
//    add through a cached pointer; a histogram record is a bit-scan plus
//    two adds.
//  * Mergeable like RunningStat::merge: every instrument's snapshot can be
//    combined associatively, so SweepExecutor grids aggregated in grid
//    order are bit-identical at any --jobs.
//  * Single-threaded by construction: a registry belongs to one Cluster
//    (one Engine), never shared across sweep workers — record paths need
//    no atomics and stay clean under TSan.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rvma::obs {

/// Monotonic event count. Merge rule: sum.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  /// Reconcile a speculative increment that did not happen after all (the
  /// fabric's express path counts static next-hop hits at commit time and
  /// uncounts the not-yet-taken ones when a packet rematerializes onto the
  /// hop-by-hop path). Never drops the counter below a value an external
  /// reader has observed: callers only retract their own same-run credit.
  void dec(std::uint64_t n = 1) { value_ -= n; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Instantaneous level (queue depth, in-flight packets). Remembers its
/// high-water mark; snapshots export the high-water and merge by max —
/// "last value" is meaningless across independent runs.
class Gauge {
 public:
  void set(std::int64_t v) {
    value_ = v;
    if (v > high_water_) high_water_ = v;
  }
  std::int64_t value() const { return value_; }
  std::int64_t high_water() const { return high_water_; }

 private:
  std::int64_t value_ = 0;
  std::int64_t high_water_ = 0;
};

/// Frozen histogram state: sparse (bucket index, count) pairs plus the
/// exact count/sum/min/max. The merge/percentile surface used by snapshot
/// aggregation and by the metrics-file reader.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  ///< valid only when count > 0
  std::uint64_t max = 0;
  /// Ascending bucket indices (see Histogram::bucket_floor).
  std::vector<std::pair<std::int32_t, std::uint64_t>> buckets;

  void merge(const HistogramSnapshot& other);
  double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
  /// Percentile (p in [0, 100]) by linear interpolation inside the bucket
  /// the rank falls into, clamped to [min, max]. Monotone in p; relative
  /// error bounded by the sub-bucket width (~3.2%).
  double percentile(double p) const;

  bool operator==(const HistogramSnapshot&) const = default;
};

/// HDR-style log-linear histogram over uint64 values: power-of-two
/// octaves, each split into 32 linear sub-buckets, so every bucket's width
/// is at most 1/32 of its floor. Values below 32 get exact unit buckets.
/// record() is O(1) (one count-leading-zeros, two indexed adds).
class Histogram {
 public:
  static constexpr int kSubBits = 5;
  static constexpr std::uint32_t kSubBuckets = 1u << kSubBits;  // 32

  /// Bucket index for a value. Exact (index == v) for v < 64; monotone
  /// non-decreasing everywhere. Max index 1919 (for v near 2^64).
  static int index_of(std::uint64_t v) {
    if (v < 2 * kSubBuckets) return static_cast<int>(v);
    const int msb = 63 - __builtin_clzll(v);
    const int shift = msb - kSubBits;
    return ((msb - kSubBits + 1) << kSubBits) +
           static_cast<int>((v >> shift) & (kSubBuckets - 1));
  }

  /// Smallest value mapping to `index` (inverse of index_of).
  static std::uint64_t bucket_floor(int index) {
    const int block = index >> kSubBits;
    const std::uint64_t sub = static_cast<std::uint64_t>(index) & (kSubBuckets - 1);
    if (block == 0) return sub;
    return (kSubBuckets + sub) << (block - 1);
  }

  /// Number of distinct values mapping to `index`. For the topmost bucket
  /// the unsigned wrap of floor(index+1) - floor(index) is exact mod 2^64.
  static std::uint64_t bucket_width(int index) {
    return bucket_floor(index + 1) - bucket_floor(index);
  }

  void record(std::uint64_t v) {
    const auto idx = static_cast<std::size_t>(index_of(v));
    if (idx >= buckets_.size()) buckets_.resize(idx + 1, 0);
    ++buckets_[idx];
    ++count_;
    sum_ += v;
    if (v < min_) min_ = v;
    if (v > max_) max_ = v;
  }

  void merge(const Histogram& other);

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
  std::uint64_t max() const { return max_; }
  double mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }
  double percentile(double p) const { return snapshot().percentile(p); }

  HistogramSnapshot snapshot() const;

 private:
  std::vector<std::uint64_t> buckets_;  ///< dense up to highest used index
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = ~0ULL;
  std::uint64_t max_ = 0;
};

/// Frozen registry state: every instrument by name, ready to merge with
/// other runs' snapshots and to serialize (obs/metrics_io). Gauge values
/// are high-water marks; see Gauge.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// Counters sum, gauges max, histograms bucket-wise sum. Associative and
  /// commutative, so any aggregation order over a fixed set of runs agrees.
  void merge(const MetricsSnapshot& other);
  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  bool operator==(const MetricsSnapshot&) const = default;
};

/// Named instruments for one simulation (one Cluster). Lookup is cold —
/// components resolve their instruments once at construction and keep the
/// reference; node-based map storage keeps those references stable.
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  const std::map<std::string, Counter, std::less<>>& counters() const {
    return counters_;
  }
  const std::map<std::string, Gauge, std::less<>>& gauges() const {
    return gauges_;
  }
  const std::map<std::string, Histogram, std::less<>>& histograms() const {
    return histograms_;
  }

  MetricsSnapshot snapshot() const;

 private:
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

}  // namespace rvma::obs
