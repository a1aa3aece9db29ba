#pragma once

/// \file histogram.h
/// HDR-style log-linear latency histogram.
///
/// Values (nanoseconds) are bucketed into power-of-two "majors" subdivided
/// into `kSubBuckets` linear "minors", giving a bounded relative error of
/// 1/kSubBuckets (~1.6%) across the full uint64 nanosecond range.  Counts are
/// stored densely only for the span of whole majors the histogram has seen,
/// so an empty histogram allocates nothing and one tenant's latencies (a few
/// majors) take a few KiB instead of the full 3,776-bucket range (~30 KiB).
/// This is the recording structure behind every latency number the
/// benchmarks print (average, P50/P99/P99.9, min/max).

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace uc {

class LatencyHistogram {
 public:
  static constexpr int kSubBucketBits = 6;               // 64 minors per major
  static constexpr int kSubBuckets = 1 << kSubBucketBits;
  static constexpr int kMajors = 64 - kSubBucketBits + 1;  // covers full uint64

  /// Records one sample (nanoseconds).
  void record(SimTime value_ns);

  /// Records `count` identical samples.
  void record_n(SimTime value_ns, std::uint64_t count);

  /// Merges another histogram into this one.
  void merge(const LatencyHistogram& other);

  void reset();

  std::uint64_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  SimTime min() const { return count_ == 0 ? 0 : min_; }
  SimTime max() const { return max_; }
  double mean() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  /// Value at percentile `p` in [0, 100]; linear interpolation inside the
  /// containing bucket.  p=50 → median, p=99.9 → tail latency.
  SimTime percentile(double p) const;

  /// Compact one-line summary: "n=... avg=... p50=... p99=... p99.9=... max=...".
  std::string summary() const;

 private:
  static int bucket_index(SimTime value);
  static SimTime bucket_lower_bound(int index);
  static SimTime bucket_width(int index);
  /// Grows the stored span, in whole majors, to include bucket indices
  /// [lo, hi].
  void cover(int lo, int hi);
  /// record_n's slow path: grows the span to `index`, then counts there.
  /// Kept out of line so record_n's fast path saves no registers.
  [[gnu::noinline]] void add_outside_span(int index, std::uint64_t count);

  /// Counts of bucket indices [base_, base_ + buckets_.size()); base_ is a
  /// multiple of kSubBuckets.  Empty until the first sample.
  std::vector<std::uint64_t> buckets_;
  int base_ = 0;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  SimTime min_ = ~static_cast<SimTime>(0);
  SimTime max_ = 0;
};

}  // namespace uc
