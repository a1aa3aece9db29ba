#include "common/histogram.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>

namespace uc {

// Bucketing scheme: a value v with most-significant bit m >= kSubBucketBits
// falls in major (m - kSubBucketBits + 1); the major's span [2^m, 2^(m+1)) is
// divided into kSubBuckets linear minors of width 2^(m - kSubBucketBits).
// Values below kSubBuckets get exact width-1 buckets in major 0.
int LatencyHistogram::bucket_index(SimTime value) {
  if (value < static_cast<SimTime>(kSubBuckets)) {
    return static_cast<int>(value);
  }
  const int msb = 63 - std::countl_zero(value);
  const int major = msb - kSubBucketBits + 1;
  const int minor =
      static_cast<int>((value >> (msb - kSubBucketBits)) & (kSubBuckets - 1));
  return major * kSubBuckets + minor;
}

SimTime LatencyHistogram::bucket_lower_bound(int index) {
  const int major = index / kSubBuckets;
  const int minor = index % kSubBuckets;
  if (major == 0) return static_cast<SimTime>(minor);
  const int msb = major + kSubBucketBits - 1;
  const SimTime base = static_cast<SimTime>(1) << msb;
  const SimTime step = static_cast<SimTime>(1) << (msb - kSubBucketBits);
  return base + step * static_cast<SimTime>(minor);
}

SimTime LatencyHistogram::bucket_width(int index) {
  const int major = index / kSubBuckets;
  if (major == 0) return 1;
  const int msb = major + kSubBucketBits - 1;
  return static_cast<SimTime>(1) << (msb - kSubBucketBits);
}

void LatencyHistogram::cover(int lo, int hi) {
  const int first = lo - lo % kSubBuckets;
  const int last = hi - hi % kSubBuckets + kSubBuckets;  // exclusive
  if (buckets_.empty()) base_ = first;
  const int end = base_ + static_cast<int>(buckets_.size());
  const int new_base = std::min(base_, first);
  const int new_end = std::max(end, last);
  if (new_base == base_ && new_end == end) return;
  std::vector<std::uint64_t> grown(static_cast<std::size_t>(new_end - new_base),
                                   0);
  std::copy(buckets_.begin(), buckets_.end(),
            grown.begin() + (base_ - new_base));
  buckets_.swap(grown);
  base_ = new_base;
}

void LatencyHistogram::record(SimTime value_ns) { record_n(value_ns, 1); }

void LatencyHistogram::record_n(SimTime value_ns, std::uint64_t count) {
  if (count == 0) return;
  count_ += count;
  sum_ += value_ns * count;
  if (value_ns < min_) min_ = value_ns;
  if (value_ns > max_) max_ = value_ns;
  const int index = bucket_index(value_ns);
  // Below base_ the difference wraps to a huge size_t, so one compare
  // catches both sides of the span.  Counting the bucket last lets the
  // growth path be a tail call.
  const auto slot = static_cast<std::size_t>(index - base_);
  if (slot < buckets_.size()) {
    buckets_[slot] += count;
    return;
  }
  add_outside_span(index, count);
}

void LatencyHistogram::add_outside_span(int index, std::uint64_t count) {
  cover(index, index);
  buckets_[static_cast<std::size_t>(index - base_)] += count;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  if (other.count_ == 0) return;
  cover(other.base_, other.base_ + static_cast<int>(other.buckets_.size()) - 1);
  const auto offset = static_cast<std::size_t>(other.base_ - base_);
  for (std::size_t i = 0; i < other.buckets_.size(); ++i) {
    buckets_[offset + i] += other.buckets_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  if (other.min_ < min_) min_ = other.min_;
  if (other.max_ > max_) max_ = other.max_;
}

// Keeps the stored span (zeroed), so refilling it does not reallocate.
void LatencyHistogram::reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0;
  min_ = ~static_cast<SimTime>(0);
  max_ = 0;
}

SimTime LatencyHistogram::percentile(double p) const {
  if (count_ == 0) return 0;
  if (p <= 0.0) return min();
  if (p >= 100.0) return max();
  const double target = p / 100.0 * static_cast<double>(count_);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const std::uint64_t c = buckets_[i];
    if (c == 0) continue;
    if (static_cast<double>(cumulative + c) >= target) {
      const double within = (target - static_cast<double>(cumulative)) /
                            static_cast<double>(c);
      const int index = base_ + static_cast<int>(i);
      const SimTime lo = bucket_lower_bound(index);
      const SimTime width = bucket_width(index);
      SimTime v = lo + static_cast<SimTime>(within * static_cast<double>(width));
      return std::clamp(v, min(), max_);
    }
    cumulative += c;
  }
  return max_;
}

std::string LatencyHistogram::summary() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "n=%llu avg=%.1fus p50=%.1fus p99=%.1fus p99.9=%.1fus max=%.1fus",
                static_cast<unsigned long long>(count_), mean() / 1e3,
                static_cast<double>(percentile(50)) / 1e3,
                static_cast<double>(percentile(99)) / 1e3,
                static_cast<double>(percentile(99.9)) / 1e3,
                static_cast<double>(max_) / 1e3);
  return buf;
}

}  // namespace uc
