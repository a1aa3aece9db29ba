// Tests for the HDR-style latency histogram, including a property sweep
// checking percentile accuracy against exact order statistics within the
// structure's guaranteed relative error, and a differential test against a
// dense all-buckets reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "common/rng.h"

namespace uc {
namespace {

TEST(Histogram, EmptyIsZero) {
  LatencyHistogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.percentile(50), 0u);
}

TEST(Histogram, SmallValuesAreExact) {
  LatencyHistogram h;
  for (SimTime v = 0; v < 64; ++v) h.record(v);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 63u);
  EXPECT_NEAR(static_cast<double>(h.percentile(50)), 31.5, 1.0);
}

TEST(Histogram, TracksMeanSumExactly) {
  LatencyHistogram h;
  h.record(100);
  h.record(200);
  h.record(300);
  EXPECT_DOUBLE_EQ(h.mean(), 200.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.min(), 100u);
  EXPECT_EQ(h.max(), 300u);
}

TEST(Histogram, RecordNWeightsSamples) {
  LatencyHistogram h;
  h.record_n(1000, 99);
  h.record_n(1000000, 1);
  EXPECT_EQ(h.count(), 100u);
  // P50 in the low bucket, P99.5+ near the high value.
  EXPECT_LT(h.percentile(50), 1100u);
  EXPECT_GT(h.percentile(99.9), 900000u);
}

TEST(Histogram, MergeCombines) {
  LatencyHistogram a;
  LatencyHistogram b;
  for (int i = 0; i < 100; ++i) a.record(10000);
  for (int i = 0; i < 100; ++i) b.record(90000);
  a.merge(b);
  EXPECT_EQ(a.count(), 200u);
  EXPECT_EQ(a.min(), 10000u);
  EXPECT_EQ(a.max(), 90000u);
  EXPECT_NEAR(a.mean(), 50000.0, 1.0);
}

TEST(Histogram, ResetClears) {
  LatencyHistogram h;
  h.record(123456);
  h.reset();
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.percentile(99), 0u);
}

TEST(Histogram, StddevMatchesTwoPointDistribution) {
  LatencyHistogram h;
  h.record_n(0, 50);
  h.record_n(1000, 50);
  EXPECT_NEAR(h.stddev(), 500.0, 1.0);
}

TEST(Histogram, HugeValuesDoNotOverflowBuckets) {
  LatencyHistogram h;
  h.record(~static_cast<SimTime>(0) / 2);
  h.record(~static_cast<SimTime>(0));
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.max(), ~static_cast<SimTime>(0));
  EXPECT_GE(h.percentile(99), ~static_cast<SimTime>(0) / 2);
}

TEST(Histogram, SummaryMentionsKeyStats) {
  LatencyHistogram h;
  for (int i = 0; i < 1000; ++i) h.record(50000);
  const std::string s = h.summary();
  EXPECT_NE(s.find("n=1000"), std::string::npos);
  EXPECT_NE(s.find("avg=50.0us"), std::string::npos);
}

// Property: for random sample sets, every queried percentile must match the
// exact order statistic within the structure's relative error (1/64 per
// bucket, plus interpolation slack).
class HistogramAccuracy : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HistogramAccuracy, PercentilesMatchSortedReference) {
  Rng rng(GetParam());
  LatencyHistogram h;
  std::vector<SimTime> values;
  const int n = 20000;
  values.reserve(n);
  for (int i = 0; i < n; ++i) {
    // Mix of microsecond and millisecond scales, like real latency data.
    const SimTime v = rng.bernoulli(0.9)
                          ? rng.uniform_range(5000, 200000)
                          : rng.uniform_range(1000000, 50000000);
    values.push_back(v);
    h.record(v);
  }
  std::sort(values.begin(), values.end());
  for (const double p : {10.0, 50.0, 90.0, 99.0, 99.9}) {
    const auto exact =
        values[static_cast<std::size_t>(p / 100.0 * (n - 1))];
    const auto approx = h.percentile(p);
    const double rel_err =
        std::abs(static_cast<double>(approx) - static_cast<double>(exact)) /
        static_cast<double>(exact);
    EXPECT_LT(rel_err, 0.04) << "p=" << p << " exact=" << exact
                             << " approx=" << approx;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistogramAccuracy,
                         ::testing::Values(1, 2, 3, 4, 5, 77, 123, 999));

// The histogram as it was before it stored only its recorded span: one dense
// 3,776-bucket vector, merged and walked in full.  Same bucketing, same
// statistics, same percentile interpolation.
class DenseReference {
 public:
  static constexpr int kBits = LatencyHistogram::kSubBucketBits;
  static constexpr int kSub = LatencyHistogram::kSubBuckets;

  DenseReference()
      : buckets_(static_cast<std::size_t>(LatencyHistogram::kMajors) * kSub,
                 0) {}

  void record_n(SimTime v, std::uint64_t n) {
    if (n == 0) return;
    buckets_[static_cast<std::size_t>(index_of(v))] += n;
    count_ += n;
    sum_ += v * n;
    sum_sq_ += static_cast<double>(v) * static_cast<double>(v) *
               static_cast<double>(n);
    if (v < min_) min_ = v;
    if (v > max_) max_ = v;
  }

  void merge(const DenseReference& o) {
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      buckets_[i] += o.buckets_[i];
    }
    count_ += o.count_;
    sum_ += o.sum_;
    sum_sq_ += o.sum_sq_;
    if (o.count_ > 0) {
      if (o.min_ < min_) min_ = o.min_;
      if (o.max_ > max_) max_ = o.max_;
    }
  }

  void reset() { *this = DenseReference(); }

  std::uint64_t count() const { return count_; }
  SimTime min() const { return count_ == 0 ? 0 : min_; }
  SimTime max() const { return max_; }
  double mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) /
                             static_cast<double>(count_);
  }
  double stddev() const {
    if (count_ < 2) return 0.0;
    const double n = static_cast<double>(count_);
    const double m = static_cast<double>(sum_) / n;
    const double var = sum_sq_ / n - m * m;
    return var > 0.0 ? std::sqrt(var) : 0.0;
  }

  SimTime percentile(double p) const {
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
        const int index = static_cast<int>(i);
        const SimTime v =
            lower_bound(index) +
            static_cast<SimTime>(within * static_cast<double>(width(index)));
        return std::clamp(v, min(), max_);
      }
      cumulative += c;
    }
    return max_;
  }

 private:
  static int index_of(SimTime v) {
    if (v < static_cast<SimTime>(kSub)) return static_cast<int>(v);
    const int msb = 63 - std::countl_zero(v);
    return (msb - kBits + 1) * kSub +
           static_cast<int>((v >> (msb - kBits)) & (kSub - 1));
  }
  static SimTime lower_bound(int index) {
    const int major = index / kSub;
    if (major == 0) return static_cast<SimTime>(index);
    const int msb = major + kBits - 1;
    return (SimTime{1} << msb) +
           (SimTime{1} << (msb - kBits)) * static_cast<SimTime>(index % kSub);
  }
  static SimTime width(int index) {
    const int major = index / kSub;
    return major == 0 ? 1 : SimTime{1} << (major - 1);
  }

  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  double sum_sq_ = 0.0;
  SimTime min_ = ~SimTime{0};
  SimTime max_ = 0;
};

// One histogram under test next to its dense reference; every operation is
// applied to both.
struct Pair {
  LatencyHistogram h;
  DenseReference ref;

  void record_n(SimTime v, std::uint64_t n) {
    h.record_n(v, n);
    ref.record_n(v, n);
  }
  void merge(const Pair& o) {
    h.merge(o.h);
    ref.merge(o.ref);
  }
  void reset() {
    h.reset();
    ref.reset();
  }
};

// Bit-for-bit agreement on every statistic the histogram reports.
::testing::AssertionResult SameResults(const Pair& p) {
  const LatencyHistogram& h = p.h;
  const DenseReference& r = p.ref;
  if (h.count() != r.count() || h.empty() != (r.count() == 0) ||
      h.min() != r.min() || h.max() != r.max()) {
    return ::testing::AssertionFailure()
           << "count/min/max " << h.count() << "/" << h.min() << "/"
           << h.max() << " vs " << r.count() << "/" << r.min() << "/"
           << r.max();
  }
  if (h.mean() != r.mean() || h.stddev() != r.stddev()) {
    return ::testing::AssertionFailure()
           << "mean/stddev " << h.mean() << "/" << h.stddev() << " vs "
           << r.mean() << "/" << r.stddev();
  }
  for (const double q : {0.0, 0.1, 1.0, 50.0, 90.0, 99.0, 99.9, 99.99, 100.0}) {
    if (h.percentile(q) != r.percentile(q)) {
      return ::testing::AssertionFailure()
             << "p" << q << " " << h.percentile(q) << " vs " << r.percentile(q);
    }
  }
  return ::testing::AssertionSuccess();
}

// Values from one of five regimes: exact major-0 values, lognormal tenant
// latencies (100 us to 50 ms), a narrow band nested inside those, values
// within 2^20 of 2^64, and log-uniform values over the whole range.
SimTime draw_value(Rng& rng, int regime) {
  switch (regime) {
    case 0:
      return rng.uniform_u64(64);
    case 1: {
      const double v = std::exp(13.8 + 1.2 * rng.normal());  // median ~1 ms
      return static_cast<SimTime>(std::clamp(v, 1e5, 5e7));
    }
    case 2:
      return rng.uniform_range(1000000, 1100000);
    case 3:
      return ~SimTime{0} - rng.uniform_u64(std::uint64_t{1} << 20);
    default: {
      const auto bits = static_cast<int>(rng.uniform_u64(64));
      return (SimTime{1} << bits) | rng.uniform_u64(SimTime{1} << bits);
    }
  }
}

TEST(Histogram, MatchesDenseReference) {
  // Named merge shapes first, each checked on both sides.
  {
    Pair a;
    Pair b;
    a.merge(b);  // empty <- empty
    EXPECT_TRUE(SameResults(a));
    for (int i = 0; i < 100; ++i) b.record_n(5000 + 37 * i, 1);
    a.merge(b);  // empty <- full
    EXPECT_TRUE(SameResults(a));
    b.merge(Pair{});  // full <- empty
    EXPECT_TRUE(SameResults(b));
    Pair high;
    high.record_n(1ull << 40, 3);
    a.merge(high);  // disjoint, above
    EXPECT_TRUE(SameResults(a));
    Pair low;
    low.record_n(7, 2);
    low.merge(a);  // disjoint, below, then covering
    EXPECT_TRUE(SameResults(low));
    Pair overlap;
    overlap.record_n(1ull << 14, 1);
    overlap.record_n(1ull << 20, 1);
    b.merge(overlap);  // overlapping
    EXPECT_TRUE(SameResults(b));
    Pair nested;
    nested.record_n(6000, 4);
    low.merge(nested);  // nested inside the receiver's span
    EXPECT_TRUE(SameResults(low));
    nested.merge(low);  // receiver's span nested inside the other's
    EXPECT_TRUE(SameResults(nested));
    nested.merge(nested);  // self-merge doubles every count
    EXPECT_TRUE(SameResults(nested));
  }

  // Then ~1M seeded operations over six histograms with different value
  // regimes, so merges see empty, disjoint, overlapping and nested spans.
  constexpr int kSlots = 6;
  std::vector<Pair> slots(kSlots);
  Rng rng(20240615);
  constexpr int kBatches = 1000;
  constexpr int kOpsPerBatch = 1000;
  for (int batch = 0; batch < kBatches; ++batch) {
    for (int op = 0; op < kOpsPerBatch; ++op) {
      const auto i = static_cast<std::size_t>(rng.uniform_u64(kSlots));
      const auto j = static_cast<std::size_t>(rng.uniform_u64(kSlots));
      const std::uint64_t dice = rng.uniform_u64(1000);
      const int regime = static_cast<int>(i) % 5;
      if (dice < 700) {
        slots[i].record_n(draw_value(rng, regime), 1);
      } else if (dice < 900) {
        slots[i].record_n(draw_value(rng, regime), 0);
      } else if (dice < 980) {
        slots[i].record_n(draw_value(rng, regime), 1 + rng.uniform_u64(1000));
      } else if (dice < 990) {
        slots[i].merge(slots[j]);
      } else if (dice < 993) {
        slots[i].reset();
      } else if (dice < 995) {
        slots[i] = slots[j];  // copy-assign
      } else if (dice < 997) {
        Pair copy(slots[j]);  // copy-construct, then move-assign
        slots[i] = std::move(copy);
      } else if (dice < 999) {
        Pair moved(std::move(slots[i]));  // move-construct, then back
        slots[i] = std::move(moved);
      } else {
        Pair fresh;
        fresh.merge(slots[j]);
        slots[i] = std::move(fresh);
      }
    }
    for (int s = 0; s < kSlots; ++s) {
      ASSERT_TRUE(SameResults(slots[static_cast<std::size_t>(s)]))
          << "slot " << s << " after batch " << batch;
    }
  }
}

}  // namespace
}  // namespace uc
