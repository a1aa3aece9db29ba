// Tests for the throughput timeline and the token bucket (the ESSD budget
// enforcement mechanism), including a conservation property sweep.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>

#include "common/rng.h"
#include "common/timeline.h"
#include "common/token_bucket.h"
#include "common/units.h"

namespace uc {
namespace {

using namespace units;

TEST(Timeline, BinsBytesByCompletionTime) {
  ThroughputTimeline tl(kSec);
  tl.record(100 * kMs, 500000000);   // bin 0: 0.5 GB
  tl.record(1500 * kMs, 250000000);  // bin 1: 0.25 GB
  tl.record(1600 * kMs, 250000000);  // bin 1: +0.25 GB
  const auto series = tl.series();
  ASSERT_EQ(series.size(), 2u);
  EXPECT_DOUBLE_EQ(series[0].gb_per_s, 0.5);
  EXPECT_DOUBLE_EQ(series[1].gb_per_s, 0.5);
  EXPECT_DOUBLE_EQ(series[0].time_s, 0.0);
  EXPECT_DOUBLE_EQ(series[1].time_s, 1.0);
  EXPECT_EQ(tl.total_bytes(), 1000000000u);
  EXPECT_EQ(tl.total_ops(), 3u);
}

TEST(Timeline, EmptyBinsAreVisible) {
  ThroughputTimeline tl(kSec);
  tl.record(0, 1000);
  tl.record(3 * kSec + 1, 1000);
  const auto series = tl.series();
  ASSERT_EQ(series.size(), 4u);
  EXPECT_EQ(series[1].bytes, 0u);
  EXPECT_EQ(series[2].bytes, 0u);
}

TEST(Timeline, SmoothingAveragesWindow) {
  ThroughputTimeline tl(kSec);
  // Alternating 1 GB / 0 GB bins.
  for (int i = 0; i < 10; i += 2) {
    tl.record(static_cast<SimTime>(i) * kSec + 1, 1000000000ull);
  }
  tl.record(9 * kSec + 1, 0);  // extend to 10 bins
  const auto smooth = tl.smoothed_series(2);
  // After the first bin, every 2-bin window holds exactly one 1 GB bin.
  for (std::size_t i = 1; i < smooth.size(); ++i) {
    EXPECT_NEAR(smooth[i].gb_per_s, 0.5, 1e-9) << "bin " << i;
  }
}

TEST(TokenBucket, StartsFullAndDrains) {
  TokenBucket bucket(1000.0, 500.0);  // 1000/s, burst 500
  EXPECT_TRUE(bucket.try_consume(0, 500.0));
  EXPECT_FALSE(bucket.try_consume(0, 1.0));
  // After 100 ms, 100 tokens accrued.
  EXPECT_TRUE(bucket.try_consume(100 * kMs, 100.0));
  EXPECT_FALSE(bucket.try_consume(100 * kMs, 1.0));
}

TEST(TokenBucket, CapsAtCapacity) {
  TokenBucket bucket(1000.0, 200.0);
  ASSERT_TRUE(bucket.try_consume(0, 200.0));
  // A long idle period must not accrue beyond the burst capacity.
  EXPECT_NEAR(bucket.tokens(100 * kSec), 200.0, 1e-9);
}

TEST(TokenBucket, DelayUntilAvailable) {
  TokenBucket bucket(1000.0, 100.0);
  ASSERT_TRUE(bucket.try_consume(0, 100.0));
  const SimTime delay = bucket.delay_until_available(0, 50.0);
  // 50 tokens at 1000/s = 50 ms.
  EXPECT_NEAR(static_cast<double>(delay), 50e6, 1e4);
  EXPECT_TRUE(bucket.try_consume(delay, 50.0));
}

TEST(TokenBucket, DebtAccounting) {
  TokenBucket bucket(1000.0, 100.0);
  bucket.consume_with_debt(0, 300.0);
  EXPECT_LT(bucket.tokens(0), 0.0);
  // Debt of 200 at 1000/s: ~200 ms until 0, 250 ms until 50 available.
  EXPECT_NEAR(static_cast<double>(bucket.delay_until_available(0, 50.0)),
              250e6, 1e5);
}

// Conservation property: over any admission pattern, admitted tokens can
// never exceed capacity + rate * elapsed.
class TokenConservation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TokenConservation, NeverOverAdmits) {
  Rng rng(GetParam());
  const double rate = 5000.0;
  const double capacity = 1000.0;
  TokenBucket bucket(rate, capacity);
  double admitted = 0.0;
  SimTime now = 0;
  for (int i = 0; i < 20000; ++i) {
    now += rng.uniform_range(0, 200 * kUs);
    const double want = static_cast<double>(rng.uniform_range(1, 400));
    if (bucket.try_consume(now, want)) admitted += want;
    const double allowance =
        capacity + rate * static_cast<double>(now) / 1e9 + 1e-6;
    ASSERT_LE(admitted, allowance) << "at t=" << now;
  }
  // The bucket must not be uselessly strict either: with heavy demand the
  // admitted volume should approach the allowance.
  EXPECT_GT(admitted,
            0.8 * (capacity + rate * static_cast<double>(now) / 1e9));
}

INSTANTIATE_TEST_SUITE_P(Seeds, TokenConservation,
                         ::testing::Values(11, 22, 33, 44, 55));

}  // namespace
}  // namespace uc
