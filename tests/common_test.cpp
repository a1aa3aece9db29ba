// Unit tests for the common substrate: units/formatting, Status/Result,
// strfmt, text tables, running statistics, and the block-device request
// validator.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "common/block_device.h"
#include "common/ring_queue.h"
#include "common/slot_pool.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/strfmt.h"
#include "common/table.h"
#include "common/units.h"

namespace uc {
namespace {

using namespace units;

TEST(Units, ByteAndTimeLiterals) {
  EXPECT_EQ(kKiB, 1024u);
  EXPECT_EQ(kMiB, 1024u * 1024u);
  EXPECT_EQ(2 * kTiB, 2ull << 40);
  EXPECT_EQ(kUs, 1000u);
  EXPECT_EQ(kSec, 1000000000u);
  EXPECT_EQ(seconds(1.5), 1500000000u);
}

TEST(Units, BandwidthConversions) {
  // 1 GB in 1 s == 1 GB/s (decimal).
  EXPECT_DOUBLE_EQ(bytes_over_time_gbs(1000000000ull, kSec), 1.0);
  // 1000 MB/s -> 1 ns per byte.
  EXPECT_DOUBLE_EQ(ns_per_byte_from_mbps(1000.0), 1.0);
  EXPECT_DOUBLE_EQ(ns_per_byte_from_mbps(0.0), 0.0);
}

TEST(Units, Formatting) {
  EXPECT_EQ(format_bytes(4096), "4.00KiB");
  EXPECT_EQ(format_bytes(2ull << 40), "2.00TiB");
  EXPECT_EQ(format_duration(153), "153ns");
  EXPECT_EQ(format_duration(42100), "42.1us");
  EXPECT_EQ(format_duration(1500000), "1.50ms");
  EXPECT_EQ(format_bandwidth_gbs(2.7), "2.70 GB/s");
  EXPECT_EQ(format_bandwidth_gbs(0.305), "305 MB/s");
}

TEST(Status, OkAndErrors) {
  EXPECT_TRUE(Status::ok().is_ok());
  const Status s = Status::invalid_argument("bad io size");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.to_string(), "INVALID_ARGUMENT: bad io size");
}

TEST(Status, ResultHoldsValueOrStatus) {
  Result<int> ok(42);
  ASSERT_TRUE(ok.is_ok());
  EXPECT_EQ(ok.value(), 42);

  Result<int> err(Status::not_found("missing"));
  ASSERT_FALSE(err.is_ok());
  EXPECT_EQ(err.status().code(), StatusCode::kNotFound);
}

TEST(Strfmt, FormatsLikePrintf) {
  EXPECT_EQ(strfmt("%d-%s-%.2f", 7, "x", 1.5), "7-x-1.50");
  EXPECT_EQ(strfmt("empty"), "empty");
  // Long output is not truncated.
  const std::string big = strfmt("%0512d", 1);
  EXPECT_EQ(big.size(), 512u);
}

TEST(TextTable, RendersAlignedGrid) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("| name  | value |"), std::string::npos);
  EXPECT_NE(out.find("| alpha |     1 |"), std::string::npos);
  EXPECT_NE(out.find("| b     |    22 |"), std::string::npos);
}

TEST(TextTable, SeparatorAndAlignment) {
  TextTable t({"c1", "c2"});
  t.set_align(1, TextTable::Align::kLeft);
  t.add_row({"x", "y"});
  t.add_separator();
  t.add_row({"z", "w"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("| x  | y  |"), std::string::npos);
  // Separator renders as a rule between the two rows.
  EXPECT_GT(std::count(out.begin(), out.end(), '+'), 9);
}

TEST(RunningStat, WelfordMatchesClosedForm) {
  RunningStat s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.0, 1e-12);
  EXPECT_NEAR(s.cv(), 0.4, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(SlotPool, ReusesReleasedSlotsLastInFirstOut) {
  SlotPool<std::string> pool;
  const std::uint32_t a = pool.claim();
  const std::uint32_t b = pool.claim();
  EXPECT_NE(a, b);
  pool[a] = "a";
  pool[b] = "b";
  pool.release(a);
  pool.release(b);
  EXPECT_EQ(pool.claim(), b);  // the slot keeps its old contents
  EXPECT_EQ(pool[b], "b");
  EXPECT_EQ(pool.claim(), a);
  EXPECT_EQ(pool.claim(), 2u);  // free list empty: the pool grows
}

TEST(RingQueue, KeepsFifoOrderAcrossWrapAndGrowth) {
  // Interleaved pushes and pops wrap the ring before it grows, so growth
  // must unroll a wrapped ring in order.
  RingQueue<std::string> q;
  int next_in = 0;
  int next_out = 0;
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 3; ++i) q.push_back(std::to_string(next_in++));
    for (int i = 0; i < 2; ++i) {
      ASSERT_EQ(q.front(), std::to_string(next_out++));
      q.pop_front();
    }
  }
  while (!q.empty()) {
    ASSERT_EQ(q.front(), std::to_string(next_out++));
    q.pop_front();
  }
  EXPECT_EQ(next_out, next_in);
}

TEST(BlockDevice, ValidateRequestRules) {
  DeviceInfo info;
  info.capacity_bytes = 1 * kMiB;
  info.logical_block_bytes = 4096;

  IoRequest ok{1, IoOp::kRead, 0, 4096};
  EXPECT_TRUE(BlockDevice::validate_request(info, ok).is_ok());

  IoRequest unaligned_offset{2, IoOp::kRead, 100, 4096};
  EXPECT_EQ(BlockDevice::validate_request(info, unaligned_offset).code(),
            StatusCode::kInvalidArgument);

  IoRequest zero_bytes{3, IoOp::kWrite, 0, 0};
  EXPECT_EQ(BlockDevice::validate_request(info, zero_bytes).code(),
            StatusCode::kInvalidArgument);

  IoRequest beyond{4, IoOp::kWrite, 1 * kMiB - 4096, 8192};
  EXPECT_EQ(BlockDevice::validate_request(info, beyond).code(),
            StatusCode::kOutOfRange);

  IoRequest flush{5, IoOp::kFlush, 0, 0};
  EXPECT_TRUE(BlockDevice::validate_request(info, flush).is_ok());
}

TEST(BlockDevice, IoOpNames) {
  EXPECT_STREQ(io_op_name(IoOp::kRead), "read");
  EXPECT_STREQ(io_op_name(IoOp::kWrite), "write");
  EXPECT_STREQ(io_op_name(IoOp::kFlush), "flush");
  EXPECT_STREQ(io_op_name(IoOp::kTrim), "trim");
  EXPECT_TRUE(is_data_op(IoOp::kRead));
  EXPECT_FALSE(is_data_op(IoOp::kFlush));
}

}  // namespace
}  // namespace uc
