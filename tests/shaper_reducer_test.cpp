// Tests for the Implication-4 smoother and Implication-5 reducing device
// decorators.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/units.h"
#include "ssd/ssd_device.h"
#include "workload/reducer.h"
#include "workload/shaper.h"
#include "workload/trace.h"

namespace uc::wl {
namespace {

using namespace units;

struct Fixture {
  sim::Simulator sim;
  ssd::SsdDevice dev;
  Fixture() : dev(sim, ssd::samsung_970pro_scaled(1 * kGiB)) {}
};

TEST(SmoothingDevice, PacesAboveTargetRate) {
  Fixture f;
  SmoothingDevice smooth(f.sim, f.dev, SmootherConfig{100e6, 0.01});  // 100 MB/s
  std::uint64_t bytes_done = 0;
  SimTime last = 0;
  // Submit a 50 MB burst instantly; the smoother must stretch it to ~0.5 s.
  for (int i = 0; i < 200; ++i) {
    smooth.submit(IoRequest{static_cast<IoId>(i), IoOp::kWrite,
                            static_cast<ByteOffset>(i) * 262144, 262144},
                  [&](const IoResult& r) {
                    bytes_done += r.bytes;
                    last = r.complete_time;
                  });
  }
  f.sim.run();
  EXPECT_EQ(bytes_done, 200u * 262144);
  const double effective_rate =
      static_cast<double>(bytes_done) / (static_cast<double>(last) / 1e9);
  EXPECT_LT(effective_rate, 130e6);
  EXPECT_GT(effective_rate, 80e6);
  EXPECT_GT(smooth.stats().delayed, 100u);
}

TEST(SmoothingDevice, PassThroughUnderTarget) {
  Fixture f;
  SmoothingDevice smooth(f.sim, f.dev, SmootherConfig{1e9, 0.1});
  bool done = false;
  smooth.submit(IoRequest{1, IoOp::kWrite, 0, 4096},
                [&](const IoResult&) { done = true; });
  f.sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(smooth.stats().passed_through, 1u);
  EXPECT_EQ(smooth.stats().delayed, 0u);
}

TEST(SmoothingDevice, PreservesSubmissionOrderUnderPressure) {
  Fixture f;
  SmoothingDevice smooth(f.sim, f.dev, SmootherConfig{50e6, 0.001});
  std::vector<int> release_order;
  for (int i = 0; i < 20; ++i) {
    smooth.submit(IoRequest{static_cast<IoId>(i + 1), IoOp::kWrite,
                            static_cast<ByteOffset>(i) * 1048576, 1048576},
                  [&release_order, i](const IoResult&) {
                    release_order.push_back(i);
                  });
  }
  f.sim.run();
  ASSERT_EQ(release_order.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(release_order[i], i);
}

TEST(ReducingDevice, ShrinksWrittenBytes) {
  Fixture f;
  ReducerConfig cfg;
  cfg.reduction_ratio = 0.5;
  cfg.encode_us_per_page = 5.0;
  ReducingDevice red(f.sim, f.dev, cfg);
  bool done = false;
  red.submit(IoRequest{1, IoOp::kWrite, 0, 65536}, [&](const IoResult& r) {
    done = true;
    // Caller sees logical sizes.
    EXPECT_EQ(r.bytes, 65536u);
  });
  f.sim.run();
  ASSERT_TRUE(done);
  EXPECT_EQ(red.stats().logical_bytes, 65536u);
  EXPECT_EQ(red.stats().physical_bytes, 32768u);
  EXPECT_NEAR(red.stats().savings_ratio(), 0.5, 1e-9);
  // The device itself only saw the reduced volume.
  EXPECT_EQ(f.dev.ftl().stats().host_write_pages * kLogicalPageBytes, 32768u);
}

TEST(ReducingDevice, RoundsUpToWholePages) {
  Fixture f;
  ReducerConfig cfg;
  cfg.reduction_ratio = 0.9;  // 4 KiB would shrink below one page
  ReducingDevice red(f.sim, f.dev, cfg);
  bool done = false;
  red.submit(IoRequest{1, IoOp::kWrite, 0, 4096},
             [&](const IoResult&) { done = true; });
  f.sim.run();
  ASSERT_TRUE(done);
  EXPECT_EQ(red.stats().physical_bytes, 4096u);  // floor of one page
}

TEST(ReducingDevice, EncodeCostDelaysWrites) {
  Fixture plain;
  Fixture reduced;
  ReducerConfig cfg;
  cfg.reduction_ratio = 0.01;  // nearly no byte savings
  cfg.encode_us_per_page = 50.0;
  ReducingDevice red(reduced.sim, reduced.dev, cfg);

  SimTime plain_lat = 0;
  plain.dev.submit(IoRequest{1, IoOp::kWrite, 0, 16384},
                   [&](const IoResult& r) { plain_lat = r.latency(); });
  plain.sim.run();
  SimTime red_lat = 0;
  red.submit(IoRequest{1, IoOp::kWrite, 0, 16384},
             [&](const IoResult& r) { red_lat = r.latency(); });
  reduced.sim.run();
  // 4 pages x 50 us encode must show up on the critical path.
  EXPECT_GT(red_lat, plain_lat + 150 * kUs);
}

TEST(ReducingDevice, FlushAndTrimPassThrough) {
  Fixture f;
  ReducerConfig cfg;
  ReducingDevice red(f.sim, f.dev, cfg);
  bool flushed = false;
  red.submit(IoRequest{1, IoOp::kFlush, 0, 0},
             [&](const IoResult&) { flushed = true; });
  f.sim.run();
  EXPECT_TRUE(flushed);
  EXPECT_EQ(red.stats().logical_bytes, 0u);
}

}  // namespace
}  // namespace uc::wl
