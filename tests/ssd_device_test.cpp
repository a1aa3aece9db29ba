// Device-level local-SSD tests: the latency anchors behind the paper's
// Figure 2 denominators and the behavioural fingerprints (prefetched
// sequential reads, buffered writes, read/write bandwidth asymmetry).

#include <gtest/gtest.h>

#include <cstdint>

#include "common/units.h"
#include "contract/suite.h"
#include "ssd/ssd_device.h"
#include "workload/runner.h"

namespace uc::ssd {
namespace {

using namespace units;

wl::JobStats run_job(SsdDevice& dev, sim::Simulator& sim, wl::AccessPattern pat,
                     bool write, std::uint32_t io, int qd, std::uint64_t ops) {
  wl::JobSpec spec;
  spec.pattern = pat;
  spec.io_bytes = io;
  spec.queue_depth = qd;
  spec.write_ratio = write ? 1.0 : 0.0;
  spec.region_bytes = 1 * kGiB;
  spec.total_ops = ops;
  spec.seed = 21;
  return wl::JobRunner::run_to_completion(sim, dev, spec);
}

TEST(SsdDevice, LatencyAnchors4KQd1) {
  // Paper-implied Samsung 970 Pro anchors: buffered write ~10 us, random
  // read ~60 us, prefetched sequential read ~10 us.
  sim::Simulator sim;
  SsdDevice dev(sim, samsung_970pro_scaled(2 * kGiB));
  const auto writes =
      run_job(dev, sim, wl::AccessPattern::kRandom, true, 4096, 1, 2000);
  EXPECT_GT(writes.all_latency.mean(), 6e3);
  EXPECT_LT(writes.all_latency.mean(), 16e3);

  contract::CharacterizationSuite::precondition(sim, dev, 1 * kGiB, 5 * kSec,
                                                3);
  const auto rand_reads =
      run_job(dev, sim, wl::AccessPattern::kRandom, false, 4096, 1, 2000);
  EXPECT_GT(rand_reads.all_latency.mean(), 45e3);
  EXPECT_LT(rand_reads.all_latency.mean(), 80e3);

  const auto seq_reads =
      run_job(dev, sim, wl::AccessPattern::kSequential, false, 4096, 1, 4000);
  EXPECT_LT(seq_reads.all_latency.mean(), 15e3);
  // Sequential reads must be several times faster than random (prefetch).
  EXPECT_LT(seq_reads.all_latency.mean() * 3, rand_reads.all_latency.mean());
}

TEST(SsdDevice, MaxBandwidthAsymmetry) {
  // Reads (host-link bound ~3.5 GB/s) beat writes (program bound ~2.5).
  sim::Simulator sim;
  SsdDevice dev(sim, samsung_970pro_scaled(2 * kGiB));
  contract::CharacterizationSuite::precondition(sim, dev, 1 * kGiB, 5 * kSec,
                                                3);
  const auto reads = run_job(dev, sim, wl::AccessPattern::kSequential, false,
                             262144, 32, 12000);
  sim.run_until(sim.now() + 5 * kSec);
  const auto writes = run_job(dev, sim, wl::AccessPattern::kSequential, true,
                              262144, 32, 8000);
  EXPECT_GT(reads.throughput_gbs(), 3.2);
  EXPECT_LT(reads.throughput_gbs(), 3.7);
  EXPECT_GT(writes.throughput_gbs(), 2.2);
  EXPECT_LT(writes.throughput_gbs(), 2.9);
  EXPECT_GT(reads.throughput_gbs(), writes.throughput_gbs());
}

TEST(SsdDevice, RandomEqualsSequentialWritesWithoutGc) {
  // Observation 3's control: on a fresh local SSD the write buffer makes
  // random and sequential writes equivalent.
  double gbs[2] = {0, 0};
  int i = 0;
  for (const auto pat :
       {wl::AccessPattern::kRandom, wl::AccessPattern::kSequential}) {
    sim::Simulator sim;
    SsdDevice dev(sim, samsung_970pro_scaled(2 * kGiB));
    gbs[i++] = run_job(dev, sim, pat, true, 65536, 32, 8000).throughput_gbs();
  }
  EXPECT_NEAR(gbs[0] / gbs[1], 1.0, 0.1);
}

TEST(SsdDevice, FlushBarrierWaitsForDrain) {
  sim::Simulator sim;
  SsdDevice dev(sim, samsung_970pro_scaled(2 * kGiB));
  int writes_done = 0;
  for (int i = 0; i < 32; ++i) {
    dev.submit(IoRequest{static_cast<IoId>(i), IoOp::kWrite,
                         static_cast<ByteOffset>(i) * 1048576, 1048576},
               [&](const IoResult&) { ++writes_done; });
  }
  bool flushed = false;
  dev.submit(IoRequest{100, IoOp::kFlush, 0, 0},
             [&](const IoResult&) { flushed = true; });
  sim.run();
  EXPECT_EQ(writes_done, 32);
  ASSERT_TRUE(flushed);
  EXPECT_TRUE(dev.ftl().write_buffer_empty());
}

TEST(SsdDevice, TrimMakesReadsCheap) {
  sim::Simulator sim;
  SsdDevice dev(sim, samsung_970pro_scaled(2 * kGiB));
  contract::CharacterizationSuite::precondition(sim, dev, 64 * kMiB, kSec, 3);
  bool trimmed = false;
  dev.submit(IoRequest{1, IoOp::kTrim, 0, 64 * 1024 * 1024},
             [&](const IoResult&) { trimmed = true; });
  sim.run();
  ASSERT_TRUE(trimmed);
  const auto reads =
      run_job(dev, sim, wl::AccessPattern::kRandom, false, 4096, 1, 500);
  // All reads hit unmapped pages: DRAM-speed.
  EXPECT_LT(reads.all_latency.mean(), 15e3);
}

}  // namespace
}  // namespace uc::ssd
