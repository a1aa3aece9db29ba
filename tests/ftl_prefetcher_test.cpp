// Tests for the LRU ready-cache, the sequential stream detector with its
// read-ahead hysteresis, and the FTL's row-grouped read-ahead issue.

#include <gtest/gtest.h>

#include <cstdint>

#include "common/lru_cache.h"
#include "common/units.h"
#include "contract/suite.h"
#include "ftl/prefetcher.h"
#include "ssd/ssd_device.h"
#include "workload/runner.h"

namespace uc::ftl {
namespace {

TEST(ReadCache, InsertLookupInvalidate) {
  ReadCache cache(4);
  cache.insert(1, 100);
  ASSERT_TRUE(cache.lookup(1).has_value());
  EXPECT_EQ(*cache.lookup(1), 100u);
  EXPECT_FALSE(cache.lookup(2).has_value());
  cache.invalidate(1);
  EXPECT_FALSE(cache.lookup(1).has_value());
}

TEST(ReadCache, EvictsLeastRecentlyUsed) {
  ReadCache cache(3);
  cache.insert(1, 10);
  cache.insert(2, 20);
  cache.insert(3, 30);
  // Touch 1 so 2 becomes the LRU.
  ASSERT_TRUE(cache.lookup(1).has_value());
  cache.insert(4, 40);
  EXPECT_TRUE(cache.contains(1));
  EXPECT_FALSE(cache.contains(2));
  EXPECT_TRUE(cache.contains(3));
  EXPECT_TRUE(cache.contains(4));
}

TEST(LruReadyCache, KeepsEarlierReadyTime) {
  LruReadyCache<std::uint64_t> cache(4);
  cache.insert(9, 500);
  cache.insert(9, 300);
  EXPECT_EQ(*cache.lookup(9), 300u);
  cache.insert(9, 900);
  EXPECT_EQ(*cache.lookup(9), 300u);
}

TEST(SequentialPrefetcher, DetectsStreamAfterTrigger) {
  SequentialPrefetcher::Config cfg;
  cfg.trigger_hits = 2;
  cfg.read_ahead_pages = 16;
  SequentialPrefetcher pf(cfg);
  // First read primes; second (consecutive) triggers.
  EXPECT_FALSE(pf.on_read(100, 1, 1000000).active());
  const auto s = pf.on_read(101, 1, 1000000);
  ASSERT_TRUE(s.active());
  EXPECT_EQ(s.start, 102u);
  EXPECT_EQ(s.pages, 16u);
}

TEST(SequentialPrefetcher, RandomReadsDoNotTrigger) {
  SequentialPrefetcher pf({});
  EXPECT_FALSE(pf.on_read(10, 1, 1000000).active());
  EXPECT_FALSE(pf.on_read(5000, 1, 1000000).active());
  EXPECT_FALSE(pf.on_read(77, 1, 1000000).active());
  EXPECT_FALSE(pf.on_read(31234, 1, 1000000).active());
}

TEST(SequentialPrefetcher, HysteresisBatchesReissue) {
  SequentialPrefetcher::Config cfg;
  cfg.trigger_hits = 2;
  cfg.read_ahead_pages = 16;
  SequentialPrefetcher pf(cfg);
  pf.on_read(0, 1, 1000000);
  ASSERT_TRUE(pf.on_read(1, 1, 1000000).active());  // window now [2, 18)
  // While more than half the window remains, no new suggestion.
  for (Lpn l = 2; l < 9; ++l) {
    EXPECT_FALSE(pf.on_read(l, 1, 1000000).active()) << "lpn " << l;
  }
  // At lpn 9 the remaining window [10, 18) is exactly half: top it up.
  const auto s = pf.on_read(9, 1, 1000000);
  ASSERT_TRUE(s.active());
  EXPECT_EQ(s.start, 18u);  // continues from the previous high-water mark
  EXPECT_EQ(s.pages, 8u);   // up to head (10) + 16
}

TEST(SequentialPrefetcher, SuggestionBoundedByDevice) {
  SequentialPrefetcher::Config cfg;
  cfg.trigger_hits = 2;
  cfg.read_ahead_pages = 64;
  SequentialPrefetcher pf(cfg);
  pf.on_read(90, 1, 100);
  const auto s = pf.on_read(91, 1, 100);
  ASSERT_TRUE(s.active());
  EXPECT_EQ(s.start, 92u);
  EXPECT_EQ(s.pages, 8u);  // clipped at page 100
}

TEST(SequentialPrefetcher, TracksMultipleStreams) {
  SequentialPrefetcher::Config cfg;
  cfg.stream_table_size = 4;
  cfg.trigger_hits = 2;
  cfg.read_ahead_pages = 8;
  SequentialPrefetcher pf(cfg);
  // Two interleaved sequential streams.
  pf.on_read(100, 1, 1000000);
  pf.on_read(5000, 1, 1000000);
  EXPECT_TRUE(pf.on_read(101, 1, 1000000).active());
  EXPECT_TRUE(pf.on_read(5001, 1, 1000000).active());
}

TEST(SsdReadAhead, RandomReadsNeverOvergroupARowRead) {
  // After a sequential fill and half a capacity of random overwrites, a
  // read-ahead window's logical pages scatter over physical pages, and one
  // physical page can recur non-adjacently within its row's group.  Each
  // row read must still name every physical page once, or it asks
  // NandArray::read_row for more pages than a die has planes (an abort).
  // Random 4 KiB reads at QD32 trigger read-ahead on chance address
  // matches; these seeds hit such a window.
  constexpr std::uint64_t kCapacity = 2048ull << 20;
  for (const std::uint64_t seed : {1, 2}) {
    sim::Simulator sim;
    const ssd::SsdConfig cfg = ssd::samsung_970pro_scaled(kCapacity);
    ASSERT_GT(cfg.ftl.prefetch.read_ahead_pages, 0);
    ssd::SsdDevice device(sim, cfg);
    contract::CharacterizationSuite::precondition(sim, device, kCapacity,
                                                  10 * units::kMs, seed + 16);
    wl::JobSpec spec;
    spec.pattern = wl::AccessPattern::kRandom;
    spec.io_bytes = 4096;
    spec.queue_depth = 32;
    spec.write_ratio = 1.0;
    spec.total_ops = kCapacity / 4096 / 2;
    spec.seed = seed;
    wl::JobRunner::run_to_completion(sim, device, spec);
    spec.write_ratio = 0.0;
    spec.total_ops = 300000;
    spec.seed = seed + 100;
    const auto reads = wl::JobRunner::run_to_completion(sim, device, spec);
    EXPECT_EQ(reads.total_ops(), 300000u);
    EXPECT_GT(device.ftl().stats().prefetch_row_reads, 0u) << "seed " << seed;
  }
}

TEST(SequentialPrefetcher, MultiPageReadsAdvanceHead) {
  SequentialPrefetcher::Config cfg;
  cfg.trigger_hits = 2;
  cfg.read_ahead_pages = 32;
  SequentialPrefetcher pf(cfg);
  pf.on_read(0, 8, 1000000);
  const auto s = pf.on_read(8, 8, 1000000);
  ASSERT_TRUE(s.active());
  EXPECT_EQ(s.start, 16u);
  EXPECT_EQ(s.pages, 32u);
}

}  // namespace
}  // namespace uc::ftl
