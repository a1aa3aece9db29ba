// Tests for the LRU ready-cache, the sequential stream detector with its
// read-ahead hysteresis, and the FTL's row-grouped read-ahead issue.

#include <gtest/gtest.h>

#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/lru_cache.h"
#include "common/rng.h"
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

// Reference model for the differential test below: the list + hash-map
// LRU the flat cache replaced, kept verbatim so any divergence in ready
// times, presence, size or eviction order shows up op for op.
class ReferenceLru {
 public:
  explicit ReferenceLru(std::uint32_t capacity) : capacity_(capacity) {}

  void insert(std::uint64_t key, SimTime ready) {
    auto it = map_.find(key);
    if (it != map_.end()) {
      if (ready < it->second.ready) it->second.ready = ready;
      touch(it);
      return;
    }
    if (map_.size() >= capacity_) {
      const std::uint64_t evict = lru_.back();
      map_.erase(evict);
      lru_.pop_back();
    }
    lru_.push_front(key);
    map_.emplace(key, Node{ready, lru_.begin()});
  }

  std::optional<SimTime> lookup(std::uint64_t key) {
    auto it = map_.find(key);
    if (it == map_.end()) return std::nullopt;
    touch(it);
    return it->second.ready;
  }

  bool contains(std::uint64_t key) const { return map_.contains(key); }

  void invalidate(std::uint64_t key) {
    auto it = map_.find(key);
    if (it == map_.end()) return;
    lru_.erase(it->second.lru_it);
    map_.erase(it);
  }

  std::uint32_t size() const { return static_cast<std::uint32_t>(map_.size()); }
  const std::list<std::uint64_t>& keys() const { return lru_; }

 private:
  struct Node {
    SimTime ready;
    std::list<std::uint64_t>::iterator lru_it;
  };
  using MapIt = std::unordered_map<std::uint64_t, Node>::iterator;

  void touch(MapIt it) {
    lru_.erase(it->second.lru_it);
    lru_.push_front(it->first);
    it->second.lru_it = lru_.begin();
  }

  std::uint32_t capacity_;
  std::list<std::uint64_t> lru_;
  std::unordered_map<std::uint64_t, Node> map_;
};

/// Keys whose multiplicative hash has the given top 20 bits: they share one
/// home bucket at every index size up to 2^20 slots.  Built by multiplying
/// a chosen hash value by the inverse of the cache's odd multiplier.
std::vector<std::uint64_t> same_home_keys(std::uint64_t top20, int n,
                                          Rng& rng) {
  constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ull;
  std::uint64_t inv = kMul;  // Newton: each step doubles the correct bits
  for (int i = 0; i < 6; ++i) inv *= 2 - kMul * inv;
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t h = (top20 << 44) | rng.uniform_u64(1ull << 44);
    keys.push_back(h * inv);
  }
  return keys;
}

enum class KeyShape { kSmallSpace, kClusterKey, kSameHome };

/// Seeded insert/lookup/contains/invalidate mix against the reference model.
void run_differential(std::uint32_t capacity, KeyShape shape, int ops,
                      std::uint64_t seed) {
  SCOPED_TRACE(testing::Message() << "capacity " << capacity << " shape "
                                  << static_cast<int>(shape));
  Rng rng(seed);
  std::vector<std::uint64_t> pool;
  if (shape == KeyShape::kSameHome) {
    // Runs homed at the last bucket wrap past the table's end into runs
    // homed at bucket 0, so backward shifts cross the boundary both ways.
    for (const std::uint64_t top : {0xFFFFFull, 0x0ull, 0x7FFFFull}) {
      const auto keys = same_home_keys(top, 16, rng);
      pool.insert(pool.end(), keys.begin(), keys.end());
    }
  }
  const std::uint64_t span = 2ull * capacity + 8;
  auto draw = [&]() -> std::uint64_t {
    switch (shape) {
      case KeyShape::kSmallSpace:
        return rng.uniform_u64(span);
      case KeyShape::kClusterKey:
        return (rng.uniform_u64(8) << 32) | rng.uniform_u64(span / 4 + 2);
      case KeyShape::kSameHome:
        return rng.uniform() < 0.5 ? pool[rng.uniform_u64(pool.size())]
                                   : rng.uniform_u64(span);
    }
    return 0;
  };

  LruReadyCache<std::uint64_t> cache(capacity);
  ReferenceLru ref(capacity);
  for (int i = 0; i < ops; ++i) {
    const std::uint64_t key = draw();
    const double dice = rng.uniform();
    if (dice < 0.35) {
      const SimTime ready = rng.uniform_u64(1000000);
      cache.insert(key, ready);
      ref.insert(key, ready);
    } else if (dice < 0.70) {
      ASSERT_EQ(cache.lookup(key), ref.lookup(key)) << "op " << i;
    } else if (dice < 0.80) {
      ASSERT_EQ(cache.contains(key), ref.contains(key)) << "op " << i;
    } else {
      cache.invalidate(key);
      ref.invalidate(key);
    }
    ASSERT_EQ(cache.size(), ref.size()) << "op " << i;
    if (capacity <= 64 || i % 4096 == 0 || i + 1 == ops) {
      // Same size and every reference key present: the same keys survived.
      for (const std::uint64_t k : ref.keys()) {
        ASSERT_TRUE(cache.contains(k)) << "op " << i << " key " << k;
      }
    }
  }
}

TEST(LruReadyCache, MatchesListAndMapReference) {
  // ~1M ops over every capacity and key shape.
  std::uint64_t seed = 1;
  for (const std::uint32_t capacity : {1u, 3u, 64u, 4096u}) {
    for (const KeyShape shape : {KeyShape::kSmallSpace, KeyShape::kClusterKey,
                                 KeyShape::kSameHome}) {
      run_differential(capacity, shape, 85000, seed++);
    }
  }
}

TEST(SequentialPrefetcher, DetectsStreamAfterTrigger) {
  SequentialPrefetcher::Config cfg;
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
