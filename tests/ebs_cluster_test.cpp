// Tests for the storage cluster: replicated writes, read routing with node
// caches and read-ahead, trim, stamp integrity, and the pool-exhaustion /
// cleaner-unblock loop that produces the provider-side GC behaviour.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "ebs/cluster.h"

namespace uc::ebs {
namespace {

using namespace units;

ClusterConfig test_config() {
  ClusterConfig cfg;
  cfg.fabric.nodes = 6;
  cfg.fabric.vm_nic_mbps = 4000.0;
  cfg.fabric.node_nic_mbps = 2000.0;
  cfg.fabric.hop = sim::LatencyModelConfig{.base_us = 10.0};
  cfg.chunk_bytes = 4 * kMiB;
  cfg.segment_bytes = 1 * kMiB;
  cfg.replication = 3;
  cfg.spare_pool_bytes = 16 * kMiB;
  cfg.node_append_mbps = 1000.0;
  cfg.node_append_op_us = 5.0;
  cfg.node_read_mbps = 1000.0;
  cfg.node_read_op_us = 5.0;
  cfg.replica_write = sim::LatencyModelConfig{.base_us = 20.0};
  cfg.replica_read = sim::LatencyModelConfig{.base_us = 60.0};
  cfg.node_cache_pages = 64;
  cfg.readahead = false;
  cfg.cleaner.processing_mbps = 500.0;
  cfg.cleaner.start_free_ratio = 0.9;
  cfg.cleaner_reserve_groups = 2;
  cfg.seed = 3;
  return cfg;
}

struct Harness {
  sim::Simulator sim;
  StorageCluster cluster;
  WriteStamp stamp = 0;

  explicit Harness(const ClusterConfig& cfg, std::uint64_t volume = 32 * kMiB)
      : cluster(sim, cfg, volume) {}

  SimTime write(ByteOffset off, std::uint32_t bytes) {
    bool done = false;
    const SimTime t0 = sim.now();
    SimTime t1 = 0;
    const WriteStamp first = stamp + 1;
    stamp += bytes / kLogicalPageBytes;
    cluster.write(off, bytes, first, [&] {
      done = true;
      t1 = sim.now();
    });
    sim.run();
    EXPECT_TRUE(done);
    return t1 - t0;
  }
  SimTime read(ByteOffset off, std::uint32_t bytes) {
    bool done = false;
    const SimTime t0 = sim.now();
    SimTime t1 = 0;
    cluster.read(off, bytes, [&] {
      done = true;
      t1 = sim.now();
    });
    sim.run();
    EXPECT_TRUE(done);
    return t1 - t0;
  }
};

TEST(StorageCluster, WriteRecordsStampsPerPage) {
  Harness h(test_config());
  h.write(0, 16384);  // pages 0-3, stamps 1-4
  EXPECT_TRUE(h.cluster.is_written(0));
  EXPECT_TRUE(h.cluster.is_written(12288));
  EXPECT_FALSE(h.cluster.is_written(16384));
  EXPECT_EQ(h.cluster.page_stamp(0), 1u);
  EXPECT_EQ(h.cluster.page_stamp(12288), 4u);
  EXPECT_EQ(h.cluster.stats().written_pages, 4u);
}

TEST(StorageCluster, OverwriteKeepsLatestStamp) {
  Harness h(test_config());
  h.write(4096, 4096);
  h.write(4096, 4096);
  EXPECT_EQ(h.cluster.page_stamp(4096), 2u);
  EXPECT_EQ(h.cluster.live_pages(), 1u);
  EXPECT_EQ(h.cluster.garbage_pages(), 1u);
}

TEST(StorageCluster, WriteLatencyCoversReplicationFanOut) {
  Harness h(test_config());
  const SimTime lat = h.write(0, 4096);
  // Floor: vm egress (~1us x3 serialized) + hop 10us + node ingress ~2us +
  // append svc ~9us + journal 20us + ack hop 10us > 40us; and it must be
  // well under a millisecond.
  EXPECT_GT(lat, 40 * kUs);
  EXPECT_LT(lat, 500 * kUs);
}

TEST(StorageCluster, ReadMissesGoToMediaHitsToCache) {
  Harness h(test_config());
  h.write(0, 4096);
  const SimTime miss = h.read(0, 4096);
  EXPECT_GT(miss, 80 * kUs);  // media read on the path
  const SimTime hit = h.read(0, 4096);
  EXPECT_LT(hit, miss);  // cached at the node now
  EXPECT_GE(h.cluster.stats().cache_hit_pages, 1u);
  EXPECT_GE(h.cluster.stats().media_read_pages, 1u);
}

TEST(StorageCluster, WriteInvalidatesNodeCaches) {
  Harness h(test_config());
  h.write(0, 4096);
  h.read(0, 4096);
  const auto hits_before = h.cluster.stats().cache_hit_pages;
  h.write(0, 4096);  // newer data
  h.read(0, 4096);
  // The read after the overwrite must not have been served from the stale
  // cache entry (a fresh media read happened instead).
  EXPECT_GE(h.cluster.stats().media_read_pages, 2u);
  (void)hits_before;
}

// Writes invalidate only the primary replica's cache, which is sound only
// because reads and read-ahead cache a chunk's pages on its primary alone.
// Drive overlapping writes, random reads and sequential read streams (with
// read-ahead) at queue depth 16, then check that no secondary ever holds a
// page and that the run's timing digest is the pinned one.
TEST(StorageCluster, OnlyPrimaryReplicasCacheChunkPages) {
  ClusterConfig cfg = test_config();
  cfg.readahead = true;
  cfg.readahead_pages = 8;
  cfg.node_cache_pages = 512;
  sim::Simulator sim;
  const std::uint64_t volume = 32 * kMiB;
  StorageCluster cluster(sim, cfg, volume);
  const std::uint64_t pages_per_chunk = cfg.chunk_bytes / kLogicalPageBytes;
  const std::uint64_t volume_pages = volume / kLogicalPageBytes;

  Rng rng(17);
  std::uint64_t digest = 1469598103934665603ull;  // FNV-1a over completions
  auto mix = [&](std::uint64_t x) { digest = (digest ^ x) * 1099511628211ull; };
  WriteStamp stamp = 0;
  std::uint64_t stream = 0;  // next page of the sequential read stream
  for (int round = 0; round < 300; ++round) {
    for (int k = 0; k < 16; ++k) {
      const double dice = rng.uniform();
      const std::uint64_t page =
          dice < 0.25 ? stream : rng.uniform_u64(volume_pages);
      const auto pages = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(1 + rng.uniform_u64(4),
                                  pages_per_chunk - page % pages_per_chunk));
      if (dice < 0.25) stream = (page + pages) % volume_pages;
      const ByteOffset off = page * kLogicalPageBytes;
      const auto bytes =
          static_cast<std::uint32_t>(pages * kLogicalPageBytes);
      auto done = [&sim, &mix, k] {
        mix(sim.now() * 31 + static_cast<std::uint64_t>(k));
      };
      if (dice >= 0.25 && dice < 0.6) {
        cluster.write(off, bytes, stamp + 1, done);
        stamp += pages;
      } else {
        cluster.read(off, bytes, done);
      }
    }
    sim.run();
  }
  const ClusterStats& st = cluster.stats();
  mix(st.cache_hit_pages);
  mix(st.media_read_pages);
  mix(st.readahead_fetches);
  EXPECT_GT(st.cache_hit_pages, 0u);
  EXPECT_GT(st.readahead_fetches, 0u);

  std::uint64_t cached_on_primary = 0;
  for (std::uint64_t page = 0; page < volume_pages; ++page) {
    const ByteOffset off = page * kLogicalPageBytes;
    const auto& replicas =
        cluster.chunks().replicas(cluster.chunks().chunk_of(off));
    for (int node = 0; node < cfg.fabric.nodes; ++node) {
      if (node == replicas[0]) {
        cached_on_primary += cluster.page_cached_on(node, 0, off) ? 1 : 0;
      } else {
        EXPECT_FALSE(cluster.page_cached_on(node, 0, off))
            << "page " << page << " cached on non-primary node " << node;
      }
    }
  }
  EXPECT_GT(cached_on_primary, 0u);
  // The same digest as invalidating every replica's cache: skipping the
  // secondaries changes no timing.
  EXPECT_EQ(digest, 11528424210907451115ull) << "timing digest moved";
}

TEST(StorageCluster, UnwrittenReadsSkipMedia) {
  Harness h(test_config());
  const SimTime lat = h.read(1 * kMiB, 8192);
  EXPECT_EQ(h.cluster.stats().unwritten_read_pages, 2u);
  EXPECT_EQ(h.cluster.stats().media_read_pages, 0u);
  EXPECT_LT(lat, 100 * kUs);
}

TEST(StorageCluster, ReadaheadServesSequentialStreams) {
  auto cfg = test_config();
  cfg.readahead = true;
  cfg.readahead_pages = 16;
  Harness h(cfg);
  // Precondition 64 pages sequentially.
  for (int i = 0; i < 16; ++i) h.write(static_cast<ByteOffset>(i) * 16384, 16384);
  // Stream through them; after the first misses, read-ahead covers.
  for (int i = 0; i < 16; ++i) h.read(static_cast<ByteOffset>(i) * 16384, 16384);
  EXPECT_GT(h.cluster.stats().readahead_fetches, 0u);
  EXPECT_GT(h.cluster.stats().cache_hit_pages, 20u);
}

TEST(StorageCluster, TrimDropsPagesAndInvalidatesCaches) {
  Harness h(test_config());
  h.write(0, 8192);
  h.read(0, 8192);
  h.cluster.trim(0, 8192);
  EXPECT_FALSE(h.cluster.is_written(0));
  EXPECT_FALSE(h.cluster.is_written(4096));
  EXPECT_EQ(h.cluster.live_pages(), 0u);
  // A later read is served as zeros, not from a stale cache.
  h.read(0, 4096);
  EXPECT_GE(h.cluster.stats().unwritten_read_pages, 1u);
}

TEST(StorageCluster, PoolExhaustionStallsUntilCleanerFrees) {
  auto cfg = test_config();
  // Tiny pool: volume 8 MiB + spare 1 MiB, with a cleaner slower than the
  // (synchronous) write stream so the pool genuinely runs dry.
  cfg.spare_pool_bytes = 1 * kMiB;
  cfg.cleaner.processing_mbps = 25.0;
  cfg.cleaner.start_free_ratio = 0.5;
  Harness h(cfg, /*volume=*/8 * kMiB);
  Rng rng(17);
  // Submit far more than pool capacity *concurrently* (a synchronous
  // drain between writes would let the cleaner always catch up); every
  // write must still complete, with stalls resolved through cleaning.
  int completed = 0;
  for (int i = 0; i < 3000; ++i) {
    const ByteOffset off =
        rng.uniform_u64(8 * kMiB / kLogicalPageBytes) * kLogicalPageBytes;
    h.stamp += 1;
    h.cluster.write(off, 4096, h.stamp, [&] { ++completed; });
  }
  h.sim.run();
  ASSERT_EQ(completed, 3000);
  EXPECT_GT(h.cluster.stats().stalled_writes, 0u);
  EXPECT_GT(h.cluster.stats().append_stall_ns, 0u);
  EXPECT_GT(h.cluster.cleaner().stats().segments_cleaned, 0u);
  // Live accounting stays consistent through all the cleaning.
  EXPECT_LE(h.cluster.live_pages(), 8 * kMiB / kLogicalPageBytes);
}

TEST(StorageCluster, StalledWriteDropsCachedPageBeforeItLands) {
  // Pool sizing (legacy single volume): 8 MiB live + 1 MiB spare + one
  // open segment per chunk = 11 usable 1 MiB groups over the 2-group
  // cleaner reserve.  Chunk 0 takes one group, chunk 1 the other ten, so
  // the next append into chunk 0 needs a group the pool no longer has.
  auto cfg = test_config();
  cfg.spare_pool_bytes = 1 * kMiB;
  cfg.cleaner.processing_mbps = 5.0;  // ~210 ms per victim
  Harness h(cfg, /*volume=*/8 * kMiB);
  constexpr std::uint32_t kBlock = 64 * 1024;
  for (ByteOffset off = 0; off < 1 * kMiB; off += kBlock) h.write(off, kBlock);
  h.read(0, 4096);  // page 0 now cached on its primary
  const auto hits = h.cluster.stats().cache_hit_pages;
  h.read(0, 4096);
  ASSERT_EQ(h.cluster.stats().cache_hit_pages, hits + 1);

  // Fill chunk 1 without running the simulator, so the cleaner (which
  // frees nothing until its pipe finishes) cannot refill the pool.
  int completed = 0;
  for (std::uint32_t i = 0; i < 160; ++i) {
    const ByteOffset off = 4 * kMiB + (i % 64) * ByteOffset{kBlock};
    h.stamp += kBlock / kLogicalPageBytes;
    h.cluster.write(off, kBlock, h.stamp, [&] { ++completed; });
  }
  ASSERT_EQ(h.cluster.stats().stalled_writes, 0u);

  bool landed = false;
  h.stamp += 1;
  h.cluster.write(0, 4096, h.stamp, [&] { landed = true; });
  ASSERT_EQ(h.cluster.stats().stalled_writes, 1u);

  // While the overwrite of page 0 is stalled, a read of page 0 must miss
  // the cache: the stale copy was dropped at stall time.  (The read queues
  // behind ~8 ms of replica fan-out on the VM NIC; the first victim takes
  // ~210 ms to clean.)
  const auto media = h.cluster.stats().media_read_pages;
  bool read_done = false;
  h.cluster.read(0, 4096, [&] { read_done = true; });
  h.sim.run_until(h.sim.now() + 50 * kMs);
  ASSERT_TRUE(read_done);
  EXPECT_FALSE(landed);
  EXPECT_EQ(h.cluster.stats().media_read_pages, media + 1);

  // That miss re-cached the old version; once the append lands it must be
  // dropped again, so the next read misses too.
  h.sim.run();
  EXPECT_TRUE(landed);
  EXPECT_EQ(completed, 160);
  h.read(0, 4096);
  EXPECT_EQ(h.cluster.stats().media_read_pages, media + 2);
  EXPECT_TRUE(h.cluster.check_invariants());
}

TEST(StorageCluster, StampsSurviveCleaning) {
  auto cfg = test_config();
  cfg.spare_pool_bytes = 1 * kMiB;
  cfg.cleaner.processing_mbps = 25.0;
  cfg.cleaner.start_free_ratio = 0.5;
  Harness h(cfg, 8 * kMiB);
  Rng rng(23);
  std::vector<WriteStamp> shadow(8 * kMiB / kLogicalPageBytes, 0);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t page = rng.uniform_u64(shadow.size());
    h.write(page * kLogicalPageBytes, 4096);
    shadow[page] = h.stamp;
  }
  for (std::uint64_t page = 0; page < shadow.size(); ++page) {
    if (shadow[page] == 0) {
      EXPECT_FALSE(h.cluster.is_written(page * kLogicalPageBytes));
    } else {
      ASSERT_TRUE(h.cluster.is_written(page * kLogicalPageBytes));
      EXPECT_EQ(h.cluster.page_stamp(page * kLogicalPageBytes), shadow[page])
          << "page " << page;
    }
  }
}

TEST(StorageCluster, NodeIndexModelIsOffByDefault) {
  Harness h(test_config());
  h.write(0, 64 * 1024);
  h.read(0, 64 * 1024);
  EXPECT_FALSE(h.cluster.models_node_index());
  const auto s = h.cluster.node_index_stats();
  EXPECT_EQ(s.lookups, 0u);
  EXPECT_EQ(s.table_bytes, 0u);
}

TEST(StorageCluster, NodeIndexChargesFaultPenaltyOnMediaReads) {
  // Two identical clusters, one with a deliberately thrashing demand-paged
  // node index: every media read must consult the index, faults must show
  // up in the aggregate stats, and the fault penalty must make the indexed
  // cluster's reads strictly slower.
  auto cfg = test_config();
  cfg.node_cache_pages = 1;  // nearly everything goes to media
  auto idx = cfg;
  idx.model_node_index = true;
  idx.node_mapping.kind = ftl::MappingKind::kDftl;
  idx.node_mapping.cmt_capacity_pages = 1;
  idx.node_mapping.translation_page_bytes = 64;  // 8 entries/tp: constant miss
  idx.node_mapping.miss_penalty_us = 50.0;

  Harness plain(cfg);
  Harness faulty(idx);
  for (int i = 0; i < 8; ++i) {
    plain.write(static_cast<ByteOffset>(i) * 64 * 1024, 64 * 1024);
    faulty.write(static_cast<ByteOffset>(i) * 64 * 1024, 64 * 1024);
  }
  SimTime plain_total = 0;
  SimTime faulty_total = 0;
  for (int i = 7; i >= 0; --i) {
    plain_total += plain.read(static_cast<ByteOffset>(i) * 64 * 1024, 64 * 1024);
    faulty_total += faulty.read(static_cast<ByteOffset>(i) * 64 * 1024, 64 * 1024);
  }
  EXPECT_TRUE(faulty.cluster.models_node_index());
  const auto s = faulty.cluster.node_index_stats();
  EXPECT_EQ(s.lookups, s.cache_hits + s.cache_misses);
  EXPECT_GT(s.cache_misses, 0u);
  EXPECT_GT(s.table_bytes, 0u);
  EXPECT_GT(s.miss_penalty_ns_total, 0u);
  EXPECT_GT(faulty_total, plain_total);
}

TEST(StorageCluster, NodeIndexTrimInvalidatesWithFreshStamps) {
  auto cfg = test_config();
  cfg.model_node_index = true;
  cfg.node_mapping.kind = ftl::MappingKind::kPage;
  Harness h(cfg);
  h.write(0, 256 * 1024);
  const auto before = h.cluster.node_index_stats();
  h.cluster.trim(0, 256 * 1024);
  h.sim.run();
  const auto after = h.cluster.node_index_stats();
  // Every replica of every trimmed page records an invalidation lookup.
  EXPECT_GT(after.lookups, before.lookups);
  EXPECT_EQ(after.lookups, after.cache_hits + after.cache_misses);
}

}  // namespace
}  // namespace uc::ebs
