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
    cluster.write(0, off, bytes, first, [&] {
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
    cluster.read(0, off, bytes, [&] {
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
  EXPECT_TRUE(h.cluster.is_written(0, 0));
  EXPECT_TRUE(h.cluster.is_written(0, 12288));
  EXPECT_FALSE(h.cluster.is_written(0, 16384));
  EXPECT_EQ(h.cluster.page_stamp(0, 0), 1u);
  EXPECT_EQ(h.cluster.page_stamp(0, 12288), 4u);
  EXPECT_EQ(h.cluster.stats().written_pages, 4u);
}

TEST(StorageCluster, OverwriteKeepsLatestStamp) {
  Harness h(test_config());
  h.write(4096, 4096);
  h.write(4096, 4096);
  EXPECT_EQ(h.cluster.page_stamp(0, 4096), 2u);
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
        cluster.write(0, off, bytes, stamp + 1, done);
        stamp += pages;
      } else {
        cluster.read(0, off, bytes, done);
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

TEST(StorageCluster, ResidentBitsMatchNodeCaches) {
  // Three volumes share 64-page node caches, so reads and read-ahead evict
  // constantly while writes and trims drop cached pages.  Every page's
  // resident bit must track its primary's cache exactly through all of it.
  ClusterConfig cfg = test_config();
  cfg.readahead = true;
  cfg.readahead_pages = 16;
  sim::Simulator sim;
  StorageCluster cluster(sim, cfg);
  const std::vector<std::uint64_t> volumes = {16 * kMiB, 8 * kMiB, 12 * kMiB};
  for (const std::uint64_t bytes : volumes) cluster.attach_volume(bytes);
  const std::uint64_t pages_per_chunk = cfg.chunk_bytes / kLogicalPageBytes;

  const auto expect_exact = [&](int round) {
    ASSERT_TRUE(cluster.check_invariants());
    for (VolumeId vol = 0; vol < volumes.size(); ++vol) {
      for (ByteOffset off = 0; off < volumes[vol]; off += kLogicalPageBytes) {
        const int primary =
            cluster.chunks(vol).replicas(cluster.chunks(vol).chunk_of(off))[0];
        ASSERT_EQ(cluster.page_resident(vol, off),
                  cluster.page_cached_on(primary, vol, off))
            << "round " << round << " volume " << vol << " offset " << off;
      }
    }
  };

  Rng rng(41);
  WriteStamp stamp = 0;
  std::vector<std::uint64_t> stream(volumes.size(), 0);  // sequential cursor
  std::uint64_t trims = 0;
  for (int round = 0; round < 200; ++round) {
    for (int k = 0; k < 12; ++k) {
      const auto vol = static_cast<VolumeId>(rng.uniform_u64(volumes.size()));
      const std::uint64_t volume_pages = volumes[vol] / kLogicalPageBytes;
      const double dice = rng.uniform();
      const std::uint64_t page =
          dice < 0.3 ? stream[vol] : rng.uniform_u64(volume_pages);
      const auto pages = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(1 + rng.uniform_u64(24),
                                  pages_per_chunk - page % pages_per_chunk));
      if (dice < 0.3) stream[vol] = (page + pages) % volume_pages;
      const ByteOffset off = page * kLogicalPageBytes;
      const auto bytes = static_cast<std::uint32_t>(pages * kLogicalPageBytes);
      if (dice >= 0.3 && dice < 0.65) {
        cluster.write(vol, off, bytes, stamp + 1, [] {});
        stamp += pages;
      } else if (dice >= 0.65 && dice < 0.72) {
        cluster.trim(vol, off, bytes);
        ++trims;
      } else {
        cluster.read(vol, off, bytes, [] {});
      }
    }
    sim.run();
    if (round % 25 == 24) {
      ASSERT_NO_FATAL_FAILURE(expect_exact(round));
    }
  }
  const ClusterStats st = cluster.stats();
  EXPECT_GT(st.cache_hit_pages, 0u);
  EXPECT_GT(st.readahead_fetches, 0u);
  EXPECT_GT(trims, 0u);
  // Far more pages went through the caches than they can hold.
  EXPECT_GT(st.media_read_pages, 10u * cfg.node_cache_pages *
                                     static_cast<unsigned>(cfg.fabric.nodes));
  ASSERT_NO_FATAL_FAILURE(expect_exact(200));
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
  h.cluster.trim(0, 0, 8192);
  EXPECT_FALSE(h.cluster.is_written(0, 0));
  EXPECT_FALSE(h.cluster.is_written(0, 4096));
  EXPECT_EQ(h.cluster.live_pages(), 0u);
  // A later read is served as zeros, not from a stale cache.
  h.read(0, 4096);
  EXPECT_GE(h.cluster.stats().unwritten_read_pages, 1u);
}

// Submits far more 4 KiB random writes to volume 0 than the pool holds,
// all *concurrently* (a synchronous drain between writes would let the
// cleaner always catch up), then drains.  Returns how many completed.
int flood_writes(sim::Simulator& sim, StorageCluster& cluster) {
  Rng rng(17);
  int completed = 0;
  for (WriteStamp stamp = 1; stamp <= 3000; ++stamp) {
    const ByteOffset off =
        rng.uniform_u64(8 * kMiB / kLogicalPageBytes) * kLogicalPageBytes;
    cluster.write(0, off, 4096, stamp, [&] { ++completed; });
  }
  sim.run();
  return completed;
}

TEST(StorageCluster, PoolExhaustionStallsUntilCleanerFrees) {
  auto cfg = test_config();
  // Tiny pool: volume 8 MiB + spare 1 MiB, with a cleaner slower than the
  // (synchronous) write stream so the pool genuinely runs dry.
  cfg.spare_pool_bytes = 1 * kMiB;
  cfg.cleaner.processing_mbps = 25.0;
  cfg.cleaner.start_free_ratio = 0.5;
  Harness h(cfg, /*volume=*/8 * kMiB);
  // Every write must still complete, with stalls resolved through cleaning.
  ASSERT_EQ(flood_writes(h.sim, h.cluster), 3000);
  EXPECT_GT(h.cluster.stats().stalled_writes, 0u);
  EXPECT_GT(h.cluster.stats().append_stall_ns, 0u);
  EXPECT_GT(h.cluster.cleaner().stats().segments_cleaned, 0u);
  // Live accounting stays consistent through all the cleaning.
  EXPECT_LE(h.cluster.live_pages(), 8 * kMiB / kLogicalPageBytes);

  // The single-volume constructor is the shared constructor plus
  // attach_volume(), so the same flood ends in the same pool, stats and
  // cleaner state either way.
  sim::Simulator sim;
  StorageCluster shared(sim, cfg);
  shared.attach_volume(8 * kMiB);
  ASSERT_EQ(flood_writes(sim, shared), 3000);
  EXPECT_EQ(shared.total_pool_bytes(), h.cluster.total_pool_bytes());
  EXPECT_EQ(shared.free_pool_bytes(), h.cluster.free_pool_bytes());
  EXPECT_EQ(shared.stats(), h.cluster.stats());
  EXPECT_EQ(shared.cleaner().stats(), h.cluster.cleaner().stats());
}

TEST(StorageCluster, StalledWriteDropsCachedPageBeforeItLands) {
  // Pool sizing (single volume): 8 MiB live + 1 MiB spare + one
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
    h.cluster.write(0, off, kBlock, h.stamp, [&] { ++completed; });
  }
  ASSERT_EQ(h.cluster.stats().stalled_writes, 0u);

  bool landed = false;
  h.stamp += 1;
  h.cluster.write(0, 0, 4096, h.stamp, [&] { landed = true; });
  ASSERT_EQ(h.cluster.stats().stalled_writes, 1u);

  // While the overwrite of page 0 is stalled, a read of page 0 must miss
  // the cache: the stale copy was dropped at stall time.  (The read queues
  // behind ~8 ms of replica fan-out on the VM NIC; the first victim takes
  // ~210 ms to clean.)
  const auto media = h.cluster.stats().media_read_pages;
  bool read_done = false;
  h.cluster.read(0, 0, 4096, [&] { read_done = true; });
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
      EXPECT_FALSE(h.cluster.is_written(0, page * kLogicalPageBytes));
    } else {
      ASSERT_TRUE(h.cluster.is_written(0, page * kLogicalPageBytes));
      EXPECT_EQ(h.cluster.page_stamp(0, page * kLogicalPageBytes), shadow[page])
          << "page " << page;
    }
  }
}

}  // namespace
}  // namespace uc::ebs
