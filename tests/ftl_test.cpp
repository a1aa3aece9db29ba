// End-to-end FTL tests: read-after-write consistency through buffer, flash
// and GC; trim semantics; flush barriers; GC lifecycle under sustained
// overwrites; reliability injection; and a TEST_P property sweep asserting
// full mapping integrity after randomized op streams.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <unordered_map>

#include "common/rng.h"
#include "common/units.h"
#include "ftl/ftl.h"
#include "sim/simulator.h"
#include "ssd/ssd_config.h"

namespace uc::ftl {
namespace {

using namespace units;

FtlConfig small_config() {
  FtlConfig cfg;
  flash::FlashGeometry g;
  g.channels = 2;
  g.dies_per_channel = 2;
  g.planes_per_die = 2;
  g.blocks_per_plane = 24;
  g.pages_per_block = 16;
  g.page_bytes = 16384;
  cfg.geometry = g;
  // superblock = 4 dies * 2 planes * 16 pages * 16 KiB = 2 MiB;
  // physical = 48 MiB.
  cfg.timing = flash::FlashTiming{};
  cfg.gc.trigger_free_sbs = 3;
  cfg.gc.stop_free_sbs = 5;
  cfg.gc.user_reserve_sbs = 2;
  cfg.user_capacity_bytes = 32 * kMiB;
  cfg.write_buffer_slots = 256;
  cfg.read_cache_slots = 128;
  return cfg;
}

/// Drives the FTL synchronously: issues an op and runs the sim to idle.
struct Harness {
  sim::Simulator sim;
  Ftl ftl;

  explicit Harness(const FtlConfig& cfg) : ftl(sim, cfg, Rng(1234)) {}

  void write(Lpn lpn, std::uint32_t pages = 1) {
    bool done = false;
    ftl.write(lpn, pages, [&] { done = true; });
    sim.run();
    EXPECT_TRUE(done);
  }
  SimTime read(Lpn lpn, std::uint32_t pages = 1) {
    bool done = false;
    const SimTime t0 = sim.now();
    SimTime t1 = 0;
    ftl.read(lpn, pages, [&] {
      done = true;
      t1 = sim.now();
    });
    sim.run();
    EXPECT_TRUE(done);
    return t1 - t0;
  }
  void flush() {
    bool done = false;
    ftl.flush([&] { done = true; });
    sim.run();
    EXPECT_TRUE(done);
  }
};

TEST(Ftl, WriteAckIsBuffered) {
  Harness h(small_config());
  bool done = false;
  h.ftl.write(0, 1, [&] { done = true; });
  h.sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(h.ftl.stats().host_write_pages, 1u);
}

TEST(Ftl, ReadHitsBufferBeforeFlush) {
  Harness h(small_config());
  h.write(5);
  const SimTime lat = h.read(5);
  // DRAM-speed: well under a flash sense.
  EXPECT_LT(lat, 20 * kUs);
  EXPECT_GE(h.ftl.stats().buffer_hit_pages, 1u);
}

TEST(Ftl, FlushDrainsAndMapsEverything) {
  Harness h(small_config());
  for (Lpn l = 0; l < 64; ++l) h.write(l);
  h.flush();
  EXPECT_TRUE(h.ftl.write_buffer_empty());
  EXPECT_EQ(h.ftl.mapping().mapped_count(), 64u);
  EXPECT_TRUE(h.ftl.check_integrity().is_ok());
}

TEST(Ftl, ReadAfterFlushGoesToFlash) {
  Harness h(small_config());
  for (Lpn l = 0; l < 64; ++l) h.write(l);
  h.flush();
  // Random (non-sequential) single read: full flash sense on the path.
  const SimTime lat = h.read(37);
  EXPECT_GT(lat, 40 * kUs);
  EXPECT_GE(h.ftl.stats().flash_read_pages, 1u);
}

TEST(Ftl, UnmappedReadsServeFast) {
  Harness h(small_config());
  const SimTime lat = h.read(100);
  EXPECT_LT(lat, 10 * kUs);
  EXPECT_EQ(h.ftl.stats().unmapped_read_pages, 1u);
}

TEST(Ftl, TrimUnmapsAndDefeatsBufferedData) {
  Harness h(small_config());
  h.write(9);
  h.ftl.trim(9, 1);
  h.sim.run();
  // The read must not hit the discarded buffer copy.
  const SimTime lat = h.read(9);
  EXPECT_LT(lat, 10 * kUs);
  EXPECT_EQ(h.ftl.stats().unmapped_read_pages, 1u);
  h.flush();
  EXPECT_FALSE(h.ftl.mapping().is_mapped(9));
  EXPECT_TRUE(h.ftl.check_integrity().is_ok());
}

TEST(Ftl, SequentialReadsPrefetchIntoCache) {
  auto cfg = small_config();
  cfg.prefetch.read_ahead_pages = 32;
  Harness h(cfg);
  for (Lpn l = 0; l < 256; ++l) h.write(l);
  h.flush();
  for (Lpn l = 0; l < 200; ++l) h.read(l);
  EXPECT_GT(h.ftl.stats().cache_hit_pages, 100u);
  EXPECT_GT(h.ftl.stats().prefetch_row_reads, 0u);
}

TEST(Ftl, GcReclaimsUnderSustainedOverwrites) {
  Harness h(small_config());
  Rng rng(7);
  const Lpn user_pages = h.ftl.user_pages();
  // Write ~3x the device capacity of random overwrites.
  for (std::uint64_t i = 0; i < 3 * user_pages; ++i) {
    h.write(rng.uniform_u64(user_pages));
  }
  h.flush();
  EXPECT_GT(h.ftl.gc_stats().victims_collected, 0u);
  EXPECT_GT(h.ftl.write_amplification(), 1.0);
  EXPECT_TRUE(h.ftl.check_integrity().is_ok());
}

TEST(Ftl, ConfigValidationRejectsOversizedCapacity) {
  auto cfg = small_config();
  cfg.user_capacity_bytes = 47 * kMiB;  // physical is 48 MiB
  EXPECT_FALSE(cfg.validate().is_ok());
  cfg = small_config();
  cfg.write_buffer_slots = 2;  // below one allocation row
  EXPECT_FALSE(cfg.validate().is_ok());
}

TEST(Ftl, ConfigValidationRejectsZeroReadCache) {
  auto cfg = small_config();
  EXPECT_TRUE(cfg.validate().is_ok());
  cfg.read_cache_slots = 0;  // the cache constructor would abort
  EXPECT_EQ(cfg.validate().code(), StatusCode::kInvalidArgument);
}

// Each GC field out of range must be rejected by FtlConfig::validate() and,
// through it, SsdConfig::validate(), not abort later (in the GcController
// constructor, or in GC's row allocation when it triggers on an empty pool)
// or underflow the spare-capacity arithmetic.  The 1 GiB
// scaled profile has 14 superblocks and watermarks trigger 3 / stop 5 /
// reserve 2.
TEST(GcConfig, ValidateRejectsEachBadField) {
  struct Row {
    const char* name;
    void (*edit)(GcConfig&);
    const char* error;  ///< expected message fragment; nullptr = valid
  };
  const Row rows[] = {
      {"default", [](GcConfig&) {}, nullptr},
      {"negative reserve", [](GcConfig& g) { g.user_reserve_sbs = -1; },
       "user reserve"},
      {"all watermarks negative",
       [](GcConfig& g) {
         g.user_reserve_sbs = -3;
         g.trigger_free_sbs = -2;
         g.stop_free_sbs = -1;
       },
       "user reserve"},
      {"trigger below reserve", [](GcConfig& g) { g.trigger_free_sbs = 1; },
       "user reserve is reached"},
      {"trigger at zero free",
       [](GcConfig& g) {
         g.user_reserve_sbs = 0;
         g.trigger_free_sbs = 0;
       },
       "still free"},
      {"stop below trigger", [](GcConfig& g) { g.stop_free_sbs = 2; },
       "stop watermark"},
      {"spare fills the device", [](GcConfig& g) { g.stop_free_sbs = 12; },
       "no user space"},
      {"spare beyond the device", [](GcConfig& g) { g.stop_free_sbs = 24; },
       "no user space"},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.name);
    auto cfg = ssd::samsung_970pro_scaled(1 * kGiB);
    ASSERT_EQ(cfg.ftl.geometry.superblock_count(), 14);
    row.edit(cfg.ftl.gc);
    for (const Status& st : {cfg.ftl.validate(), cfg.validate()}) {
      if (row.error == nullptr) {
        EXPECT_TRUE(st.is_ok()) << st.message();
        continue;
      }
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
      EXPECT_NE(st.message().find(row.error), std::string::npos)
          << st.message();
    }
  }
}

// Property sweep: after an arbitrary mix of writes, overwrites, trims and
// reads across several seeds, a drained FTL must satisfy full mapping
// integrity and reflect exactly the shadow model's view.
class FtlConsistency : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FtlConsistency, RandomOpStreamKeepsIntegrity) {
  Harness h(small_config());
  Rng rng(GetParam());
  std::unordered_map<Lpn, bool> shadow_mapped;
  const Lpn span = h.ftl.user_pages();
  for (int i = 0; i < 4000; ++i) {
    const Lpn lpn = rng.uniform_u64(span - 4);
    const double dice = rng.uniform();
    if (dice < 0.62) {
      const auto pages = static_cast<std::uint32_t>(rng.uniform_range(1, 4));
      h.write(lpn, pages);
      for (std::uint32_t p = 0; p < pages; ++p) shadow_mapped[lpn + p] = true;
    } else if (dice < 0.72) {
      const auto pages = static_cast<std::uint32_t>(rng.uniform_range(1, 4));
      h.ftl.trim(lpn, pages);
      h.sim.run();
      for (std::uint32_t p = 0; p < pages; ++p) shadow_mapped[lpn + p] = false;
    } else {
      h.read(lpn, static_cast<std::uint32_t>(rng.uniform_range(1, 4)));
    }
  }
  h.flush();
  ASSERT_TRUE(h.ftl.check_integrity().is_ok());
  for (const auto& [lpn, mapped] : shadow_mapped) {
    EXPECT_EQ(h.ftl.mapping().is_mapped(lpn), mapped) << "lpn " << lpn;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FtlConsistency,
                         ::testing::Values(101, 202, 303, 404));

}  // namespace
}  // namespace uc::ftl
