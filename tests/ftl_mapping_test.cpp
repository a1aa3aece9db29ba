// Tests for the mapping policies' stamp-ordered update rule — the
// invariant that lets host flushes, GC relocations, and stale program
// completions race safely — plus policy-specific edge cases (DFTL CMT of
// one page, hashed-group partial-group overwrites, learned-run splits).
// The stamp-rule cases run against every policy via the factory; the
// randomized reference-model harness lives in mapping_policy_test.cpp.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "ftl/mapping.h"
#include "ftl/mapping_dftl.h"
#include "ftl/mapping_hashed.h"
#include "ftl/mapping_learned.h"

namespace uc::ftl {
namespace {

std::vector<MappingKind> all_kinds() {
  return {MappingKind::kPage, MappingKind::kDftl, MappingKind::kHashedGroup,
          MappingKind::kLearnedRange};
}

std::unique_ptr<MappingPolicy> make(MappingKind kind,
                                    std::uint64_t logical_pages) {
  MappingConfig cfg;
  cfg.kind = kind;
  cfg.cmt_capacity_pages = 2;
  cfg.translation_page_bytes = 64;  // 8 entries/tp: misses at small scale
  cfg.group_pages = 4;
  cfg.min_run_pages = 3;
  return make_mapping_policy(cfg, logical_pages);
}

TEST(MappingPolicy, StartsUnmapped) {
  for (const MappingKind kind : all_kinds()) {
    SCOPED_TRACE(to_string(kind));
    auto m = make(kind, 16);
    EXPECT_EQ(m->logical_pages(), 16u);
    EXPECT_EQ(m->mapped_count(), 0u);
    for (Lpn lpn = 0; lpn < 16; ++lpn) {
      EXPECT_EQ(m->peek(lpn), flash::kInvalidSpa);
      EXPECT_FALSE(m->is_mapped(lpn));
    }
    // Translate-before-write answers unmapped (a DFTL still pays the
    // translation-page fault; the answer itself must be exact).
    EXPECT_EQ(m->translate(9).spa, flash::kInvalidSpa);
    const auto& st = m->stats();
    EXPECT_EQ(st.lookups, st.cache_hits + st.cache_misses);
  }
}

TEST(MappingPolicy, UpdateMapsAndReturnsPrevious) {
  for (const MappingKind kind : all_kinds()) {
    SCOPED_TRACE(to_string(kind));
    auto m = make(kind, 16);
    auto r1 = m->update(3, 100, 1);
    EXPECT_TRUE(r1.applied);
    EXPECT_EQ(r1.previous, flash::kInvalidSpa);
    EXPECT_EQ(m->translate(3).spa, 100u);
    EXPECT_EQ(m->stamp_of(3), 1u);
    EXPECT_EQ(m->mapped_count(), 1u);

    auto r2 = m->update(3, 200, 2);
    EXPECT_TRUE(r2.applied);
    EXPECT_EQ(r2.previous, 100u);
    EXPECT_EQ(m->translate(3).spa, 200u);
    EXPECT_EQ(m->mapped_count(), 1u);
  }
}

TEST(MappingPolicy, StaleUpdateLoses) {
  for (const MappingKind kind : all_kinds()) {
    SCOPED_TRACE(to_string(kind));
    auto m = make(kind, 16);
    ASSERT_TRUE(m->update(5, 100, 10).applied);
    const auto stale = m->update(5, 200, 9);
    EXPECT_FALSE(stale.applied);
    EXPECT_EQ(m->translate(5).spa, 100u);
    EXPECT_EQ(m->stamp_of(5), 10u);
  }
}

TEST(MappingPolicy, EqualStampWins) {
  // GC relocates data carrying its original stamp; the relocation must win
  // over the stale physical location.
  for (const MappingKind kind : all_kinds()) {
    SCOPED_TRACE(to_string(kind));
    auto m = make(kind, 16);
    ASSERT_TRUE(m->update(7, 100, 4).applied);
    const auto reloc = m->on_gc_relocate(7, 300, 4);
    EXPECT_TRUE(reloc.applied);
    EXPECT_EQ(reloc.previous, 100u);
    EXPECT_EQ(m->translate(7).spa, 300u);
  }
}

TEST(MappingPolicy, GcRelocationOfOverwrittenPageIsStale) {
  // The host overwrote the page after GC read the old slot: the relocation
  // arrives carrying the old stamp and must lose without disturbing the
  // newer mapping or the stats invariant.
  for (const MappingKind kind : all_kinds()) {
    SCOPED_TRACE(to_string(kind));
    auto m = make(kind, 16);
    ASSERT_TRUE(m->update(7, 100, 4).applied);   // original write
    ASSERT_TRUE(m->update(7, 500, 9).applied);   // host overwrite
    const auto reloc = m->on_gc_relocate(7, 300, 4);  // stale relocation
    EXPECT_FALSE(reloc.applied);
    EXPECT_EQ(reloc.previous, flash::kInvalidSpa);
    EXPECT_EQ(m->translate(7).spa, 500u);
    EXPECT_EQ(m->stamp_of(7), 9u);
    EXPECT_EQ(m->mapped_count(), 1u);
    const auto& st = m->stats();
    EXPECT_EQ(st.lookups, st.cache_hits + st.cache_misses);
  }
}

TEST(MappingPolicy, TrimDefeatsInflightPrograms) {
  for (const MappingKind kind : all_kinds()) {
    SCOPED_TRACE(to_string(kind));
    auto m = make(kind, 16);
    ASSERT_TRUE(m->update(2, 100, 5).applied);
    // Trim with a fresh stamp unmaps...
    EXPECT_EQ(m->invalidate(2, 6).previous, 100u);
    EXPECT_FALSE(m->is_mapped(2));
    EXPECT_EQ(m->mapped_count(), 0u);
    // ...and an older in-flight program must NOT resurrect the page.
    EXPECT_FALSE(m->update(2, 400, 5).applied);
    EXPECT_FALSE(m->is_mapped(2));
    // A genuinely newer write maps again.
    EXPECT_TRUE(m->update(2, 500, 7).applied);
    EXPECT_EQ(m->mapped_count(), 1u);
  }
}

TEST(MappingPolicy, InvalidateOfUnmappedIsNoop) {
  for (const MappingKind kind : all_kinds()) {
    SCOPED_TRACE(to_string(kind));
    auto m = make(kind, 4);
    EXPECT_EQ(m->invalidate(1, 1).previous, flash::kInvalidSpa);
    EXPECT_EQ(m->mapped_count(), 0u);
    EXPECT_EQ(m->stamp_of(1), 1u);  // the trim stamp must stick
  }
}

// ------------------------------------------------------ DFTL specifics --

TEST(DftlMapping, CmtCapacityOneStaysCorrect) {
  MappingConfig cfg;
  cfg.kind = MappingKind::kDftl;
  cfg.cmt_capacity_pages = 1;
  cfg.translation_page_bytes = 32;  // 4 entries per translation page
  DftlMapping m(cfg, 64);
  for (Lpn lpn = 0; lpn < 64; ++lpn) {
    ASSERT_TRUE(m.update(lpn, 1000 + lpn, lpn + 1).applied);
  }
  EXPECT_EQ(m.cached_translation_pages(), 1u);
  for (Lpn lpn = 0; lpn < 64; ++lpn) {
    EXPECT_EQ(m.translate(lpn).spa, 1000 + lpn);
  }
  const auto& st = m.stats();
  EXPECT_EQ(st.lookups, st.cache_hits + st.cache_misses);
  EXPECT_GT(st.cache_misses, 0u);
  EXPECT_GT(st.evict_writebacks, 0u);  // dirty pages were displaced
}

TEST(DftlMapping, MissesChargeFlashReadsAndHitsAreFree) {
  MappingConfig cfg;
  cfg.kind = MappingKind::kDftl;
  cfg.cmt_capacity_pages = 1;
  cfg.translation_page_bytes = 32;
  DftlMapping m(cfg, 64);
  const auto miss = m.update(0, 100, 1);  // cold: faults tp 0
  EXPECT_EQ(miss.flash_reads, 1u);
  EXPECT_EQ(miss.tp_index, 0u);
  const auto hit = m.translate(1);  // same translation page: cached
  EXPECT_EQ(hit.flash_reads, 0u);
  const auto far = m.translate(63);  // different tp evicts the only slot
  EXPECT_EQ(far.flash_reads, 1u);
  EXPECT_EQ(far.tp_index, 63u / 4);
}

TEST(DftlMapping, PeekNeverFaultsTheCmt) {
  MappingConfig cfg;
  cfg.kind = MappingKind::kDftl;
  cfg.cmt_capacity_pages = 1;
  cfg.translation_page_bytes = 32;
  DftlMapping m(cfg, 64);
  ASSERT_TRUE(m.update(0, 100, 1).applied);
  const auto before = m.stats();
  EXPECT_EQ(m.peek(40), flash::kInvalidSpa);  // uncached translation page
  EXPECT_EQ(m.peek(0), 100u);
  const auto& after = m.stats();
  EXPECT_EQ(after.lookups, before.lookups);
  EXPECT_EQ(after.cache_misses, before.cache_misses);
  EXPECT_EQ(m.cached_translation_pages(), 1u);
}

TEST(DftlMapping, TableBytesStayBelowFlatMap) {
  MappingConfig cfg;
  cfg.kind = MappingKind::kDftl;
  cfg.cmt_capacity_pages = 8;
  const std::uint64_t pages = 1 << 16;
  DftlMapping m(cfg, pages);
  for (Lpn lpn = 0; lpn < pages; lpn += 97) {
    ASSERT_TRUE(m.update(lpn, lpn, lpn + 1).applied);
  }
  MappingConfig flat;
  PageMapping page(flat, pages);
  EXPECT_LT(m.stats().table_bytes, page.stats().table_bytes);
}

// ---------------------------------------------- hashed-group specifics --

TEST(HashedGroupMapping, SequentialFillStaysCompact) {
  MappingConfig cfg;
  cfg.kind = MappingKind::kHashedGroup;
  cfg.group_pages = 4;
  HashedGroupMapping m(cfg, 16);
  for (Lpn lpn = 0; lpn < 8; ++lpn) {
    ASSERT_TRUE(m.update(lpn, 500 + lpn, lpn + 1).applied);
  }
  EXPECT_EQ(m.group_count(), 2u);
  EXPECT_EQ(m.compact_groups(), 2u);
  EXPECT_EQ(m.stats().group_rmw_pages, 0u);
}

TEST(HashedGroupMapping, PartialGroupOverwriteChargesRmw) {
  MappingConfig cfg;
  cfg.kind = MappingKind::kHashedGroup;
  cfg.group_pages = 4;
  HashedGroupMapping m(cfg, 16);
  for (Lpn lpn = 0; lpn < 4; ++lpn) {
    ASSERT_TRUE(m.update(lpn, 500 + lpn, lpn + 1).applied);
  }
  const std::uint64_t compact_bytes = m.stats().table_bytes;
  // Overwriting one page moves it off the linear layout: the 3 other
  // mapped pages must be re-written into the expanded group.
  ASSERT_TRUE(m.update(1, 900, 10).applied);
  EXPECT_EQ(m.compact_groups(), 0u);
  EXPECT_EQ(m.stats().group_rmw_pages, 3u);
  EXPECT_GT(m.stats().table_bytes, compact_bytes);
  // All translations stay exact after the expansion.
  EXPECT_EQ(m.translate(0).spa, 500u);
  EXPECT_EQ(m.translate(1).spa, 900u);
  EXPECT_EQ(m.translate(2).spa, 502u);
  EXPECT_EQ(m.translate(3).spa, 503u);
}

TEST(HashedGroupMapping, TrimHoleKeepsGroupCompactAndEmptyGroupRecompacts) {
  MappingConfig cfg;
  cfg.kind = MappingKind::kHashedGroup;
  cfg.group_pages = 4;
  HashedGroupMapping m(cfg, 16);
  for (Lpn lpn = 0; lpn < 4; ++lpn) {
    ASSERT_TRUE(m.update(lpn, 500 + lpn, lpn + 1).applied);
  }
  // A trim hole is carried by the validity bitmap, not an expansion.
  EXPECT_EQ(m.invalidate(2, 5).previous, 502u);
  EXPECT_EQ(m.compact_groups(), 1u);
  EXPECT_EQ(m.stats().group_rmw_pages, 0u);
  // Draining the group resets it; a later non-linear fill is compact again.
  for (Lpn lpn = 0; lpn < 4; ++lpn) {
    if (lpn != 2) m.invalidate(lpn, 6 + lpn);
  }
  ASSERT_TRUE(m.update(1, 8000, 20).applied);
  EXPECT_EQ(m.compact_groups(), 1u);
}

// --------------------------------------------- learned-range specifics --

TEST(LearnedRangeMapping, SequentialRunBecomesASegment) {
  MappingConfig cfg;
  cfg.kind = MappingKind::kLearnedRange;
  cfg.min_run_pages = 3;
  LearnedRangeMapping m(cfg, 64);
  for (Lpn lpn = 10; lpn < 20; ++lpn) {
    ASSERT_TRUE(m.update(lpn, 300 + lpn, 100 + lpn).applied);
  }
  EXPECT_EQ(m.segment_count(), 1u);
  EXPECT_EQ(m.fallback_count(), 0u);
  for (Lpn lpn = 10; lpn < 20; ++lpn) {
    EXPECT_EQ(m.translate(lpn).spa, 300 + lpn);
    EXPECT_EQ(m.stamp_of(lpn), 100 + lpn);
  }
  EXPECT_EQ(m.stats().learned_hits, 10u);
}

TEST(LearnedRangeMapping, OverwriteSplitsSegmentExactly) {
  MappingConfig cfg;
  cfg.kind = MappingKind::kLearnedRange;
  cfg.min_run_pages = 3;
  LearnedRangeMapping m(cfg, 64);
  for (Lpn lpn = 0; lpn < 10; ++lpn) {
    ASSERT_TRUE(m.update(lpn, 300 + lpn, 100 + lpn).applied);
  }
  ASSERT_EQ(m.segment_count(), 1u);
  // Random overwrite in the middle: [0,4) stays a segment, lpn 4 moves,
  // [5,10) stays a segment.
  ASSERT_TRUE(m.update(4, 7777, 500).applied);
  EXPECT_EQ(m.segment_count(), 2u);
  for (Lpn lpn = 0; lpn < 10; ++lpn) {
    EXPECT_EQ(m.peek(lpn), lpn == 4 ? 7777u : 300 + lpn);
  }
  // A split piece shorter than min_run_pages spills to the fallback map.
  ASSERT_TRUE(m.update(1, 8888, 501).applied);
  EXPECT_EQ(m.peek(0), 300u);
  EXPECT_EQ(m.peek(1), 8888u);
  EXPECT_EQ(m.peek(2), 302u);
  EXPECT_EQ(m.peek(3), 303u);
  EXPECT_GT(m.fallback_count(), 0u);
}

TEST(LearnedRangeMapping, FallbackNeverReturnsWrongPage) {
  // Random writes only: no segments form, every translation is exact.
  MappingConfig cfg;
  cfg.kind = MappingKind::kLearnedRange;
  cfg.min_run_pages = 4;
  LearnedRangeMapping m(cfg, 64);
  const Lpn order[] = {9, 3, 27, 3, 41, 9, 60, 0};
  WriteStamp stamp = 0;
  for (const Lpn lpn : order) {
    ++stamp;
    ASSERT_TRUE(m.update(lpn, 1000 + 10 * stamp, stamp).applied);
  }
  EXPECT_EQ(m.segment_count(), 0u);
  EXPECT_EQ(m.translate(3).spa, 1000u + 10 * 4);   // latest write wins
  EXPECT_EQ(m.translate(9).spa, 1000u + 10 * 6);
  EXPECT_EQ(m.translate(60).spa, 1000u + 10 * 7);
  const auto& st = m.stats();
  EXPECT_EQ(st.learned_hits, 0u);
  EXPECT_EQ(st.lookups, st.cache_hits + st.cache_misses);
}

}  // namespace
}  // namespace uc::ftl
