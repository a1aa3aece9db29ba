// Tests for the page map's stamp-ordered update rule — the invariant that
// lets host flushes, GC relocations, and stale program completions race
// safely — and for its lookup counters.  The randomized reference-model
// harness lives in mapping_policy_test.cpp.

#include <gtest/gtest.h>

#include "ftl/mapping.h"

namespace uc::ftl {
namespace {

TEST(PageMapping, StartsUnmapped) {
  PageMapping m(16);
  EXPECT_EQ(m.logical_pages(), 16u);
  EXPECT_EQ(m.mapped_count(), 0u);
  for (Lpn lpn = 0; lpn < 16; ++lpn) {
    EXPECT_EQ(m.peek(lpn), flash::kInvalidSpa);
    EXPECT_FALSE(m.is_mapped(lpn));
  }
  EXPECT_EQ(m.translate(9), flash::kInvalidSpa);
  // Only the translate counts: peek and is_mapped are uncounted probes.
  EXPECT_EQ(m.stats().lookups, 1u);
  EXPECT_EQ(m.stats().cache_hits, 1u);
}

TEST(PageMapping, UpdateMapsAndReturnsPrevious) {
  PageMapping m(16);
  auto r1 = m.update(3, 100, 1);
  EXPECT_TRUE(r1.applied);
  EXPECT_EQ(r1.previous, flash::kInvalidSpa);
  EXPECT_EQ(m.translate(3), 100u);
  EXPECT_EQ(m.stamp_of(3), 1u);
  EXPECT_EQ(m.mapped_count(), 1u);

  auto r2 = m.update(3, 200, 2);
  EXPECT_TRUE(r2.applied);
  EXPECT_EQ(r2.previous, 100u);
  EXPECT_EQ(m.translate(3), 200u);
  EXPECT_EQ(m.mapped_count(), 1u);
}

TEST(PageMapping, StaleUpdateLoses) {
  PageMapping m(16);
  ASSERT_TRUE(m.update(5, 100, 10).applied);
  const auto stale = m.update(5, 200, 9);
  EXPECT_FALSE(stale.applied);
  EXPECT_EQ(m.translate(5), 100u);
  EXPECT_EQ(m.stamp_of(5), 10u);
}

TEST(PageMapping, EqualStampWins) {
  // GC relocates data carrying its original stamp; the relocation must win
  // over the stale physical location.
  PageMapping m(16);
  ASSERT_TRUE(m.update(7, 100, 4).applied);
  const auto reloc = m.on_gc_relocate(7, 300, 4);
  EXPECT_TRUE(reloc.applied);
  EXPECT_EQ(reloc.previous, 100u);
  EXPECT_EQ(m.translate(7), 300u);
}

TEST(PageMapping, GcRelocationOfOverwrittenPageIsStale) {
  // The host overwrote the page after GC read the old slot: the relocation
  // arrives carrying the old stamp and must lose without disturbing the
  // newer mapping.  Every mutating call still counts one lookup and hit.
  PageMapping m(16);
  ASSERT_TRUE(m.update(7, 100, 4).applied);         // original write
  ASSERT_TRUE(m.update(7, 500, 9).applied);         // host overwrite
  const auto reloc = m.on_gc_relocate(7, 300, 4);  // stale relocation
  EXPECT_FALSE(reloc.applied);
  EXPECT_EQ(reloc.previous, flash::kInvalidSpa);
  EXPECT_EQ(m.translate(7), 500u);
  EXPECT_EQ(m.stamp_of(7), 9u);
  EXPECT_EQ(m.mapped_count(), 1u);
  EXPECT_EQ(m.stats().lookups, 4u);
  EXPECT_EQ(m.stats().cache_hits, 4u);
}

TEST(PageMapping, TrimDefeatsInflightPrograms) {
  PageMapping m(16);
  ASSERT_TRUE(m.update(2, 100, 5).applied);
  // Trim with a fresh stamp unmaps...
  EXPECT_EQ(m.invalidate(2, 6).previous, 100u);
  EXPECT_FALSE(m.is_mapped(2));
  EXPECT_EQ(m.mapped_count(), 0u);
  // ...and an older in-flight program must NOT resurrect the page.
  EXPECT_FALSE(m.update(2, 400, 5).applied);
  EXPECT_FALSE(m.is_mapped(2));
  // A genuinely newer write maps again.
  EXPECT_TRUE(m.update(2, 500, 7).applied);
  EXPECT_EQ(m.mapped_count(), 1u);
}

TEST(PageMapping, InvalidateOfUnmappedIsNoop) {
  PageMapping m(4);
  EXPECT_EQ(m.invalidate(1, 1).previous, flash::kInvalidSpa);
  EXPECT_EQ(m.mapped_count(), 0u);
  EXPECT_EQ(m.stamp_of(1), 1u);  // the trim stamp must stick
}

}  // namespace
}  // namespace uc::ftl
