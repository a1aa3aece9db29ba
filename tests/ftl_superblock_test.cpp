// Tests for the superblock pool: row allocation order, validity
// accounting, GC victim selection, the user-reserve rule, and the erase
// lifecycle.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <vector>

#include "ftl/superblock.h"

namespace uc::ftl {
namespace {

flash::FlashGeometry tiny_geometry() {
  flash::FlashGeometry g;
  g.channels = 2;
  g.dies_per_channel = 1;
  g.planes_per_die = 2;
  g.blocks_per_plane = 4;  // 4 superblocks
  g.pages_per_block = 2;
  g.page_bytes = 16384;
  return g;
}

TEST(SuperblockManager, RowAllocationAdvancesDiesThenPages) {
  SuperblockManager sm(tiny_geometry());
  const auto r0 = sm.allocate_row(Stream::kUser, 0);
  const auto r1 = sm.allocate_row(Stream::kUser, 0);
  const auto r2 = sm.allocate_row(Stream::kUser, 0);
  ASSERT_TRUE(r0 && r1 && r2);
  EXPECT_EQ(r0->sb, r1->sb);
  EXPECT_EQ(r0->die, 0);
  EXPECT_EQ(r1->die, 1);  // next die first
  EXPECT_EQ(r2->die, 0);  // then the next page row
  EXPECT_EQ(sm.free_count(), 3);  // one superblock open
}

TEST(SuperblockManager, StreamsGetSeparateSuperblocks) {
  SuperblockManager sm(tiny_geometry());
  const auto user = sm.allocate_row(Stream::kUser, 0);
  const auto gc = sm.allocate_row(Stream::kGc, 0);
  ASSERT_TRUE(user && gc);
  EXPECT_NE(user->sb, gc->sb);
}

TEST(SuperblockManager, UserReserveBlocksUserNotGc) {
  SuperblockManager sm(tiny_geometry());
  // Reserve all 4 superblocks for GC: user allocation must fail.
  EXPECT_FALSE(sm.allocate_row(Stream::kUser, 4).has_value());
  EXPECT_TRUE(sm.allocate_row(Stream::kGc, 0).has_value());
}

// Rows fill a superblock in `superblock_slot_spa` order: every slot of every
// row lands where the flat layout puts it, each exactly once.
TEST(SuperblockManager, RowSlotsFollowTheSuperblockLayout) {
  const auto g = tiny_geometry();
  SuperblockManager sm(g);
  const auto rows = g.slots_per_superblock() / g.slots_per_row();
  for (std::uint64_t r = 0; r < rows; ++r) {
    const auto row = sm.allocate_row(Stream::kUser, 0);
    ASSERT_TRUE(row.has_value());
    ASSERT_EQ(row->first_slot_in_sb, r * g.slots_per_row());
    for (int k = 0; k < g.slots_per_row(); ++k) {
      EXPECT_EQ(sm.row_slot_spa(*row, k),
                g.superblock_slot_spa(row->sb, row->first_slot_in_sb + k))
          << "row " << r << " slot " << k;
    }
  }
}

TEST(SuperblockManager, FillInvalidateAccounting) {
  SuperblockManager sm(tiny_geometry());
  const auto row = sm.allocate_row(Stream::kUser, 0);
  ASSERT_TRUE(row.has_value());
  const flash::Spa spa = sm.fill_row_slot(*row, 0, /*lpn=*/42);
  EXPECT_EQ(spa, sm.row_slot_spa(*row, 0));
  EXPECT_TRUE(sm.slot_valid(spa));
  EXPECT_EQ(sm.slot_lpn(spa), 42u);
  EXPECT_EQ(sm.info(row->sb).valid_slots, 1u);
  EXPECT_EQ(sm.total_valid_slots(), 1u);

  EXPECT_TRUE(sm.invalidate_if_valid(spa));
  EXPECT_FALSE(sm.slot_valid(spa));
  EXPECT_FALSE(sm.invalidate_if_valid(spa));  // idempotent
  EXPECT_EQ(sm.total_valid_slots(), 0u);
}

TEST(SuperblockManager, GreedyVictimPicksMinValid) {
  auto g = tiny_geometry();
  SuperblockManager sm(g);
  const auto slots_per_sb = g.slots_per_superblock();
  // Fill two full superblocks; invalidate more slots in the first.
  int filled_sbs[2] = {-1, -1};
  for (int s = 0; s < 2; ++s) {
    for (std::uint64_t i = 0; i < slots_per_sb / g.slots_per_row(); ++i) {
      const auto row = sm.allocate_row(Stream::kUser, 0);
      ASSERT_TRUE(row.has_value());
      filled_sbs[s] = row->sb;
      for (int k = 0; k < g.slots_per_row(); ++k) {
        sm.fill_row_slot(*row, k, static_cast<Lpn>(i * 16 + k));
      }
    }
  }
  // Force both to close by opening a third.
  ASSERT_TRUE(sm.allocate_row(Stream::kUser, 0).has_value());
  ASSERT_LT(filled_sbs[0], filled_sbs[1]);
  // Both full: on a tie the lower index wins.
  EXPECT_EQ(sm.pick_victim(), filled_sbs[0]);
  // Fewer valid slots beat a lower index.
  sm.invalidate_if_valid(g.superblock_slot_spa(filled_sbs[1], 0));
  EXPECT_EQ(sm.pick_victim(), filled_sbs[1]);
  // Invalidate most of superblock 0.
  for (std::uint64_t i = 0; i < slots_per_sb - 1; ++i) {
    sm.invalidate_if_valid(g.superblock_slot_spa(filled_sbs[0], i));
  }
  const int victim = sm.pick_victim();
  EXPECT_EQ(victim, filled_sbs[0]);
}

TEST(SuperblockManager, EraseLifecycle) {
  auto g = tiny_geometry();
  SuperblockManager sm(g);
  // Fill one superblock completely, invalidate everything, GC it.
  int sb = -1;
  const auto rows = g.slots_per_superblock() / g.slots_per_row();
  for (std::uint64_t i = 0; i < rows; ++i) {
    const auto row = sm.allocate_row(Stream::kUser, 0);
    ASSERT_TRUE(row.has_value());
    sb = row->sb;
    for (int k = 0; k < g.slots_per_row(); ++k) {
      sm.fill_row_slot(*row, k, static_cast<Lpn>(i * 16 + k));
    }
  }
  ASSERT_TRUE(sm.allocate_row(Stream::kUser, 0).has_value());  // closes sb
  for (std::uint64_t i = 0; i < g.slots_per_superblock(); ++i) {
    sm.invalidate_if_valid(g.superblock_slot_spa(sb, i));
  }
  ASSERT_EQ(sm.info(sb).state, SbState::kClosed);

  const int free_before = sm.free_count();
  sm.begin_gc(sb);
  EXPECT_EQ(sm.info(sb).state, SbState::kGcVictim);
  sm.on_erased(sb);
  EXPECT_EQ(sm.info(sb).state, SbState::kFree);
  EXPECT_EQ(sm.free_count(), free_before + 1);
}

TEST(SuperblockManager, ValidSlotsInRowFindsExactlyValidOnes) {
  auto g = tiny_geometry();
  SuperblockManager sm(g);
  const auto row = sm.allocate_row(Stream::kUser, 0);
  ASSERT_TRUE(row.has_value());
  sm.fill_row_slot(*row, 0, 1);
  sm.fill_row_slot(*row, 3, 2);
  std::vector<flash::Spa> out;
  sm.valid_slots_in_row(row->sb, row->row, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(sm.slot_lpn(out[0]), 1u);
  EXPECT_EQ(sm.slot_lpn(out[1]), 2u);
}

// Validity is a bitmap of 64-slot words.  On a geometry whose slot count is
// not a multiple of 64, the slots on both sides of a word boundary and the
// last slot (in the partial last word) fill and invalidate independently,
// and the row scan sees each.
TEST(SuperblockManager, ValidityBitmapHandlesWordEdges) {
  auto g = tiny_geometry();
  g.channels = 3;
  g.blocks_per_plane = 5;
  const std::uint64_t slots = g.total_slots();
  ASSERT_EQ(slots, 240u);
  ASSERT_NE(slots % 64, 0u);
  SuperblockManager sm(g);
  const flash::Spa probes[] = {63, 64, slots - 1};

  // Allocate rows until every probed slot has been filled, each with its own
  // SPA as its LPN.
  std::vector<RowAlloc> rows;
  int found = 0;
  while (found < 3) {
    const auto row = sm.allocate_row(Stream::kUser, 0);
    ASSERT_TRUE(row.has_value());
    rows.push_back(*row);
    for (int k = 0; k < g.slots_per_row(); ++k) {
      const flash::Spa spa = sm.row_slot_spa(*row, k);
      for (const flash::Spa p : probes) {
        if (spa != p) continue;
        EXPECT_FALSE(sm.slot_valid(spa));
        EXPECT_EQ(sm.fill_row_slot(*row, k, spa), spa);
        ++found;
      }
    }
  }
  EXPECT_EQ(sm.total_valid_slots(), 3u);
  for (const flash::Spa p : probes) {
    EXPECT_TRUE(sm.slot_valid(p)) << p;
    EXPECT_EQ(sm.slot_lpn(p), p);
  }
  EXPECT_FALSE(sm.slot_valid(62));
  EXPECT_FALSE(sm.slot_valid(65));
  EXPECT_FALSE(sm.slot_valid(slots - 2));

  // The row scan finds exactly the probes.
  std::vector<flash::Spa> seen;
  for (const RowAlloc& row : rows) sm.valid_slots_in_row(row.sb, row.row, seen);
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, std::vector<flash::Spa>(std::begin(probes), std::end(probes)));

  // Clearing one bit leaves its word neighbours set.
  EXPECT_TRUE(sm.invalidate_if_valid(64));
  EXPECT_TRUE(sm.slot_valid(63));
  EXPECT_FALSE(sm.slot_valid(64));
  EXPECT_TRUE(sm.slot_valid(slots - 1));
  EXPECT_TRUE(sm.invalidate_if_valid(slots - 1));
  EXPECT_FALSE(sm.invalidate_if_valid(slots - 1));
  EXPECT_TRUE(sm.invalidate_if_valid(63));
  EXPECT_EQ(sm.total_valid_slots(), 0u);
}

// The row scan lists a row's valid slots in `superblock_slot_spa` order, on
// every row of the device.  With 3 slots a page, some plane pages straddle
// a bitmap word (slots 63-65).
TEST(SuperblockManager, ValidSlotsInRowFollowTheSuperblockLayout) {
  auto g = tiny_geometry();
  g.page_bytes = 3 * kLogicalPageBytes;
  SuperblockManager sm(g);
  const auto rows = g.total_slots() / g.slots_per_row();
  for (std::uint64_t r = 0; r < rows; ++r) {
    const auto row = sm.allocate_row(Stream::kUser, 0);
    ASSERT_TRUE(row.has_value());
    std::vector<flash::Spa> want;
    for (int k = 0; k < g.slots_per_row(); ++k) {
      if ((r + static_cast<std::uint64_t>(k)) % 3 == 0) continue;
      sm.fill_row_slot(*row, k, r);
      want.push_back(
          g.superblock_slot_spa(row->sb, row->first_slot_in_sb + k));
    }
    std::vector<flash::Spa> got;
    sm.valid_slots_in_row(row->sb, row->row, got);
    EXPECT_EQ(got, want) << "row " << r;
  }
}

}  // namespace
}  // namespace uc::ftl
