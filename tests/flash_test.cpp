// Tests for the NAND geometry addressing and the array timing model:
// multi-plane operation costs, channel contention, program-suspend reads,
// and reliability injection.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>

#include "common/rng.h"
#include "flash/nand_array.h"

namespace uc::flash {
namespace {

FlashGeometry small_geometry() {
  FlashGeometry g;
  g.channels = 2;
  g.dies_per_channel = 2;
  g.planes_per_die = 2;
  g.blocks_per_plane = 4;
  g.pages_per_block = 8;
  g.page_bytes = 16384;
  return g;
}

TEST(Geometry, DerivedQuantities) {
  const FlashGeometry g = small_geometry();
  EXPECT_EQ(g.total_dies(), 4);
  EXPECT_EQ(g.slots_per_page(), 4);
  EXPECT_EQ(g.pages_per_die(), 2u * 4 * 8);
  EXPECT_EQ(g.total_pages(), 4u * 64);
  EXPECT_EQ(g.total_slots(), 4u * 64 * 4);
  EXPECT_EQ(g.row_bytes(), 2u * 16384);
  EXPECT_EQ(g.slots_per_row(), 8);
  EXPECT_EQ(g.superblock_count(), 4);
  EXPECT_EQ(g.slots_per_superblock(), 4u * 8 * 8);
}

TEST(Geometry, SuperblockSlotAddressingIsBijective) {
  const FlashGeometry g = small_geometry();
  for (int sb = 0; sb < g.superblock_count(); ++sb) {
    std::set<Spa> seen;
    for (std::uint64_t i = 0; i < g.slots_per_superblock(); ++i) {
      const Spa spa = g.superblock_slot_spa(sb, i);
      ASSERT_LT(spa, g.total_slots());
      ASSERT_TRUE(seen.insert(spa).second) << "duplicate spa " << spa;
      // Every slot of superblock sb must decode back to block index sb.
      const Ppa ppa = spa / static_cast<Spa>(g.slots_per_page());
      const int block =
          static_cast<int>((ppa / g.pages_per_block) % g.blocks_per_plane);
      ASSERT_EQ(block, sb);
    }
  }
}

TEST(Geometry, RowFillOrderRotatesDies) {
  const FlashGeometry g = small_geometry();
  // Consecutive rows land on consecutive dies (parallel streaming).
  const int spr = g.slots_per_row();
  const Spa row0 = g.superblock_slot_spa(0, 0);
  const Spa row1 = g.superblock_slot_spa(0, static_cast<std::uint64_t>(spr));
  EXPECT_EQ(g.die_of_spa(row0), 0);
  EXPECT_EQ(g.die_of_spa(row1), 1);
}

TEST(Geometry, ValidateRejectsBadShapes) {
  FlashGeometry g = small_geometry();
  g.page_bytes = 5000;  // not a multiple of 4 KiB
  EXPECT_FALSE(g.validate().is_ok());
  g = small_geometry();
  g.channels = 0;
  EXPECT_FALSE(g.validate().is_ok());
}

TEST(NandArray, ReadTimingIsSensePlusTransfer) {
  const FlashGeometry g = small_geometry();
  FlashTiming t;
  t.read_us = 50.0;
  t.channel_mbps = 1000.0;  // 1 ns/byte
  NandArray nand(g, t, Rng(1));
  const auto res = nand.read_page(0, 0, 4096);
  EXPECT_EQ(res.done, 50000u + 4096u);
  EXPECT_EQ(nand.counters().page_reads, 1u);
  EXPECT_EQ(nand.counters().read_bytes, 4096u);
}

TEST(NandArray, MultiPlaneReadSharesOneSense) {
  const FlashGeometry g = small_geometry();
  FlashTiming t;
  t.read_us = 50.0;
  t.channel_mbps = 1000.0;
  NandArray nand(g, t, Rng(1));
  const auto res = nand.read_row(0, 0, 2, 16384);
  // One tR, then two page transfers back to back.
  EXPECT_EQ(res.done, 50000u + 2u * 16384u);
  EXPECT_EQ(nand.counters().page_reads, 2u);
}

TEST(NandArray, ProgramTransfersThenPrograms) {
  const FlashGeometry g = small_geometry();
  FlashTiming t;
  t.program_us = 600.0;
  t.channel_mbps = 1000.0;
  NandArray nand(g, t, Rng(1));
  const auto res = nand.program_row(0, 0, 2);
  EXPECT_EQ(res.done, 2u * 16384u + 600000u);
  EXPECT_EQ(nand.counters().row_programs, 1u);
  EXPECT_EQ(nand.counters().programmed_bytes, 2u * 16384u);
}

TEST(NandArray, ChannelSharedAcrossDiesOfSameChannel) {
  const FlashGeometry g = small_geometry();  // dies 0,1 on channel 0
  FlashTiming t;
  t.read_us = 50.0;
  t.channel_mbps = 1000.0;
  NandArray nand(g, t, Rng(1));
  const auto a = nand.read_page(0, 0, 16384);
  const auto b = nand.read_page(0, 1, 16384);
  // Senses overlap (different dies) but transfers serialize on the bus.
  EXPECT_EQ(a.done, 50000u + 16384u);
  EXPECT_EQ(b.done, 50000u + 2u * 16384u);
  // A die on the other channel does not contend.
  const auto c = nand.read_page(0, 2, 16384);
  EXPECT_EQ(c.done, 50000u + 16384u);
}

TEST(NandArray, ReadDuringProgramPaysSuspendPenalty) {
  const FlashGeometry g = small_geometry();
  FlashTiming t;
  t.read_us = 50.0;
  t.program_us = 600.0;
  t.suspend_penalty_us = 15.0;
  t.channel_mbps = 1000.0;
  NandArray nand(g, t, Rng(1));
  nand.program_row(0, 0, 1);  // die 0 busy programming until ~616 us
  const auto res = nand.read_page(100, 0, 4096);
  // Read does not wait for tProg: sense + penalty + transfer from t=100ns.
  EXPECT_EQ(res.done, 100u + 50000u + 15000u + 4096u);
  // Read on an idle die pays no penalty.
  const auto idle = nand.read_page(100, 2, 4096);
  EXPECT_EQ(idle.done, 100u + 50000u + 4096u);
}

TEST(NandArray, EraseOccupiesProgramUnit) {
  const FlashGeometry g = small_geometry();
  FlashTiming t;
  t.erase_us = 3000.0;
  t.program_us = 600.0;
  t.channel_mbps = 1000.0;
  NandArray nand(g, t, Rng(1));
  const auto e = nand.erase_on_die(0, 0);
  EXPECT_EQ(e.done, 3000000u);
  // A program queued behind the erase transfers its data over the (free)
  // channel concurrently, then waits for the die.
  const auto p = nand.program_row(0, 0, 1);
  EXPECT_EQ(p.done, 3000000u + 600000u);
  EXPECT_EQ(nand.counters().superblock_die_erases, 1u);
}

}  // namespace
}  // namespace uc::flash
