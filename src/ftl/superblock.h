#pragma once

/// \file superblock.h
/// Superblock pool: allocation, validity accounting, wear, GC victims.
///
/// A superblock groups the same block index across every plane of every die
/// (paper §II-A: "flash blocks are typically grouped into superblocks ... to
/// fully leverage flash parallelism").  The allocation unit is a *row*: one
/// multi-plane program on one die (planes_per_die pages).  Rows fill a
/// superblock die-by-die then page-by-page, so consecutive rows land on
/// different dies and stream at full array bandwidth.
///
/// Per physical slot the manager keeps one validity bit (a `uint64_t`
/// bitmap) and the 32-bit LPN the slot holds: 4.125 bytes a slot.  A
/// slot's write stamp is not kept here; while the slot is valid the page
/// map points at it, so its stamp is `PageMapping::stamp_of(slot_lpn)`.

#include <cstdint>
#include <optional>
#include <vector>

#include "common/ring_queue.h"
#include "common/status.h"
#include "common/types.h"
#include "flash/geometry.h"

namespace uc::ftl {

/// Write streams get separate open superblocks so GC relocations do not mix
/// with host data (hot/cold separation).
enum class Stream : int { kUser = 0, kGc = 1 };
inline constexpr int kStreamCount = 2;

enum class SbState : std::uint8_t {
  kFree,
  kOpen,
  kClosed,
  kGcVictim,
};

struct SuperblockInfo {
  SbState state = SbState::kFree;
  std::uint32_t valid_slots = 0;
  std::uint32_t next_slot = 0;  ///< allocation cursor within the superblock
};

/// One allocated row: `slot_spa(i)` for i in [0, slots_per_row) addresses
/// its slots in fill order.
struct RowAlloc {
  int sb = -1;
  int row = -1;
  int die = -1;
  std::uint64_t first_slot_in_sb = 0;
};

class SuperblockManager {
 public:
  explicit SuperblockManager(const flash::FlashGeometry& geometry);

  // --- allocation ---

  /// Allocates the next row for `stream`.  Returns nullopt if the stream
  /// would need a fresh superblock and none is available to it (user
  /// allocations cannot dig into the GC reserve).
  std::optional<RowAlloc> allocate_row(Stream stream, int user_reserve_sbs);

  /// `geometry().superblock_slot_spa(row.sb, row.first_slot_in_sb + i)`,
  /// from the row's die and page without dividing the slot index.
  flash::Spa row_slot_spa(const RowAlloc& row, int i) const {
    const int spp = geometry_.slots_per_page();
    const int page = row.row / geometry_.total_dies();
    return geometry_.ppa(row.die, i / spp, row.sb, page) *
               static_cast<flash::Spa>(spp) +
           static_cast<flash::Spa>(i % spp);
  }

  // --- slot validity & metadata ---

  /// Marks slot `i` of a programmed row valid and records the LPN it
  /// holds; returns the slot's SPA.
  flash::Spa fill_row_slot(const RowAlloc& row, int i, Lpn lpn);

  /// Invalidates if currently valid; returns whether it was valid.
  bool invalidate_if_valid(flash::Spa spa);

  bool slot_valid(flash::Spa spa) const {
    return (valid_[spa >> 6] >> (spa & 63)) & 1u;
  }
  /// The LPN last filled into `spa`; meaningful while the slot is valid.
  Lpn slot_lpn(flash::Spa spa) const {
    return meta_lpn_[static_cast<std::size_t>(spa)];
  }

  // --- GC support ---

  int free_count() const { return static_cast<int>(free_list_.size()); }

  /// The closed superblock with the fewest valid slots (greedy; the lowest
  /// index on a tie), or -1 if no closed superblock exists.
  int pick_victim() const;

  void begin_gc(int sb);

  /// Completes a GC cycle: the erased superblock rejoins the free list.
  void on_erased(int sb);

  /// Appends the SPAs of currently-valid slots in `row` of `sb` to `out`.
  void valid_slots_in_row(int sb, int row, std::vector<flash::Spa>& out) const;

  int rows_per_superblock() const {
    return geometry_.pages_per_block * geometry_.total_dies();
  }
  int die_of_row(int row) const { return row % geometry_.total_dies(); }

  const SuperblockInfo& info(int sb) const {
    return superblocks_[static_cast<std::size_t>(sb)];
  }
  int superblock_of_spa(flash::Spa spa) const;

  std::uint64_t total_valid_slots() const { return total_valid_; }
  const flash::FlashGeometry& geometry() const { return geometry_; }

 private:
  struct StreamState {
    int open_sb = -1;
    std::uint32_t next_slot = 0;
  };

  flash::FlashGeometry geometry_;
  std::vector<SuperblockInfo> superblocks_;
  RingQueue<int> free_list_;
  StreamState streams_[kStreamCount];
  std::uint64_t total_valid_ = 0;

  // Flat per-slot metadata, indexed by Spa: one validity bit per slot
  // (bit spa % 64 of word spa / 64) and the slot's LPN.
  std::vector<std::uint64_t> valid_;
  std::vector<std::uint32_t> meta_lpn_;
};

}  // namespace uc::ftl
