#include "ftl/superblock.h"

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace uc::ftl {

SuperblockManager::SuperblockManager(const flash::FlashGeometry& geometry)
    : geometry_(geometry),
      superblocks_(static_cast<std::size_t>(geometry.superblock_count())),
      valid_((geometry.total_slots() + 63) / 64, 0),
      meta_lpn_(geometry.total_slots(), 0) {
  UC_ASSERT(geometry_.total_slots() < (1ull << 32),
            "slot metadata uses 32-bit indices; shrink the geometry");
  for (int sb = 0; sb < geometry_.superblock_count(); ++sb) {
    free_list_.push_back(sb);
  }
}

std::optional<RowAlloc> SuperblockManager::allocate_row(Stream stream,
                                                        int user_reserve_sbs) {
  StreamState& st = streams_[static_cast<int>(stream)];
  const auto slots_per_sb =
      static_cast<std::uint32_t>(geometry_.slots_per_superblock());
  if (st.open_sb >= 0 && st.next_slot >= slots_per_sb) {
    SuperblockInfo& done = superblocks_[static_cast<std::size_t>(st.open_sb)];
    done.state = SbState::kClosed;
    st.open_sb = -1;
  }
  if (st.open_sb < 0) {
    // The GC stream may always take a free superblock; user allocations keep
    // `user_reserve_sbs` in reserve so relocation can always make progress.
    const int reserve = stream == Stream::kGc ? 0 : user_reserve_sbs;
    if (free_count() <= reserve) return std::nullopt;
    st.open_sb = free_list_.front();
    free_list_.pop_front();
    st.next_slot = 0;
    SuperblockInfo& sb = superblocks_[static_cast<std::size_t>(st.open_sb)];
    UC_ASSERT(sb.state == SbState::kFree, "allocated superblock must be free");
    UC_ASSERT(sb.valid_slots == 0, "free superblock must hold no valid data");
    sb.state = SbState::kOpen;
    sb.next_slot = 0;
  }
  const auto slots_per_row = static_cast<std::uint32_t>(geometry_.slots_per_row());
  RowAlloc row;
  row.sb = st.open_sb;
  row.first_slot_in_sb = st.next_slot;
  row.row = static_cast<int>(st.next_slot / slots_per_row);
  row.die = die_of_row(row.row);
  st.next_slot += slots_per_row;
  superblocks_[static_cast<std::size_t>(st.open_sb)].next_slot = st.next_slot;
  return row;
}

flash::Spa SuperblockManager::fill_row_slot(const RowAlloc& row, int slot,
                                            Lpn lpn) {
  const flash::Spa spa = row_slot_spa(row, slot);
  UC_DCHECK(spa == geometry_.superblock_slot_spa(
                       row.sb, row.first_slot_in_sb +
                                   static_cast<std::uint64_t>(slot)),
            "row slot address disagrees with the superblock layout");
  UC_ASSERT(!slot_valid(spa), "filling an already-valid slot");
  UC_ASSERT(lpn < (1ull << 32), "slot metadata stores 32-bit LPNs");
  valid_[spa >> 6] |= std::uint64_t{1} << (spa & 63);
  meta_lpn_[static_cast<std::size_t>(spa)] = static_cast<std::uint32_t>(lpn);
  ++superblocks_[static_cast<std::size_t>(row.sb)].valid_slots;
  ++total_valid_;
  return spa;
}

bool SuperblockManager::invalidate_if_valid(flash::Spa spa) {
  std::uint64_t& word = valid_[spa >> 6];
  const std::uint64_t bit = std::uint64_t{1} << (spa & 63);
  if ((word & bit) == 0) return false;
  word &= ~bit;
  SuperblockInfo& sb = superblocks_[static_cast<std::size_t>(superblock_of_spa(spa))];
  UC_ASSERT(sb.valid_slots > 0, "valid-slot accounting underflow");
  --sb.valid_slots;
  --total_valid_;
  return true;
}

int SuperblockManager::superblock_of_spa(flash::Spa spa) const {
  const flash::Ppa ppa = spa / static_cast<flash::Spa>(geometry_.slots_per_page());
  return static_cast<int>((ppa / geometry_.pages_per_block) %
                          geometry_.blocks_per_plane);
}

int SuperblockManager::pick_victim() const {
  int best = -1;
  for (int sb = 0; sb < geometry_.superblock_count(); ++sb) {
    const SuperblockInfo& info = superblocks_[static_cast<std::size_t>(sb)];
    if (info.state != SbState::kClosed) continue;
    if (best < 0 ||
        info.valid_slots <
            superblocks_[static_cast<std::size_t>(best)].valid_slots) {
      best = sb;
    }
  }
  return best;
}

void SuperblockManager::begin_gc(int sb) {
  SuperblockInfo& info = superblocks_[static_cast<std::size_t>(sb)];
  UC_ASSERT(info.state == SbState::kClosed, "GC victim must be closed");
  info.state = SbState::kGcVictim;
}

void SuperblockManager::on_erased(int sb) {
  SuperblockInfo& info = superblocks_[static_cast<std::size_t>(sb)];
  UC_ASSERT(info.state == SbState::kGcVictim, "erase completes a GC cycle");
  UC_ASSERT(info.valid_slots == 0, "erasing a superblock with valid data");
  // Every slot bit is already clear (valid_slots == 0); reset the cursor.
  info.next_slot = 0;
  info.state = SbState::kFree;
  free_list_.push_back(sb);
}

void SuperblockManager::valid_slots_in_row(int sb, int row,
                                           std::vector<flash::Spa>& out) const {
  // The row's slots in `superblock_slot_spa` order: plane by plane, and
  // within a plane page its slots_per_page consecutive SPAs.
  const auto spp = static_cast<flash::Spa>(geometry_.slots_per_page());
  const int die = die_of_row(row);
  const int page = row / geometry_.total_dies();
  for (int plane = 0; plane < geometry_.planes_per_die; ++plane) {
    const flash::Spa first = geometry_.ppa(die, plane, sb, page) * spp;
    for (flash::Spa spa = first; spa < first + spp; ++spa) {
      if (slot_valid(spa)) out.push_back(spa);
    }
  }
}

}  // namespace uc::ftl
