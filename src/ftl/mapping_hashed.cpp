#include "ftl/mapping_hashed.h"

#include <cstdint>

namespace uc::ftl {

HashedGroupMapping::HashedGroupMapping(const MappingConfig& cfg,
                                       std::uint64_t logical_pages)
    : MappingPolicy(cfg, logical_pages) {}

HashedGroupMapping::Group& HashedGroupMapping::group_for(Lpn lpn) {
  auto [it, inserted] = groups_.try_emplace(lpn / cfg_.group_pages);
  if (inserted) it->second.entries.resize(cfg_.group_pages);
  return it->second;
}

const HashedGroupMapping::Group* HashedGroupMapping::find_group(
    Lpn lpn) const {
  const auto it = groups_.find(lpn / cfg_.group_pages);
  return it == groups_.end() ? nullptr : &it->second;
}

void HashedGroupMapping::note_layout(Group& g, std::uint32_t offset,
                                     flash::Spa spa) {
  if (g.mapped == 0) {
    // First mapped page defines the linear layout the group would need to
    // stay compact.  Unsigned wraparound is fine: only equality with
    // base + offset is ever tested.
    g.compact = true;
    g.base = spa - offset;
    return;
  }
  if (g.compact && spa != g.base + offset) {
    // The group must expand to per-page entries; the pages already mapped
    // are re-written into the expanded form.
    stats_.group_rmw_pages += g.mapped;
    g.compact = false;
  }
}

TranslateResult HashedGroupMapping::translate(Lpn lpn) {
  check(lpn);
  account_hit();  // directory and entries are DRAM-resident
  const Group* g = find_group(lpn);
  if (g == nullptr) return {flash::kInvalidSpa, 0, 0};
  return {g->entries[lpn % cfg_.group_pages].spa, 0, 0};
}

UpdateResult HashedGroupMapping::update(Lpn lpn, flash::Spa spa,
                                        WriteStamp stamp) {
  check(lpn);
  account_hit();
  Group& g = group_for(lpn);
  const std::uint32_t offset = lpn % cfg_.group_pages;
  Entry& e = g.entries[offset];
  if (e.stamp > stamp) {
    return {false, flash::kInvalidSpa, 0, 0};
  }
  const bool was_mapped = e.spa != flash::kInvalidSpa;
  if (was_mapped) {
    // Remapping a page always moves it to a fresh slot, so the compact
    // check treats it as re-laid-out: drop it from the count first.
    --g.mapped;
  }
  note_layout(g, offset, spa);
  UpdateResult result{true, e.spa, 0, 0};
  if (!was_mapped) ++mapped_;
  ++g.mapped;
  e.spa = spa;
  e.stamp = stamp;
  return result;
}

UpdateResult HashedGroupMapping::invalidate(Lpn lpn, WriteStamp trim_stamp) {
  check(lpn);
  account_hit();
  Group& g = group_for(lpn);
  Entry& e = g.entries[lpn % cfg_.group_pages];
  UC_ASSERT(trim_stamp >= e.stamp, "trim stamp must be current");
  UpdateResult result{true, e.spa, 0, 0};
  if (e.spa != flash::kInvalidSpa) {
    --mapped_;
    --g.mapped;
    e.spa = flash::kInvalidSpa;
    if (g.mapped == 0) {
      // An empty group can re-compact on its next contiguous fill.
      g.compact = true;
      g.base = flash::kInvalidSpa;
    }
    // A hole in a compact group is carried by the validity bitmap; it does
    // not force expansion.
  }
  e.stamp = trim_stamp;
  return result;
}

flash::Spa HashedGroupMapping::peek(Lpn lpn) const {
  check(lpn);
  const Group* g = find_group(lpn);
  if (g == nullptr) return flash::kInvalidSpa;
  return g->entries[lpn % cfg_.group_pages].spa;
}

WriteStamp HashedGroupMapping::stamp_of(Lpn lpn) const {
  check(lpn);
  const Group* g = find_group(lpn);
  if (g == nullptr) return 0;
  return g->entries[lpn % cfg_.group_pages].stamp;
}

std::uint64_t HashedGroupMapping::compact_groups() const {
  std::uint64_t n = 0;
  for (const auto& [idx, g] : groups_) {
    if (g.compact && g.mapped > 0) ++n;
  }
  return n;
}

void HashedGroupMapping::refresh_stats(MappingStats& out) const {
  // Compact groups cost a base address + validity bitmap; expanded groups
  // cost one 8-byte entry per page.  16 bytes per group of directory
  // overhead either way.  (The exact per-page Entry array is simulator
  // ground truth, not part of the modeled table.)
  const std::uint64_t bitmap = (cfg_.group_pages + 7) / 8;
  std::uint64_t bytes = 64;
  for (const auto& [idx, g] : groups_) {
    bytes += 16 + (g.compact ? 8 + bitmap
                             : 8ull * cfg_.group_pages + 8 + bitmap);
  }
  out.table_bytes = bytes;
}

}  // namespace uc::ftl
