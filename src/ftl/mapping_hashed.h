#pragma once

/// \file mapping_hashed.h
/// Hashed/group mapping: the logical space is carved into fixed groups of
/// `group_pages` pages, tracked in a hash directory keyed by group index.
/// A group written as one contiguous run stays *compact* — a single base
/// physical address covers every page, costing ~24 bytes regardless of
/// group size.  The first update that breaks the linear pattern (random
/// overwrite, trim hole, GC relocation) forces the group to *expand* into
/// per-page entries; the pages already mapped in the group are re-written
/// into the expanded form, charged to `MappingStats::group_rmw_pages` —
/// the read-modify-write amplification this family trades for its small
/// table.  Groups never written cost nothing.
///
/// The per-page entries are always kept exactly (they double as the
/// simulator's ground truth); compactness only affects the *accounted*
/// table bytes and RMW work, mirroring how a real block/hybrid-mapped FTL
/// would store the group.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "ftl/mapping.h"

namespace uc::ftl {

class HashedGroupMapping final : public MappingPolicy {
 public:
  HashedGroupMapping(const MappingConfig& cfg, std::uint64_t logical_pages);

  MappingKind kind() const override { return MappingKind::kHashedGroup; }
  TranslateResult translate(Lpn lpn) override;
  UpdateResult update(Lpn lpn, flash::Spa spa, WriteStamp stamp) override;
  UpdateResult invalidate(Lpn lpn, WriteStamp trim_stamp) override;
  flash::Spa peek(Lpn lpn) const override;
  WriteStamp stamp_of(Lpn lpn) const override;

  std::uint64_t group_count() const { return groups_.size(); }
  std::uint64_t compact_groups() const;

 private:
  struct Group {
    std::vector<Entry> entries;  ///< group_pages entries, exact
    std::uint32_t mapped = 0;
    bool compact = true;  ///< every mapped page sits at base + offset
    flash::Spa base = flash::kInvalidSpa;  ///< spa of offset 0 when compact
  };

  Group& group_for(Lpn lpn);
  const Group* find_group(Lpn lpn) const;
  /// Marks the group expanded if `spa` at `offset` violates the compact
  /// layout, charging the RMW of the pages already mapped.
  void note_layout(Group& g, std::uint32_t offset, flash::Spa spa);
  void refresh_stats(MappingStats& out) const override;

  std::unordered_map<std::uint64_t, Group> groups_;
};

}  // namespace uc::ftl
