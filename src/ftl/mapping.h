#pragma once

/// \file mapping.h
/// The FTL's logical-to-physical page map (paper §II-A: the FTL "keeps
/// track of a fine-grained (e.g., page-level) mapping table").  One entry
/// per logical page, always in DRAM.
///
/// Every entry carries the write stamp of the data it points at.  An
/// update applies iff its stamp is not older than the current entry's.
/// Equal stamps occur exactly once: when GC relocates a slot, the copy
/// carries the original stamp and must win over the stale physical
/// location.  Strictly-older stamps (a host program completing after the
/// page was overwritten or trimmed) lose.  This single rule makes the
/// three racing writers — host flushes, GC relocations, stale program
/// completions — converge without ordering assumptions beyond the
/// simulator's deterministic event order.
///
/// This is the only copy of each stamp: a valid flash slot's stamp is its
/// LPN's stamp here, because a slot is valid exactly while the map points
/// at it (GC reads it back from `stamp_of`).
///
/// An entry packs into 8 bytes: a 32-bit slot index (`SuperblockManager`
/// keeps slot indices under 2^32, and the all-ones index means "unmapped")
/// and a 32-bit stamp.  The accessors speak `flash::Spa` and widen the
/// unmapped index back to `flash::kInvalidSpa`.
///
/// `peek`/`stamp_of` are uncounted probes for speculative readers (the
/// prefetcher) and integrity checks.  Everything is defined here so the
/// FTL's flush, read, trim and GC paths can inline it.

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "flash/geometry.h"

namespace uc::ftl {

/// Access counters, reported by perfbench as `ftl.mapping_lookups` and
/// `ftl.mapping_hits`.  Every `translate`, `update`, `invalidate` and
/// `on_gc_relocate` counts one lookup and one hit.
struct MappingStats {
  std::uint64_t lookups = 0;
  std::uint64_t cache_hits = 0;
};

struct UpdateResult {
  bool applied = false;
  flash::Spa previous = flash::kInvalidSpa;  ///< valid only when applied
};

class PageMapping {
 public:
  explicit PageMapping(std::uint64_t logical_pages)
      : entries_(logical_pages) {
    UC_ASSERT(logical_pages > 0, "mapping needs at least one logical page");
  }

  std::uint64_t logical_pages() const { return entries_.size(); }
  std::uint64_t mapped_count() const { return mapped_; }

  /// Resolves `lpn`; kInvalidSpa if unmapped.
  flash::Spa translate(Lpn lpn) {
    check(lpn);
    account();
    return widen(entries_[lpn].spa);
  }

  /// Points `lpn` at `spa` if `stamp` is not older than the current
  /// mapping (see file comment).  Returns whether it applied and the
  /// previously mapped slot (which the caller must invalidate).
  UpdateResult update(Lpn lpn, flash::Spa spa, WriteStamp stamp) {
    check(lpn);
    UC_ASSERT(spa < kUnmapped, "mapped slot index must fit in 32 bits");
    check_stamp(stamp);
    account();
    Entry& e = entries_[lpn];
    if (e.stamp > stamp) return {false, flash::kInvalidSpa};
    UpdateResult result{true, widen(e.spa)};
    if (e.spa == kUnmapped) ++mapped_;
    e.spa = static_cast<std::uint32_t>(spa);
    e.stamp = static_cast<std::uint32_t>(stamp);
    return result;
  }

  /// Unmaps (trim) with the trim's own fresh stamp, so in-flight programs
  /// of older data cannot resurrect the page.  `previous` is the slot that
  /// was mapped (kInvalidSpa if none); `applied` is always true.
  UpdateResult invalidate(Lpn lpn, WriteStamp trim_stamp) {
    check(lpn);
    check_stamp(trim_stamp);
    account();
    Entry& e = entries_[lpn];
    UC_ASSERT(trim_stamp >= e.stamp, "trim stamp must be current");
    UpdateResult result{true, widen(e.spa)};
    if (e.spa != kUnmapped) {
      --mapped_;
      e.spa = kUnmapped;
    }
    e.stamp = static_cast<std::uint32_t>(trim_stamp);
    return result;
  }

  /// GC moved the data for `lpn` to `dst`, carrying the original stamp.
  /// Applies iff the mapping still points at data with that stamp
  /// (equal-stamp-wins); a host overwrite mid-relocation makes it stale.
  UpdateResult on_gc_relocate(Lpn lpn, flash::Spa dst, WriteStamp stamp) {
    return update(lpn, dst, stamp);
  }

  flash::Spa peek(Lpn lpn) const {
    check(lpn);
    return widen(entries_[lpn].spa);
  }
  WriteStamp stamp_of(Lpn lpn) const {
    check(lpn);
    return entries_[lpn].stamp;
  }
  bool is_mapped(Lpn lpn) const { return peek(lpn) != flash::kInvalidSpa; }

  const MappingStats& stats() const { return stats_; }

 private:
  static constexpr std::uint32_t kUnmapped = ~0u;

  struct Entry {
    std::uint32_t spa = kUnmapped;
    std::uint32_t stamp = 0;
  };
  static_assert(sizeof(Entry) == 8, "page-map entry must stay packed");

  static flash::Spa widen(std::uint32_t spa) {
    return spa == kUnmapped ? flash::kInvalidSpa : spa;
  }
  static void check_stamp(WriteStamp stamp) {
    UC_ASSERT(stamp < (1ull << 32), "page map stores 32-bit write stamps");
  }

  void account() {
    ++stats_.lookups;
    ++stats_.cache_hits;
  }
  void check(Lpn lpn) const {
    UC_DCHECK(lpn < entries_.size(), "LPN out of mapping range");
  }

  std::vector<Entry> entries_;
  std::uint64_t mapped_ = 0;
  MappingStats stats_;
};

}  // namespace uc::ftl
