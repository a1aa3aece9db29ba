#pragma once

/// \file mapping.h
/// Pluggable logical-to-physical mapping policies (paper §II-A: the FTL
/// "keeps track of a fine-grained (e.g., page-level) mapping table").
///
/// Every mapping entry carries the write stamp of the data it points at.
/// An update applies iff its stamp is not older than the current entry's.
/// Equal stamps occur exactly once: when GC relocates a slot, the copy
/// carries the original stamp and must win over the stale physical
/// location.  Strictly-older stamps (a host program completing after the
/// page was overwritten or trimmed) lose.  This single rule makes the
/// three racing writers — host flushes, GC relocations, stale program
/// completions — converge without ordering assumptions beyond the
/// simulator's deterministic event order.
///
/// Policies differ in how the table is *stored*, not in what it says:
/// every variant is exact (`translate` always returns the true physical
/// slot), but they trade table bytes against translation misses that cost
/// real flash reads (`TranslateResult::flash_reads`, charged by the FTL
/// through the NAND array) or against read-modify-write amplification
/// (`MappingStats::group_rmw_pages`).  `peek`/`stamp_of` are side-effect
/// free probes for speculative readers (prefetcher, integrity checks) so
/// they never thrash a demand-paged cache.

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "flash/geometry.h"

namespace uc::ftl {

enum class MappingKind {
  kPage,         ///< flat page-level table, all in DRAM (the default)
  kDftl,         ///< demand-paged cached mapping table (DFTL-style)
  kHashedGroup,  ///< coarse groups, compact until overwritten
  kLearnedRange  ///< piecewise-linear segments + exact fallback (LeaFTL)
};

const char* to_string(MappingKind kind);

struct MappingConfig {
  MappingKind kind = MappingKind::kPage;

  // --- kDftl ---
  /// Translation pages resident in the cached mapping table (CMT).
  std::uint32_t cmt_capacity_pages = 64;
  /// Bytes per translation page; one flash read per CMT miss.
  std::uint32_t translation_page_bytes = 4096;

  // --- kHashedGroup ---
  /// Logical pages per group; a compact group stores one base address.
  std::uint32_t group_pages = 16;

  // --- kLearnedRange ---
  /// Consecutive (lpn, spa, stamp)+1 updates before a run becomes a
  /// learned segment.
  std::uint32_t min_run_pages = 8;

  Status validate() const;
};

struct MappingStats {
  std::uint64_t lookups = 0;       ///< accounted accesses, = hits + misses
  std::uint64_t cache_hits = 0;    ///< served from the in-DRAM structure
  std::uint64_t cache_misses = 0;  ///< needed the backing table / fallback
  std::uint64_t table_bytes = 0;   ///< current DRAM footprint of the table
  SimTime miss_penalty_ns_total = 0;  ///< accrued by the charging layer
  std::uint64_t evict_writebacks = 0;  ///< dirty CMT pages written back
  std::uint64_t group_rmw_pages = 0;   ///< pages re-written to break a group
  std::uint64_t learned_hits = 0;      ///< translations served by a segment
  std::uint64_t learned_segments = 0;  ///< live piecewise-linear segments
  std::uint64_t fallback_entries = 0;  ///< exact-map entries outside segments
};

/// Result of a translation.  `flash_reads > 0` means the policy had to
/// fault in translation metadata; the caller charges that many reads of
/// `translation_page_bytes` against the flash array (keyed by `tp_index`
/// so the charge lands on a deterministic die).
struct TranslateResult {
  flash::Spa spa = flash::kInvalidSpa;
  std::uint32_t flash_reads = 0;
  std::uint64_t tp_index = 0;
};

struct UpdateResult {
  bool applied = false;
  flash::Spa previous = flash::kInvalidSpa;  ///< valid only when applied
  std::uint32_t flash_reads = 0;
  std::uint64_t tp_index = 0;
};

/// Abstract mapping policy.  All mutating entry points account their
/// access in `stats()` (every call is one lookup, classified as a hit or
/// a miss), so `cache_hits + cache_misses == lookups` holds for every
/// policy at all times.
class MappingPolicy {
 public:
  MappingPolicy(const MappingConfig& cfg, std::uint64_t logical_pages);
  virtual ~MappingPolicy() = default;

  virtual MappingKind kind() const = 0;
  const MappingConfig& config() const { return cfg_; }
  std::uint64_t logical_pages() const { return logical_pages_; }
  std::uint64_t mapped_count() const { return mapped_; }

  /// Resolves `lpn`; kInvalidSpa if unmapped.  Accounts a lookup.
  virtual TranslateResult translate(Lpn lpn) = 0;

  /// Points `lpn` at `spa` if `stamp` is not older than the current
  /// mapping (see file comment).  Returns whether it applied and the
  /// previously mapped slot (which the caller must invalidate).
  virtual UpdateResult update(Lpn lpn, flash::Spa spa, WriteStamp stamp) = 0;

  /// Unmaps (trim) with the trim's own fresh stamp, so in-flight programs
  /// of older data cannot resurrect the page.  `previous` is the slot that
  /// was mapped (kInvalidSpa if none); `applied` is always true.
  virtual UpdateResult invalidate(Lpn lpn, WriteStamp trim_stamp) = 0;

  /// GC moved the data for `lpn` to `dst`, carrying the original stamp.
  /// Applies iff the mapping still points at data with that stamp
  /// (equal-stamp-wins); a host overwrite mid-relocation makes it stale.
  virtual UpdateResult on_gc_relocate(Lpn lpn, flash::Spa dst,
                                      WriteStamp stamp) {
    return update(lpn, dst, stamp);
  }

  /// Side-effect-free probe: no stats, no cache churn.  For speculative
  /// readers (prefetcher) and integrity scans.
  virtual flash::Spa peek(Lpn lpn) const = 0;
  virtual WriteStamp stamp_of(Lpn lpn) const = 0;

  bool is_mapped(Lpn lpn) const { return peek(lpn) != flash::kInvalidSpa; }

  /// Snapshot with `table_bytes` (and policy-specific gauges) refreshed.
  const MappingStats& stats() const {
    refresh_stats(stats_);
    return stats_;
  }

  /// The FTL, which charges misses as NAND reads, reports the latency it
  /// added here.
  void add_miss_penalty_ns(SimTime ns) { stats_.miss_penalty_ns_total += ns; }

 protected:
  struct Entry {
    flash::Spa spa = flash::kInvalidSpa;
    WriteStamp stamp = 0;
  };

  void account_hit() {
    ++stats_.lookups;
    ++stats_.cache_hits;
  }
  void account_miss() {
    ++stats_.lookups;
    ++stats_.cache_misses;
  }
  /// Fills the gauge fields (table_bytes, segment/fallback counts).
  virtual void refresh_stats(MappingStats& out) const = 0;

  void check(Lpn lpn) const {
    UC_DCHECK(lpn < logical_pages_, "LPN out of mapping range");
  }

  MappingConfig cfg_;
  std::uint64_t logical_pages_ = 0;
  std::uint64_t mapped_ = 0;
  mutable MappingStats stats_;
};

/// The digest-pinned default: one Entry per logical page, always in DRAM.
/// Every access is a hit; `table_bytes` is logical_pages * sizeof(Entry).
class PageMapping final : public MappingPolicy {
 public:
  PageMapping(const MappingConfig& cfg, std::uint64_t logical_pages);

  MappingKind kind() const override { return MappingKind::kPage; }
  TranslateResult translate(Lpn lpn) override;
  UpdateResult update(Lpn lpn, flash::Spa spa, WriteStamp stamp) override;
  UpdateResult invalidate(Lpn lpn, WriteStamp trim_stamp) override;
  flash::Spa peek(Lpn lpn) const override;
  WriteStamp stamp_of(Lpn lpn) const override;

 private:
  void refresh_stats(MappingStats& out) const override;

  std::vector<Entry> entries_;
};

std::unique_ptr<MappingPolicy> make_mapping_policy(
    const MappingConfig& cfg, std::uint64_t logical_pages);

}  // namespace uc::ftl
