#pragma once

/// \file mapping_learned.h
/// Learned-range mapping (LeaFTL-style): sequentially written runs are
/// represented as piecewise-linear segments — `spa = spa_base + (lpn -
/// start)` — so a segment costs ~32 bytes no matter how many pages it
/// covers.  Pages outside any segment live in an exact fallback map
/// (~24 bytes/entry).  A run is detected when `min_run_pages` consecutive
/// updates arrive with lpn, spa and stamp each advancing by exactly one
/// (the FTL's flush path produces exactly this for sequential writes);
/// once committed, the segment keeps extending in place.  Random
/// overwrites, trims and GC relocations punch holes: the segment splits,
/// and pieces shorter than `min_run_pages` spill back to the fallback.
///
/// Unlike approximate learned indexes, this variant is exact by
/// construction — a translation is served by a segment only when the
/// linear function is the true mapping — so the property harness can
/// demand bit-identical translations against the reference model.

#include <cstdint>
#include <map>
#include <unordered_map>

#include "ftl/mapping.h"

namespace uc::ftl {

class LearnedRangeMapping final : public MappingPolicy {
 public:
  LearnedRangeMapping(const MappingConfig& cfg, std::uint64_t logical_pages);

  MappingKind kind() const override { return MappingKind::kLearnedRange; }
  TranslateResult translate(Lpn lpn) override;
  UpdateResult update(Lpn lpn, flash::Spa spa, WriteStamp stamp) override;
  UpdateResult invalidate(Lpn lpn, WriteStamp trim_stamp) override;
  flash::Spa peek(Lpn lpn) const override;
  WriteStamp stamp_of(Lpn lpn) const override;

  std::uint64_t segment_count() const { return segments_.size(); }
  std::uint64_t fallback_count() const { return fallback_.size(); }

 private:
  struct Segment {
    std::uint64_t len = 0;
    flash::Spa spa_base = flash::kInvalidSpa;
    WriteStamp stamp_base = 0;
  };

  /// Segment containing `lpn`, or segments_.end().
  std::map<Lpn, Segment>::const_iterator find_segment(Lpn lpn) const;
  /// Current entry for `lpn` plus whether a segment served it.
  Entry point_get(Lpn lpn, bool* from_segment) const;
  /// Removes `lpn`'s entry wherever it lives, splitting a covering
  /// segment; short split pieces spill to the fallback map.  Resets the
  /// run tracker if `lpn` falls inside the active run.
  void point_erase(Lpn lpn);
  void spill_or_keep(Lpn start, const Segment& piece);
  void commit_run();
  void reset_run() { run_active_ = false; }
  void refresh_stats(MappingStats& out) const override;

  std::map<Lpn, Segment> segments_;
  std::unordered_map<Lpn, Entry> fallback_;  ///< incl. trim tombstones

  bool run_active_ = false;
  bool run_committed_ = false;
  Lpn run_start_ = 0;
  std::uint64_t run_len_ = 0;
  Lpn last_lpn_ = 0;
  flash::Spa last_spa_ = 0;
  WriteStamp last_stamp_ = 0;
};

}  // namespace uc::ftl
