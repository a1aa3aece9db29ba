#include "ftl/mapping_learned.h"

#include <cstdint>

namespace uc::ftl {

LearnedRangeMapping::LearnedRangeMapping(const MappingConfig& cfg,
                                         std::uint64_t logical_pages)
    : MappingPolicy(cfg, logical_pages) {}

std::map<Lpn, LearnedRangeMapping::Segment>::const_iterator
LearnedRangeMapping::find_segment(Lpn lpn) const {
  auto it = segments_.upper_bound(lpn);
  if (it == segments_.begin()) return segments_.end();
  --it;
  if (lpn < it->first + it->second.len) return it;
  return segments_.end();
}

LearnedRangeMapping::Entry LearnedRangeMapping::point_get(
    Lpn lpn, bool* from_segment) const {
  if (const auto seg = find_segment(lpn); seg != segments_.end()) {
    *from_segment = true;
    const std::uint64_t o = lpn - seg->first;
    return Entry{seg->second.spa_base + o, seg->second.stamp_base + o};
  }
  *from_segment = false;
  if (const auto it = fallback_.find(lpn); it != fallback_.end()) {
    return it->second;
  }
  return Entry{};
}

void LearnedRangeMapping::spill_or_keep(Lpn start, const Segment& piece) {
  if (piece.len == 0) return;
  if (piece.len >= cfg_.min_run_pages) {
    segments_.emplace(start, piece);
    return;
  }
  for (std::uint64_t o = 0; o < piece.len; ++o) {
    fallback_[start + o] =
        Entry{piece.spa_base + o, piece.stamp_base + o};
  }
}

void LearnedRangeMapping::point_erase(Lpn lpn) {
  // Breaking into the active run (committed or not) invalidates its
  // continuity bookkeeping.
  if (run_active_ && lpn >= run_start_ && lpn <= last_lpn_) reset_run();
  if (fallback_.erase(lpn) > 0) return;
  const auto seg = find_segment(lpn);
  if (seg == segments_.end()) return;
  const Lpn start = seg->first;
  const Segment s = seg->second;
  segments_.erase(seg);
  const std::uint64_t o = lpn - start;
  spill_or_keep(start, Segment{o, s.spa_base, s.stamp_base});
  spill_or_keep(lpn + 1, Segment{s.len - o - 1, s.spa_base + o + 1,
                                 s.stamp_base + o + 1});
}

void LearnedRangeMapping::commit_run() {
  for (std::uint64_t o = 0; o < run_len_; ++o) {
    fallback_.erase(run_start_ + o);
  }
  segments_.emplace(
      run_start_, Segment{run_len_, last_spa_ - (run_len_ - 1),
                          last_stamp_ - (run_len_ - 1)});
  run_committed_ = true;
}

TranslateResult LearnedRangeMapping::translate(Lpn lpn) {
  check(lpn);
  bool from_segment = false;
  const Entry e = point_get(lpn, &from_segment);
  if (from_segment) {
    account_hit();
    ++stats_.learned_hits;
  } else {
    account_miss();  // exact fallback (or nothing) had to answer
  }
  return {e.spa, 0, 0};
}

UpdateResult LearnedRangeMapping::update(Lpn lpn, flash::Spa spa,
                                         WriteStamp stamp) {
  check(lpn);
  bool from_segment = false;
  const Entry prev = point_get(lpn, &from_segment);
  if (from_segment) {
    account_hit();
  } else {
    account_miss();
  }
  if (prev.stamp > stamp) {
    return {false, flash::kInvalidSpa, 0, 0};
  }
  // Decide extension against the tracker *before* the erase below can
  // reset it.  An extension's lpn is one past the run, so the erase never
  // touches the run's own entries.
  const bool extend = run_active_ && lpn == last_lpn_ + 1 &&
                      spa == last_spa_ + 1 && stamp == last_stamp_ + 1;
  point_erase(lpn);
  // The tracker must reflect this op before commit_run derives the
  // segment's base addresses from it.
  last_lpn_ = lpn;
  last_spa_ = spa;
  last_stamp_ = stamp;
  if (extend) {
    ++run_len_;
    if (run_committed_) {
      const auto seg = segments_.find(run_start_);
      UC_ASSERT(seg != segments_.end() &&
                    seg->first + seg->second.len == lpn,
                "committed run out of sync with its segment");
      ++seg->second.len;
    } else {
      fallback_[lpn] = Entry{spa, stamp};
      if (run_len_ >= cfg_.min_run_pages) commit_run();
    }
  } else {
    run_active_ = true;
    run_committed_ = false;
    run_start_ = lpn;
    run_len_ = 1;
    fallback_[lpn] = Entry{spa, stamp};
  }
  if (prev.spa == flash::kInvalidSpa) ++mapped_;
  return {true, prev.spa, 0, 0};
}

UpdateResult LearnedRangeMapping::invalidate(Lpn lpn, WriteStamp trim_stamp) {
  check(lpn);
  bool from_segment = false;
  const Entry prev = point_get(lpn, &from_segment);
  UC_ASSERT(trim_stamp >= prev.stamp, "trim stamp must be current");
  if (from_segment) {
    account_hit();
  } else {
    account_miss();
  }
  point_erase(lpn);
  fallback_[lpn] = Entry{flash::kInvalidSpa, trim_stamp};
  if (prev.spa != flash::kInvalidSpa) --mapped_;
  return {true, prev.spa, 0, 0};
}

flash::Spa LearnedRangeMapping::peek(Lpn lpn) const {
  check(lpn);
  bool from_segment = false;
  return point_get(lpn, &from_segment).spa;
}

WriteStamp LearnedRangeMapping::stamp_of(Lpn lpn) const {
  check(lpn);
  bool from_segment = false;
  return point_get(lpn, &from_segment).stamp;
}

void LearnedRangeMapping::refresh_stats(MappingStats& out) const {
  out.learned_segments = segments_.size();
  out.fallback_entries = fallback_.size();
  out.table_bytes = segments_.size() * 32 + fallback_.size() * 24 + 64;
}

}  // namespace uc::ftl
