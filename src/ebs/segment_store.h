#pragma once

/// \file segment_store.h
/// Log-structured chunk storage: every chunk appends into fixed-size
/// segments drawn from a cluster-wide pool; overwrites leave garbage behind
/// for the background cleaner.
///
/// This is the cloud-side analogue of the SSD's FTL: the provider absorbs
/// overwrite garbage with cluster spare capacity and cleans it off the
/// critical path — which is exactly why "the performance impact of GC
/// appears much later or even disappears" (Observation 2).  When the pool
/// runs dry, appends stall until the cleaner frees segments, and the
/// volume's sustained write rate collapses to the cleaning rate — the
/// ESSD-1 cliff in Figure 3.
///
/// A chunk log keeps no per-page segment map.  Each allocated segment owns
/// one live-page bitmap row, and the rows are stored column-major (word `w`
/// of every row side by side), so the cleaner relocates a victim by OR-ing
/// whole 64-page words into the open segment's row, and finding a page's
/// segment reads one column of a few rows.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace uc::ebs {

/// Cluster-wide free-segment accounting, in *segment groups* (one group =
/// `replication` identical replica segments).  A small reserve is set aside
/// for the cleaner so compaction can always make progress.  A multi-tenant
/// cluster starts with just its shared spare capacity and grows the pool as
/// volumes attach, so every tenant draws from the same free-space budget.
class SegmentPool {
 public:
  SegmentPool(std::uint64_t total_groups, std::uint64_t cleaner_reserve);

  /// Takes one group; `privileged` allocations (the cleaner's) may dig into
  /// the reserve.
  bool try_allocate(bool privileged);
  void release(std::uint64_t groups = 1);

  /// Adds capacity (a newly attached volume's live + open-segment share).
  void grow(std::uint64_t groups);

  std::uint64_t free_groups() const { return free_; }
  std::uint64_t total_groups() const { return total_; }
  double free_ratio() const {
    return static_cast<double>(free_) / static_cast<double>(total_);
  }

  /// Invoked on every release (wakes stalled appends and the cleaner).
  void set_release_callback(std::function<void()> cb) {
    on_release_ = std::move(cb);
  }

 private:
  std::uint64_t total_;
  std::uint64_t free_;
  std::uint64_t reserve_;
  std::function<void()> on_release_;
};

/// Min-index over chunk logs keyed by (best victim's live pages, slot): a
/// tournament tree whose root names the log the cleaner visits next.  Logs
/// publish their key whenever it changes, so a pick reads the root in O(1)
/// and an update costs O(log slots).  Ties go to the lowest slot, which is
/// the cleaner's registry scan order.
class VictimIndex {
 public:
  /// Key of a log without a closed segment (never picked).
  static constexpr std::uint32_t kNoVictim = ~0u;

  /// Appends a slot keyed kNoVictim and returns its id (dense, from 0).
  std::uint32_t add_slot();
  void update(std::uint32_t slot, std::uint32_t live);

  /// The slot with the fewest live pages, if any slot has a victim.
  std::optional<std::uint32_t> min_slot() const;
  /// The live count `slot` last published (kNoVictim if none).
  std::uint32_t live(std::uint32_t slot) const {
    return static_cast<std::uint32_t>(tree_[leaves_ + slot] >> 32);
  }
  std::uint32_t size() const { return size_; }

 private:
  static std::uint64_t key(std::uint32_t live, std::uint32_t slot) {
    return (static_cast<std::uint64_t>(live) << 32) | slot;
  }

  std::uint32_t size_ = 0;
  std::uint32_t leaves_ = 0;         ///< capacity, a power of two
  std::vector<std::uint64_t> tree_;  ///< 1-based heap; leaf i at leaves_ + i
};

/// Per-chunk replicated append log with page-granular live tracking.
/// Replicas are byte-identical, so the log is modeled once per chunk and
/// the pool accounts in whole groups.
class ChunkLog {
 public:
  static constexpr std::uint32_t kUnwritten = ~0u;

  ChunkLog(std::uint32_t pages_in_chunk, std::uint32_t pages_per_segment);

  /// Appends versions of pages [first_page, first_page + n) in page order,
  /// page `first_page + i` stamped `first_stamp + i`.  Returns how many
  /// landed: fewer than `n` when a fresh segment was needed and the pool
  /// was empty, and the pages from there on are unchanged — the caller
  /// stalls the rest until the cleaner frees space.  The run moves a
  /// 64-page word at a time, split where the word or the open segment
  /// ends, with the same result as appending page by page.
  std::uint32_t append_run(std::uint32_t first_page, std::uint32_t n,
                           WriteStamp first_stamp, SegmentPool& pool);
  /// Appends one page version; false (and nothing changed) on a dry pool.
  bool append_page(std::uint32_t page, WriteStamp stamp, SegmentPool& pool) {
    return append_run(page, 1, stamp, pool) == 1;
  }

  bool is_written(std::uint32_t page) const {
    return ((written_[page / 64] >> (page % 64)) & 1) != 0;
  }
  /// The seq of the segment holding the page's live version, or kUnwritten.
  std::uint32_t segment_of(std::uint32_t page) const;
  WriteStamp page_stamp(std::uint32_t page) const {
    return page_stamp_[page];
  }

  /// Trim: drops the page, leaving garbage in its segment.
  void trim_page(std::uint32_t page);

  struct Victim {
    std::uint32_t seq = 0;
    std::uint32_t live_pages = 0;
    std::uint32_t appended_pages = 0;
    double garbage_ratio() const {
      return appended_pages == 0
                 ? 0.0
                 : 1.0 - static_cast<double>(live_pages) /
                             static_cast<double>(appended_pages);
    }
  };

  /// The closed segment with the highest garbage ratio, if any; the first
  /// in seq order on ties.  Every closed segment is full, so that is the
  /// one with the fewest live pages — tracked incrementally, so this is
  /// O(1).
  std::optional<Victim> pick_victim() const;

  /// From now on, publishes this log's best-victim live count to `index`
  /// at `slot` whenever it changes.
  void attach_index(VictimIndex* index, std::uint32_t slot);

  /// Relocates the victim's live pages into the open log and frees the
  /// segment back to the pool.  Returns false if relocation needed a fresh
  /// segment and even the privileged reserve was empty.
  bool clean_segment(std::uint32_t seq, SegmentPool& pool,
                     std::uint32_t* live_moved);

  std::uint64_t live_pages() const { return live_pages_; }
  std::uint64_t garbage_pages() const {
    return appended_alive_pages_ - live_pages_;
  }
  std::uint32_t allocated_segments() const { return allocated_segments_; }
  std::uint32_t pages_per_segment() const { return pages_per_segment_; }

  /// Debug probe: recomputes live/appended/allocated accounting from the
  /// live-page bitmaps and per-segment records and asserts the cached
  /// counters match, that no page is live in two segments, that every
  /// closed segment is full, and that the tracked best victim (and its
  /// published index key) equals a full rescan.  Costs O(words x rows), not
  /// O(pages).  Returns true so tests can write
  /// EXPECT_TRUE(log.check_...).
  bool check_invariants() const;

 private:
  static constexpr std::uint32_t kNoSeq = ~0u;
  static constexpr std::uint32_t kNoRow = ~0u;

  struct Segment {
    std::uint32_t appended = 0;
    std::uint32_t live = 0;
    std::uint32_t row = kNoRow;  ///< bitmap row; kNoRow once freed
  };

  bool ensure_open_segment(SegmentPool& pool, bool privileged);
  /// Takes a zeroed bitmap row for segment `seq`, growing the rows if none
  /// is free.
  std::uint32_t claim_row(std::uint32_t seq);
  /// Doubles the row capacity, re-laying out every column.
  void grow_rows();
  /// Word `word` of every row, side by side.
  std::uint64_t* column(std::uint32_t word) {
    return live_bits_.data() + static_cast<std::size_t>(word) * row_cap_;
  }
  const std::uint64_t* column(std::uint32_t word) const {
    return live_bits_.data() + static_cast<std::size_t>(word) * row_cap_;
  }
  /// The row whose bitmap holds written page `page`.
  std::uint32_t row_of(std::uint32_t page) const;
  /// Drops the live versions of the written pages in `mask` of word `word`
  /// from their segments, offering each closed segment that lost pages to
  /// the victim tracking once.
  void drop_live(std::uint32_t word, std::uint64_t mask);
  /// Closed segment `seq` just closed or lost a live page: it becomes the
  /// best victim if it now orders first by (live, seq).
  void offer_victim(std::uint32_t seq);
  /// Scan of the rows for the best victim; the only O(segments) path,
  /// taken when the best segment is freed.
  std::uint32_t scan_best() const;
  void publish_best();

  std::uint32_t pages_per_segment_;
  std::uint32_t words_;                ///< 64-page words per bitmap row
  std::vector<Segment> segments_;      // indexed by seq; freed slots remain
  /// Live-page bitmaps, column-major: bit `p % 64` of
  /// `live_bits_[(p / 64) * row_cap_ + row]` is page p live in that row.
  std::vector<std::uint64_t> live_bits_;
  std::vector<std::uint32_t> row_seq_;   ///< row -> seq; kNoSeq when free
  std::vector<std::uint32_t> free_rows_;
  std::uint32_t row_cap_ = 0;            ///< rows per column
  std::uint32_t rows_used_ = 0;          ///< rows ever claimed (a prefix)
  std::vector<std::uint64_t> written_;   ///< one bit per page
  std::vector<std::uint32_t> page_stamp_;
  std::int64_t open_seq_ = -1;
  std::uint64_t live_pages_ = 0;
  std::uint64_t appended_alive_pages_ = 0;  ///< appended pages in non-freed segments
  std::uint32_t allocated_segments_ = 0;    ///< currently non-freed
  std::uint32_t best_seq_ = kNoSeq;         ///< best closed victim
  VictimIndex* index_ = nullptr;
  std::uint32_t index_slot_ = 0;
};

}  // namespace uc::ebs
