#include "ebs/segment_store.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace uc::ebs {

SegmentPool::SegmentPool(std::uint64_t total_groups,
                         std::uint64_t cleaner_reserve)
    : total_(total_groups), free_(total_groups), reserve_(cleaner_reserve) {
  // A shared cluster may start with only its reserve + spare and grow() as
  // volumes attach, so >= (not >) is the construction-time requirement.
  UC_ASSERT(total_groups >= cleaner_reserve,
            "pool must cover the cleaner reserve");
}

void SegmentPool::grow(std::uint64_t groups) {
  total_ += groups;
  free_ += groups;
}

bool SegmentPool::try_allocate(bool privileged) {
  const std::uint64_t floor = privileged ? 0 : reserve_;
  if (free_ <= floor) return false;
  --free_;
  return true;
}

void SegmentPool::release(std::uint64_t groups) {
  free_ += groups;
  UC_ASSERT(free_ <= total_, "pool release overflow");
  if (on_release_) on_release_();
}

std::uint32_t VictimIndex::add_slot() {
  if (size_ == leaves_) {
    // Double the leaf row and replay every match above it.
    const std::uint32_t grown = leaves_ == 0 ? 1 : 2 * leaves_;
    std::vector<std::uint64_t> tree(2 * static_cast<std::size_t>(grown), ~0ull);
    std::copy(tree_.begin() + leaves_, tree_.begin() + leaves_ + size_,
              tree.begin() + grown);
    for (std::size_t i = grown; i-- > 1;) {
      tree[i] = std::min(tree[2 * i], tree[2 * i + 1]);
    }
    tree_ = std::move(tree);
    leaves_ = grown;
  }
  const std::uint32_t slot = size_++;
  update(slot, kNoVictim);
  return slot;
}

void VictimIndex::update(std::uint32_t slot, std::uint32_t live) {
  UC_DCHECK(slot < size_, "victim slot out of range");
  std::size_t i = leaves_ + slot;
  tree_[i] = key(live, slot);
  // Replay the matches on the path to the root; once a match's winner is
  // unchanged, every match above it is too.
  for (i >>= 1; i >= 1; i >>= 1) {
    const std::uint64_t winner = std::min(tree_[2 * i], tree_[2 * i + 1]);
    if (tree_[i] == winner) break;
    tree_[i] = winner;
  }
}

std::optional<std::uint32_t> VictimIndex::min_slot() const {
  if (size_ == 0 || (tree_[1] >> 32) == kNoVictim) return std::nullopt;
  return static_cast<std::uint32_t>(tree_[1]);
}

namespace {

std::uint32_t popcount(std::uint64_t word) {
  return static_cast<std::uint32_t>(std::popcount(word));
}

/// The lowest `n` set bits of `word` (which has more than `n`).
std::uint64_t lowest_set_bits(std::uint64_t word, std::uint32_t n) {
  std::uint64_t taken = 0;
  for (; n > 0; --n) {
    const std::uint64_t low = word & (~word + 1);
    taken |= low;
    word ^= low;
  }
  return taken;
}

}  // namespace

ChunkLog::ChunkLog(std::uint32_t pages_in_chunk,
                   std::uint32_t pages_per_segment)
    : pages_per_segment_(pages_per_segment),
      words_((pages_in_chunk + 63) / 64),
      written_(words_, 0),
      page_stamp_(pages_in_chunk, 0) {
  UC_ASSERT(pages_in_chunk > 0 && pages_per_segment > 0,
            "chunk and segment sizes must be positive");
}

void ChunkLog::grow_rows() {
  const std::uint32_t grown = row_cap_ == 0 ? 4 : 2 * row_cap_;
  std::vector<std::uint64_t> bits(static_cast<std::size_t>(words_) * grown, 0);
  for (std::uint32_t w = 0; w < words_; ++w) {
    std::copy_n(column(w), rows_used_,
                bits.begin() + static_cast<std::ptrdiff_t>(w) * grown);
  }
  live_bits_ = std::move(bits);
  row_seq_.resize(grown, kNoSeq);
  row_cap_ = grown;
}

std::uint32_t ChunkLog::claim_row(std::uint32_t seq) {
  std::uint32_t row;
  if (!free_rows_.empty()) {
    row = free_rows_.back();
    free_rows_.pop_back();
  } else {
    if (rows_used_ == row_cap_) grow_rows();
    row = rows_used_++;
  }
  row_seq_[row] = seq;
  return row;
}

bool ChunkLog::ensure_open_segment(SegmentPool& pool, bool privileged) {
  if (open_seq_ >= 0 &&
      segments_[static_cast<std::size_t>(open_seq_)].appended <
          pages_per_segment_) {
    return true;
  }
  if (!pool.try_allocate(privileged)) return false;
  const std::int64_t closed = open_seq_;
  const auto seq = static_cast<std::uint32_t>(segments_.size());
  open_seq_ = seq;
  segments_.push_back(Segment{0, 0, claim_row(seq)});
  ++allocated_segments_;
  // The previous open segment is full: it just became a cleaning candidate.
  if (closed >= 0) offer_victim(static_cast<std::uint32_t>(closed));
  return true;
}

std::uint32_t ChunkLog::row_of(std::uint32_t page) const {
  const std::uint64_t* col = column(page / 64);
  const std::uint64_t bit = std::uint64_t{1} << (page % 64);
  std::uint32_t row = 0;
  while (row < rows_used_ && (col[row] & bit) == 0) ++row;
  UC_ASSERT(row < rows_used_, "written page is live in no segment");
  return row;
}

std::uint32_t ChunkLog::segment_of(std::uint32_t page) const {
  UC_DCHECK(page < page_stamp_.size(), "page beyond chunk");
  return is_written(page) ? row_seq_[row_of(page)] : kUnwritten;
}

void ChunkLog::drop_live(std::uint32_t word, std::uint64_t mask) {
  // Rows are disjoint, so the walk stops once every written page in the
  // mask has been found.
  std::uint64_t left = written_[word] & mask;
  std::uint64_t* col = column(word);
  for (std::uint32_t row = 0; left != 0; ++row) {
    UC_ASSERT(row < rows_used_, "written page is live in no segment");
    const std::uint64_t hits = col[row] & left;
    if (hits == 0) continue;
    col[row] &= ~hits;
    left &= ~hits;
    const std::uint32_t seq = row_seq_[row];
    Segment& seg = segments_[seq];
    const std::uint32_t n = popcount(hits);
    UC_ASSERT(seg.live >= n, "overwrite accounting against an empty segment");
    seg.live -= n;
    live_pages_ -= n;
    if (static_cast<std::int64_t>(seq) != open_seq_) offer_victim(seq);
  }
}

void ChunkLog::offer_victim(std::uint32_t seq) {
  UC_DCHECK(segments_[seq].appended == pages_per_segment_,
            "victim candidates must be full");
  if (best_seq_ != kNoSeq && seq != best_seq_) {
    const std::uint32_t live = segments_[seq].live;
    const std::uint32_t best_live = segments_[best_seq_].live;
    if (live > best_live || (live == best_live && seq > best_seq_)) return;
  }
  best_seq_ = seq;
  publish_best();
}

std::uint32_t ChunkLog::scan_best() const {
  std::uint32_t best = kNoSeq;
  for (std::uint32_t row = 0; row < rows_used_; ++row) {
    const std::uint32_t seq = row_seq_[row];
    if (seq == kNoSeq || static_cast<std::int64_t>(seq) == open_seq_) continue;
    if (best == kNoSeq || segments_[seq].live < segments_[best].live ||
        (segments_[seq].live == segments_[best].live && seq < best)) {
      best = seq;
    }
  }
  return best;
}

void ChunkLog::publish_best() {
  if (index_ == nullptr) return;
  index_->update(index_slot_, best_seq_ == kNoSeq
                                  ? VictimIndex::kNoVictim
                                  : segments_[best_seq_].live);
}

void ChunkLog::attach_index(VictimIndex* index, std::uint32_t slot) {
  index_ = index;
  index_slot_ = slot;
  publish_best();
}

std::uint32_t ChunkLog::append_run(std::uint32_t first_page, std::uint32_t n,
                                   WriteStamp first_stamp, SegmentPool& pool) {
  UC_DCHECK(first_page <= page_stamp_.size() &&
                n <= page_stamp_.size() - first_page,
            "run beyond chunk");
  // Each piece stays inside one 64-page word and one open segment, so a
  // piece drops its old versions, then lands in the open row as one mask.
  // The tracked best victim is the minimum over closed segments whatever
  // order their counts fall in, so offering each touched segment once per
  // piece picks what a page-by-page walk picks.
  std::uint32_t landed = 0;
  while (landed < n) {
    if (!ensure_open_segment(pool, /*privileged=*/false)) break;
    Segment& seg = segments_[static_cast<std::size_t>(open_seq_)];
    const std::uint32_t page = first_page + landed;
    const std::uint32_t word = page / 64;
    const std::uint32_t shift = page % 64;
    const std::uint32_t k =
        std::min({n - landed, 64 - shift, pages_per_segment_ - seg.appended});
    const std::uint64_t mask = (~std::uint64_t{0} >> (64 - k)) << shift;
    drop_live(word, mask);
    seg.appended += k;
    seg.live += k;
    appended_alive_pages_ += k;
    live_pages_ += k;
    column(word)[seg.row] |= mask;
    written_[word] |= mask;
    const WriteStamp stamp = first_stamp + landed;
    UC_ASSERT(stamp + (k - 1) < (1ull << 32), "chunk log stores 32-bit stamps");
    for (std::uint32_t i = 0; i < k; ++i) {
      page_stamp_[page + i] = static_cast<std::uint32_t>(stamp + i);
    }
    landed += k;
  }
  return landed;
}

void ChunkLog::trim_page(std::uint32_t page) {
  UC_DCHECK(page < page_stamp_.size(), "page beyond chunk");
  const std::uint64_t bit = std::uint64_t{1} << (page % 64);
  drop_live(page / 64, bit);
  written_[page / 64] &= ~bit;
}

std::optional<ChunkLog::Victim> ChunkLog::pick_victim() const {
  if (best_seq_ == kNoSeq) return std::nullopt;
  const Segment& seg = segments_[best_seq_];
  return Victim{best_seq_, seg.live, seg.appended};
}

bool ChunkLog::clean_segment(std::uint32_t seq, SegmentPool& pool,
                             std::uint32_t* live_moved) {
  // Note: ensure_open_segment may grow `segments_` and re-lay out the
  // bitmap columns, so both are re-addressed after it — never hold a
  // reference or column pointer across it.
  const std::uint32_t victim = segments_[seq].row;
  UC_ASSERT(victim != kNoRow, "cleaning a freed segment");
  UC_ASSERT(static_cast<std::int64_t>(seq) != open_seq_,
            "cleaning the open segment");

  // Relocate live pages into the open log in ascending page order, a word
  // at a time (their stamps stay put).  Each pass fills the open segment or
  // takes the rest.  Only a pass that fills it counts bits, splitting the
  // word where the segment fills, so segments open exactly where a
  // page-by-page relocation would open them.
  std::uint32_t moved = 0;
  std::uint32_t w = 0;
  while (segments_[seq].live > 0) {
    if (!ensure_open_segment(pool, /*privileged=*/true)) {
      offer_victim(seq);  // partly relocated: it lost live pages
      return false;
    }
    Segment& open = segments_[static_cast<std::size_t>(open_seq_)];
    Segment& from = segments_[seq];
    const std::uint32_t n =
        std::min(pages_per_segment_ - open.appended, from.live);
    if (n == from.live) {
      for (; w < words_; ++w) {
        std::uint64_t* col = column(w);
        col[open.row] |= col[victim];
        col[victim] = 0;
      }
    } else {
      for (std::uint32_t need = n; need > 0;) {
        std::uint64_t* col = column(w);
        const std::uint32_t count = popcount(col[victim]);
        const std::uint64_t take =
            count <= need ? col[victim] : lowest_set_bits(col[victim], need);
        col[open.row] |= take;
        col[victim] &= ~take;
        if (count <= need) {
          need -= count;
          ++w;
        } else {
          need = 0;
        }
      }
    }
    // Move without changing global live: the pages stay live.
    from.live -= n;
    open.appended += n;
    open.live += n;
    appended_alive_pages_ += n;
    moved += n;
  }
  Segment& seg = segments_[seq];
  UC_ASSERT(seg.live == 0, "victim retained live pages after relocation");
  appended_alive_pages_ -= seg.appended;
  seg.row = kNoRow;
  row_seq_[victim] = kNoSeq;
  free_rows_.push_back(victim);
  --allocated_segments_;
  // Settle the best victim before the release callback can append again.
  if (seq == best_seq_) {
    best_seq_ = scan_best();
    publish_best();
  }
  pool.release(1);
  if (live_moved != nullptr) *live_moved = moved;
  return true;
}

bool ChunkLog::check_invariants() const {
  // Word by word: the rows are disjoint and together hold exactly the
  // written pages.
  for (std::uint32_t w = 0; w < words_; ++w) {
    const std::uint64_t* col = column(w);
    std::uint64_t seen = 0;
    for (std::uint32_t row = 0; row < rows_used_; ++row) {
      UC_ASSERT((seen & col[row]) == 0, "page live in two segments");
      seen |= col[row];
    }
    UC_ASSERT(seen == written_[w], "live bitmaps diverged from written pages");
  }
  if (const std::size_t tail = page_stamp_.size() % 64; tail != 0) {
    UC_ASSERT(written_[words_ - 1] >> tail == 0,
              "page written beyond the chunk");
  }
  std::uint64_t live_from_pages = 0;
  for (const std::uint64_t word : written_) live_from_pages += popcount(word);

  // Row by row: each claimed row is one non-freed segment, and its bitmap
  // holds that segment's live count; free rows are empty.
  std::uint64_t live_from_segments = 0;
  std::uint64_t appended_alive = 0;
  std::uint32_t allocated = 0;
  for (std::uint32_t row = 0; row < rows_used_; ++row) {
    std::uint32_t live_bits = 0;
    for (std::uint32_t w = 0; w < words_; ++w) {
      live_bits += popcount(column(w)[row]);
    }
    const std::uint32_t seq = row_seq_[row];
    if (seq == kNoSeq) {
      UC_ASSERT(live_bits == 0, "free bitmap row holds live pages");
      continue;
    }
    UC_ASSERT(seq < segments_.size() && segments_[seq].row == row,
              "bitmap row and segment disagree");
    const Segment& seg = segments_[seq];
    UC_ASSERT(seg.live == live_bits, "segment live diverged from its bitmap");
    UC_ASSERT(seg.live <= seg.appended, "segment live exceeds appended");
    UC_ASSERT(seg.appended <= pages_per_segment_, "segment overfilled");
    UC_ASSERT(static_cast<std::int64_t>(seq) == open_seq_ ||
                  seg.appended == pages_per_segment_,
              "closed segment is not full");
    live_from_segments += seg.live;
    appended_alive += seg.appended;
    ++allocated;
  }
  UC_ASSERT(live_from_pages == live_pages_,
            "written-page count diverged from cached live_pages");
  UC_ASSERT(live_from_segments == live_pages_,
            "segment live sum diverged from cached live_pages");
  UC_ASSERT(appended_alive == appended_alive_pages_,
            "appended-page sum diverged from cached appended_alive_pages");
  UC_ASSERT(allocated == allocated_segments_,
            "non-freed segment count diverged from allocated_segments");
  UC_ASSERT(best_seq_ == scan_best(),
            "tracked best victim diverged from a rescan");
  UC_ASSERT(index_ == nullptr ||
                index_->live(index_slot_) ==
                    (best_seq_ == kNoSeq ? VictimIndex::kNoVictim
                                         : segments_[best_seq_].live),
            "published victim key diverged from the tracked best");
  return true;
}

}  // namespace uc::ebs
