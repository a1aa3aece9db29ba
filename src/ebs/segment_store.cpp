#include "ebs/segment_store.h"

#include <algorithm>
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

ChunkLog::ChunkLog(std::uint32_t pages_in_chunk,
                   std::uint32_t pages_per_segment)
    : pages_per_segment_(pages_per_segment),
      page_seg_(pages_in_chunk, kUnwritten),
      page_stamp_(pages_in_chunk, 0) {
  UC_ASSERT(pages_in_chunk > 0 && pages_per_segment > 0,
            "chunk and segment sizes must be positive");
}

bool ChunkLog::ensure_open_segment(SegmentPool& pool, bool privileged) {
  if (open_seq_ >= 0 &&
      segments_[static_cast<std::size_t>(open_seq_)].appended <
          pages_per_segment_) {
    return true;
  }
  if (!pool.try_allocate(privileged)) return false;
  const std::int64_t closed = open_seq_;
  open_seq_ = static_cast<std::int64_t>(segments_.size());
  segments_.push_back(Segment{});
  ++allocated_segments_;
  // The previous open segment is full: it just became a cleaning candidate.
  if (closed >= 0) offer_victim(static_cast<std::uint32_t>(closed));
  return true;
}

void ChunkLog::account_overwrite(std::uint32_t page) {
  const std::uint32_t old_seq = page_seg_[page];
  if (old_seq == kUnwritten) return;
  Segment& old_seg = segments_[old_seq];
  UC_ASSERT(old_seg.live > 0 && !old_seg.freed,
            "overwrite accounting against a freed segment");
  --old_seg.live;
  --live_pages_;
  if (static_cast<std::int64_t>(old_seq) != open_seq_) offer_victim(old_seq);
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
  for (std::uint32_t seq = 0; seq < segments_.size(); ++seq) {
    const Segment& seg = segments_[seq];
    if (seg.freed || static_cast<std::int64_t>(seq) == open_seq_) continue;
    if (best == kNoSeq || seg.live < segments_[best].live) best = seq;
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

bool ChunkLog::append_page(std::uint32_t page, WriteStamp stamp,
                           SegmentPool& pool) {
  UC_DCHECK(page < page_seg_.size(), "page beyond chunk");
  if (!ensure_open_segment(pool, /*privileged=*/false)) return false;
  account_overwrite(page);
  Segment& seg = segments_[static_cast<std::size_t>(open_seq_)];
  ++seg.appended;
  ++seg.live;
  ++appended_alive_pages_;
  ++live_pages_;
  page_seg_[page] = static_cast<std::uint32_t>(open_seq_);
  UC_ASSERT(stamp < (1ull << 32), "chunk log stores 32-bit stamps");
  page_stamp_[page] = static_cast<std::uint32_t>(stamp);
  return true;
}

void ChunkLog::trim_page(std::uint32_t page) {
  UC_DCHECK(page < page_seg_.size(), "page beyond chunk");
  account_overwrite(page);
  page_seg_[page] = kUnwritten;
}

std::optional<ChunkLog::Victim> ChunkLog::pick_victim() const {
  if (best_seq_ == kNoSeq) return std::nullopt;
  const Segment& seg = segments_[best_seq_];
  return Victim{best_seq_, seg.live, seg.appended};
}

bool ChunkLog::clean_segment(std::uint32_t seq, SegmentPool& pool,
                             std::uint32_t* live_moved) {
  // Note: ensure_open_segment may grow `segments_`, so the victim must be
  // re-addressed by index — never hold a reference across it.
  UC_ASSERT(!segments_[seq].freed, "cleaning a freed segment");
  UC_ASSERT(static_cast<std::int64_t>(seq) != open_seq_,
            "cleaning the open segment");

  std::uint32_t moved = 0;
  if (segments_[seq].live > 0) {
    // Relocate live pages into the open log, preserving their stamps.
    for (std::uint32_t page = 0;
         page < page_seg_.size() && segments_[seq].live > 0; ++page) {
      if (page_seg_[page] != seq) continue;
      if (!ensure_open_segment(pool, /*privileged=*/true)) {
        offer_victim(seq);  // partly relocated: it lost live pages
        return false;
      }
      // Move without changing global live: the page stays live.
      --segments_[seq].live;
      Segment& open = segments_[static_cast<std::size_t>(open_seq_)];
      ++open.appended;
      ++open.live;
      ++appended_alive_pages_;
      page_seg_[page] = static_cast<std::uint32_t>(open_seq_);
      ++moved;
    }
  }
  UC_ASSERT(segments_[seq].live == 0,
            "victim retained live pages after relocation");
  appended_alive_pages_ -= segments_[seq].appended;
  segments_[seq].freed = true;
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
  std::uint64_t live_from_pages = 0;
  for (std::size_t page = 0; page < page_seg_.size(); ++page) {
    const std::uint32_t seq = page_seg_[page];
    if (seq == kUnwritten) continue;
    UC_ASSERT(seq < segments_.size(), "page maps beyond the segment list");
    UC_ASSERT(!segments_[seq].freed, "live page maps into a freed segment");
    ++live_from_pages;
  }
  std::uint64_t live_from_segments = 0;
  std::uint64_t appended_alive = 0;
  std::uint32_t allocated = 0;
  for (std::size_t seq = 0; seq < segments_.size(); ++seq) {
    const Segment& seg = segments_[seq];
    if (seg.freed) continue;
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
            "page-table live count diverged from cached live_pages");
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
