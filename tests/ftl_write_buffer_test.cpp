// Tests for the DRAM write buffer: coalescing, FIFO flush batching,
// in-flight copy accounting, backpressure, and trim discard semantics.

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "ftl/write_buffer.h"

namespace uc::ftl {
namespace {

TEST(WriteBuffer, InsertAndReadLookup) {
  WriteBuffer wb(8);
  EXPECT_TRUE(wb.try_insert(10, 1));
  EXPECT_EQ(wb.dirty_slots(), 1u);
  EXPECT_EQ(wb.occupied_slots(), 1u);
  ASSERT_TRUE(wb.read_lookup(10).has_value());
  EXPECT_EQ(*wb.read_lookup(10), 1u);
  EXPECT_FALSE(wb.read_lookup(11).has_value());
}

TEST(WriteBuffer, OverwriteCoalescesInPlace) {
  WriteBuffer wb(8);
  ASSERT_TRUE(wb.try_insert(10, 1));
  ASSERT_TRUE(wb.try_insert(10, 2));
  EXPECT_EQ(wb.dirty_slots(), 1u);  // still one copy
  EXPECT_EQ(*wb.read_lookup(10), 2u);
}

TEST(WriteBuffer, FullBufferRejects) {
  WriteBuffer wb(2);
  ASSERT_TRUE(wb.try_insert(1, 1));
  ASSERT_TRUE(wb.try_insert(2, 2));
  EXPECT_FALSE(wb.try_insert(3, 3));
  // Overwriting a buffered page still works at capacity.
  EXPECT_TRUE(wb.try_insert(1, 4));
}

TEST(WriteBuffer, FlushBatchIsFifoAndMarksInflight) {
  WriteBuffer wb(8);
  for (Lpn l = 0; l < 4; ++l) ASSERT_TRUE(wb.try_insert(l, l + 1));
  std::vector<FlushItem> batch;
  EXPECT_EQ(wb.take_flush_batch(3, batch), 3u);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].lpn, 0u);
  EXPECT_EQ(batch[1].lpn, 1u);
  EXPECT_EQ(batch[2].lpn, 2u);
  EXPECT_EQ(wb.dirty_slots(), 1u);
  EXPECT_EQ(wb.occupied_slots(), 4u);  // in-flight copies still occupy
  // Reads still hit in-flight copies.
  EXPECT_TRUE(wb.read_lookup(0).has_value());

  wb.batch_programmed(batch);
  EXPECT_EQ(wb.occupied_slots(), 1u);
  EXPECT_FALSE(wb.read_lookup(0).has_value());
  EXPECT_TRUE(wb.read_lookup(3).has_value());
}

TEST(WriteBuffer, OverwriteWhileInflightKeepsNewest) {
  WriteBuffer wb(8);
  ASSERT_TRUE(wb.try_insert(5, 1));
  std::vector<FlushItem> batch;
  ASSERT_EQ(wb.take_flush_batch(1, batch), 1u);
  // New write arrives while the old copy is being programmed.
  ASSERT_TRUE(wb.try_insert(5, 2));
  EXPECT_EQ(*wb.read_lookup(5), 2u);
  EXPECT_EQ(wb.occupied_slots(), 2u);  // in-flight + dirty
  wb.batch_programmed(batch);
  EXPECT_EQ(wb.occupied_slots(), 1u);
  EXPECT_EQ(*wb.read_lookup(5), 2u);  // newest copy survives
  // The newest copy flushes with its own stamp.
  batch.clear();
  ASSERT_EQ(wb.take_flush_batch(1, batch), 1u);
  EXPECT_EQ(batch[0].stamp, 2u);
}

TEST(WriteBuffer, DiscardDropsDirtyCopy) {
  WriteBuffer wb(8);
  ASSERT_TRUE(wb.try_insert(7, 1));
  wb.discard(7);
  EXPECT_FALSE(wb.read_lookup(7).has_value());
  EXPECT_EQ(wb.occupied_slots(), 0u);
  EXPECT_EQ(wb.dirty_slots(), 0u);
  // The stale FIFO entry must not break later flushes.
  std::vector<FlushItem> batch;
  EXPECT_EQ(wb.take_flush_batch(4, batch), 0u);
}

TEST(WriteBuffer, DiscardHidesInflightCopyFromReads) {
  WriteBuffer wb(8);
  ASSERT_TRUE(wb.try_insert(7, 1));
  std::vector<FlushItem> batch;
  ASSERT_EQ(wb.take_flush_batch(1, batch), 1u);
  wb.discard(7);
  EXPECT_FALSE(wb.read_lookup(7).has_value());
  // A rewrite revives the entry.
  ASSERT_TRUE(wb.try_insert(7, 3));
  EXPECT_EQ(*wb.read_lookup(7), 3u);
  wb.batch_programmed(batch);
  EXPECT_EQ(*wb.read_lookup(7), 3u);
}

TEST(WriteBuffer, HasSpaceAccounting) {
  WriteBuffer wb(4);
  EXPECT_TRUE(wb.has_space(4));
  for (Lpn l = 0; l < 3; ++l) ASSERT_TRUE(wb.try_insert(l, l + 1));
  EXPECT_TRUE(wb.has_space(1));
  EXPECT_FALSE(wb.has_space(2));
}

// A node-per-page reference with the same semantics (an ordered map and a
// FIFO deque), for checking the flat table's probing, backward-shift
// deletion and growth op for op.
class ReferenceBuffer {
 public:
  explicit ReferenceBuffer(std::uint32_t capacity) : capacity_(capacity) {}

  bool try_insert(Lpn lpn, WriteStamp stamp) {
    auto it = entries_.find(lpn);
    if (it != entries_.end()) {
      Entry& e = it->second;
      e.stamp = stamp;
      e.discarded = false;
      if (e.dirty) return true;
      if (occupied_ >= capacity_) return false;
      e.dirty = true;
      ++occupied_;
      fifo_.push_back(lpn);
      return true;
    }
    if (occupied_ >= capacity_) return false;
    entries_[lpn] = Entry{stamp, true, false, 0};
    ++occupied_;
    fifo_.push_back(lpn);
    return true;
  }

  void take_flush_batch(std::uint32_t max_slots, std::vector<FlushItem>& out) {
    std::uint32_t taken = 0;
    while (taken < max_slots && !fifo_.empty()) {
      const Lpn lpn = fifo_.front();
      fifo_.pop_front();
      auto it = entries_.find(lpn);
      if (it == entries_.end() || !it->second.dirty) continue;
      it->second.dirty = false;
      ++it->second.inflight;
      out.push_back(FlushItem{lpn, it->second.stamp});
      ++taken;
    }
  }

  void batch_programmed(const std::vector<FlushItem>& batch) {
    for (const FlushItem& item : batch) {
      Entry& e = entries_.at(item.lpn);
      --e.inflight;
      --occupied_;
      if (e.inflight == 0 && !e.dirty) entries_.erase(item.lpn);
    }
  }

  std::optional<WriteStamp> read_lookup(Lpn lpn) const {
    auto it = entries_.find(lpn);
    if (it == entries_.end()) return std::nullopt;
    if (it->second.discarded && !it->second.dirty) return std::nullopt;
    return it->second.stamp;
  }

  void discard(Lpn lpn) {
    auto it = entries_.find(lpn);
    if (it == entries_.end()) return;
    if (it->second.dirty) {
      it->second.dirty = false;
      --occupied_;
    }
    if (it->second.inflight == 0) {
      entries_.erase(it);
    } else {
      it->second.discarded = true;
    }
  }

  std::uint32_t occupied() const { return occupied_; }

 private:
  struct Entry {
    WriteStamp stamp;
    bool dirty;
    bool discarded;
    std::uint32_t inflight;
  };
  std::uint32_t capacity_;
  std::uint32_t occupied_ = 0;
  std::map<Lpn, Entry> entries_;
  std::deque<Lpn> fifo_;
};

// 200k random inserts, flush batches, programs (out of order), trims and
// lookups over 512 LPNs on a 96-slot buffer: every result must match the
// reference, and every LPN's lookup must agree after each step.
TEST(WriteBuffer, MatchesNodePerPageReferenceUnderChurn) {
  constexpr std::uint32_t kCapacity = 96;
  constexpr Lpn kLpns = 512;
  WriteBuffer wb(kCapacity);
  ReferenceBuffer ref(kCapacity);
  Rng rng(31);
  WriteStamp stamp = 0;
  std::vector<std::vector<FlushItem>> inflight;
  for (int step = 0; step < 200000; ++step) {
    const double dice = rng.uniform();
    if (dice < 0.5) {
      // Skewed LPNs, so overwrites coalesce and probe runs form.
      const Lpn lpn = rng.uniform() < 0.5 ? rng.uniform_u64(32)
                                           : rng.uniform_u64(kLpns);
      ++stamp;
      ASSERT_EQ(wb.try_insert(lpn, stamp), ref.try_insert(lpn, stamp))
          << step;
    } else if (dice < 0.7) {
      const auto n = static_cast<std::uint32_t>(rng.uniform_u64(16) + 1);
      std::vector<FlushItem> got;
      std::vector<FlushItem> want;
      wb.take_flush_batch(n, got);
      ref.take_flush_batch(n, want);
      ASSERT_EQ(got.size(), want.size()) << step;
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].lpn, want[i].lpn) << step;
        ASSERT_EQ(got[i].stamp, want[i].stamp) << step;
      }
      if (!got.empty()) inflight.push_back(std::move(got));
    } else if (dice < 0.9) {
      if (inflight.empty()) continue;
      const auto i = static_cast<std::size_t>(rng.uniform_u64(inflight.size()));
      wb.batch_programmed(inflight[i]);
      ref.batch_programmed(inflight[i]);
      inflight.erase(inflight.begin() + static_cast<long>(i));
    } else {
      const Lpn lpn = rng.uniform_u64(kLpns);
      wb.discard(lpn);
      ref.discard(lpn);
    }
    ASSERT_EQ(wb.occupied_slots(), ref.occupied()) << step;
    if (step % 64 == 0) {
      for (Lpn lpn = 0; lpn < kLpns; ++lpn) {
        ASSERT_EQ(wb.read_lookup(lpn), ref.read_lookup(lpn))
            << "step " << step << " lpn " << lpn;
      }
    }
  }
}

}  // namespace
}  // namespace uc::ftl
