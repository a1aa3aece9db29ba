#pragma once

/// \file write_buffer.h
/// DRAM write buffer: writes acknowledge as soon as their slots are
/// buffered, and a background flusher packs dirty slots into full die rows.
///
/// This is the mechanism behind the local SSD's ~10 µs write latency in the
/// paper's Figure 2 ("modern SSDs typically employ a DRAM-based write buffer
/// to improve write performance", §III-B) — and, under sustained load, the
/// backpressure point where flash program/GC speed becomes user-visible.
///
/// Buffered pages live in a flat open-addressing table keyed by LPN, so
/// buffering a page allocates no node: linear probing at load <= 1/2,
/// multiplicative hashing, and backward-shift deletion (no tombstones), as
/// in `LruReadyCache`'s index.  The table starts at 16 entries and doubles
/// on demand; every entry holds at least one occupied copy, so it stops at
/// the first power of two >= 2 * capacity.  Nothing observable depends on
/// the table's layout: flush order comes from the dirty FIFO alone.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/ring_queue.h"
#include "common/status.h"
#include "common/types.h"

namespace uc::ftl {

/// One slot handed to the flusher.
struct FlushItem {
  Lpn lpn = 0;
  WriteStamp stamp = 0;
};

class WriteBuffer {
 public:
  explicit WriteBuffer(std::uint32_t capacity_slots);

  /// Buffers one logical page write.  Returns false if the buffer is full
  /// (the caller queues the request and retries on `space freed`).
  bool try_insert(Lpn lpn, WriteStamp stamp);

  /// True if the buffer can absorb `slots` more insertions right now.
  bool has_space(std::uint32_t slots) const {
    return occupied_ + slots <= capacity_;
  }

  /// Pops up to `max_slots` dirty slots (FIFO by first-dirty time) into
  /// `out`, marking them in-flight.  Returns the number taken.
  std::uint32_t take_flush_batch(std::uint32_t max_slots,
                                 std::vector<FlushItem>& out);

  /// Completion of a programmed batch: releases the in-flight copies.
  void batch_programmed(const std::vector<FlushItem>& batch);

  /// Read-path lookup: newest buffered stamp for `lpn`, if any copy (dirty
  /// or in-flight) is still in DRAM.
  std::optional<WriteStamp> read_lookup(Lpn lpn) const;

  /// Trim support: drops the dirty copy (if any) and hides in-flight copies
  /// from the read path.  A later write to the same LPN revives the entry.
  void discard(Lpn lpn);

  std::uint32_t dirty_slots() const { return dirty_; }
  std::uint32_t occupied_slots() const { return occupied_; }
  std::uint32_t capacity_slots() const { return capacity_; }
  bool empty() const { return occupied_ == 0; }

 private:
  /// LPN that marks an empty bucket.  Buckets store 32-bit LPNs (the FTL's
  /// slot metadata does too), so an entry packs into 16 bytes.
  static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};

  struct Entry {
    WriteStamp latest_stamp = 0;
    std::uint32_t lpn = kEmpty;
    /// Copies being programmed; each row program carries an LPN at most
    /// once, so this never exceeds the flusher's programs in flight.
    std::uint16_t inflight = 0;
    bool dirty = false;
    bool discarded = false;  ///< trimmed while a copy was in flight
  };

  std::size_t home(Lpn lpn) const {
    return static_cast<std::size_t>((lpn * 0x9E3779B97F4A7C15ull) >> shift_);
  }
  /// Bucket holding `lpn`, or nullptr.
  Entry* find(Lpn lpn);
  const Entry* find(Lpn lpn) const;
  /// Adds an entry for absent `lpn` (growing the table first if needed).
  Entry& add(Lpn lpn);
  /// Empties the bucket of `e`, shifting the rest of its probe run back.
  void erase(Entry& e);
  void grow();

  std::uint32_t capacity_;
  std::uint32_t occupied_ = 0;  ///< dirty copies + in-flight copies
  std::uint32_t dirty_ = 0;
  std::uint32_t entries_ = 0;   ///< non-empty buckets
  std::vector<Entry> table_;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
  RingQueue<Lpn> dirty_fifo_;
};

}  // namespace uc::ftl
