#pragma once

/// \file lru_cache.h
/// Generic LRU "ready cache": a bounded map from keys to the simulated time
/// their data becomes available in DRAM.  Inserting at issue time with a
/// future ready time lets demand accesses that race an in-flight fill wait
/// for the transfer instead of re-fetching from media.  Used by the EBS
/// storage-node page caches and, as `ftl::ReadCache`, by the SSD's
/// prefetch read cache.
///
/// Layout: a flat slab of entries plus an open-addressing index, so the
/// hot path never allocates a node.
///  - Entries live in one vector; the LRU list is intrusive, threaded
///    through 32-bit slot indices.  `invalidate` pushes its slot onto a
///    free list; evicting the tail at capacity reuses that slot in place.
///  - The index is a power-of-two vector of slot ids with linear probing
///    at load <= 1/2.  Keys hash multiplicatively on all 64 bits (top bits
///    of `key * 2^64/phi`), so `(chunk << 32) | page` keys that differ only
///    in the chunk still spread.  Deletion shifts the probe run back
///    instead of leaving tombstones, so invalidate-heavy write traffic
///    never silts the table up.
///  - Both arrays start empty and double on demand: the slab never holds
///    more than `capacity` entries, and the index stops at the first power
///    of two >= 2 * capacity (16 buckets at least).  A fleet of mostly
///    cold caches costs little.
///
/// The index only maps keys to slots; recency order lives in the list, so
/// every observable result (ready times, evictions, `size()`) depends on
/// the operation sequence alone, never on the table's size or hash layout.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace uc {

template <typename Key>
class LruReadyCache {
  static_assert(std::is_integral_v<Key> && sizeof(Key) <= 8,
                "LruReadyCache hashes integral keys of up to 64 bits");

 public:
  explicit LruReadyCache(std::uint32_t capacity) : capacity_(capacity) {
    UC_ASSERT(capacity > 0, "cache needs capacity");
  }

  /// Inserts/updates `key`, ready at `ready` (keeps the earlier ready time
  /// if the key is already present).  Returns the key evicted to make room,
  /// if any.
  std::optional<Key> insert(const Key& key, SimTime ready) {
    if (const std::uint32_t slot = find(key); slot != kNil) {
      Entry& e = entries_[slot];
      if (ready < e.ready) e.ready = ready;
      touch(slot);
      return std::nullopt;
    }
    return insert_absent(key, ready);
  }

  /// `insert` of a key the caller knows is absent, without looking it up.
  std::optional<Key> insert_absent(const Key& key, SimTime ready) {
    UC_DCHECK(find(key) == kNil, "insert_absent of a cached key");
    std::optional<Key> evicted;
    std::uint32_t slot;
    if (size_ >= capacity_) {
      slot = tail_;  // evict the LRU entry and reuse its slot in place
      evicted = entries_[slot].key;
      erase_index(*evicted);
      unlink(slot);
    } else {
      slot = allocate_slot();
      ++size_;
      if (std::uint64_t{size_} * 2 > index_.size()) grow_index();
    }
    Entry& e = entries_[slot];
    e.key = key;
    e.ready = ready;
    push_front(slot);
    index_slot(slot);
    return evicted;
  }

  /// Ready time if cached (refreshes recency).
  std::optional<SimTime> lookup(const Key& key) {
    const std::uint32_t slot = find(key);
    if (slot == kNil) return std::nullopt;
    touch(slot);
    return entries_[slot].ready;
  }

  /// Presence check without recency update.
  bool contains(const Key& key) const { return find(key) != kNil; }

  /// Drops a stale entry (on overwrite/trim).
  void invalidate(const Key& key) {
    const std::uint32_t slot = erase_index(key);
    if (slot == kNil) return;
    unlink(slot);
    entries_[slot].next = free_;
    free_ = slot;
    --size_;
  }

  std::uint32_t size() const { return size_; }
  std::uint32_t capacity() const { return capacity_; }

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};
  static constexpr std::size_t kMinIndex = 16;

  struct Entry {
    Key key;
    SimTime ready;
    std::uint32_t prev;  // toward the MRU end
    std::uint32_t next;  // toward the LRU end; free-list link when free
  };

  std::size_t home(Key key) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  /// Slot holding `key`, or kNil.
  std::uint32_t find(Key key) const {
    if (size_ == 0) return kNil;
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      const std::uint32_t slot = index_[i];
      if (slot == kNil) return kNil;
      if (entries_[slot].key == key) return slot;
    }
  }

  /// Removes `key` from the index by backward shift; returns its slot (or
  /// kNil if absent).  Leaves the LRU list alone.
  std::uint32_t erase_index(Key key) {
    if (size_ == 0) return kNil;
    std::size_t hole = home(key);
    for (;; hole = (hole + 1) & mask_) {
      if (index_[hole] == kNil) return kNil;
      if (entries_[index_[hole]].key == key) break;
    }
    const std::uint32_t slot = index_[hole];
    // Walk the rest of the probe run; an entry moves into the hole unless
    // its home lies cyclically inside (hole, j], where it must stay.
    for (std::size_t j = (hole + 1) & mask_; index_[j] != kNil;
         j = (j + 1) & mask_) {
      const std::size_t h = home(entries_[index_[j]].key);
      if (((j - h) & mask_) >= ((j - hole) & mask_)) {
        index_[hole] = index_[j];
        hole = j;
      }
    }
    index_[hole] = kNil;
    return slot;
  }

  std::uint32_t allocate_slot() {
    if (free_ != kNil) {
      const std::uint32_t slot = free_;
      free_ = entries_[slot].next;
      return slot;
    }
    if (entries_.size() == entries_.capacity()) {
      // Double like push_back would, but never past `capacity_` entries.
      const std::size_t want = std::max<std::size_t>(entries_.size() * 2, 8);
      entries_.reserve(std::min<std::size_t>(want, capacity_));
    }
    entries_.emplace_back();
    return static_cast<std::uint32_t>(entries_.size() - 1);
  }

  /// Doubles the index (load <= 1/2) and reinserts every live entry.
  void grow_index() {
    const std::size_t n = std::max(kMinIndex, index_.size() * 2);
    index_.assign(n, kNil);
    mask_ = n - 1;
    shift_ = 64;
    for (std::size_t s = n; s > 1; s >>= 1) --shift_;
    for (std::uint32_t slot = head_; slot != kNil;
         slot = entries_[slot].next) {
      index_slot(slot);
    }
  }

  /// Puts `slot` (whose key is absent from the index) in the first empty
  /// bucket of its key's probe run.
  void index_slot(std::uint32_t slot) {
    std::size_t i = home(entries_[slot].key);
    while (index_[i] != kNil) i = (i + 1) & mask_;
    index_[i] = slot;
  }

  void unlink(std::uint32_t slot) {
    const Entry& e = entries_[slot];
    if (e.prev != kNil) {
      entries_[e.prev].next = e.next;
    } else {
      head_ = e.next;
    }
    if (e.next != kNil) {
      entries_[e.next].prev = e.prev;
    } else {
      tail_ = e.prev;
    }
  }

  void push_front(std::uint32_t slot) {
    Entry& e = entries_[slot];
    e.prev = kNil;
    e.next = head_;
    if (head_ != kNil) {
      entries_[head_].prev = slot;
    } else {
      tail_ = slot;
    }
    head_ = slot;
  }

  void touch(std::uint32_t slot) {
    if (slot == head_) return;
    unlink(slot);
    push_front(slot);
  }

  std::uint32_t capacity_;
  std::uint32_t size_ = 0;
  std::uint32_t head_ = kNil;  // most recently used
  std::uint32_t tail_ = kNil;  // least recently used
  std::uint32_t free_ = kNil;  // recycled slots, linked through `next`
  std::vector<Entry> entries_;
  std::vector<std::uint32_t> index_;  // slot ids; kNil = empty bucket
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
};

}  // namespace uc
