#pragma once

/// \file simulator.h
/// Discrete-event simulation kernel.
///
/// Every model in the library (flash dies, FTL background jobs, network
/// hops, cluster cleaners, workload runners) advances by scheduling
/// callbacks on one shared `Simulator`.  Events with equal timestamps fire
/// in scheduling order (FIFO), which makes runs deterministic.
///
/// ## Hot-path design
///
/// The kernel keeps two structures, sized so the per-event work touches as
/// little memory as possible:
///
/// - a **chunked slab event pool**: callbacks live in recycled
///   cache-line-sized slots (`InlineCallback`, no heap fallback) inside
///   fixed-size chunks whose addresses never move, with each slot's 4-byte
///   free-list link kept in a separate array so recycling never drags
///   callback bytes through the cache.  Stable addresses let `schedule_at`
///   construct the capture directly in its slot and let the fire path
///   invoke it in place — zero relocations per event.
/// - a **4-ary min-heap of 16-byte keys** `(time, order)`, where `order`
///   packs a monotonically increasing schedule sequence above the slot
///   index.  Sift operations move POD keys, never callbacks, and the
///   sequence makes equal-time events pop in schedule order (FIFO).  A key
///   compare is one 128-bit compare and a pop picks each 4-child minimum
///   as a branch-free tournament, so sifts do not pay for mispredicted
///   compare branches.
///
/// A scheduled event always fires: there is no cancellation, so every heap
/// key is live and the queue is empty exactly when the heap is.
///
/// Steady-state cost per event: one heap push + one heap pop over 16-byte
/// keys, and ONE indirect call (`InlineCallback::invoke_and_dispose`).  No
/// heap allocations (asserted by `alloc_profile_test`).

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "sim/inline_callback.h"

namespace uc::sim {

namespace detail {

/// Minimal aligned allocator so the heap's key array starts on a cache
/// line: combined with the padded 4-ary layout below, every sift level
/// then reads exactly one 64-byte line of keys.
template <typename T, std::size_t Align>
struct AlignedAllocator {
  using value_type = T;
  // Spelled out because the non-type `Align` parameter defeats the
  // allocator_traits auto-rebind.
  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };
  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Align>&) {}  // NOLINT
  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(Align)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    ::operator delete(p, n * sizeof(T), std::align_val_t(Align));
  }
  bool operator==(const AlignedAllocator&) const { return true; }
};

}  // namespace detail

class Simulator {
 public:
  using Callback = InlineCallback;

  Simulator() { heap_.resize(kHeapRoot); }  // padding below the root
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  /// Schedules `f` at absolute time `t` (>= now).  The capture is built
  /// directly inside the event slab (`InlineCallback` rules apply: bounded
  /// size, no heap fallback).
  template <typename F>
  void schedule_at(SimTime t, F&& f) {
    UC_ASSERT(t >= now_, "cannot schedule events in the past");
    if (next_seq_ > kMaxSeq) renormalize_order();
    const std::uint32_t s = alloc_slot();
    heap_push(Key{t, (next_seq_++ << kSlotBits) | s});
    cb_ref(s).emplace(std::forward<F>(f));
  }

  /// Schedules after `delay` nanoseconds.
  template <typename F>
  void schedule_after(SimTime delay, F&& f) {
    schedule_at(now_ + delay, std::forward<F>(f));
  }

  /// Runs until the event queue is empty.
  void run();

  /// Runs all events with time <= `t`, then advances the clock to `t`.
  void run_until(SimTime t);

  /// Runs until the queue is empty or `keep_going()` returns false (checked
  /// before each event).  Tests use it to stop after a given number of
  /// events or completions.
  void run_while(const std::function<bool()>& keep_going);

  /// True when no scheduled event is still waiting to fire.
  bool idle() const { return heap_empty(); }
  std::uint64_t events_processed() const { return events_processed_; }

  /// Timestamp of the earliest pending event, or `kNoTime` when the queue
  /// is empty — the peek primitive of lockstep co-simulation, where a
  /// driver advances a *group* of simulators in global time order
  /// (`placement::ShardedHost` fused shards).
  SimTime next_event_time() const {
    return heap_empty() ? kNoTime : heap_[kHeapRoot].time;
  }

  /// Advances the clock to `t` without firing anything; every pending event
  /// must already sit at `t` or later.  The lockstep driver calls this on
  /// each group member *before* firing the events at `t`, so a callback
  /// that reaches into a sibling simulator (cross-cluster migration
  /// traffic) finds its clock — and therefore every latency it computes —
  /// already aligned.
  void advance_to(SimTime t);

  /// Test hook: forces the schedule sequence close to its packing limit so
  /// the renormalization path (reached after ~1.1e12 schedules in
  /// production) can be exercised.  Not for use outside tests.
  void set_next_sequence_for_testing(std::uint64_t seq) { next_seq_ = seq; }

  /// Test hook: slots the event slab holds (free or busy).  It grows one
  /// 256-slot chunk at a time, so a stable size proves slots are recycled.
  std::size_t slab_slots_for_testing() const { return next_free_.size(); }

 private:
  // `order` layout: [ sequence : 40 bits | slot : 24 bits ].  The sequence
  // occupies the high bits, so comparing `order` compares schedule order;
  // the slot rides along for the O(1) slab lookup on pop.
  static constexpr std::uint32_t kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;
  static constexpr std::uint64_t kMaxSeq = (1ull << (64 - kSlotBits)) - 1;
  static constexpr std::uint32_t kNilSlot = 0x00ffffffu;  // > any slot index
  // 256 slots (16 KiB of callbacks + 1 KiB of free-list links) per chunk:
  // small enough that a mostly-idle model stays cache-resident, large
  // enough to amortize the chunk allocation.
  static constexpr std::uint32_t kChunkShift = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
  static constexpr std::uint32_t kChunkMask = kChunkSize - 1;

  /// One cache line per callback: the fire path touches exactly one line of
  /// slab payload per event.
  struct alignas(64) CbSlot {
    Callback cb;
  };
  static_assert(sizeof(CbSlot) == 64, "event slot must be one cache line");

  /// 16-byte POD heap key; sift operations move these, never callbacks.
  struct Key {
    SimTime time;
    std::uint64_t order;
  };
  /// One 128-bit compare of `time:order` (FIFO among equal-time events):
  /// no data-dependent branch, unlike a two-field compare.
  static bool key_less(const Key& a, const Key& b) {
    __extension__ using U128 = unsigned __int128;
    return ((U128{a.time} << 64) | a.order) < ((U128{b.time} << 64) | b.order);
  }

  Callback& cb_ref(std::uint32_t s) {
    return chunks_[s >> kChunkShift][s & kChunkMask].cb;
  }

  std::uint32_t alloc_slot() {
    if (free_head_ == kNilSlot) grow_slab();
    const std::uint32_t s = free_head_;
    free_head_ = next_free_[s];
    return s;
  }

  void grow_slab();

  // 4-ary heap over `heap_` in a cache-aligned padded layout: the root
  // lives at index kHeapRoot (= 3), so every 4-child group starts at an
  // index divisible by 4 — exactly one 64-byte line of keys per sift level
  // (children of p sit at 4p-8..4p-5; parent of c is (c+8)>>2).  Indices
  // 0..2 are permanent padding, never read.  Push is inline (it runs
  // inside every schedule); pop lives with the fire loop.
  static constexpr std::size_t kHeapRoot = 3;
  bool heap_empty() const { return heap_.size() == kHeapRoot; }
  void heap_push(Key k) {
    std::size_t i = heap_.size();
    heap_.push_back(k);
    while (i > kHeapRoot) {
      const std::size_t parent = (i + 8) >> 2;
      if (!key_less(k, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = k;
  }
  void heap_pop_min();

  /// Pops heap entries and fires every event with time <= `bound` **in
  /// place** (chunk addresses are stable, so the callback runs from its
  /// slab slot — one indirect call).  The slot rejoins the free list only
  /// after the callback returns, so nested schedules cannot build a new
  /// event on top of the executing one.  With `SingleStep` the call returns
  /// true after the first fire (the `run_while` step granularity);
  /// otherwise it drains to the bound in one call.  Shared by `run()`,
  /// `run_until()`, and `run_while()`.
  template <bool SingleStep>
  bool fire_events(SimTime bound);

  /// Reassigns pending schedule sequences compactly (preserving order) when
  /// the 40-bit sequence space is exhausted.  O(n log n), amortized over
  /// ~10^12 schedules: effectively free, but keeps the packing safe.
  void renormalize_order();

  std::vector<Key, detail::AlignedAllocator<Key, 64>> heap_;
  /// Chunked callback slab: addresses never move, so callbacks are built
  /// and fired in place.  Indexed via `cb_ref`.
  std::vector<std::unique_ptr<CbSlot[]>> chunks_;
  /// Free-list link of each slab slot, kept apart from the callback bytes
  /// so recycling never pulls a 64-byte callback line into cache.  Only a
  /// free slot's entry is meaningful.
  std::vector<std::uint32_t> next_free_;
  std::uint32_t free_head_ = kNilSlot;
  std::uint64_t next_seq_ = 1;
  SimTime now_ = 0;
  std::uint64_t events_processed_ = 0;
};

}  // namespace uc::sim
