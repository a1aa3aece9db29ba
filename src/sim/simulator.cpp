#include "sim/simulator.h"

#include <algorithm>
#include <functional>
#include <utility>

namespace uc::sim {

void Simulator::grow_slab() {
  // `<= kSlotMask` (not `<`): slot index kSlotMask == kNilSlot is reserved
  // as the free-list sentinel and must never become a real slot.
  const auto base = static_cast<std::uint32_t>(next_free_.size());
  UC_ASSERT(base + kChunkSize <= kSlotMask,
            "event slab full (2^24 pending events)");
  chunks_.push_back(std::make_unique<CbSlot[]>(kChunkSize));
  next_free_.resize(base + kChunkSize);
  // Thread the fresh chunk onto the free list so slots hand out in
  // ascending index order (top of the list = lowest index).
  for (std::uint32_t i = kChunkSize; i-- > 0;) {
    next_free_[base + i] = free_head_;
    free_head_ = base + i;
  }
}

void Simulator::heap_pop_min() {
  const Key last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == kHeapRoot) return;
  // Bottom-up sift (Wegener): walk the min-child path all the way to a
  // leaf moving holes — no compare against `last` per level — then bubble
  // `last` back up.  `last` came off the bottom of the heap, and in the
  // steady state (every fire schedules a successor) it is among the newest
  // keys, so the bubble-up almost never moves: the down-path compares are
  // all the pop costs.
  std::size_t i = kHeapRoot;
  for (;;) {
    const std::size_t first = 4 * i - 8;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t end = std::min(first + 4, n);
    for (std::size_t c = first + 1; c < end; ++c) {
      if (key_less(heap_[c], heap_[best])) best = c;
    }
    heap_[i] = heap_[best];
    i = best;
  }
  while (i > kHeapRoot) {
    const std::size_t parent = (i + 8) >> 2;
    if (!key_less(last, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = last;
}

void Simulator::renormalize_order() {
  // A sorted array satisfies the d-ary heap property (in the padded layout
  // too: physical parent index < child index), so sorting both compacts
  // the sequences and rebuilds the heap in one pass.
  std::sort(heap_.begin() + kHeapRoot, heap_.end(),
            [](const Key& a, const Key& b) { return key_less(a, b); });
  std::uint64_t seq = 1;
  for (std::size_t i = kHeapRoot; i < heap_.size(); ++i) {
    Key& k = heap_[i];
    k.order = (seq++ << kSlotBits) | (k.order & kSlotMask);
  }
  next_seq_ = seq;
}

template <bool SingleStep>
bool Simulator::fire_events(SimTime bound) {
  while (!heap_empty()) {
    const Key top = heap_[kHeapRoot];
    if (top.time > bound) return false;
    const auto s = static_cast<std::uint32_t>(top.order & kSlotMask);
    Callback& cb = cb_ref(s);
#if defined(__GNUC__)
    __builtin_prefetch(&cb);  // overlap the slab line with the sift-down
#endif
    heap_pop_min();
    now_ = top.time;
    ++events_processed_;
    // Keep the slot off the free list until the callback returns, so a
    // nested schedule cannot construct a new event over the executing
    // capture.
    struct Relink {  // scope guard: the slot must rejoin the free list even
      Simulator* sim;  // if the callback throws, or it would leak forever
      std::uint32_t slot;
      ~Relink() {
        // Re-index through sim->next_free_: the callback may have grown it.
        sim->next_free_[slot] = sim->free_head_;
        sim->free_head_ = slot;
      }
    } relink{this, s};
    cb.invoke_and_dispose();  // in place: chunk addresses are stable
    if constexpr (SingleStep) return true;
  }
  return false;
}

void Simulator::advance_to(SimTime t) {
  UC_ASSERT(next_event_time() >= t,
            "advance_to would skip a pending event");
  if (now_ < t) now_ = t;
}

void Simulator::run() { fire_events<false>(kNoTime); }

void Simulator::run_until(SimTime t) {
  fire_events<false>(t);
  if (now_ < t) now_ = t;
}

void Simulator::run_while(const std::function<bool()>& keep_going) {
  while (keep_going() && fire_events<true>(kNoTime)) {
  }
}

}  // namespace uc::sim
