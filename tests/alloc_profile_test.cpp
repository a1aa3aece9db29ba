// Allocation profile of the event-kernel hot path.
//
// Configure with -DUC_PROFILE_ALLOC=ON to compile a counting global
// `operator new` into this binary; the tests then assert that steady-state
// scheduling — slab slot recycling, 4-ary heap churn, InlineCallback
// dispatch, and the FIFO reserve fast path — performs ZERO heap allocations
// per event, that a full node page cache recycles its slab slots, and that
// per-tenant result state (latency histograms, `JobStats`) allocates nothing
// until it records outside its span.  Without the option the tests skip (the
// rest of the suite does not want a global allocator override), and the
// option refuses to combine with UC_SANITIZE because sanitizers interpose the
// allocator themselves.
//
// The measured region is single-threaded and diffs the counter across a
// bounded run, so gtest's own bookkeeping between tests does not pollute it.

#include <gtest/gtest.h>

#include <cstdint>

#include "common/histogram.h"
#include "common/lru_cache.h"
#include "common/rng.h"
#include "sched/queued_resource.h"
#include "sim/simulator.h"
#include "workload/runner.h"

#if defined(UC_PROFILE_ALLOC)

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded ? rounded : a)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#endif  // UC_PROFILE_ALLOC

namespace uc::sim {
namespace {

#if defined(UC_PROFILE_ALLOC)
std::uint64_t allocations() {
  return g_alloc_count.load(std::memory_order_relaxed);
}
#define UC_REQUIRE_ALLOC_PROFILING() static_cast<void>(0)
#else
#define UC_REQUIRE_ALLOC_PROFILING() \
  GTEST_SKIP() << "configure with -DUC_PROFILE_ALLOC=ON to enable"
#endif

#if defined(UC_PROFILE_ALLOC)

// A ring of self-rescheduling events: the steady-state shape of every
// device timer and dispatch pump in the model.  Each callback captures one
// pointer, far under the inline capacity.
struct Ring {
  Simulator& sim;
  std::uint64_t armed = 0;
  std::uint64_t acc = 0;
  // The capture carries a 32-byte completion context (owner, tag, issue
  // time, size) — the shape real model continuations have, and larger than
  // std::function's small-buffer budget.  Staying allocation-free at THIS
  // capture size is the claim that matters.
  void arm() {
    const std::uint64_t tag = armed++;
    const SimTime issued = sim.now();
    const std::uint64_t bytes = 4096 + (tag & 63) * 512;
    sim.schedule_at(sim.now() + 3, [this, tag, issued, bytes] {
      acc += tag + bytes + static_cast<std::uint64_t>(sim.now() - issued);
      arm();
    });
  }
};

void run_events(Simulator& sim, std::uint64_t n) {
  const std::uint64_t target = sim.events_processed() + n;
  sim.run_while([&] { return sim.events_processed() < target; });
}

#endif  // UC_PROFILE_ALLOC

TEST(AllocProfile, SteadyStateSchedulingIsAllocationFree) {
  UC_REQUIRE_ALLOC_PROFILING();
#if defined(UC_PROFILE_ALLOC)
  Simulator sim;
  Ring ring{sim};
  for (int i = 0; i < 64; ++i) ring.arm();
  // Warm-up grows the slab and the heap array to their steady capacity.
  run_events(sim, 4096);
  const std::uint64_t before = allocations();
  run_events(sim, 100000);
  EXPECT_EQ(allocations() - before, 0u)
      << "steady-state schedule/fire must not touch the heap";
#endif
}

TEST(AllocProfile, CancelChurnIsAllocationFree) {
  UC_REQUIRE_ALLOC_PROFILING();
#if defined(UC_PROFILE_ALLOC)
  Simulator sim;
  // Warm up with the same pending depth the measured loop uses.
  for (int round = 0; round < 2; ++round) {
    const bool measured = round == 1;
    const std::uint64_t before = allocations();
    for (int i = 0; i < 1024; ++i) {
      const EventId id = sim.schedule_at(sim.now() + 5 + i % 7, [] {});
      if (i % 4 != 0) sim.cancel(id);  // O(1) flag + slot recycle
    }
    sim.run();
    if (measured) {
      EXPECT_EQ(allocations() - before, 0u)
          << "cancel must be flag-only: no hash set, no node churn";
    }
  }
#endif
}

TEST(AllocProfile, FifoReserveFastPathIsAllocationFree) {
  UC_REQUIRE_ALLOC_PROFILING();
#if defined(UC_PROFILE_ALLOC)
  sched::QueuedResource res(4);
  sched::SchedTag tag;
  tag.tenant = 2;
  tag.bytes = 4096;
  SimTime now = 0;
  now = res.acquire(now, 10, tag);  // warm-up: grows tenant accounting once
  const std::uint64_t before = allocations();
  for (int i = 0; i < 100000; ++i) {
    now = res.acquire(now, 10, tag);
  }
  EXPECT_EQ(allocations() - before, 0u)
      << "the FIFO reserve path (inline server horizons) must not allocate";
#endif
}

TEST(AllocProfile, NodeCacheChurnIsAllocationFree) {
  UC_REQUIRE_ALLOC_PROFILING();
#if defined(UC_PROFILE_ALLOC)
  // A default-sized node cache keyed like the cluster's
  // `(chunk << 32) | page`; filling it grows the slab and index once.
  constexpr std::uint32_t kPages = 16384;
  LruReadyCache<std::uint64_t> cache(kPages);
  auto key = [](std::uint64_t chunk, std::uint64_t page) {
    return (chunk << 32) | page;
  };
  for (std::uint32_t p = 0; p < kPages; ++p) {
    cache.insert(key(p / 256, p % 256), p);
  }
  ASSERT_EQ(cache.size(), kPages);
  Rng rng(5);
  std::uint64_t hits = 0;
  const std::uint64_t before = allocations();
  for (int i = 0; i < 100000; ++i) {
    // Chunks 0..95: two thirds already resident, the rest evict on insert.
    const std::uint64_t k = key(rng.uniform_u64(96), rng.uniform_u64(256));
    const double dice = rng.uniform();
    if (dice < 0.4) {
      hits += cache.lookup(k).has_value() ? 1 : 0;
    } else if (dice < 0.8) {
      cache.insert(k, static_cast<SimTime>(i));
    } else {
      cache.invalidate(k);  // frees a slot the next insert recycles
    }
  }
  EXPECT_EQ(allocations() - before, 0u)
      << "insert/lookup/invalidate/evict must recycle slab slots in place";
  EXPECT_GT(hits, 0u);
  EXPECT_LE(cache.size(), kPages);
#endif
}

TEST(AllocProfile, EmptyResultStateIsAllocationFree) {
  UC_REQUIRE_ALLOC_PROFILING();
#if defined(UC_PROFILE_ALLOC)
  const std::uint64_t before = allocations();
  {
    LatencyHistogram h;
    wl::JobStats stats;
    EXPECT_TRUE(h.empty());
    EXPECT_EQ(stats.all_latency.percentile(99), 0u);
  }
  EXPECT_EQ(allocations() - before, 0u)
      << "a default-constructed histogram or JobStats must not allocate";
#endif
}

TEST(AllocProfile, HistogramRecordInsideSpanIsAllocationFree) {
  UC_REQUIRE_ALLOC_PROFILING();
#if defined(UC_PROFILE_ALLOC)
  // Two samples cover the span of a tenant's latencies (100 us to 50 ms).
  LatencyHistogram h;
  h.record(100'000);
  h.record(50'000'000);
  Rng rng(9);
  const std::uint64_t before = allocations();
  for (int i = 0; i < 100000; ++i) {
    h.record(rng.uniform_range(100'000, 50'000'000));
  }
  EXPECT_EQ(allocations() - before, 0u)
      << "recording inside the stored span must not grow it";
  EXPECT_EQ(h.count(), 100002u);
#endif
}

}  // namespace
}  // namespace uc::sim
