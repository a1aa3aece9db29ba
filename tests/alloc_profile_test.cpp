// Allocation profile of the event-kernel hot path.
//
// Configure with -DUC_PROFILE_ALLOC=ON to compile a counting global
// `operator new` into this binary; the tests then assert that steady-state
// scheduling — slab slot recycling, 4-ary heap churn, InlineCallback
// dispatch, and the FIFO reserve path — performs ZERO heap allocations
// per event, that a full node page cache recycles its slab slots, that
// per-tenant result state (latency histograms, `JobStats`) allocates nothing
// until it records outside its span, and that a steady-state ESSD I/O runs
// its whole service chain (QoS gate, frontend, fabric, node pipelines)
// without allocating, that a steady-state local-SSD I/O (reads, writes, writes
// while GC relocates, read-ahead reads) runs host interface, FTL, write
// buffer, GC and NAND without allocating, that the trace generator
// allocates its event vector once, and that the local SSD's FTL tables stay
// compact (a byte count of its construction).
// Without the option the tests skip (the
// rest of the suite does not want a global allocator override), and the
// option refuses to combine with UC_SANITIZE because sanitizers interpose the
// allocator themselves.
//
// The measured region is single-threaded and diffs the counter across a
// bounded run, so gtest's own bookkeeping between tests does not pollute it.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/histogram.h"
#include "common/lru_cache.h"
#include "common/rng.h"
#include "common/units.h"
#include "essd/essd_device.h"
#include "sched/queued_resource.h"
#include "sim/simulator.h"
#include "ssd/ssd_config.h"
#include "ssd/ssd_device.h"
#include "workload/runner.h"
#include "workload/trace.h"

#if defined(UC_PROFILE_ALLOC)

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
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
std::uint64_t allocated_bytes() {
  return g_alloc_bytes.load(std::memory_order_relaxed);
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

TEST(AllocProfile, FifoReservePathIsAllocationFree) {
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

#if defined(UC_PROFILE_ALLOC)

// A closed loop of 4 KiB I/O over a small region, random unless
// `sequential`: every completion resubmits at once, so the queue depth stays
// fixed.  The completion captures one pointer, which `std::function` stores
// inline.
struct ClosedLoop {
  Simulator& sim;
  BlockDevice& dev;
  IoOp op;
  std::uint64_t region_pages;
  bool sequential = false;
  Rng rng{17};
  IoId next_id = 0;
  std::uint64_t completed = 0;

  void submit() {
    IoRequest req;
    req.id = next_id++;
    req.op = op;
    const std::uint64_t page =
        sequential ? req.id % region_pages : rng.uniform_u64(region_pages);
    req.offset = page * kLogicalPageBytes;
    req.bytes = kLogicalPageBytes;
    dev.submit(req, [this](const IoResult&) {
      ++completed;
      submit();
    });
  }

  void run(std::uint64_t ios) {
    const std::uint64_t target = completed + ios;
    sim.run_while([&] { return completed < target; });
  }
};

// Allocations per I/O of `op` at QD8 on `dev`, after the region (2,048
// pages) has been written and then driven with `op`, so every pool and
// cache has reached its steady size.
double steady_state_allocations_per_io(Simulator& sim, BlockDevice& dev,
                                       IoOp op) {
  ClosedLoop loop{sim, dev, IoOp::kWrite, 2048};
  for (int i = 0; i < 8; ++i) loop.submit();
  loop.run(30000);
  loop.op = op;
  loop.run(40000);
  constexpr std::uint64_t kMeasured = 20000;
  const std::uint64_t before = allocations();
  loop.run(kMeasured);
  return static_cast<double>(allocations() - before) /
         static_cast<double>(kMeasured);
}

// ... on an ESSD-2 volume, whose reads end up served from the node caches.
double essd_allocations_per_io(IoOp op) {
  Simulator sim;
  essd::EssdDevice dev(sim, essd::alibaba_pl3_profile(1 * units::kGiB));
  return steady_state_allocations_per_io(sim, dev, op);
}

// ... on the local-SSD profile, through the FTL, write buffer and NAND.
double ssd_allocations_per_io(IoOp op) {
  Simulator sim;
  ssd::SsdDevice dev(sim, ssd::samsung_970pro_scaled(2 * units::kGiB));
  return steady_state_allocations_per_io(sim, dev, op);
}

#endif  // UC_PROFILE_ALLOC

TEST(AllocProfile, EssdSteadyStateReadIsAllocationFree) {
  UC_REQUIRE_ALLOC_PROFILING();
#if defined(UC_PROFILE_ALLOC)
  EXPECT_EQ(essd_allocations_per_io(IoOp::kRead), 0.0)
      << "QoS gate -> frontend -> fabric -> node read chain must reuse its "
         "slots";
#endif
}

TEST(AllocProfile, EssdSteadyStateWriteIsAllocationFree) {
  UC_REQUIRE_ALLOC_PROFILING();
#if defined(UC_PROFILE_ALLOC)
  // The cluster's append queue is a ring that stops growing at its peak
  // depth, so a write allocates no more than a read.
  EXPECT_EQ(essd_allocations_per_io(IoOp::kWrite), 0.0)
      << "QoS gate -> frontend -> append queue -> replica fan-out write "
         "chain must reuse its slots";
#endif
}

TEST(AllocProfile, SsdSteadyStateReadIsAllocationFree) {
  UC_REQUIRE_ALLOC_PROFILING();
#if defined(UC_PROFILE_ALLOC)
  EXPECT_EQ(ssd_allocations_per_io(IoOp::kRead), 0.0)
      << "firmware -> FTL page-read fan-in -> host link read chain must "
         "reuse its slots";
#endif
}

TEST(AllocProfile, SsdSteadyStateWriteIsAllocationFree) {
  UC_REQUIRE_ALLOC_PROFILING();
#if defined(UC_PROFILE_ALLOC)
  EXPECT_EQ(ssd_allocations_per_io(IoOp::kWrite), 0.0)
      << "host link -> write buffer -> row program write chain must reuse "
         "its slots and buckets";
#endif
}

TEST(AllocProfile, SsdWriteWhileGcRelocatesIsAllocationFree) {
  UC_REQUIRE_ALLOC_PROFILING();
#if defined(UC_PROFILE_ALLOC)
  // A small drive (160 MiB over 48 superblocks of 4 MiB, 83% full) under
  // random 4 KiB writes at QD32, so GC runs all the time.  The number of
  // relocation programs in flight sets the GC pool's size, and its peak
  // still rises now and then over the first 5x capacity of writes, so the
  // warm-up writes 8x.
  ssd::SsdConfig cfg = ssd::samsung_970pro_scaled(1 * units::kGiB);
  flash::FlashGeometry& g = cfg.ftl.geometry;
  g.channels = 2;
  g.dies_per_channel = 2;
  g.planes_per_die = 2;
  g.pages_per_block = 32;
  g.blocks_per_plane = 48;
  cfg.ftl.user_capacity_bytes = 160 * units::kMiB;
  cfg.ftl.write_buffer_slots = 1024;
  cfg.ftl.read_cache_slots = 256;
  Simulator sim;
  ssd::SsdDevice dev(sim, cfg);
  const std::uint64_t pages = cfg.ftl.user_pages();
  ClosedLoop loop{sim, dev, IoOp::kWrite, pages};
  for (int i = 0; i < 32; ++i) loop.submit();
  loop.run(8 * pages);
  constexpr std::uint64_t kMeasured = 20000;
  const std::uint64_t relocated = dev.ftl().gc_stats().relocated_slots;
  const std::uint64_t before = allocations();
  loop.run(kMeasured);
  const std::uint64_t allocs = allocations() - before;
  EXPECT_GT(dev.ftl().gc_stats().relocated_slots, relocated)
      << "GC must relocate inside the measured window";
  EXPECT_EQ(allocs, 0u)
      << "victim row reads, relocation programs, erases and the free pool "
         "must reuse their slots";
#endif
}

TEST(AllocProfile, SsdSequentialReadAheadIsAllocationFree) {
  UC_REQUIRE_ALLOC_PROFILING();
#if defined(UC_PROFILE_ALLOC)
  // QD1 sequential 4 KiB reads with read-ahead on, over 64 MiB of written
  // pages: twice the 32 MiB read cache, so prefetched pages evict.
  Simulator sim;
  ssd::SsdDevice dev(sim, ssd::samsung_970pro_scaled(2 * units::kGiB));
  constexpr std::uint64_t kRegion = 16384;
  ClosedLoop loop{sim, dev, IoOp::kWrite, kRegion, /*sequential=*/true};
  loop.submit();
  loop.run(kRegion);
  loop.op = IoOp::kRead;
  loop.run(kRegion);
  constexpr std::uint64_t kMeasured = 20000;
  const std::uint64_t row_reads = dev.ftl().stats().prefetch_row_reads;
  const std::uint64_t before = allocations();
  loop.run(kMeasured);
  const std::uint64_t allocs = allocations() - before;
  EXPECT_GT(dev.ftl().stats().prefetch_row_reads, row_reads)
      << "read-ahead must issue inside the measured window";
  EXPECT_EQ(allocs, 0u)
      << "stream detection, prefetch row grouping and read-cache inserts "
         "must reuse their scratch and slots";
#endif
}

TEST(AllocProfile, SsdFtlStateIsCompact) {
  UC_REQUIRE_ALLOC_PROFILING();
#if defined(UC_PROFILE_ALLOC)
  // The 2 GiB drive has 524288 logical pages over 933888 physical slots.
  // Its FTL keeps an 8-byte page-map entry per logical page and 4.125 bytes
  // per slot (a validity bit and the LPN): 8068374 bytes in all with the
  // write buffer and read cache.  With 16-byte entries and 9 bytes per slot
  // (a validity byte, the LPN and a second copy of the stamp) the same
  // construction allocated 16815406 bytes.
  const ssd::SsdConfig cfg = ssd::samsung_970pro_scaled(2 * units::kGiB);
  Simulator sim;
  const std::uint64_t before = allocated_bytes();
  {
    ssd::SsdDevice dev(sim, cfg);
  }
  EXPECT_LT(allocated_bytes() - before, 8'500'000u)
      << "the page map or the per-slot metadata grew";
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

TEST(AllocProfile, TraceGeneratorReservesItsEventsOnce) {
  UC_REQUIRE_ALLOC_PROFILING();
#if defined(UC_PROFILE_ALLOC)
  // The shape perfbench's `essd_read_burst` replays: 12 s at 25K IOPS,
  // +-50% on a 4 s cycle, 8 bursts/s of 30 ms at 30K IOPS.  Its config
  // implies 12 * (25000 + 30000 * 0.24) * 1.1 + 64 = 425,104 events of room;
  // seeds 1-4 generate 363K-388K.
  wl::TraceGenConfig gen;
  gen.duration = 12 * units::kSec;
  gen.base_iops = 25000.0;
  gen.diurnal_amplitude = 0.5;
  gen.diurnal_period = 4 * units::kSec;
  gen.bursts_per_s = 8.0;
  gen.burst_iops = 30000.0;
  gen.burst_duration = 30 * units::kMs;
  gen.write_fraction = 0.1;
  DeviceInfo info;
  info.capacity_bytes = 1024 * units::kMiB;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    gen.seed = seed;
    const std::uint64_t before = allocations();
    const std::vector<wl::TraceEvent> trace = wl::generate_trace(gen, info);
    EXPECT_EQ(allocations() - before, 1u)
        << "seed " << seed << ": the event vector must not regrow";
    EXPECT_EQ(trace.capacity(), 425104u) << seed;
    EXPECT_GT(trace.size(), 300000u) << seed;
  }
#endif
}

}  // namespace
}  // namespace uc::sim
