// Google-benchmark micro suite for the simulation substrate itself:
// event-queue throughput, histogram recording, token-bucket admission, RNG
// and zipf draws, the EBS cleaner's victim cycle, one chunk-log segment
// clean, the storage-node page cache, one tenant's result-state lifecycle,
// the local SSD's precondition fill, and end-to-end simulated-IOPS per
// wall-second for both device families.  These bound how
// large an experiment the harness can run, and guard against performance
// regressions in the hot paths.
//
// Unlike the other benches this one is written against Google Benchmark,
// so the custom main() below bridges `--json <path>` to the shared
// {bench, config, metrics} schema by collecting every run from a reporter.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/histogram.h"
#include "common/lru_cache.h"
#include "common/rng.h"
#include "common/token_bucket.h"
#include "common/units.h"
#include "contract/suite.h"
#include "ebs/cleaner.h"
#include "ebs/segment_store.h"
#include "essd/essd_device.h"
#include "sim/parallel.h"
#include "sim/simulator.h"
#include "ssd/ssd_device.h"
#include "workload/runner.h"
#include "workload/trace.h"

namespace uc {
namespace {

// ---------------------------------------------------------------------------
// BM_EventKernel: the kernel hot path in isolation.  Two legs bound the
// two operations every model pays for: schedule+fire churn through a warm
// queue (the steady-state replay shape) and a cold schedule-then-drain
// burst.  Rows carry `sim_events` so main() derives events/sec against
// wall time; the trajectory file (BENCH_TRAJECTORY.json) tracks these
// numbers across kernel changes.
// ---------------------------------------------------------------------------

// Every leg schedules callbacks carrying a 32-byte completion context —
// owner, tag, issue time, transfer size — the capture shape the model's
// real continuations have (`QueuedResource` grants, fabric hops, replay
// arrivals).  That is the honest unit of work: captures this size defeat
// `std::function`'s small-buffer optimisation, so a kernel that stores
// callbacks inline wins exactly where production callbacks live.

// Steady state: a ring of self-rescheduling events over a warm queue.  This
// is the FIFO replay shape (constant pending population, every fire
// schedules a successor) and the number the ≥2x rewrite target is pinned to.
// The pending depth is the argument: 64 bounds a single device's timer
// population, 4096 the sharded-fleet shape where sift depth and key traffic
// dominate.  The ring is plain structs — no std::function in the loop — so
// the measurement is the kernel, not the harness.
void BM_EventKernelSteadyState(benchmark::State& state) {
  const auto depth = static_cast<int>(state.range(0));
  sim::Simulator sim;
  struct Ring {
    sim::Simulator& sim;
    std::int64_t budget = 0;
    std::uint64_t armed = 0;
    std::uint64_t fired = 0;
    std::uint64_t acc = 0;
    // Pseudo-random stride in [1, 64]: multiply-shift only, so the bench
    // loop costs stay negligible next to the kernel work being measured.
    SimTime next_stride() {
      return static_cast<SimTime>(((armed * 2654435761u) >> 20 & 63) + 1);
    }
    void arm() {
      const std::uint64_t tag = armed;
      const SimTime issued = sim.now();
      const std::uint64_t bytes = 4096 + (tag & 63) * 512;
      sim.schedule_after(next_stride(), [this, tag, issued, bytes] {
        acc += tag + bytes + static_cast<std::uint64_t>(sim.now() - issued);
        fire();
      });
      ++armed;
    }
    void fire() {
      ++fired;
      if (--budget >= 0) arm();
    }
  } ring{sim};
  std::uint64_t events = 0;
  for (auto _ : state) {
    // Re-arm the ring (the previous iteration drained it), then let every
    // fire reschedule until the budget runs dry: depth + budget fires.
    ring.budget = 4 * depth;
    const std::uint64_t before = ring.fired;
    for (int i = 0; i < depth; ++i) ring.arm();
    sim.run();
    events += ring.fired - before;
  }
  benchmark::DoNotOptimize(ring.fired);
  benchmark::DoNotOptimize(ring.acc);
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["sim_events"] =
      benchmark::Counter(static_cast<double>(events));
}
BENCHMARK(BM_EventKernelSteadyState)->Arg(64)->Arg(4096)->UseRealTime();

// Cold burst: build a 4096-event queue from empty, then drain it.  Stresses
// sift depth at full population (heap layout) rather than the warm ring.
void BM_EventKernelBurstDrain(benchmark::State& state) {
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    std::uint64_t fired = 0;
    std::uint64_t acc = 0;
    for (int i = 0; i < 4096; ++i) {
      const auto tag = static_cast<std::uint64_t>(i);
      const std::uint64_t bytes = 4096 + (tag & 63) * 512;
      sim.schedule_after(static_cast<SimTime>(i * 29 % 1021),
                         [&fired, &acc, tag, bytes] {
                           ++fired;
                           acc += tag + bytes;
                         });
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
    benchmark::DoNotOptimize(acc);
    events += 4096;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["sim_events"] =
      benchmark::Counter(static_cast<double>(events));
}
BENCHMARK(BM_EventKernelBurstDrain)->UseRealTime();

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    std::uint64_t fired = 0;
    for (int i = 0; i < 1024; ++i) {
      sim.schedule_after(static_cast<SimTime>(i * 17 % 997),
                         [&fired] { ++fired; });
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventQueueScheduleRun);

void BM_HistogramRecord(benchmark::State& state) {
  LatencyHistogram h;
  Rng rng(1);
  for (auto _ : state) {
    h.record(rng.next_u64() % 10000000);
  }
  benchmark::DoNotOptimize(h.count());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

void BM_HistogramPercentile(benchmark::State& state) {
  LatencyHistogram h;
  Rng rng(2);
  for (int i = 0; i < 100000; ++i) h.record(rng.next_u64() % 10000000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.percentile(99.9));
  }
}
BENCHMARK(BM_HistogramPercentile);

// ---------------------------------------------------------------------------
// BM_TenantStatsLifecycle: what one fleet tenant's results cost.  Construct a
// `JobStats`, record 2,048 lognormal latencies (100 us to 50 ms, median
// ~1 ms) into its read/write, all-ops and slowdown histograms, move it into a
// result slot (as `ShardedHost::collect` takes it through
// `LoadSource::take_stats`, leaving an empty `JobStats` behind), and read
// p50/p99/p99.9 from the slot.  Latencies are pre-drawn.  Rows carry items =
// lifecycles, so events_per_sec is tenant lifecycles per second.
// ---------------------------------------------------------------------------

void BM_TenantStatsLifecycle(benchmark::State& state) {
  constexpr std::size_t kSamples = 2048;
  Rng rng(13);
  std::vector<SimTime> latency(kSamples);
  for (auto& v : latency) {
    v = static_cast<SimTime>(
        std::clamp(std::exp(13.8 + 1.0 * rng.normal()), 1e5, 5e7));
  }
  std::vector<wl::JobStats> result(1);
  for (auto _ : state) {
    wl::JobStats stats;
    for (std::size_t i = 0; i < kSamples; ++i) {
      const SimTime v = latency[i];
      (i % 4 == 0 ? stats.write_latency : stats.read_latency).record(v);
      stats.all_latency.record(v);
      stats.slowdown.record(v + v / 8);
    }
    result[0] = std::exchange(stats, wl::JobStats{});
    const wl::JobStats& slot = result[0];
    benchmark::DoNotOptimize(slot.all_latency.percentile(50));
    benchmark::DoNotOptimize(slot.all_latency.percentile(99));
    benchmark::DoNotOptimize(slot.all_latency.percentile(99.9));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TenantStatsLifecycle);

void BM_TokenBucket(benchmark::State& state) {
  TokenBucket bucket(1e9, 1e9);
  SimTime now = 0;
  for (auto _ : state) {
    now += 100;
    benchmark::DoNotOptimize(bucket.try_consume(now, 64.0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TokenBucket);

void BM_ZipfDraw(benchmark::State& state) {
  Rng rng(3);
  ZipfGenerator zipf(1 << 20, 0.99);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.next(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfDraw);

// ---------------------------------------------------------------------------
// BM_GenerateTrace: one fleet tenant's open-loop trace, shaped as
// `fleet::generate_fleet` builds it — 600 base IOPS swinging +-40% on a
// 400 ms diurnal clock, 4000-IOPS bursts of 20 ms, joining 130 ms into the
// cycle — against a 32 MiB volume.  The seed cycles so burst luck averages
// out.  Rows carry items = trace events, so events_per_sec is generated
// trace events per second (every fleet tenant pays this in set-up).
// ---------------------------------------------------------------------------

void BM_GenerateTrace(benchmark::State& state) {
  wl::TraceGenConfig gen;
  gen.duration = 600 * units::kMs;
  gen.start_offset = 130 * units::kMs;
  gen.base_iops = 600.0;
  gen.diurnal_amplitude = 0.4;
  gen.diurnal_period = 400 * units::kMs;
  gen.bursts_per_s = 0.2;
  gen.burst_iops = 4000.0;
  gen.burst_duration = 20 * units::kMs;
  gen.write_fraction = 0.6;
  gen.zipf_theta = 0.9;
  DeviceInfo info;
  info.capacity_bytes = 32ull << 20;
  std::uint64_t seed = 0;
  std::int64_t events = 0;
  for (auto _ : state) {
    gen.seed = 1 + seed++ % 64;
    const auto trace = wl::generate_trace(gen, info);
    events += static_cast<std::int64_t>(trace.size());
    benchmark::DoNotOptimize(trace.data());
  }
  state.SetItemsProcessed(events);
}
BENCHMARK(BM_GenerateTrace);

void BM_SsdSimulatedIops(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    ssd::SsdDevice device(sim, ssd::samsung_970pro_scaled(2ull << 30));
    wl::JobSpec spec;
    spec.pattern = wl::AccessPattern::kRandom;
    spec.io_bytes = 4096;
    spec.queue_depth = 16;
    spec.total_ops = 20000;
    spec.seed = 5;
    const auto stats = wl::JobRunner::run_to_completion(sim, device, spec);
    benchmark::DoNotOptimize(stats.total_ops());
  }
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_SsdSimulatedIops)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// BM_SsdFill: the precondition fill of a 2 GiB local SSD, as the read
// characterization and perfbench's `device_write` set-up run it: 1 MiB
// sequential writes at QD16 over the whole device, a flush, and a 10 ms
// settle.  Every page crosses the host link, the write buffer, the flusher
// and the page map once.  Construction is untimed.  Rows carry items =
// 4 KiB pages written, so events_per_sec is filled pages per second.
// ---------------------------------------------------------------------------

void BM_SsdFill(benchmark::State& state) {
  constexpr std::uint64_t kBytes = 2ull << 30;
  for (auto _ : state) {
    sim::Simulator sim;
    ssd::SsdDevice device(sim, ssd::samsung_970pro_scaled(kBytes));
    const auto start = std::chrono::steady_clock::now();
    contract::CharacterizationSuite::precondition(sim, device, kBytes,
                                                  10 * units::kMs, 5);
    const auto stop = std::chrono::steady_clock::now();
    state.SetIterationTime(std::chrono::duration<double>(stop - start).count());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kBytes / kLogicalPageBytes));
}
BENCHMARK(BM_SsdFill)->Unit(benchmark::kMillisecond)->UseManualTime();

void BM_EssdSimulatedIops(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    essd::EssdDevice device(sim, essd::alibaba_pl3_profile(4ull << 30));
    wl::JobSpec spec;
    spec.pattern = wl::AccessPattern::kRandom;
    spec.io_bytes = 4096;
    spec.queue_depth = 16;
    spec.total_ops = 20000;
    spec.seed = 5;
    const auto stats = wl::JobRunner::run_to_completion(sim, device, spec);
    benchmark::DoNotOptimize(stats.total_ops());
  }
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_EssdSimulatedIops)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// BM_CleanerPick: one cleaner cycle over a registry of Arg(0) chunk logs
// (the cluster append path's cleaner rung).  Every log starts as eight
// full, all-live closed segments.  Each iteration overwrites one page of
// the next log, so about one segment qualifies, then runs the cleaner
// until it idles: a pick that finds the victim, the clean, and a pick that
// finds nothing left.  The registry is rebuilt, untimed, after eight
// cleans per log, so freed segment slots never pile up and the per-cycle
// cost depends on the log count alone.  Rows carry items = segments
// cleaned, so events_per_sec is cleaner cycles per second.
// ---------------------------------------------------------------------------

struct CleanerRegistry {
  static constexpr std::uint32_t kPages = 64;
  static constexpr std::uint32_t kPagesPerSegment = 8;

  explicit CleanerRegistry(std::uint32_t n)
      : pool(n * (kPages / kPagesPerSegment + 4), 4) {
    logs.reserve(n);
    for (std::uint32_t c = 0; c < n; ++c) {
      logs.emplace_back(kPages, kPagesPerSegment);
      for (std::uint32_t p = 0; p < kPages; ++p) {
        logs.back().append_page(p, ++stamp, pool);
      }
      registry.push_back(&logs.back());
      owners.push_back(0);
    }
    ebs::CleanerConfig cfg;
    cfg.start_free_ratio = 1.0;  // clean whenever a victim qualifies
    cleaner = std::make_unique<ebs::Cleaner>(
        sim, cfg, std::uint64_t{kPagesPerSegment} * kLogicalPageBytes,
        registry, owners, pool);
  }

  sim::Simulator sim;
  ebs::SegmentPool pool;
  std::vector<ebs::ChunkLog> logs;
  std::vector<ebs::ChunkLog*> registry;
  std::vector<std::uint32_t> owners;
  std::unique_ptr<ebs::Cleaner> cleaner;
  WriteStamp stamp = 0;
};

void BM_CleanerPick(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  auto reg = std::make_unique<CleanerRegistry>(n);
  Rng rng(9);
  std::uint64_t cycles = 0;
  std::uint64_t cleaned = 0;
  for (auto _ : state) {
    if (cycles > 0 && cycles % (8ull * n) == 0) {
      state.PauseTiming();
      cleaned += reg->cleaner->stats().segments_cleaned;
      reg = std::make_unique<CleanerRegistry>(n);
      state.ResumeTiming();
    }
    const auto page = static_cast<std::uint32_t>(
        rng.uniform_u64(CleanerRegistry::kPages));
    reg->logs[cycles % n].append_page(page, ++reg->stamp, reg->pool);
    reg->cleaner->notify();
    reg->sim.run();
    ++cycles;
  }
  cleaned += reg->cleaner->stats().segments_cleaned;
  state.SetItemsProcessed(static_cast<std::int64_t>(cleaned));
}
BENCHMARK(BM_CleanerPick)->Arg(10)->Arg(100)->Arg(1000);

// ---------------------------------------------------------------------------
// BM_ChunkLogClean: one `ChunkLog::clean_segment` of the best victim at
// steady state.  Arg(0) is the ESSD geometry (16,384 pages, 2,048 per
// segment), Arg(1) the fleet geometry (1,024 pages, 256 per segment).  A
// log starts full; before each clean, 4% of a segment's worth of random
// overwrites refills the garbage the previous clean reclaimed, so victims
// sit about 96% live, as on `essd_read_burst` (the `victim_live` counter
// reports the mean).  The log is rebuilt and warmed up every 128 cleans,
// about as many as one of that workload's chunk logs sees in a rep, so
// the number of segments a log has ever allocated stays in that range.
// Only the clean is timed.  Rows carry items = cleans, so events_per_sec
// is cleans per second.
// ---------------------------------------------------------------------------

struct CleanFixture {
  static constexpr int kCleansPerLog = 128;
  static constexpr int kWarmupCleans = 16;

  CleanFixture(std::uint32_t pages, std::uint32_t pages_per_segment)
      : pages(pages),
        overwrites(pages_per_segment / 25),
        pool(4 * (pages / pages_per_segment) + 8, 0),
        log(pages, pages_per_segment) {
    for (std::uint32_t p = 0; p < pages; ++p) log.append_page(p, ++stamp, pool);
  }

  /// Overwrites random pages and returns the best victim's seq.
  std::uint32_t overwrite(Rng& rng) {
    for (std::uint32_t i = 0; i < overwrites; ++i) {
      const auto page = static_cast<std::uint32_t>(rng.uniform_u64(pages));
      log.append_page(page, ++stamp, pool);
    }
    return log.pick_victim()->seq;
  }

  std::uint32_t pages;
  std::uint32_t overwrites;
  ebs::SegmentPool pool;
  ebs::ChunkLog log;
  WriteStamp stamp = 0;
};

void BM_ChunkLogClean(benchmark::State& state) {
  const bool essd = state.range(0) == 0;
  state.SetLabel(essd ? "essd" : "fleet");
  const std::uint32_t pages = essd ? 16384 : 1024;
  const std::uint32_t pages_per_segment = essd ? 2048 : 256;
  Rng rng(13);
  std::unique_ptr<CleanFixture> fx;
  std::uint64_t cleans = 0;
  std::uint64_t relocated = 0;
  for (auto _ : state) {
    if (cleans % CleanFixture::kCleansPerLog == 0) {
      fx = std::make_unique<CleanFixture>(pages, pages_per_segment);
      for (int i = 0; i < CleanFixture::kWarmupCleans; ++i) {
        fx->log.clean_segment(fx->overwrite(rng), fx->pool, nullptr);
      }
    }
    const std::uint32_t seq = fx->overwrite(rng);
    std::uint32_t moved = 0;
    const auto start = std::chrono::steady_clock::now();
    const bool ok = fx->log.clean_segment(seq, fx->pool, &moved);
    const auto stop = std::chrono::steady_clock::now();
    if (!ok) {
      state.SkipWithError("segment pool ran dry");
      break;
    }
    ++cleans;
    relocated += moved;
    state.SetIterationTime(std::chrono::duration<double>(stop - start).count());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["victim_live"] =
      static_cast<double>(relocated) /
      (static_cast<double>(state.iterations()) * pages_per_segment);
}
BENCHMARK(BM_ChunkLogClean)->Arg(0)->Arg(1)->UseManualTime();

// ---------------------------------------------------------------------------
// BM_ChunkLogAppendRun: `ChunkLog::append_run` of 25-page overwrite runs
// (the mean write run of `fleet_rebalance`) at steady state.  Arg(0) is the
// ESSD geometry (16,384 pages, 2,048 per segment), Arg(1) the fleet
// geometry (1,024 pages, 256 per segment).  A log starts full, and each run
// starts at a random page (clipped at the chunk end), so it overwrites
// pages of several segments and often crosses a 64-page word.  One
// iteration times a batch of 32 runs; between batches the best victims are
// cleaned, untimed, until the pool has room for the next batch.  The pool
// holds about twice the live data, so a log spans about twice as many
// segments (bitmap rows) as its live pages fill.  As in
// BM_ChunkLogClean, the log is rebuilt and warmed up every 256 batches, so
// the number of segments it has ever allocated stays bounded.  Rows carry
// items = runs, so events_per_sec is runs per second.
// ---------------------------------------------------------------------------

struct AppendRunFixture {
  static constexpr int kBatchesPerLog = 256;
  static constexpr int kWarmupBatches = 32;
  static constexpr std::uint32_t kRunsPerBatch = 32;
  static constexpr std::uint32_t kRunPages = 25;
  static constexpr std::uint64_t kFreeGroups = 8;  // > a batch's segments

  AppendRunFixture(std::uint32_t pages, std::uint32_t pages_per_segment)
      : pages(pages),
        pool(2 * (pages / pages_per_segment) + kFreeGroups + 1, 0),
        log(pages, pages_per_segment) {
    log.append_run(0, pages, 1, pool);
    stamp = pages;
  }

  /// One batch of runs; returns false if the pool ran dry.
  bool batch(Rng& rng) {
    for (std::uint32_t i = 0; i < kRunsPerBatch; ++i) {
      const auto first = static_cast<std::uint32_t>(rng.uniform_u64(pages));
      const std::uint32_t n = std::min(kRunPages, pages - first);
      if (log.append_run(first, n, stamp + 1, pool) != n) return false;
      stamp += n;
    }
    return true;
  }

  /// Cleans the best victims until the next batch cannot run dry.
  bool refill() {
    while (pool.free_groups() < kFreeGroups) {
      if (!log.clean_segment(log.pick_victim()->seq, pool, nullptr)) {
        return false;
      }
    }
    return true;
  }

  std::uint32_t pages;
  ebs::SegmentPool pool;
  ebs::ChunkLog log;
  WriteStamp stamp = 0;
};

void BM_ChunkLogAppendRun(benchmark::State& state) {
  const bool essd = state.range(0) == 0;
  state.SetLabel(essd ? "essd" : "fleet");
  const std::uint32_t pages = essd ? 16384 : 1024;
  const std::uint32_t pages_per_segment = essd ? 2048 : 256;
  Rng rng(17);
  std::unique_ptr<AppendRunFixture> fx;
  std::uint64_t batches = 0;
  for (auto _ : state) {
    bool ok = true;
    if (batches % AppendRunFixture::kBatchesPerLog == 0) {
      fx = std::make_unique<AppendRunFixture>(pages, pages_per_segment);
      for (int i = 0; ok && i < AppendRunFixture::kWarmupBatches; ++i) {
        ok = fx->refill() && fx->batch(rng);
      }
    }
    ok = ok && fx->refill();
    const auto start = std::chrono::steady_clock::now();
    ok = ok && fx->batch(rng);
    const auto stop = std::chrono::steady_clock::now();
    if (!ok) {
      state.SkipWithError("segment pool ran dry");
      break;
    }
    ++batches;
    state.SetIterationTime(std::chrono::duration<double>(stop - start).count());
  }
  state.SetItemsProcessed(state.iterations() *
                          AppendRunFixture::kRunsPerBatch);
}
BENCHMARK(BM_ChunkLogAppendRun)->Arg(0)->Arg(1)->UseManualTime();

// ---------------------------------------------------------------------------
// BM_NodeCache: one storage node's page cache (16,384 pages, the default
// 64 MiB) at steady state, keyed like the cluster's `(chunk << 32) | page`
// with Zipf(0.9) popularity over 4M pages of 16,384-page chunks.  Arg(0) is
// the read mix: look the page up and insert it on a miss.  Arg(1) is the
// write-invalidate mix: seven in eight ops invalidate a written page, which
// is mostly a miss, and the rest read as in Arg(0).  Keys come from a
// pre-drawn trace, and a full pass over it warms the cache untimed.  Rows
// carry items = cache ops, so events_per_sec is ops per second.
// ---------------------------------------------------------------------------

void BM_NodeCache(benchmark::State& state) {
  constexpr std::uint32_t kCachePages = 16384;
  constexpr std::uint64_t kPagesPerChunk = 16384;
  const bool writes = state.range(0) == 1;
  state.SetLabel(writes ? "write-invalidate" : "read");
  Rng rng(11);
  ZipfGenerator zipf(std::uint64_t{1} << 22, 0.9);
  std::vector<std::uint64_t> keys(std::size_t{1} << 20);
  std::vector<std::uint8_t> is_write(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::uint64_t rank = zipf.next(rng);
    keys[i] = ((rank / kPagesPerChunk) << 32) | (rank % kPagesPerChunk);
    is_write[i] = writes && rng.uniform_u64(8) != 0;
  }
  LruReadyCache<std::uint64_t> cache(kCachePages);
  SimTime now = 0;
  auto op = [&](std::size_t i) {
    const std::uint64_t key = keys[i];
    ++now;
    if (is_write[i]) {
      cache.invalidate(key);
    } else if (auto r = cache.lookup(key); r.has_value()) {
      benchmark::DoNotOptimize(*r);
    } else {
      cache.insert(key, now);
    }
  };
  for (std::size_t i = 0; i < keys.size(); ++i) op(i);
  std::size_t i = 0;
  for (auto _ : state) {
    op(i);
    i = (i + 1) & (keys.size() - 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NodeCache)->Arg(0)->Arg(1);

// The parallel engine's events/sec trajectory: four independent shards
// (own simulator + ESSD device + closed-loop job each, like one
// `ShardedHost` measure epoch) on Arg(0) worker threads.  On a multi-core
// host the events/sec counter should climb from Arg(1) to Arg(4); on a
// single core the Arg values should tie — either way the work per shard is
// identical, so the row family doubles as a determinism canary.
void BM_ParallelShardReplay(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::ParallelExecutor exec(threads);
    std::array<std::uint64_t, 4> shard_events{};
    exec.run_epoch(shard_events.size(), [&](std::size_t s) {
      sim::Simulator sim;
      essd::EssdDevice device(sim, essd::alibaba_pl3_profile(2ull << 30));
      wl::JobSpec spec;
      spec.pattern = wl::AccessPattern::kRandom;
      spec.io_bytes = 4096;
      spec.queue_depth = 16;
      spec.total_ops = 5000;
      spec.seed = 7 + static_cast<std::uint64_t>(s);
      const auto stats = wl::JobRunner::run_to_completion(sim, device, spec);
      benchmark::DoNotOptimize(stats.total_ops());
      shard_events[s] = sim.events_processed();
    });
    for (const auto e : shard_events) events += e;
  }
  // A plain counter, not kIsRate: rate counters divide by the *main
  // thread's* CPU time, which is near zero while the workers run.  main()
  // derives events/sec from this against accumulated wall time.
  state.counters["sim_events"] =
      benchmark::Counter(static_cast<double>(events));
}
BENCHMARK(BM_ParallelShardReplay)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The persistent pool's dispatch overhead: the epoch-sliced fleet engine
// calls run_epoch once per slice (hundreds to thousands of times per run),
// so the cost of waking the pool, claiming shards, and joining the barrier
// is on the hot path.  Tiny shard bodies (a 64-event simulator burst) make
// the barrier itself the measured quantity.  Arg(0) = worker threads; at
// one thread the epoch runs inline, so the Arg(1) row is the no-pool
// baseline the pooled rows are compared against.
void BM_ParallelEpochBarrier(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  sim::ParallelExecutor exec(threads);  // built once: pool reuse is the point
  constexpr std::size_t kShards = 8;
  constexpr std::uint64_t kEventsPerShard = 64;
  std::uint64_t events = 0;
  for (auto _ : state) {
    std::array<std::uint64_t, kShards> shard_events{};
    exec.run_epoch(kShards, [&shard_events](std::size_t s) {
      sim::Simulator sim;
      std::uint64_t acc = 0;
      for (std::uint64_t i = 0; i < kEventsPerShard; ++i) {
        sim.schedule_at(i % 11, [&acc, i] { acc = acc * 31 + i; });
      }
      sim.run();
      benchmark::DoNotOptimize(acc);
      shard_events[s] = sim.events_processed();
    });
    for (const auto e : shard_events) events += e;
  }
  // Same plain-counter convention as BM_ParallelShardReplay: main() derives
  // events/sec against accumulated wall time.
  state.counters["sim_events"] =
      benchmark::Counter(static_cast<double>(events));
}
BENCHMARK(BM_ParallelEpochBarrier)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Console reporter that also keeps every iteration run so main() can emit
/// the shared bench JSON schema.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& r : runs) {
      if (r.run_type == Run::RT_Iteration) collected.push_back(r);
    }
    ConsoleReporter::ReportRuns(runs);
  }

  std::vector<Run> collected;
};

}  // namespace
}  // namespace uc

int main(int argc, char** argv) {
  using namespace uc;
  // Strip the shared-harness flags before Google Benchmark sees argv.
  std::string json_path;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[i + 1];
      ++i;
      continue;
    }
    if (std::strcmp(argv[i], "--quick") == 0 ||
        std::strcmp(argv[i], "--full") == 0) {
      continue;  // accepted for harness uniformity; micro benches self-time
    }
    args.push_back(argv[i]);
  }
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) {
    return 1;
  }

  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (!json_path.empty()) {
    bench::Json benchmarks = bench::Json::array();
    for (const auto& r : reporter.collected) {
      bench::Json b = bench::Json::object();
      b.set("name", r.run_name.str());
      b.set("iterations", static_cast<std::uint64_t>(r.iterations));
      const double iters =
          r.iterations > 0 ? static_cast<double>(r.iterations) : 1.0;
      b.set("real_ns_per_iter", r.real_accumulated_time * 1e9 / iters);
      b.set("cpu_ns_per_iter", r.cpu_accumulated_time * 1e9 / iters);
      const auto items = r.counters.find("items_per_second");
      if (items != r.counters.end()) {
        b.set("items_per_second", static_cast<double>(items->second.value));
      }
      // Every row carries events_per_sec: simulator events over wall time
      // when the benchmark counts them (the parallel trajectory rows), its
      // item rate otherwise, falling back to iterations per wall-second.
      const auto events = r.counters.find("sim_events");
      if (events != r.counters.end()) {
        b.set("events_per_sec",
              r.real_accumulated_time > 0.0
                  ? static_cast<double>(events->second.value) /
                        r.real_accumulated_time
                  : 0.0);
      } else if (items != r.counters.end()) {
        b.set("events_per_sec", static_cast<double>(items->second.value));
      } else {
        b.set("events_per_sec", r.real_accumulated_time > 0.0
                                    ? iters / r.real_accumulated_time
                                    : 0.0);
      }
      benchmarks.push(std::move(b));
    }
    bench::Json config = bench::Json::object();
    config.set("benchmark_filter", "all");
    bench::Json metrics = bench::Json::object();
    metrics.set("benchmarks", std::move(benchmarks));
    bench::Scale scale;
    scale.json_path = json_path;
    bench::maybe_write_json(
        scale,
        bench::bench_report("sim_micro", std::move(config), std::move(metrics)));
  }
  return 0;
}
