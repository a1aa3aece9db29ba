// Reproducibility guarantees: identical seeds must replay bit-identical
// experiments on every device family — including multi-tenant shared
// clusters; different seeds must diverge.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/digest.h"
#include "common/units.h"
#include "contract/replay.h"
#include "essd/essd_device.h"
#include "fleet/fleet.h"
#include "placement/placement.h"
#include "sched/sched.h"
#include "ssd/ssd_device.h"
#include "tenant/scenarios.h"
#include "tenant/tenant.h"
#include "workload/runner.h"

namespace uc {
namespace {

using namespace units;

wl::JobStats run_ssd(std::uint64_t job_seed) {
  sim::Simulator sim;
  ssd::SsdDevice dev(sim, ssd::samsung_970pro_scaled(1 * kGiB));
  wl::JobSpec spec;
  spec.pattern = wl::AccessPattern::kRandom;
  spec.io_bytes = 4096;
  spec.queue_depth = 8;
  spec.write_ratio = 0.5;
  spec.total_ops = 3000;
  spec.seed = job_seed;
  return wl::JobRunner::run_to_completion(sim, dev, spec);
}

wl::JobStats run_essd(std::uint64_t job_seed) {
  sim::Simulator sim;
  essd::EssdDevice dev(sim, essd::aws_io2_profile(1 * kGiB));
  wl::JobSpec spec;
  spec.pattern = wl::AccessPattern::kRandom;
  spec.io_bytes = 16384;
  spec.queue_depth = 4;
  spec.total_ops = 2000;
  spec.seed = job_seed;
  return wl::JobRunner::run_to_completion(sim, dev, spec);
}

TEST(Determinism, SsdRunsAreBitIdentical) {
  const auto a = run_ssd(42);
  const auto b = run_ssd(42);
  EXPECT_EQ(a.total_ops(), b.total_ops());
  EXPECT_EQ(a.last_complete, b.last_complete);
  EXPECT_EQ(a.all_latency.count(), b.all_latency.count());
  EXPECT_DOUBLE_EQ(a.all_latency.mean(), b.all_latency.mean());
  EXPECT_EQ(a.all_latency.percentile(99.9), b.all_latency.percentile(99.9));
  EXPECT_EQ(a.write_bytes, b.write_bytes);
}

TEST(Determinism, EssdRunsAreBitIdentical) {
  const auto a = run_essd(1234);
  const auto b = run_essd(1234);
  EXPECT_EQ(a.last_complete, b.last_complete);
  EXPECT_DOUBLE_EQ(a.all_latency.mean(), b.all_latency.mean());
  EXPECT_EQ(a.all_latency.max(), b.all_latency.max());
}

TEST(Determinism, DifferentSeedsDiverge) {
  const auto a = run_ssd(1);
  const auto b = run_ssd(2);
  // Different offset streams and jitter draws: timings cannot coincide.
  EXPECT_NE(a.last_complete, b.last_complete);
}

placement::PlacementResult run_three_tenants(
    std::uint64_t seed, sched::Policy policy = sched::Policy::kFifo) {
  using namespace units;
  essd::EssdConfig base = essd::aws_io2_profile(64 * kMiB);
  base.cluster.spare_pool_bytes = 192 * kMiB;
  base.cluster.sched.policy = policy;
  std::vector<tenant::TenantSpec> tenants(3);
  for (int i = 0; i < 3; ++i) {
    tenants[static_cast<std::size_t>(i)].name = "t" + std::to_string(i);
    tenants[static_cast<std::size_t>(i)].capacity_bytes = 64 * kMiB;
    tenants[static_cast<std::size_t>(i)].qos.bw_bytes_per_s = 1.0e9;
    auto& job = tenants[static_cast<std::size_t>(i)].load.job;
    job.pattern =
        i == 2 ? wl::AccessPattern::kSequential : wl::AccessPattern::kRandom;
    job.io_bytes = i == 0 ? 4096u : 65536u;
    job.queue_depth = 2 + i;
    // Tenant 0 runs a mixed job so the seed steers the op sequence itself
    // (pure-ratio jobs only reseed their offsets, which a symmetric idle
    // cluster can absorb without timing divergence).
    job.write_ratio = i == 0 ? 0.5 : (i == 1 ? 0.0 : 1.0);
    job.total_ops = 800;
    job.seed = seed + static_cast<std::uint64_t>(i);
  }
  sim::ParallelExecutor exec(1);
  placement::ShardedHost host(base, tenants, placement::PlacementConfig{});
  return host.run(exec);
}

TEST(Determinism, ThreeTenantSharedClusterIsBitIdentical) {
  const auto a = run_three_tenants(4242);
  const auto b = run_three_tenants(4242);
  ASSERT_EQ(a.stats.size(), b.stats.size());
  EXPECT_EQ(a.makespan, b.makespan);
  for (std::size_t i = 0; i < a.stats.size(); ++i) {
    EXPECT_EQ(a.stats[i].last_complete, b.stats[i].last_complete) << i;
    EXPECT_EQ(a.stats[i].all_latency.count(), b.stats[i].all_latency.count());
    EXPECT_DOUBLE_EQ(a.stats[i].all_latency.mean(),
                     b.stats[i].all_latency.mean());
    EXPECT_EQ(a.stats[i].all_latency.max(), b.stats[i].all_latency.max());
    EXPECT_EQ(a.stats[i].write_bytes, b.stats[i].write_bytes);
    EXPECT_EQ(a.stats[i].read_bytes, b.stats[i].read_bytes);
  }
}

// The sched refactor's contract: under the default FIFO policy the entire
// request path (QoS gate, frontend pipe, NIC pipes, node pipelines,
// cleaner) must reproduce the pre-refactor simulator bit for bit.  These
// digests were captured from the seed tree before `src/sched/` existed; a
// change here means the shared service chain, run with synchronous FIFO
// grants, no longer replays the straight-line pre-sched code.
TEST(Determinism, FifoDigestsMatchPreSchedSeed) {
  const auto r = run_three_tenants(4242);
  EXPECT_EQ(r.makespan, 137686008u);
  ASSERT_EQ(r.stats.size(), 3u);
  EXPECT_EQ(r.stats[0].last_complete, 137686008u);
  EXPECT_EQ(r.stats[1].last_complete, 129940945u);
  EXPECT_EQ(r.stats[2].last_complete, 99521141u);
  EXPECT_EQ(r.stats[0].all_latency.max(), 519085u);
  EXPECT_EQ(r.stats[1].all_latency.max(), 606057u);
  EXPECT_EQ(r.stats[2].all_latency.max(), 602528u);
  EXPECT_DOUBLE_EQ(r.stats[0].all_latency.mean(), 344096.54249999998);
  EXPECT_DOUBLE_EQ(r.stats[1].all_latency.mean(), 486685.46124999999);
  EXPECT_DOUBLE_EQ(r.stats[2].all_latency.mean(), 496495.08624999999);
  EXPECT_EQ(r.stats[0].write_bytes, 1744896u);
  EXPECT_EQ(r.stats[0].read_bytes, 1531904u);
  EXPECT_EQ(r.stats[1].read_bytes, 52428800u);
  EXPECT_EQ(r.stats[2].write_bytes, 52428800u);
}

// The same scenario under the queued policies, where every shared queue
// dispatches through the scheduler and the request chain runs as grant
// continuations.  Captured while FIFO still ran a separate straight-line
// copy of the ESSD read, write and submit paths, before the two were
// folded into one chain.
struct ThreeTenantPin {
  SimTime makespan;
  SimTime last_complete[3];
  SimTime max_latency[3];
  double mean_latency[3];
};

void expect_three_tenant_pin(const placement::PlacementResult& r,
                             const ThreeTenantPin& pin) {
  EXPECT_EQ(r.makespan, pin.makespan);
  ASSERT_EQ(r.stats.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(r.stats[i].last_complete, pin.last_complete[i]) << i;
    EXPECT_EQ(r.stats[i].all_latency.max(), pin.max_latency[i]) << i;
    EXPECT_DOUBLE_EQ(r.stats[i].all_latency.mean(), pin.mean_latency[i]) << i;
  }
  EXPECT_EQ(r.stats[0].write_bytes + r.stats[0].read_bytes, 3276800u);
  EXPECT_EQ(r.stats[1].read_bytes, 52428800u);
  EXPECT_EQ(r.stats[2].write_bytes, 52428800u);
}

TEST(Determinism, QueuedPolicyDigestsArePinned) {
  expect_three_tenant_pin(
      run_three_tenants(4242, sched::Policy::kWfq),
      ThreeTenantPin{137402322,
                     {137402322, 129682992, 99351269},
                     {519464, 559131, 600362},
                     {343388.00874999998, 485618.10375000001,
                      495925.48125000001}});
  expect_three_tenant_pin(
      run_three_tenants(4242, sched::Policy::kPrio),
      ThreeTenantPin{137361501,
                     {137361501, 129508086, 99424382},
                     {513126, 557059, 600362},
                     {343292.89374999999, 485082.22249999997,
                      496130.23249999998}});
}

TEST(Determinism, SoloEssdDigestMatchesPreSchedSeed) {
  const auto s = run_essd(1234);
  EXPECT_EQ(s.last_complete, 187141779u);
  EXPECT_EQ(s.all_latency.max(), 440074u);
  EXPECT_DOUBLE_EQ(s.all_latency.mean(), 374043.842);
}

// The page map's contract: the FTL must reproduce the tree from before the
// L2P table was pulled out of the FTL bit for bit.  The digest
// covers the entire L2P table (slot + stamp per page) plus job latencies
// and GC/flash counters after a GC-heavy mixed job, so any behavioral
// drift in the extracted interface — an extra flash read, a reordered
// event, a stats-driven branch — lands here.  Captured at the commit
// immediately before that extraction.  `lookups`, if given,
// receives the page map's counters after the job and trim.
std::uint64_t ssd_mapping_digest(ftl::MappingStats* lookups = nullptr) {
  sim::Simulator sim;
  ssd::SsdDevice dev(sim, ssd::samsung_970pro_scaled(1 * kGiB));

  wl::JobSpec spec;
  spec.pattern = wl::AccessPattern::kRandom;
  spec.io_bytes = 65536;
  spec.queue_depth = 16;
  spec.write_ratio = 0.7;
  spec.total_bytes = 4096 * kMiB;
  spec.region_bytes = 256 * kMiB;  // ~11x overwrite: GC must relocate
  spec.seed = 777;
  const auto stats = wl::JobRunner::run_to_completion(sim, dev, spec);

  dev.ftl().trim(0, 4096);  // trim a 16 MiB stripe
  sim.run();

  Fnv1a d;
  const auto& m = dev.ftl().mapping();
  for (Lpn lpn = 0; lpn < m.logical_pages(); ++lpn) {
    d.mix(m.peek(lpn)).mix(m.stamp_of(lpn));
  }
  d.mix(m.mapped_count());
  d.mix(stats.last_complete);
  d.mix(stats.all_latency.mean());
  d.mix(static_cast<std::uint64_t>(stats.all_latency.max()));
  d.mix(dev.ftl().gc_stats().relocated_slots);
  d.mix(dev.ftl().gc_stats().victims_collected);
  d.mix(dev.ftl().stats().user_programmed_slots);
  d.mix(dev.ftl().stats().flash_read_pages);
  if (lookups != nullptr) *lookups = dev.ftl().mapping_stats();
  return d.value();
}

TEST(Determinism, PageMapDigestMatchesPreMappingRefactorHead) {
  EXPECT_EQ(ssd_mapping_digest(), 9238988344121643801ull);
}

// perfbench reports ftl.mapping_lookups and ftl.mapping_hits from these two
// counters; a translate/update/trim/relocate path that stops counting would
// move them without touching the digest above.
TEST(Determinism, PageMapLookupCountIsPinned) {
  ftl::MappingStats st;
  ssd_mapping_digest(&st);
  EXPECT_EQ(st.lookups, 807936u);
  EXPECT_EQ(st.cache_hits, 807936u);
}

TEST(Determinism, ThreeTenantSeedsDiverge) {
  const auto a = run_three_tenants(1);
  const auto b = run_three_tenants(2);
  EXPECT_NE(a.makespan, b.makespan);
}

// ---------------------------------------------------------------------------
// Parallel engine: the determinism matrix.  The same 4-cluster replay fleet
// runs at 1/2/4/8 threads; per-shard digests, the merged fairness report,
// the contract verdicts, and the event totals must all be identical.  The
// 1-thread digests, event count and makespan are pinned to values captured
// from the retired single-simulator host (one event queue for the whole
// fleet), so this is also the sharded-vs-legacy equivalence proof, not just
// shard scheduling.
// ---------------------------------------------------------------------------

const std::vector<std::uint64_t> kReplayFleetDigests = {
    10907057635761261763ull, 14388622975025698312ull, 4097056090190038752ull,
    4832774139040818048ull};
constexpr std::uint64_t kReplayFleetEvents = 18333;
constexpr SimTime kReplayFleetMakespan = 500337469;

placement::PlacementScenarioResult run_replay_fleet(int threads) {
  placement::PlacementScenarioOptions opt;
  opt.base.quick = true;
  opt.base.solo_baselines = false;  // covered by the scenario suites
  opt.base.replay = true;
  opt.base.replay_events = 3000;
  opt.base.threads = threads;
  opt.placement.clusters = 4;  // 3 tenants -> one cluster stays idle
  opt.placement.policy = placement::Policy::kSpread;
  return placement::run_placement_scenario(tenant::Scenario::kFairShare, opt);
}

TEST(Determinism, ParallelReplayMatrixIsThreadCountInvariant) {
  const auto base = run_replay_fleet(1);
  ASSERT_EQ(base.shard_digest.size(), 4u);  // one shard per cluster
  ASSERT_EQ(base.tenants.size(), 3u);
  EXPECT_EQ(base.shard_digest, kReplayFleetDigests);
  EXPECT_EQ(base.sim_events, kReplayFleetEvents);
  EXPECT_EQ(base.makespan, kReplayFleetMakespan);

  contract::ReplayCheckConfig check;
  check.budget_gbs = 0.05;  // tight budget so violations actually fire
  check.budget_iops = 2000;
  std::vector<contract::ReplayVerdict> base_verdicts;
  for (std::size_t i = 0; i < base.tenants.size(); ++i) {
    base_verdicts.push_back(contract::evaluate_replay(
        base.traces[i], base.colocated[i], base.backlog_peak[i], check));
  }

  for (const int threads : {2, 4, 8}) {
    const auto r = run_replay_fleet(threads);
    EXPECT_EQ(base.shard_digest, r.shard_digest) << "threads " << threads;
    EXPECT_EQ(base.sim_events, r.sim_events) << "threads " << threads;
    EXPECT_EQ(base.makespan, r.makespan);
    EXPECT_EQ(base.final_cluster, r.final_cluster);
    EXPECT_EQ(base.initial_cluster, r.initial_cluster);

    // Merged fairness report.
    EXPECT_DOUBLE_EQ(base.report.jain_index, r.report.jain_index);
    EXPECT_DOUBLE_EQ(base.report.aggregate_gbs, r.report.aggregate_gbs);
    ASSERT_EQ(base.report.tenants.size(), r.report.tenants.size());
    for (std::size_t i = 0; i < base.report.tenants.size(); ++i) {
      const auto& a = base.report.tenants[i];
      const auto& b = r.report.tenants[i];
      EXPECT_EQ(a.ops, b.ops) << "tenant " << i;
      EXPECT_DOUBLE_EQ(a.mean_us, b.mean_us);
      EXPECT_DOUBLE_EQ(a.p99_us, b.p99_us);
      EXPECT_DOUBLE_EQ(a.throughput_gbs, b.throughput_gbs);
      EXPECT_DOUBLE_EQ(a.share, b.share);
      EXPECT_DOUBLE_EQ(a.slowdown_p99_us, b.slowdown_p99_us);
    }

    // Contract verdicts over the merged replay outcomes.
    ASSERT_EQ(r.traces.size(), base_verdicts.size());
    for (std::size_t i = 0; i < base_verdicts.size(); ++i) {
      const auto v = contract::evaluate_replay(r.traces[i], r.colocated[i],
                                               r.backlog_peak[i], check);
      const auto& want = base_verdicts[i];
      EXPECT_DOUBLE_EQ(want.offered_gbs, v.offered_gbs) << "tenant " << i;
      EXPECT_DOUBLE_EQ(want.achieved_gbs, v.achieved_gbs);
      EXPECT_DOUBLE_EQ(want.slowdown_p50_ms, v.slowdown_p50_ms);
      EXPECT_DOUBLE_EQ(want.slowdown_p99_ms, v.slowdown_p99_ms);
      EXPECT_EQ(want.backlog_peak, v.backlog_peak);
      ASSERT_EQ(want.violations.size(), v.violations.size()) << "tenant " << i;
      for (std::size_t k = 0; k < want.violations.size(); ++k) {
        EXPECT_EQ(want.violations[k].rule, v.violations[k].rule);
        EXPECT_DOUBLE_EQ(want.violations[k].severity,
                         v.violations[k].severity);
        EXPECT_EQ(want.violations[k].detail, v.violations[k].detail);
      }
    }
  }
}

// The same invariance one level up: the replay fleet's per-shard digests
// (which fold in every ESSD-path event) must match the pre-refactor HEAD
// at 1, 2 and 4 worker threads: no fleet-visible event may move.
TEST(Determinism, FleetDigestsMatchPreMappingRefactorHead) {
  for (const int threads : {1, 2, 4}) {
    const auto r = run_replay_fleet(threads);
    EXPECT_EQ(r.shard_digest, kReplayFleetDigests) << "threads " << threads;
    EXPECT_EQ(r.sim_events, kReplayFleetEvents) << "threads " << threads;
    EXPECT_EQ(r.makespan, kReplayFleetMakespan) << "threads " << threads;
  }
}

// ---------------------------------------------------------------------------
// Epoch-sliced rebalancing fleet: the fused-shard engine's digests, event
// count, and slice accounting are pinned across the whole thread matrix.
// Rebalancing fleets run the sliced schedule at *every* thread count (one
// thread runs the same slice barriers inline), so any divergence here means
// the partition evolution leaked a thread-count dependence.
// ---------------------------------------------------------------------------

fleet::FleetReport run_sliced_rebalance_fleet(int threads) {
  fleet::FleetSpec spec;
  spec.clusters = 4;
  spec.tenants = 12;
  spec.seed = 11;
  spec.duration = 150 * kMs;
  spec.diurnal_period = 80 * kMs;
  spec.mean_iops = 400.0;
  spec.max_tenant_iops = 4000.0;
  spec.burst_iops = 2000.0;
  spec.rebalance_watermark = 1.05;
  spec.rebalance_interval = 10 * kMs;
  spec.budget.max_concurrent = 2;
  spec.budget.max_total = 3;
  spec.budget.copy_bandwidth_bps = 200e6;
  return fleet::run_fleet(spec, {.threads = threads});
}

TEST(Determinism, SlicedRebalanceDigestMatrixIsPinned) {
  const fleet::FleetReport base = run_sliced_rebalance_fleet(1);
  ASSERT_EQ(base.digests.size(), 4u);  // shard-per-cluster, rebalancing on
  EXPECT_GT(base.raw.sliced.slices, 0u);
  for (const int threads : {2, 4, 8}) {
    const fleet::FleetReport r = run_sliced_rebalance_fleet(threads);
    EXPECT_EQ(r.digests, base.digests) << "threads " << threads;
    EXPECT_EQ(r.sim_events, base.sim_events) << "threads " << threads;
    EXPECT_EQ(r.makespan, base.makespan) << "threads " << threads;
    EXPECT_EQ(r.raw.sliced.slices, base.raw.sliced.slices);
    EXPECT_EQ(r.raw.sliced.fusions, base.raw.sliced.fusions);
    EXPECT_EQ(r.raw.sliced.splits, base.raw.sliced.splits);
    EXPECT_EQ(r.raw.sliced.max_group_clusters,
              base.raw.sliced.max_group_clusters);
  }
}

// Pacer ownership across a split: two live migrations fused into one group
// share one `MigrationPacer`; when the group splits while both still copy,
// each part must own its pacer, or two workers reserve on the same one.
// This fleet reaches that split (its 1-thread digests moved when pacers
// started being reconciled at every barrier, hence the pins), and the
// 2-thread runs repeat because a race shows up only sometimes.
fleet::FleetReport run_pacer_split_fleet(int threads) {
  fleet::FleetSpec spec;
  spec.clusters = 6;
  spec.tenants = 36;
  spec.seed = 10;
  spec.duration = 200 * kMs;
  spec.diurnal_period = 80 * kMs;
  spec.mean_iops = 400.0;
  spec.max_tenant_iops = 4000.0;
  spec.burst_iops = 2000.0;
  spec.policy = placement::Policy::kLeastInterference;
  spec.rebalance_watermark = 1.05;
  spec.rebalance_interval = 10 * kMs;
  spec.budget.max_concurrent = 4;
  spec.budget.copy_bandwidth_bps = 50e6;
  return fleet::run_fleet(spec, {.threads = threads});
}

TEST(Determinism, SplitGroupsOwnTheirPacers) {
  const fleet::FleetReport base = run_pacer_split_fleet(1);
  EXPECT_EQ(base.digests,
            (std::vector<std::uint64_t>{
                2406960431343457845ull, 10717222098129568840ull,
                625159124885512556ull, 13216116376685724675ull,
                3094660362860447612ull, 16091999506131882612ull}));
  EXPECT_EQ(base.sim_events, 15953u);
  for (int rep = 0; rep < 3; ++rep) {
    const fleet::FleetReport r = run_pacer_split_fleet(2);
    EXPECT_EQ(r.digests, base.digests) << "rep " << rep;
    EXPECT_EQ(r.sim_events, base.sim_events) << "rep " << rep;
    EXPECT_EQ(r.makespan, base.makespan) << "rep " << rep;
  }
}

TEST(Determinism, DeviceSeedChangesOutcome) {
  sim::Simulator sim_a;
  auto cfg = essd::aws_io2_profile(1 * kGiB);
  essd::EssdDevice dev_a(sim_a, cfg);
  sim::Simulator sim_b;
  cfg.seed ^= 0x5a5a;
  cfg.cluster.seed ^= 0x5a5a;
  essd::EssdDevice dev_b(sim_b, cfg);

  wl::JobSpec spec;
  spec.pattern = wl::AccessPattern::kRandom;
  spec.io_bytes = 4096;
  spec.queue_depth = 2;
  spec.total_ops = 1000;
  spec.seed = 5;
  const auto a = wl::JobRunner::run_to_completion(sim_a, dev_a, spec);
  const auto b = wl::JobRunner::run_to_completion(sim_b, dev_b, spec);
  EXPECT_NE(a.last_complete, b.last_complete);
}

}  // namespace
}  // namespace uc
