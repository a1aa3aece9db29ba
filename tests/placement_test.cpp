// Cross-cluster placement tests: policy planning, a lone cluster's
// indifference to the rebalance watermark, spread-vs-pack
// isolation on the noisy-neighbour scenario, and live volume migration
// (data integrity, source release, and watermark-driven rebalancing of a
// packed placement).

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "ebs/cluster.h"
#include "essd/essd_config.h"
#include "essd/essd_device.h"
#include "net/fabric.h"
#include "placement/migration.h"
#include "placement/placement.h"
#include "sched/sched.h"
#include "sched/scheduler.h"
#include "tenant/scenarios.h"
#include "tenant/tenant.h"
#include "workload/load_source.h"
#include "workload/runner.h"

namespace uc {
namespace {

using namespace units;

tenant::TenantSpec small_tenant(const char* name, std::uint64_t cap,
                                std::uint64_t ops, std::uint64_t seed) {
  tenant::TenantSpec t;
  t.name = name;
  t.capacity_bytes = cap;
  t.qos.bw_bytes_per_s = 1.0e9;
  t.load.job.pattern = wl::AccessPattern::kRandom;
  t.load.job.io_bytes = 16384;
  t.load.job.queue_depth = 4;
  t.load.job.total_ops = ops;
  t.load.job.seed = seed;
  return t;
}

TEST(PlanPlacement, SpreadRoundRobins) {
  placement::PlacementConfig cfg;
  cfg.clusters = 3;
  cfg.policy = placement::Policy::kSpread;
  std::vector<tenant::TenantSpec> tenants(5);
  for (auto& t : tenants) t.capacity_bytes = 64 * kMiB;
  EXPECT_EQ(placement::plan_placement(cfg, tenants),
            (std::vector<int>{0, 1, 2, 0, 1}));
}

TEST(PlanPlacement, PackFillsThenSpills) {
  placement::PlacementConfig cfg;
  cfg.clusters = 3;
  cfg.policy = placement::Policy::kPack;
  cfg.pack_limit_bytes = 128 * kMiB;
  std::vector<tenant::TenantSpec> tenants(5);
  for (auto& t : tenants) t.capacity_bytes = 64 * kMiB;
  // Two volumes fill a cluster, then the next cluster opens.
  EXPECT_EQ(placement::plan_placement(cfg, tenants),
            (std::vector<int>{0, 0, 1, 1, 2}));

  // Unbounded pack: everything lands on cluster 0.
  cfg.pack_limit_bytes = 0;
  EXPECT_EQ(placement::plan_placement(cfg, tenants),
            (std::vector<int>{0, 0, 0, 0, 0}));
}

TEST(PlanPlacement, LeastLoadedTracksBytes) {
  placement::PlacementConfig cfg;
  cfg.clusters = 2;
  cfg.policy = placement::Policy::kLeastLoadedBytes;
  std::vector<tenant::TenantSpec> tenants;
  tenants.push_back(small_tenant("big", 256 * kMiB, 1, 1));
  tenants.push_back(small_tenant("s1", 64 * kMiB, 1, 2));
  tenants.push_back(small_tenant("s2", 64 * kMiB, 1, 3));
  tenants.push_back(small_tenant("s3", 64 * kMiB, 1, 4));
  // The big volume parks on 0; the small ones pile onto 1 until it catches
  // up.
  EXPECT_EQ(placement::plan_placement(cfg, tenants),
            (std::vector<int>{0, 1, 1, 1}));
}

TEST(PlanPlacement, LeastWeightBalancesWeights) {
  placement::PlacementConfig cfg;
  cfg.clusters = 2;
  cfg.policy = placement::Policy::kLeastLoadedWeight;
  std::vector<tenant::TenantSpec> tenants(4);
  for (auto& t : tenants) t.capacity_bytes = 64 * kMiB;
  tenants[0].weight = 4.0;  // heavy tenant claims cluster 0...
  tenants[1].weight = 1.0;
  tenants[2].weight = 1.0;
  tenants[3].weight = 1.0;
  // ...so the three light tenants share cluster 1.
  EXPECT_EQ(placement::plan_placement(cfg, tenants),
            (std::vector<int>{0, 1, 1, 1}));
}

TEST(PlacementConfig, ValidateRejectsEachBadField) {
  EXPECT_TRUE(placement::PlacementConfig{}.validate().is_ok());

  struct Row {
    const char* field;
    void (*spoil)(placement::PlacementConfig&);
  };
  const Row rows[] = {
      {"clusters", [](placement::PlacementConfig& c) { c.clusters = 0; }},
      {"budget.max_concurrent",
       [](placement::PlacementConfig& c) { c.budget.max_concurrent = 0; }},
      {"budget.max_total",
       [](placement::PlacementConfig& c) { c.budget.max_total = -1; }},
      {"budget.copy_bandwidth_bps (negative)",
       [](placement::PlacementConfig& c) {
         c.budget.copy_bandwidth_bps = -1.0;
       }},
      {"budget.copy_bandwidth_bps (non-finite)",
       [](placement::PlacementConfig& c) {
         c.budget.copy_bandwidth_bps = std::numeric_limits<double>::infinity();
       }},
      {"rebalance_watermark (negative)",
       [](placement::PlacementConfig& c) { c.rebalance_watermark = -0.5; }},
      {"rebalance_watermark (non-finite)",
       [](placement::PlacementConfig& c) {
         c.rebalance_watermark = std::numeric_limits<double>::quiet_NaN();
       }},
      {"rebalance_interval",
       [](placement::PlacementConfig& c) {
         c.clusters = 2;
         c.rebalance_watermark = 1.2;
         c.rebalance_interval = 0;
       }},
  };
  for (const Row& row : rows) {
    placement::PlacementConfig cfg;
    row.spoil(cfg);
    EXPECT_EQ(cfg.validate().code(), StatusCode::kInvalidArgument)
        << row.field;
  }

  // A zero interval is fine while nothing can rebalance.
  placement::PlacementConfig lone;
  lone.clusters = 1;
  lone.rebalance_watermark = 1.2;
  lone.rebalance_interval = 0;
  EXPECT_TRUE(lone.validate().is_ok());
}

TEST(ShardPlan, OneShardPerCluster) {
  // Live migration couples specific cluster pairs for bounded windows; the
  // epoch-sliced engine fuses exactly those shards at runtime, so the plan
  // never co-shards, rebalancing or not.
  for (const int clusters : {1, 4}) {
    for (const double watermark : {0.0, 1.25}) {
      placement::PlacementConfig cfg;
      cfg.clusters = clusters;
      cfg.rebalance_watermark = watermark;
      const placement::ShardPlan plan = placement::compute_shard_plan(cfg);
      EXPECT_EQ(plan.shards(), static_cast<std::size_t>(clusters))
          << clusters << " clusters, watermark " << watermark;
    }
  }
}

TEST(ShardedHost, StaticRunMatchesPinnedDigests) {
  // Three tenants over three clusters, one tenant each, with rebalancing
  // off.  The pins were captured from the retired single-simulator
  // host (one event queue for the whole fleet), so they prove the
  // per-cluster shards and the coordinator merge reproduce it exactly, at
  // any thread count.
  std::vector<tenant::TenantSpec> tenants;
  tenants.push_back(small_tenant("a", 64 * kMiB, 400, 11));
  tenants.push_back(small_tenant("b", 64 * kMiB, 400, 22));
  tenants.push_back(small_tenant("c", 64 * kMiB, 400, 33));
  placement::PlacementConfig cfg;
  cfg.clusters = 3;
  cfg.policy = placement::Policy::kSpread;
  essd::EssdConfig base = essd::aws_io2_profile(64 * kMiB);
  base.cluster.spare_pool_bytes = 192 * kMiB;

  const placement::ShardPlan plan = placement::compute_shard_plan(cfg);
  const std::vector<std::uint64_t> want = {13100601404935730637ull,
                                           5822525009684999028ull,
                                           18306368389221112886ull};
  for (const int threads : {1, 4}) {
    sim::ParallelExecutor exec(threads);
    placement::ShardedHost fleet(base, tenants, cfg);
    const placement::PlacementResult r = fleet.run(exec);
    fleet.check_invariants();
    EXPECT_EQ(exec.epochs(), 2u) << threads;  // fill + measure
    EXPECT_EQ(r.sliced.slices, 1u) << threads;
    EXPECT_EQ(placement::shard_digests(plan, r), want) << threads;
    EXPECT_EQ(r.sim_events, 2400u) << threads;
    EXPECT_EQ(r.makespan, 37640029u) << threads;
    EXPECT_EQ(r.measure_start, 0u) << threads;
    EXPECT_EQ(r.initial_cluster, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(r.final_cluster, r.initial_cluster);
    EXPECT_TRUE(r.migrations.empty());
    // Solo baselines keep their bits too (same strided, weight-folded
    // cluster base).
    EXPECT_EQ(fleet.run_solo(1).last_complete, 37640029u) << threads;
  }
}

TEST(ShardedHost, IdleClusterRunMatchesPinnedDigests) {
  // Unbounded pack puts both tenants on cluster 0 of 3, so clusters 1 and 2
  // host nobody for the whole run.  An idle cluster must digest as an
  // all-zero delta and report no occupancy, at any thread count.
  std::vector<tenant::TenantSpec> tenants;
  tenants.push_back(small_tenant("a", 64 * kMiB, 400, 11));
  tenants.push_back(small_tenant("b", 64 * kMiB, 400, 22));
  placement::PlacementConfig cfg;
  cfg.clusters = 3;
  cfg.policy = placement::Policy::kPack;
  essd::EssdConfig base = essd::aws_io2_profile(64 * kMiB);
  base.cluster.spare_pool_bytes = 192 * kMiB;

  const placement::ShardPlan plan = placement::compute_shard_plan(cfg);
  const std::vector<std::uint64_t> want = {15990229853948850370ull,
                                           10618861594055612418ull,
                                           16949189903402991041ull};
  for (const int threads : {1, 4}) {
    sim::ParallelExecutor exec(threads);
    placement::ShardedHost fleet(base, tenants, cfg);
    const placement::PlacementResult r = fleet.run(exec);
    fleet.check_invariants();
    EXPECT_EQ(exec.epochs(), 2u) << threads;  // fill + measure
    EXPECT_EQ(r.sliced.slices, 1u) << threads;
    EXPECT_EQ(placement::shard_digests(plan, r), want) << threads;
    EXPECT_EQ(r.sim_events, 1600u) << threads;
    EXPECT_EQ(r.makespan, 38057864u) << threads;
    EXPECT_EQ(r.initial_cluster, (std::vector<int>{0, 0}));
    EXPECT_EQ(r.final_cluster, r.initial_cluster);
    ASSERT_EQ(r.busy.size(), 3u);
    EXPECT_GT(r.busy[0].signal(), 0u) << threads;
    EXPECT_EQ(r.busy[1].signal(), 0u) << threads;
    EXPECT_EQ(r.busy[2].signal(), 0u) << threads;
  }
}

TEST(LoadSource, TakeStatsLeavesAnEmptyJobStats) {
  // `ShardedHost::collect` moves each finished tenant's stats into the
  // result; the source keeps an empty `JobStats`, and taking from a load
  // that has not finished is a bug.  Both loops share the base-class path.
  tenant::TenantSpec closed = small_tenant("closed", 64 * kMiB, 200, 5);
  tenant::TenantSpec open = closed;
  open.load.open_loop = true;
  open.load.job.duration = 50 * kMs;
  open.load.gen = wl::derive_trace_gen(open.load.job, 3000.0);
  for (const tenant::TenantSpec& t : {closed, open}) {
    sim::Simulator sim;
    essd::EssdDevice dev(sim, essd::aws_io2_profile(t.capacity_bytes));
    const std::unique_ptr<wl::LoadSource> source =
        wl::make_load_source_or_die(sim, dev, t.load, t.name);
    EXPECT_DEATH(source->take_stats(), "unfinished load") << t.name;
    source->start();
    sim.run();
    ASSERT_TRUE(source->finished()) << t.name;
    const std::uint64_t ops = source->stats().total_ops();
    const std::uint64_t bytes = source->stats().total_bytes();
    const std::uint64_t p99 = source->stats().all_latency.percentile(99);
    ASSERT_GT(ops, 0u) << t.name;

    const wl::JobStats taken = source->take_stats();
    EXPECT_EQ(taken.total_ops(), ops) << t.name;
    EXPECT_EQ(taken.total_bytes(), bytes) << t.name;
    EXPECT_EQ(taken.all_latency.count(), ops) << t.name;
    EXPECT_EQ(taken.all_latency.percentile(99), p99) << t.name;
    EXPECT_EQ(taken.timeline.total_ops(), ops) << t.name;

    const wl::JobStats& left = source->stats();
    EXPECT_EQ(left.total_ops(), 0u) << t.name;
    EXPECT_EQ(left.total_bytes(), 0u) << t.name;
    EXPECT_TRUE(left.all_latency.empty()) << t.name;
    EXPECT_TRUE(left.read_latency.empty()) << t.name;
    EXPECT_TRUE(left.write_latency.empty()) << t.name;
    EXPECT_TRUE(left.slowdown.empty()) << t.name;
    EXPECT_EQ(left.timeline.total_ops(), 0u) << t.name;
    EXPECT_EQ(left.first_submit, 0u) << t.name;
    EXPECT_EQ(left.last_complete, 0u) << t.name;
  }
}

TEST(PrioScheduler, MigrationIsTheLowestClass) {
  sched::SchedulerConfig cfg;
  cfg.policy = sched::Policy::kPrio;
  auto sched = sched::make_scheduler(cfg);
  auto push = [&](sched::IoClass c) {
    sched::Item item;
    item.tag = sched::SchedTag{0, c, 4096};
    item.enqueued = 0;
    item.duration = 1000;
    sched->push(std::move(item));
  };
  push(sched::IoClass::kMigration);
  push(sched::IoClass::kPrefetch);
  push(sched::IoClass::kFgWrite);
  EXPECT_EQ(sched->pop(0).tag.io_class, sched::IoClass::kFgWrite);
  EXPECT_EQ(sched->pop(0).tag.io_class, sched::IoClass::kPrefetch);
  EXPECT_EQ(sched->pop(0).tag.io_class, sched::IoClass::kMigration);
  EXPECT_STREQ(sched::io_class_name(sched::IoClass::kMigration), "migration");
}

// A watermark cannot rebalance a lone cluster: a one-cluster fleet at
// watermark 1.5 must run exactly the fleet at watermark 0, field for field,
// with no migration.  Tenant t1's precondition fill puts the measured
// window's start after time 0, so the before-snapshots are subtracted too.
TEST(ShardedHost, LoneClusterIgnoresWatermark) {
  essd::EssdConfig base = essd::aws_io2_profile(64 * kMiB);
  base.cluster.spare_pool_bytes = 128 * kMiB;
  std::vector<tenant::TenantSpec> tenants;
  tenants.push_back(small_tenant("t0", 64 * kMiB, 400, 11));
  tenants.push_back(small_tenant("t1", 64 * kMiB, 400, 12));
  tenants[1].precondition_bytes = 8 * kMiB;

  const auto run = [&](double watermark) {
    sim::ParallelExecutor exec(1);
    placement::PlacementConfig cfg;
    cfg.rebalance_watermark = watermark;
    placement::ShardedHost fleet(base, tenants, cfg);
    placement::PlacementResult r = fleet.run(exec);
    fleet.check_invariants();
    return r;
  };
  const placement::PlacementResult a = run(0.0);
  const placement::PlacementResult b = run(1.5);

  EXPECT_GT(a.measure_start, 0u);
  EXPECT_EQ(a.measure_start, b.measure_start);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.sim_events, b.sim_events);
  ASSERT_EQ(a.stats.size(), 2u);
  ASSERT_EQ(b.stats.size(), 2u);
  for (std::size_t i = 0; i < a.stats.size(); ++i) {
    const wl::JobStats& x = a.stats[i];
    const wl::JobStats& y = b.stats[i];
    EXPECT_EQ(x.read_ops, y.read_ops) << i;
    EXPECT_EQ(x.write_ops, y.write_ops) << i;
    EXPECT_EQ(x.read_bytes, y.read_bytes) << i;
    EXPECT_EQ(x.write_bytes, y.write_bytes) << i;
    EXPECT_EQ(x.first_submit, y.first_submit) << i;
    EXPECT_EQ(x.last_complete, y.last_complete) << i;
    EXPECT_EQ(x.all_latency.count(), y.all_latency.count()) << i;
    EXPECT_EQ(x.all_latency.max(), y.all_latency.max()) << i;
    EXPECT_DOUBLE_EQ(x.all_latency.mean(), y.all_latency.mean()) << i;
    EXPECT_EQ(x.all_latency.percentile(99), y.all_latency.percentile(99))
        << i;
    EXPECT_EQ(a.backlog_peak[i], b.backlog_peak[i]) << i;
  }

  ASSERT_EQ(a.cluster.size(), 1u);
  ASSERT_EQ(b.cluster.size(), 1u);
  const ebs::ClusterStats& ca = a.cluster[0];
  const ebs::ClusterStats& cb = b.cluster[0];
  EXPECT_EQ(ca.writes, cb.writes);
  EXPECT_EQ(ca.written_pages, cb.written_pages);
  EXPECT_EQ(ca.reads, cb.reads);
  EXPECT_EQ(ca.read_pages, cb.read_pages);
  EXPECT_EQ(ca.cache_hit_pages, cb.cache_hit_pages);
  EXPECT_EQ(ca.media_read_pages, cb.media_read_pages);
  EXPECT_EQ(ca.stalled_writes, cb.stalled_writes);
  EXPECT_EQ(ca.append_stall_ns, cb.append_stall_ns);
  EXPECT_EQ(a.cleaner[0].segments_cleaned, b.cleaner[0].segments_cleaned);
  EXPECT_EQ(a.cleaner[0].pages_relocated, b.cleaner[0].pages_relocated);
  EXPECT_EQ(a.cleaner[0].bytes_processed, b.cleaner[0].bytes_processed);
  EXPECT_EQ(a.busy[0].busy_ns, b.busy[0].busy_ns);
  EXPECT_EQ(a.busy[0].class_busy_ns, b.busy[0].class_busy_ns);
  EXPECT_EQ(a.busy[0].stall_ns, b.busy[0].stall_ns);
  const net::FabricStats& fa = a.fabric[0];
  const net::FabricStats& fb = b.fabric[0];
  EXPECT_EQ(fa.vm_tx_bytes, fb.vm_tx_bytes);
  EXPECT_EQ(fa.vm_rx_bytes, fb.vm_rx_bytes);
  EXPECT_EQ(fa.vm_tx_busy_ns, fb.vm_tx_busy_ns);
  EXPECT_EQ(fa.vm_rx_busy_ns, fb.vm_rx_busy_ns);
  EXPECT_EQ(fa.node_tx_bytes, fb.node_tx_bytes);
  EXPECT_EQ(fa.node_rx_bytes, fb.node_rx_bytes);
  EXPECT_GT(fa.vm_tx_bytes, 0u);
  EXPECT_TRUE(a.migrations.empty());
  EXPECT_TRUE(b.migrations.empty());
  EXPECT_EQ(b.final_cluster, b.initial_cluster);
}

double mean_victim_interference(const tenant::FairnessReport& report) {
  double sum = 0.0;
  int victims = 0;
  for (const auto& m : report.tenants) {
    if (m.name.rfind("victim", 0) != 0) continue;
    sum += m.interference;
    ++victims;
  }
  return victims == 0 ? 0.0 : sum / victims;
}

// The acceptance bar of the placement layer: on two clusters, spreading the
// noisy-neighbour mix isolates at least one victim from the hog, so victim
// tails improve over packing everyone onto cluster 0.
TEST(PlacementScenario, SpreadCutsVictimInterferenceVsPack) {
  placement::PlacementScenarioOptions opt;
  opt.base.quick = true;
  opt.placement.clusters = 2;

  opt.placement.policy = placement::Policy::kPack;  // unbounded: all on 0
  const auto pack = placement::run_placement_scenario(
      tenant::Scenario::kNoisyNeighbor, opt);
  EXPECT_EQ(pack.final_cluster, (std::vector<int>{0, 0, 0}));

  opt.placement.policy = placement::Policy::kSpread;
  const auto spread = placement::run_placement_scenario(
      tenant::Scenario::kNoisyNeighbor, opt);
  // hog -> 0, victim-a -> 1, victim-b -> 0.
  EXPECT_EQ(spread.final_cluster, (std::vector<int>{0, 1, 0}));

  const double packed = mean_victim_interference(pack.report);
  const double spreaded = mean_victim_interference(spread.report);
  ASSERT_GT(packed, 0.0);
  EXPECT_LT(spreaded, packed);
  // The isolated victim individually sees (near-)solo tails.
  EXPECT_LT(spread.report.tenants[1].interference, 1.5)
      << "victim-a should be isolated on cluster 1";
  // Per-cluster slices cover both clusters under spread.
  ASSERT_EQ(spread.per_cluster.size(), 2u);
  EXPECT_EQ(spread.per_cluster[0].tenants.size(), 2u);
  EXPECT_EQ(spread.per_cluster[1].tenants.size(), 1u);
}

// Direct migrator check: every written page arrives on the target with its
// stamp intact, the source copy is trimmed after cutover, and both clusters
// still reconcile their pool accounting.
TEST(VolumeMigrator, PreservesStampsAndReleasesSource) {
  sim::Simulator sim;
  essd::EssdConfig ecfg = essd::aws_io2_profile(64 * kMiB);
  ecfg.cluster.spare_pool_bytes = 128 * kMiB;

  ebs::StorageCluster src(sim, ecfg.cluster);
  ebs::ClusterConfig dst_cfg = ecfg.cluster;
  dst_cfg.seed += placement::kClusterSeedStride;
  ebs::StorageCluster dst(sim, dst_cfg);

  const auto src_vol = src.attach_volume(64 * kMiB);
  const auto dst_vol = dst.attach_volume(64 * kMiB);
  essd::EssdDevice device(sim, ecfg, src, src_vol);

  // A mix of sequential and scattered writes, then one overwrite and a trim
  // so the diff sees every page state.
  wl::JobSpec fill;
  fill.pattern = wl::AccessPattern::kSequential;
  fill.io_bytes = 64 * 1024;
  fill.queue_depth = 8;
  fill.write_ratio = 1.0;
  fill.total_bytes = 8 * kMiB;
  fill.seed = 5;
  wl::JobRunner::run_to_completion(sim, device, fill);
  bool ok = false;
  src.write(src_vol, 2 * kMiB, 64 * 1024, /*first_stamp=*/90001,
            [&] { ok = true; });
  sim.run();
  ASSERT_TRUE(ok);
  src.trim(src_vol, 1 * kMiB, 64 * 1024);

  std::vector<WriteStamp> expected(64 * kMiB / kLogicalPageBytes, 0);
  std::vector<bool> written(expected.size(), false);
  for (std::size_t p = 0; p < expected.size(); ++p) {
    const ByteOffset off = p * kLogicalPageBytes;
    written[p] = src.is_written(src_vol, off);
    if (written[p]) expected[p] = src.page_stamp(src_vol, off);
  }

  placement::MigrationConfig mcfg;
  placement::VolumeMigrator migrator(sim, device, src, src_vol, dst, dst_vol,
                                     mcfg);
  migrator.start();
  sim.run();
  ASSERT_TRUE(migrator.finished());

  for (std::size_t p = 0; p < expected.size(); ++p) {
    const ByteOffset off = p * kLogicalPageBytes;
    ASSERT_EQ(dst.is_written(dst_vol, off), written[p]) << "page " << p;
    if (written[p]) {
      ASSERT_EQ(dst.page_stamp(dst_vol, off), expected[p]) << "page " << p;
    }
  }
  const auto& stats = migrator.stats();
  EXPECT_GT(stats.pages_copied, 0u);
  EXPECT_GT(stats.cutover, stats.started);
  EXPECT_GE(stats.passes, 2);
  // The device now serves the target volume, and the source was trimmed.
  EXPECT_EQ(&device.cluster(), &dst);
  EXPECT_EQ(device.volume(), dst_vol);
  EXPECT_EQ(src.live_pages(src_vol), 0u);
  EXPECT_TRUE(src.check_invariants());
  EXPECT_TRUE(dst.check_invariants());
}

// The rebalance acceptance bar: a deliberately imbalanced pack placement
// (everyone on cluster 0 of 2) plus a watermark triggers live migration
// during the run.  Cluster 1 starts empty (pack is unbounded), so the
// coordinator must migrate into an idle shard, fusing {source, destination}
// while the copy is live and splitting back after the cutover drains.
// Every job still completes, the copy shows up in the migration log, and
// digests and slice accounting are identical at every thread count —
// including one thread, which runs the same sliced schedule inline.
TEST(SlicedShardedHost, FusedRebalanceIsThreadCountInvariant) {
  essd::EssdConfig base = essd::aws_io2_profile(64 * kMiB);
  base.cluster.spare_pool_bytes = 256 * kMiB;
  std::vector<tenant::TenantSpec> tenants;
  tenants.push_back(small_tenant("t0", 64 * kMiB, 3000, 21));
  tenants.push_back(small_tenant("t1", 64 * kMiB, 3000, 22));
  tenants.push_back(small_tenant("t2", 64 * kMiB, 3000, 23));
  // Non-default WFQ weights: the migrated-in volume must carry its
  // tenant's weight to the target cluster (re-registration fix).
  for (auto& t : tenants) t.weight = 2.5;

  placement::PlacementConfig cfg;
  cfg.clusters = 2;
  cfg.policy = placement::Policy::kPack;  // unbounded: all on cluster 0
  cfg.rebalance_watermark = 1.2;
  cfg.rebalance_interval = 5 * kMs;

  const auto run_with = [&](int threads) {
    sim::ParallelExecutor exec(threads);
    placement::ShardedHost host(base, tenants, cfg);
    placement::PlacementResult r = host.run(exec);
    host.check_invariants();
    // One fill epoch, then exactly one epoch per slice.
    EXPECT_EQ(exec.epochs(), 1u + r.sliced.slices);
    // The target cluster was built with an empty weight fold (nothing was
    // planned onto it), so the migrated-in volume is its first attach,
    // VolumeId 0; it must carry its tenant's 2.5 WFQ weight instead of
    // falling back to default_weight.
    EXPECT_DOUBLE_EQ(host.cluster(1).config().sched.weight(0), 2.5);
    // Capacity accessors: the target grew by the migrated volume, while the
    // source keeps its (now dead, trimmed) copy attached — which is exactly
    // why the coordinator tracks load by its own tenant map, not
    // attached_bytes().
    EXPECT_EQ(host.cluster(1).attached_bytes(), 64 * kMiB);
    EXPECT_EQ(host.cluster(0).attached_bytes(), 3 * 64 * kMiB);
    EXPECT_GT(host.cluster(0).free_pool_bytes(), 0u);
    EXPECT_LE(host.cluster(0).free_pool_bytes(),
              host.cluster(0).total_pool_bytes());
    EXPECT_TRUE(host.cluster(0).check_invariants());
    EXPECT_TRUE(host.cluster(1).check_invariants());
    return r;
  };

  const placement::PlacementResult r1 = run_with(1);
  EXPECT_EQ(r1.initial_cluster, (std::vector<int>{0, 0, 0}));
  // 3x64 MiB on cluster 0 vs mean 96 MiB trips the 1.2x watermark once;
  // after one move ([128, 64] MiB) the oscillation guard holds.
  ASSERT_EQ(r1.migrations.size(), 1u);
  const auto& mig = r1.migrations[0];
  EXPECT_EQ(mig.from_cluster, 0);
  EXPECT_EQ(mig.to_cluster, 1);
  EXPECT_GT(mig.stats.pages_copied, 0u);
  EXPECT_GT(mig.stats.cutover, 0u);
  EXPECT_EQ(r1.final_cluster[mig.tenant], 1);
  int on_cluster1 = 0;
  for (const int c : r1.final_cluster) on_cluster1 += c == 1 ? 1 : 0;
  EXPECT_EQ(on_cluster1, 1);
  for (const auto& s : r1.stats) {
    EXPECT_EQ(s.total_ops(), 3000u);  // nobody lost I/O across the cutover
  }
  EXPECT_GT(r1.sliced.slices, 0u);
  EXPECT_GE(r1.sliced.fusions, 1u);  // src+dst fused while the copy ran
  EXPECT_GE(r1.sliced.splits, 1u);   // and split back once it drained
  EXPECT_EQ(r1.sliced.max_group_clusters, 2);

  const placement::ShardPlan plan = placement::compute_shard_plan(cfg);
  ASSERT_EQ(plan.shards(), 2u);  // rebalancing no longer co-shards
  const std::vector<std::uint64_t> d1 = placement::shard_digests(plan, r1);
  for (const int threads : {2, 4}) {
    const placement::PlacementResult rt = run_with(threads);
    EXPECT_EQ(placement::shard_digests(plan, rt), d1) << threads;
    EXPECT_EQ(rt.sim_events, r1.sim_events) << threads;
    EXPECT_EQ(rt.sliced.slices, r1.sliced.slices) << threads;
    EXPECT_EQ(rt.sliced.fusions, r1.sliced.fusions) << threads;
    EXPECT_EQ(rt.sliced.splits, r1.sliced.splits) << threads;
    EXPECT_EQ(rt.sliced.max_group_clusters, r1.sliced.max_group_clusters)
        << threads;
  }
}

// The same packed fleet's outcome, pinned at 1 and 4 threads: it rebalances
// by attached bytes (`kPack`), so these values pin the bytes rebalance path
// and the migration's copy accounting.
TEST(SlicedShardedHost, BytesRebalanceIsPinned) {
  essd::EssdConfig base = essd::aws_io2_profile(64 * kMiB);
  base.cluster.spare_pool_bytes = 256 * kMiB;
  std::vector<tenant::TenantSpec> tenants;
  tenants.push_back(small_tenant("t0", 64 * kMiB, 3000, 21));
  tenants.push_back(small_tenant("t1", 64 * kMiB, 3000, 22));
  tenants.push_back(small_tenant("t2", 64 * kMiB, 3000, 23));
  for (auto& t : tenants) t.weight = 2.5;
  placement::PlacementConfig cfg;
  cfg.clusters = 2;
  cfg.policy = placement::Policy::kPack;
  cfg.rebalance_watermark = 1.2;
  cfg.rebalance_interval = 5 * kMs;

  const placement::ShardPlan plan = placement::compute_shard_plan(cfg);
  for (const int threads : {1, 4}) {
    sim::ParallelExecutor exec(threads);
    placement::ShardedHost host(base, tenants, cfg);
    const placement::PlacementResult r = host.run(exec);
    EXPECT_EQ(placement::shard_digests(plan, r),
              (std::vector<std::uint64_t>{9889288798660051007ull,
                                          17183763851418426230ull}))
        << threads;
    EXPECT_EQ(r.sim_events, 22716u) << threads;
    EXPECT_EQ(r.makespan, 288133093u) << threads;
    ASSERT_EQ(r.migrations.size(), 1u) << threads;
    const placement::MigrationRecord& m = r.migrations[0];
    EXPECT_EQ(m.tenant, 0u);
    EXPECT_EQ(m.from_cluster, 0);
    EXPECT_EQ(m.to_cluster, 1);
    EXPECT_EQ(m.stats.pages_copied, 9420u);
    EXPECT_EQ(m.stats.bytes_copied, 38584320u);
    EXPECT_EQ(m.stats.pages_trimmed, 0u);
    EXPECT_EQ(m.stats.passes, 4);
    EXPECT_EQ(m.stats.started, 5000000u);
    EXPECT_EQ(m.stats.cutover, 914378176u);
    EXPECT_EQ(m.stats.frozen_ns, 0u);
  }
}

// End-to-end relief: the cleaner-pressure mix packed onto cluster 0 of 2
// outruns that cluster's cleaner; watermark-driven migration moves one
// tenant out mid-run, cutting cluster-wide stall time and raising the
// aggregate throughput over the same packed placement without migration.
TEST(PlacementScenario, MigrationRelievesPackedCleanerPressure) {
  placement::PlacementScenarioOptions packed;
  packed.base.quick = true;
  packed.base.solo_baselines = false;  // the signal lives in cluster stats
  packed.placement.clusters = 2;
  packed.placement.policy = placement::Policy::kPack;  // all on cluster 0
  const auto congested = placement::run_placement_scenario(
      tenant::Scenario::kCleanerPressure, packed);
  EXPECT_EQ(congested.final_cluster, (std::vector<int>{0, 0, 0}));

  placement::PlacementScenarioOptions relief = packed;
  relief.placement.rebalance_watermark = 1.25;
  relief.placement.rebalance_interval = 10 * kMs;
  const auto relieved = placement::run_placement_scenario(
      tenant::Scenario::kCleanerPressure, relief);

  ASSERT_GE(relieved.migrations.size(), 1u);
  const auto stall_ns = [](const placement::PlacementScenarioResult& r) {
    SimTime total = 0;
    for (const auto& c : r.cluster) total += c.append_stall_ns;
    return total;
  };
  EXPECT_GT(stall_ns(congested), 0u);
  EXPECT_LT(stall_ns(relieved), stall_ns(congested));
  EXPECT_GT(relieved.report.aggregate_gbs, congested.report.aggregate_gbs);
}

}  // namespace
}  // namespace uc
