// Tests for the pluggable scheduling layer: config validation, FIFO
// equivalence with the horizon-reservation primitives, DRR quantum/weight
// accounting, the priority policy's class ordering and starvation guard,
// and the isolation buy-back acceptance criteria on the tenant scenarios.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "ebs/cluster.h"
#include "essd/essd_config.h"
#include "placement/placement.h"
#include "sched/queued_resource.h"
#include "sched/scheduler.h"
#include "sim/simulator.h"
#include "tenant/scenarios.h"
#include "tenant/tenant.h"

namespace uc {
namespace {

using namespace units;

sched::SchedTag tag(std::uint32_t tenant, sched::IoClass c,
                    std::uint64_t bytes = 0) {
  return sched::SchedTag{tenant, c, bytes};
}

// ------------------------------------------------------- validation --

// One row per rejected field, plus the default config.  The cluster and
// device configs surface the same error for the queues they configure.
TEST(SchedulerConfig, ValidateRejectsEachBadField) {
  using Cfg = sched::SchedulerConfig;
  struct Row {
    const char* name;
    std::function<void(Cfg&)> mutate;
    bool ok;
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<Row> rows = {
      {"default", [](Cfg&) {}, true},
      {"quantum_ns zero", [](Cfg& c) { c.quantum_ns = 0; }, false},
      {"default_weight zero", [](Cfg& c) { c.default_weight = 0.0; }, false},
      {"default_weight negative", [](Cfg& c) { c.default_weight = -1.0; },
       false},
      {"default_weight NaN", [nan](Cfg& c) { c.default_weight = nan; }, false},
      {"default_weight infinite", [inf](Cfg& c) { c.default_weight = inf; },
       false},
      {"weights[1] zero", [](Cfg& c) { c.weights = {1.0, 0.0}; }, false},
      {"weights[0] negative", [](Cfg& c) { c.weights = {-2.0}; }, false},
      {"weights[2] NaN", [nan](Cfg& c) { c.weights = {1.0, 1.0, nan}; },
       false},
      {"weights[0] infinite", [inf](Cfg& c) { c.weights = {inf}; }, false},
  };
  for (const Row& row : rows) {
    Cfg cfg;
    row.mutate(cfg);
    const Status s = cfg.validate();
    EXPECT_EQ(s.is_ok(), row.ok) << row.name;
    if (!row.ok) {
      EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << row.name;
    }

    ebs::ClusterConfig cluster;
    cluster.sched = cfg;
    EXPECT_EQ(cluster.validate().to_string(), s.to_string()) << row.name;
    essd::EssdConfig device = essd::aws_io2_profile(64 * kMiB);
    device.cluster.sched = cfg;
    EXPECT_EQ(device.validate().to_string(), s.to_string()) << row.name;
  }
}

// ------------------------------------------------------------- FIFO --

TEST(QueuedResource, FifoSubmitMatchesAcquireArithmetic) {
  sched::QueuedResource a;
  sched::QueuedResource b;
  // Same reservation sequence through both paths must produce the same
  // completion times, synchronously.
  const SimTime f1 = a.acquire(100, 50);
  SimTime f1b = 0;
  b.submit(100, tag(0, sched::IoClass::kFgWrite), 50,
           [&](SimTime t) { f1b = t; });
  EXPECT_EQ(f1, 150u);
  EXPECT_EQ(f1b, f1);

  const SimTime f2 = a.acquire(120, 30);  // arrives while busy: queues to 180
  SimTime f2b = 0;
  b.submit(120, tag(1, sched::IoClass::kFgRead), 30,
           [&](SimTime t) { f2b = t; });
  EXPECT_EQ(f2, 180u);
  EXPECT_EQ(f2b, f2);

  EXPECT_EQ(a.busy_time(), b.busy_time());
  EXPECT_EQ(a.busy_until(), b.busy_until());
}

TEST(QueuedResource, TracksPerClassBusyTime) {
  sched::QueuedResource r;
  r.submit(0, tag(0, sched::IoClass::kFgRead), 100, [](SimTime) {});
  r.submit(0, tag(1, sched::IoClass::kFgWrite), 200, [](SimTime) {});
  r.submit(0, tag(1, sched::IoClass::kCleanerGc), 300, [](SimTime) {});
  EXPECT_EQ(r.busy_time(), 600u);
  EXPECT_EQ(r.class_busy_time(sched::IoClass::kFgRead), 100u);
  EXPECT_EQ(r.class_busy_time(sched::IoClass::kFgWrite), 200u);
  EXPECT_EQ(r.class_busy_time(sched::IoClass::kCleanerGc), 300u);
  EXPECT_EQ(r.class_busy_time(sched::IoClass::kPrefetch), 0u);
}

TEST(QueuedResource, UntaggedAcquireAccruesToTenantZeroWrites) {
  sched::QueuedResource r;
  EXPECT_EQ(r.acquire(0, 100), 100u);
  EXPECT_EQ(r.acquire(0, 50), 150u);   // back-to-back serialization
  EXPECT_EQ(r.acquire(500, 10), 510u); // idle gap
  EXPECT_EQ(r.busy_time(), 160u);
  EXPECT_EQ(r.class_busy_time(sched::IoClass::kFgWrite), 160u);
}

// -------------------------------------------------------------- DRR --

std::vector<std::uint32_t> grant_order_wfq(const std::vector<double>& weights,
                                           SimTime quantum_ns, int per_flow,
                                           SimTime duration) {
  sim::Simulator sim;
  sched::QueuedResource r;
  sched::SchedulerConfig cfg;
  cfg.policy = sched::Policy::kWfq;
  cfg.quantum_ns = quantum_ns;
  cfg.weights = weights;
  r.configure(sim, cfg);

  std::vector<std::uint32_t> order;
  // A blocker occupies the resource so everything behind it queues.
  r.submit(0, tag(99, sched::IoClass::kFgWrite), 1000, [](SimTime) {});
  for (int i = 0; i < per_flow; ++i) {
    for (std::uint32_t t = 0; t < weights.size(); ++t) {
      r.submit(0, tag(t, sched::IoClass::kFgWrite), duration,
               [&order, t](SimTime) { order.push_back(t); });
    }
  }
  sim.run();
  return order;
}

TEST(DrrScheduler, QuantumAccountingServesWeightedBursts) {
  // Weights 2:1 with quantum 200 and cost 100: flow 0 gets 4 serves per
  // ring visit, flow 1 gets 2.
  const auto order = grant_order_wfq({2.0, 1.0}, 200, 12, 100);
  ASSERT_EQ(order.size(), 24u);
  const std::vector<std::uint32_t> expected_prefix = {0, 0, 0, 0, 1, 1,
                                                      0, 0, 0, 0, 1, 1};
  for (std::size_t i = 0; i < expected_prefix.size(); ++i) {
    EXPECT_EQ(order[i], expected_prefix[i]) << "position " << i;
  }
}

TEST(DrrScheduler, EqualWeightsAlternateFairly) {
  const auto order = grant_order_wfq({1.0, 1.0}, 100, 10, 100);
  ASSERT_EQ(order.size(), 20u);
  // One quantum = one item: strict alternation.
  for (std::size_t i = 0; i + 1 < order.size(); i += 2) {
    EXPECT_NE(order[i], order[i + 1]) << "position " << i;
  }
}

TEST(DrrScheduler, OversizedItemStillProgresses) {
  // An item costing many quanta must accumulate deficit across ring visits
  // rather than deadlock (and cannot starve the other flow meanwhile).
  sim::Simulator sim;
  sched::QueuedResource r;
  sched::SchedulerConfig cfg;
  cfg.policy = sched::Policy::kWfq;
  cfg.quantum_ns = 10;  // far below the 1000ns item cost
  r.configure(sim, cfg);
  r.submit(0, tag(0, sched::IoClass::kFgWrite), 500, [](SimTime) {});
  bool big_served = false;
  bool small_served = false;
  r.submit(0, tag(0, sched::IoClass::kFgWrite), 1000,
           [&](SimTime) { big_served = true; });
  r.submit(0, tag(1, sched::IoClass::kFgWrite), 50,
           [&](SimTime) { small_served = true; });
  sim.run();
  EXPECT_TRUE(big_served);
  EXPECT_TRUE(small_served);
}

// ------------------------------------------------------------- PRIO --

TEST(PrioScheduler, ForegroundReadsPreemptQueuedBackground) {
  sim::Simulator sim;
  sched::QueuedResource r;
  sched::SchedulerConfig cfg;
  cfg.policy = sched::Policy::kPrio;
  r.configure(sim, cfg);

  std::vector<int> order;
  r.submit(0, tag(0, sched::IoClass::kFgWrite), 100, [](SimTime) {});  // busy
  // Queued in "wrong" order: prefetch, cleaner, write, read.
  r.submit(0, tag(0, sched::IoClass::kPrefetch), 10,
           [&](SimTime) { order.push_back(3); });
  r.submit(0, tag(0, sched::IoClass::kCleanerGc), 10,
           [&](SimTime) { order.push_back(2); });
  r.submit(0, tag(0, sched::IoClass::kFgWrite), 10,
           [&](SimTime) { order.push_back(1); });
  r.submit(0, tag(0, sched::IoClass::kFgRead), 10,
           [&](SimTime) { order.push_back(0); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(PrioScheduler, StarvationGuardPromotesWaitingWrites) {
  sim::Simulator sim;
  sched::QueuedResource r;
  sched::SchedulerConfig cfg;
  cfg.policy = sched::Policy::kPrio;
  cfg.starvation_ns = 500;
  r.configure(sim, cfg);

  r.submit(0, tag(0, sched::IoClass::kFgRead), 100, [](SimTime) {});  // busy
  SimTime write_granted = kNoTime;
  r.submit(0, tag(0, sched::IoClass::kFgWrite), 10,
           [&](SimTime) { write_granted = sim.now(); });
  // A continuous stream of reads that would starve the write forever under
  // pure strict priority (each read grant enqueues the next).
  int reads_left = 100;
  std::function<void()> feed = [&] {
    if (reads_left-- <= 0) return;
    r.submit(sim.now(), tag(0, sched::IoClass::kFgRead), 100,
             [&](SimTime) { feed(); });
  };
  feed();
  sim.run();
  ASSERT_NE(write_granted, kNoTime);
  // Served once its wait crossed the 500ns guard, despite pending reads —
  // within a service time or two of the bound.
  EXPECT_LE(write_granted, 1000u);
}

// ------------------------------------- acceptance: isolation buy-back --

TEST(SchedulingPolicies, WfqBuysBackNoisyNeighborIsolation) {
  tenant::ScenarioOptions fifo_opt;
  fifo_opt.quick = true;
  const auto fifo = placement::run_placement_scenario(
      tenant::Scenario::kNoisyNeighbor, {fifo_opt, {}});

  tenant::ScenarioOptions wfq_opt = fifo_opt;
  wfq_opt.sched.policy = sched::Policy::kWfq;  // equal weights
  const auto wfq = placement::run_placement_scenario(
      tenant::Scenario::kNoisyNeighbor, {wfq_opt, {}});

  double fifo_worst = 0.0;
  double wfq_worst = 0.0;
  for (std::size_t i = 0; i < fifo.report.tenants.size(); ++i) {
    const auto& f = fifo.report.tenants[i];
    const auto& w = wfq.report.tenants[i];
    if (f.name.rfind("victim", 0) != 0) continue;
    fifo_worst = std::max(fifo_worst, f.interference);
    wfq_worst = std::max(wfq_worst, w.interference);
  }
  ASSERT_GT(fifo_worst, 0.0);
  // The acceptance bar: >= 25% improvement of the victims' interference.
  EXPECT_LE(wfq_worst, 0.75 * fifo_worst)
      << "fifo " << fifo_worst << "x vs wfq " << wfq_worst << "x";
  // The hog keeps its throughput (work-conserving policy, not a throttle).
  EXPECT_NEAR(wfq.report.tenants[0].throughput_gbs,
              fifo.report.tenants[0].throughput_gbs,
              0.05 * fifo.report.tenants[0].throughput_gbs);
}

TEST(SchedulingPolicies, WfqHoldsFairShareJain) {
  tenant::ScenarioOptions opt;
  opt.quick = true;
  opt.sched.policy = sched::Policy::kWfq;
  const auto result = placement::run_placement_scenario(
      tenant::Scenario::kFairShare, {opt, {}});
  EXPECT_GE(result.report.jain_index, 0.95);
}

TEST(SchedulingPolicies, PrioProtectsVictimReads) {
  tenant::ScenarioOptions opt;
  opt.quick = true;
  opt.sched.policy = sched::Policy::kPrio;
  const auto result = placement::run_placement_scenario(
      tenant::Scenario::kNoisyNeighbor, {opt, {}});
  for (const auto& m : result.report.tenants) {
    if (m.name.rfind("victim", 0) != 0) continue;
    // Strict priority all but erases the hog from the victims' tail.
    EXPECT_LE(m.interference, 1.5) << m.name;
  }
}

TEST(SchedulingPolicies, WfqWeightsSkewThroughputShares) {
  // Two identical bulk writers with QoS budgets far above the shared VM
  // uplink: the NIC is the binding resource, so 3:1 WFQ weights must show
  // up as a clearly skewed byte split (FIFO would give ~1:1).
  essd::EssdConfig base = essd::aws_io2_profile(64 * kMiB);
  base.cluster.spare_pool_bytes = 512 * kMiB;  // no GC interference
  base.cluster.sched.policy = sched::Policy::kWfq;
  std::vector<tenant::TenantSpec> tenants(2);
  for (int i = 0; i < 2; ++i) {
    tenants[static_cast<std::size_t>(i)].name = i == 0 ? "heavy" : "light";
    tenants[static_cast<std::size_t>(i)].capacity_bytes = 64 * kMiB;
    tenants[static_cast<std::size_t>(i)].qos.bw_bytes_per_s = 8.0e9;
    tenants[static_cast<std::size_t>(i)].qos.iops = 1e6;
    auto& job = tenants[static_cast<std::size_t>(i)].load.job;
    job.pattern = wl::AccessPattern::kRandom;
    job.io_bytes = 256 * 1024;
    job.queue_depth = 16;
    job.write_ratio = 1.0;
    job.duration = kSec / 4;
    job.seed = 7 + static_cast<std::uint64_t>(i);
  }
  tenants[0].weight = 3.0;
  tenants[1].weight = 1.0;
  sim::ParallelExecutor exec(1);
  placement::ShardedHost host(base, tenants, placement::PlacementConfig{});
  const auto result = host.run(exec);
  const auto heavy = static_cast<double>(result.stats[0].total_bytes());
  const auto light = static_cast<double>(result.stats[1].total_bytes());
  EXPECT_GT(heavy, 1.5 * light)
      << "heavy " << heavy << " vs light " << light;
}

TEST(CleanerAccounting, AttributesSegmentsToOwningTenants) {
  tenant::ScenarioOptions opt;
  opt.quick = true;
  opt.solo_baselines = false;
  const auto result = placement::run_placement_scenario(
      tenant::Scenario::kCleanerPressure, {opt, {}});
  ASSERT_GT(result.cleaner[0].segments_cleaned, 0u);
  std::uint64_t attributed = 0;
  for (std::uint32_t v = 0; v < 3; ++v) {
    attributed += result.cleaner[0].tenant_segments_cleaned(v);
  }
  EXPECT_EQ(attributed, result.cleaner[0].segments_cleaned);
}

}  // namespace
}  // namespace uc
