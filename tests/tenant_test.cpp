// Multi-tenant subsystem tests: volume isolation on a shared cluster,
// segment-pool/stats reconciliation, fair-share fairness,
// noisy-neighbour interference against the solo baseline, and the canned
// scenarios' pinned outcomes.

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"
#include "ebs/cluster.h"
#include "essd/essd_config.h"
#include "placement/placement.h"
#include "sched/sched.h"
#include "tenant/fairness.h"
#include "tenant/scenarios.h"
#include "tenant/tenant.h"
#include "workload/runner.h"

namespace uc {
namespace {

using namespace units;

ebs::ClusterConfig small_cluster() {
  ebs::ClusterConfig cfg;
  cfg.fabric.nodes = 6;
  cfg.fabric.vm_nic_mbps = 4000.0;
  cfg.fabric.node_nic_mbps = 2000.0;
  cfg.fabric.hop = sim::LatencyModelConfig{.base_us = 10.0};
  cfg.chunk_bytes = 4 * kMiB;
  cfg.segment_bytes = 1 * kMiB;
  cfg.replication = 3;
  cfg.spare_pool_bytes = 32 * kMiB;
  cfg.replica_write = sim::LatencyModelConfig{.base_us = 20.0};
  cfg.replica_read = sim::LatencyModelConfig{.base_us = 60.0};
  cfg.node_cache_pages = 64;
  cfg.seed = 3;
  return cfg;
}

void write_sync(sim::Simulator& sim, ebs::StorageCluster& cluster,
                ebs::VolumeId vol, ByteOffset off, std::uint32_t bytes,
                WriteStamp first) {
  bool done = false;
  cluster.write(vol, off, bytes, first, [&] { done = true; });
  sim.run();
  ASSERT_TRUE(done);
}

TEST(SharedCluster, VolumesAreIsolated) {
  sim::Simulator sim;
  ebs::StorageCluster cluster(sim, small_cluster());
  const auto a = cluster.attach_volume(16 * kMiB);
  const auto b = cluster.attach_volume(16 * kMiB);
  ASSERT_EQ(cluster.volume_count(), 2u);

  // Tenant A writes; tenant B's identical offsets stay unwritten.
  write_sync(sim, cluster, a, 0, 16384, /*first=*/100);
  EXPECT_TRUE(cluster.is_written(a, 0));
  EXPECT_TRUE(cluster.is_written(a, 12288));
  EXPECT_FALSE(cluster.is_written(b, 0));
  EXPECT_FALSE(cluster.is_written(b, 12288));

  // Tenant B writes the same offsets with different stamps; A's data keeps
  // its own stamps.
  write_sync(sim, cluster, b, 0, 16384, /*first=*/900);
  EXPECT_EQ(cluster.page_stamp(a, 0), 100u);
  EXPECT_EQ(cluster.page_stamp(a, 12288), 103u);
  EXPECT_EQ(cluster.page_stamp(b, 0), 900u);
  EXPECT_EQ(cluster.page_stamp(b, 12288), 903u);

  // Per-volume stats split while the cluster totals aggregate.
  EXPECT_EQ(cluster.volume_stats(a).written_pages, 4u);
  EXPECT_EQ(cluster.volume_stats(b).written_pages, 4u);
  EXPECT_EQ(cluster.stats().written_pages, 8u);
  EXPECT_TRUE(cluster.check_invariants());
}

TEST(SharedCluster, TrimReconcilesWithPoolAccounting) {
  sim::Simulator sim;
  ebs::StorageCluster cluster(sim, small_cluster());
  const auto a = cluster.attach_volume(16 * kMiB);
  const auto b = cluster.attach_volume(16 * kMiB);

  write_sync(sim, cluster, a, 0, 1 * kMiB, 1);
  write_sync(sim, cluster, b, 0, 2 * kMiB, 1000);
  EXPECT_EQ(cluster.live_pages(a), 256u);
  EXPECT_EQ(cluster.live_pages(b), 512u);
  EXPECT_EQ(cluster.live_pages(), 768u);

  // Trim half of A: its garbage grows, B is untouched, and the cluster
  // totals still reconcile with the segment pool.
  cluster.trim(a, 0, 512 * kKiB);
  EXPECT_EQ(cluster.live_pages(a), 128u);
  EXPECT_EQ(cluster.garbage_pages(a), 128u);
  EXPECT_EQ(cluster.volume_stats(a).trimmed_pages, 128u);
  EXPECT_EQ(cluster.live_pages(b), 512u);
  EXPECT_EQ(cluster.garbage_pages(b), 0u);
  EXPECT_TRUE(cluster.check_invariants());

  // Trimming unwritten pages is a no-op for the garbage accounting.
  cluster.trim(b, 8 * kMiB, 1 * kMiB);
  EXPECT_EQ(cluster.garbage_pages(b), 0u);
  EXPECT_EQ(cluster.volume_stats(b).trimmed_pages, 0u);
  EXPECT_TRUE(cluster.check_invariants());

  // Overwrites create garbage that also must reconcile.
  write_sync(sim, cluster, b, 0, 2 * kMiB, 2000);
  EXPECT_EQ(cluster.live_pages(b), 512u);
  EXPECT_EQ(cluster.garbage_pages(b), 512u);
  EXPECT_TRUE(cluster.check_invariants());
}

TEST(SharedCluster, LegacySingleVolumePathIsVolumeZero) {
  sim::Simulator sim;
  ebs::StorageCluster cluster(sim, small_cluster(), 16 * kMiB);
  EXPECT_EQ(cluster.volume_count(), 1u);
  EXPECT_EQ(cluster.volume_bytes(0), 16 * kMiB);
  bool done = false;
  cluster.write(0, 0, 4096, 1, [&] { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_TRUE(cluster.is_written(0, 0));
  EXPECT_TRUE(cluster.check_invariants());
}

TEST(ShardedHost, RunsTenantsConcurrentlyOnOneCluster) {
  essd::EssdConfig base = essd::aws_io2_profile(64 * kMiB);
  base.cluster.spare_pool_bytes = 128 * kMiB;
  std::vector<tenant::TenantSpec> tenants(2);
  for (int i = 0; i < 2; ++i) {
    tenants[i].name = i == 0 ? "t0" : "t1";
    tenants[i].capacity_bytes = 64 * kMiB;
    tenants[i].qos.bw_bytes_per_s = 1.0e9;
    tenants[i].load.job.pattern = wl::AccessPattern::kRandom;
    tenants[i].load.job.io_bytes = 16384;
    tenants[i].load.job.queue_depth = 4;
    tenants[i].load.job.total_ops = 500;
    tenants[i].load.job.write_ratio = i == 0 ? 0.7 : 0.3;
    tenants[i].load.job.seed = 11 + i;
  }
  tenants[1].precondition_bytes = 4 * kMiB;
  sim::ParallelExecutor exec(1);
  placement::ShardedHost host(base, tenants, placement::PlacementConfig{});
  const auto result = host.run(exec);
  ASSERT_EQ(result.stats.size(), 2u);
  EXPECT_EQ(result.stats[0].total_ops(), 500u);
  EXPECT_EQ(result.stats[1].total_ops(), 500u);
  EXPECT_GT(result.makespan, 0u);
  const ebs::StorageCluster& cluster = host.cluster(0);
  EXPECT_TRUE(cluster.check_invariants());
  // Both tenants really ran on the one cluster.
  EXPECT_EQ(cluster.volume_count(), 2u);
  // Conservation across layers that count independently: the bytes each
  // job saw complete (plus its precondition fill) are the pages its volume
  // appended, and the reads the jobs completed are the bytes the fabric
  // carried back to the VMs.
  std::uint64_t read_bytes = 0;
  for (std::uint32_t i = 0; i < 2; ++i) {
    EXPECT_EQ(cluster.volume_stats(i).written_pages * kLogicalPageBytes,
              result.stats[i].write_bytes + tenants[i].precondition_bytes)
        << tenants[i].name;
    read_bytes += result.stats[i].read_bytes;
  }
  EXPECT_GT(read_bytes, 0u);
  EXPECT_EQ(cluster.fabric().vm_rx_bytes(), read_bytes);
}

TEST(JainIndex, MatchesDefinition) {
  EXPECT_DOUBLE_EQ(tenant::jain_index({1.0, 1.0, 1.0}), 1.0);
  EXPECT_NEAR(tenant::jain_index({1.0, 0.0, 0.0}), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(tenant::jain_index({4.0, 1.0}), 25.0 / 34.0, 1e-12);
}

TEST(Scenarios, FairShareIsFair) {
  tenant::ScenarioOptions opt;
  opt.quick = true;
  const auto result = placement::run_placement_scenario(
      tenant::Scenario::kFairShare, {opt, {}});
  EXPECT_GE(result.report.jain_index, 0.95);
  // Healthy colocation: nobody's tail explodes against their solo run.
  for (const auto& m : result.report.tenants) {
    EXPECT_LT(m.interference, 1.5) << m.name;
  }
}

TEST(Scenarios, NoisyNeighborInflatesVictimTail) {
  tenant::ScenarioOptions opt;
  opt.quick = true;
  const auto result = placement::run_placement_scenario(
      tenant::Scenario::kNoisyNeighbor, {opt, {}});
  int victims = 0;
  for (const auto& m : result.report.tenants) {
    if (m.name.rfind("victim", 0) != 0) continue;
    ++victims;
    EXPECT_GE(m.interference, 2.0) << m.name << " p99 " << m.p99_us
                                   << "us vs solo " << m.solo_p99_us << "us";
  }
  EXPECT_EQ(victims, 2);
}

TEST(Scenarios, CleanerPressureStallsClusterWide) {
  tenant::ScenarioOptions opt;
  opt.quick = true;
  opt.solo_baselines = false;  // the cliff signal lives in the cluster stats
  const auto result = placement::run_placement_scenario(
      tenant::Scenario::kCleanerPressure, {opt, {}});
  EXPECT_GT(result.cluster[0].stalled_writes, 0u);
  EXPECT_GT(result.cluster[0].append_stall_ns, 0u);
  EXPECT_GT(result.cleaner[0].segments_cleaned, 0u);
}

TEST(Scenarios, BurstCollisionSpikesTails) {
  tenant::ScenarioOptions opt;
  opt.quick = true;
  const auto result = placement::run_placement_scenario(
      tenant::Scenario::kBurstCollision, {opt, {}});
  // Everyone bursts together, so everyone's tail inflates vs. solo.
  for (const auto& m : result.report.tenants) {
    EXPECT_GE(m.interference, 1.5) << m.name;
  }
  // ...but the shares stay symmetric.
  EXPECT_GE(result.report.jain_index, 0.95);
}


// Every canned scenario's outcome, pinned at quick scale: closed loop under
// FIFO and WFQ, and open-loop replay under FIFO.  Any change to the shared
// cluster, the scheduler, the load sources or the scenario runner that moves
// a number here changes what the scenarios measure.  The thread count only
// fans out the solo baselines, so threads 1 and 4 must agree.
struct TenantPin {
  SimTime last_complete;
  SimTime max_latency;
  double mean_latency;
  double solo_p99_us;
  double interference;
  std::uint64_t cleaned_segments;  ///< cleaner slices of the tenant's volume
  std::uint64_t relocated_pages;
};

struct ScenarioPin {
  tenant::Scenario scenario;
  sched::Policy policy;
  bool replay;
  SimTime makespan;
  std::uint64_t sim_events;
  std::uint64_t written_pages;
  SimTime append_stall_ns;
  std::uint64_t segments_cleaned;
  std::uint64_t pages_relocated;
  std::uint64_t bytes_processed;
  SimTime busy_signal;
  SimTime busy_ns;
  std::uint64_t vm_tx_bytes;
  std::uint64_t vm_rx_bytes;
  std::array<SimTime, sched::kIoClassCount> class_busy_ns;
  std::vector<TenantPin> tenants;
};

TEST(Scenarios, PinnedOutcomes) {
  const std::vector<ScenarioPin> pins = {
      {tenant::Scenario::kNoisyNeighbor, sched::Policy::kFifo, false,
       506427454, 10857, 156480, 325642142, 78, 35968, 654311424, 3132477437,
       2806835295, 1923312640, 7782400,
       {35015802, 1213935165, 1557884328, 0, 0},
       {{591684616, 38196659, 6611212.817177914, 38005.027, 0.9961711644093819,
         78, 35968},
        {585447482, 2551826, 525962.4815983175, 560.646, 3.199673234090674, 0,
         0},
        {585404744, 2614428, 527025.9030558482, 553.82, 3.3284514824311144, 0,
         0}}},
      {tenant::Scenario::kNoisyNeighbor, sched::Policy::kWfq, false,
       506449021, 56008, 156480, 324763942, 78, 35968, 654311424, 3133809199,
       2809045257, 1923343360, 8273920,
       {37225764, 1213935165, 1557884328, 0, 0},
       {{591702822, 38180295, 6611295.199182004, 38200.934, 0.9917185270915103,
         78, 35968},
        {585572737, 652116, 495856.22993062437, 560.646, 1.0786111021928277, 0,
         0},
        {585570525, 641388, 494873.1196834817, 553.82, 1.0891192084070636, 0,
         0}}},
      {tenant::Scenario::kNoisyNeighbor, sched::Policy::kFifo, true,
       2344892674, 22179, 328000, 2153126268, 170, 52710, 1426063360,
       8120775584, 5967649316, 4030851328, 6197248,
       {27227301, 2545033095, 3395388920, 0, 0},
       {{2430149836, 1845529494, 570636576.7248781, 1959299.208,
         0.9225595833548664, 170, 52710},
        {584885902, 3737251, 560241.7549407114, 554.605, 5.459903895565312, 0,
         0},
        {584751906, 3775796, 566628.6312997347, 558.312, 5.266360028084655, 0,
         0}}},
      {tenant::Scenario::kFairShare, sched::Policy::kFifo, false,
       501377506, 25293, 141216, 0, 45, 38096, 377487360, 2530459692,
       2530459692, 1735262208, 0, {0, 1631680272, 898779420, 0, 0},
       {{501340465, 1612084, 1361557.0044187626, 1561.384, 1.0071724828741682,
         15, 12816},
        {501377506, 1621088, 1361598.901767505, 1566.885, 1.0093861387402394,
         15, 12512},
        {501359526, 1963670, 1361586.6244051666, 1564.285, 1.0068229254899204,
         15, 12768}}},
      {tenant::Scenario::kFairShare, sched::Policy::kWfq, false,
       501377705, 109299, 141216, 0, 45, 38096, 377487360, 2530459692,
       2530459692, 1735262208, 0, {0, 1631680272, 898779420, 0, 0},
       {{501343970, 1614284, 1361563.4119646498, 1561.014, 1.0069057676612767,
         15, 12816},
        {501377705, 1621279, 1361599.682188987, 1566.749, 1.00947375744296, 15,
         12512},
        {501355870, 1950257, 1361584.629503739, 1564.285, 1.0080362593772874,
         15, 12768}}},
      {tenant::Scenario::kFairShare, sched::Policy::kFifo, true,
       500317488, 18339, 97776, 0, 6, 3401, 50331648, 1249590048, 1249590048,
       1201471488, 0, {0, 1129752792, 119837256, 0, 0},
       {{500317488, 602742, 500965.08720930235, 553.656, 1.0214682040834022, 3,
         1671},
        {500181748, 618985, 502107.9960745829, 553.025, 1.0197170109850369, 2,
         1198},
        {500297402, 999911, 500261.0447984072, 548.838, 1.0335180873044507, 1,
         532}}},
      {tenant::Scenario::kCleanerPressure, sched::Policy::kFifo, false,
       1579037877, 8036, 183872, 827086415, 111, 126848, 931135488, 5357307182,
       4530220767, 2259419136, 0, {0, 1426435881, 3103784886, 0, 0},
       {{1578901371, 165678806, 26083109.533960294, 16960.997,
         8.221852819147365, 37, 42240},
        {1579037877, 165688295, 26175395.933194153, 16953.952, 8.23017594953672,
         37, 42688},
        {1578954249, 165686796, 26173516.822546974, 16962.825,
         8.215568161553279, 37, 41920}}},
      {tenant::Scenario::kCleanerPressure, sched::Policy::kWfq, false,
       1579090545, 34678, 184128, 828111472, 111, 126592, 931135488, 5360318227,
       4532206755, 2262564864, 0, {0, 1428421869, 3103784886, 0, 0},
       {{1578963703, 165703050, 26116919.355949897, 16960.997, 8.23118010102826,
         37, 42176},
        {1579090545, 165706190, 26094654.650364205, 16953.952,
         8.224799857873844, 37, 42496},
        {1579009405, 165807289, 26173593.063674323, 16962.825,
         8.209405273001401, 37, 41920}}},
      {tenant::Scenario::kCleanerPressure, sched::Policy::kFifo, true,
       3575854512, 14296, 278976, 2727970935, 182, 174782, 1526726656,
       9981857066, 7253886131, 3428057088, 0, {0, 2164797399, 5089088732, 0, 0},
       {{3491187745, 1991361538, 448634095.97933, 1101.783, 1757.8855527812648,
         58, 55974},
        {3575404696, 2083919959, 441637351.4095494, 34283.847,
         59.75244928026892, 63, 60893},
        {3575854512, 2085144978, 464754348.3669163, 35561.144,
         57.73941299526247, 61, 57915}}},
      {tenant::Scenario::kBurstCollision, sched::Policy::kFifo, false,
       1020382047, 17476, 277344, 502304102, 142, 106080, 1191182336,
       6125031666, 5622727564, 3408003072, 0, {0, 2786579172, 2836148392, 0, 0},
       {{1020230709, 56367130, 5643590.224299066, 5333.396, 7.5664027197680435,
         48, 36544},
        {1020382047, 56964349, 5643195.1783241, 5325.652, 7.577338136250735, 47,
         34624},
        {1020290012, 56963568, 5640738.598269897, 5328.908, 7.576677623257897,
         47, 34912}}},
      {tenant::Scenario::kBurstCollision, sched::Policy::kWfq, false,
       1020708347, 98994, 277472, 504911198, 142, 105952, 1191182336,
       6128924826, 5624013628, 3409575936, 0, {0, 2787865236, 2836148392, 0, 0},
       {{1020593597, 55839039, 5643915.671166494, 5333.396, 7.439654396560841,
         48, 36544},
        {1020708347, 55563889, 5637451.6512271, 5325.652, 7.451565179249414, 47,
         34464},
        {1020662091, 55535261, 5644716.103149879, 5328.908, 7.44037371258802,
         47, 34944}}},
      {tenant::Scenario::kBurstCollision, sched::Policy::kFifo, true,
       2009277047, 33921, 356096, 1350908276, 190, 116735, 1593835520,
       8723989749, 7373081473, 4375707648, 0, {0, 3578235033, 3794846440, 0, 0},
       {{2009277047, 1010332889, 206519391.35415107, 790.309,
         1222.4942990653024, 45, 32680},
        {2009084426, 1010233879, 221331184.23809522, 796.532,
         1219.8034956536585, 45, 33278},
        {2009153515, 1010289805, 150591602.82979092, 29901.455,
         31.093028081743846, 100, 50777}}},
  };
  for (const int threads : {1, 4}) {
    for (const ScenarioPin& pin : pins) {
      tenant::ScenarioOptions opt;
      opt.quick = true;
      opt.threads = threads;
      opt.sched.policy = pin.policy;
      opt.replay = pin.replay;
      const auto r = placement::run_placement_scenario(pin.scenario, {opt, {}});
      SCOPED_TRACE(std::string(tenant::scenario_name(pin.scenario)) + " " +
                   sched::policy_name(pin.policy) +
                   (pin.replay ? " replay" : " closed") + " threads " +
                   std::to_string(threads));
      EXPECT_EQ(r.makespan, pin.makespan);
      EXPECT_EQ(r.sim_events, pin.sim_events);
      EXPECT_EQ(r.cluster[0].written_pages, pin.written_pages);
      EXPECT_EQ(r.cluster[0].append_stall_ns, pin.append_stall_ns);
      EXPECT_EQ(r.cleaner[0].segments_cleaned, pin.segments_cleaned);
      EXPECT_EQ(r.cleaner[0].pages_relocated, pin.pages_relocated);
      EXPECT_EQ(r.cleaner[0].bytes_processed, pin.bytes_processed);
      EXPECT_EQ(r.busy[0].signal(), pin.busy_signal);
      EXPECT_EQ(r.busy[0].busy_ns, pin.busy_ns);
      for (int c = 0; c < sched::kIoClassCount; ++c) {
        EXPECT_EQ(r.busy[0].class_busy_ns[static_cast<std::size_t>(c)],
                  pin.class_busy_ns[static_cast<std::size_t>(c)])
            << sched::io_class_name(static_cast<sched::IoClass>(c));
      }
      EXPECT_EQ(r.fabric[0].vm_tx_bytes, pin.vm_tx_bytes);
      EXPECT_EQ(r.fabric[0].vm_rx_bytes, pin.vm_rx_bytes);
      ASSERT_EQ(r.colocated.size(), pin.tenants.size());
      for (std::size_t i = 0; i < pin.tenants.size(); ++i) {
        const wl::JobStats& st = r.colocated[i];
        const tenant::TenantMetrics& m = r.report.tenants[i];
        EXPECT_EQ(st.last_complete, pin.tenants[i].last_complete) << i;
        EXPECT_EQ(st.all_latency.max(), pin.tenants[i].max_latency) << i;
        EXPECT_DOUBLE_EQ(st.all_latency.mean(), pin.tenants[i].mean_latency)
            << i;
        EXPECT_DOUBLE_EQ(m.solo_p99_us, pin.tenants[i].solo_p99_us) << i;
        EXPECT_DOUBLE_EQ(m.interference, pin.tenants[i].interference) << i;
        const auto vol = static_cast<std::uint32_t>(i);
        EXPECT_EQ(r.cleaner[0].tenant_segments_cleaned(vol),
                  pin.tenants[i].cleaned_segments)
            << i;
        EXPECT_EQ(r.cleaner[0].tenant_pages_relocated(vol),
                  pin.tenants[i].relocated_pages)
            << i;
      }
    }
  }
}

}  // namespace
}  // namespace uc
