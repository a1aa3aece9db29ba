#include "tenant/scenarios.h"

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "essd/essd_config.h"
#include "workload/trace.h"

namespace uc::tenant {

using namespace units;

const char* scenario_name(Scenario s) {
  switch (s) {
    case Scenario::kNoisyNeighbor:
      return "noisy-neighbor";
    case Scenario::kFairShare:
      return "fair-share";
    case Scenario::kCleanerPressure:
      return "cleaner-pressure";
    case Scenario::kBurstCollision:
      return "burst-collision";
  }
  return "unknown";
}

const char* scenario_blurb(Scenario s) {
  switch (s) {
    case Scenario::kNoisyNeighbor:
      return "a write hog saturates shared pipes; QD1 readers' p99 inflates "
             "despite untouched QoS budgets";
    case Scenario::kFairShare:
      return "identical tenants split the cluster near-equally (Jain ~1.0)";
    case Scenario::kCleanerPressure:
      return "per-tenant loads fit solo, but the aggregate outruns the "
             "cleaner and the GC cliff reappears cluster-wide";
    case Scenario::kBurstCollision:
      return "simultaneous burst credits oversubscribe a cluster that "
             "comfortably serves the sustained budgets";
  }
  return "unknown";
}

std::vector<Scenario> all_scenarios() {
  return {Scenario::kNoisyNeighbor, Scenario::kFairShare,
          Scenario::kCleanerPressure, Scenario::kBurstCollision};
}

namespace {

using Built = ScenarioSetup;

// Shared-cluster base: the io2-class mechanism profile with the spare pool
// reinterpreted as the *cluster-wide* headroom all tenants draw from.
essd::EssdConfig scenario_base(std::uint64_t any_tenant_capacity,
                               std::uint64_t cluster_spare_bytes) {
  essd::EssdConfig base = essd::aws_io2_profile(any_tenant_capacity);
  base.cluster.spare_pool_bytes = cluster_spare_bytes;
  return base;
}

essd::QosConfig qos_budget(double bytes_per_s, double burst_s) {
  essd::QosConfig qos;
  qos.bw_bytes_per_s = bytes_per_s;
  qos.bw_burst_s = burst_s;
  qos.iops = 100000.0;
  qos.iops_burst_s = 30.0;
  return qos;
}

// Converts a tenant's closed-loop role into its open-loop equivalent: a
// synthetic trace statistically shaped like the job (same region, size,
// mix, duration, seed), offered at `base_iops` with role-chosen burstiness.
// The offered rates below are hand-picked per role — a hog floods, a victim
// trickles — because closed-loop queue depths say nothing about arrival
// rates.
void to_replay(TenantSpec& t, double base_iops, double burst_iops,
               double bursts_per_s) {
  t.load.open_loop = true;
  t.load.gen = wl::derive_trace_gen(t.load.job, base_iops);
  t.load.gen.burst_iops = burst_iops;
  t.load.gen.bursts_per_s = bursts_per_s;
}

Built build_noisy_neighbor(const ScenarioOptions& opt) {
  const std::uint64_t cap = opt.quick ? 128 * kMiB : 256 * kMiB;
  const SimTime duration = opt.quick ? kSec / 2 : 2 * kSec;
  Built b{scenario_base(cap, 2 * cap), {}};

  TenantSpec hog;
  hog.name = "hog";
  hog.capacity_bytes = cap;
  // A top-tier budget: the hog is allowed to flood the shared uplink.
  hog.qos = qos_budget(4.0e9, 0.05);
  hog.load.job.name = "hog-randwrite";
  hog.load.job.pattern = wl::AccessPattern::kRandom;
  hog.load.job.io_bytes = 256 * 1024;
  hog.load.job.queue_depth = 32;
  hog.load.job.write_ratio = 1.0;
  hog.load.job.duration = duration;
  hog.load.job.seed = opt.seed ^ 0x5109;
  // Replay form: ~2.6 GB/s of bursty offered 256 KiB writes against the
  // ~3.1 GB/s shared uplink — the hog floods open-loop too.
  if (opt.replay) to_replay(hog, 10000.0, 6000.0, 0.3);
  b.tenants.push_back(hog);

  for (int i = 0; i < 2; ++i) {
    TenantSpec victim;
    victim.name = i == 0 ? "victim-a" : "victim-b";
    victim.capacity_bytes = cap;
    victim.qos = qos_budget(1.0e9, 0.05);
    victim.precondition_bytes = cap;  // reads must hit media, not zeros
    victim.load.job.name = victim.name + "-qd1-read";
    victim.load.job.pattern = wl::AccessPattern::kRandom;
    victim.load.job.io_bytes = 4096;
    victim.load.job.queue_depth = 1;
    victim.load.job.write_ratio = 0.0;
    victim.load.job.duration = duration;
    victim.load.job.seed = opt.seed ^ (0xace0ull + static_cast<unsigned>(i));
    // Replay form: a light, steady 4 KiB read stream — latency-sensitive,
    // nowhere near its own budget, so any slowdown is the hog's doing.
    if (opt.replay) to_replay(victim, 1500.0, 0.0, 0.0);
    b.tenants.push_back(victim);
  }
  return b;
}

Built build_fair_share(const ScenarioOptions& opt) {
  const std::uint64_t cap = opt.quick ? 128 * kMiB : 256 * kMiB;
  const SimTime duration = opt.quick ? kSec / 2 : 2 * kSec;
  // Generous spare: this is the healthy-colocation case, so the aggregate
  // load must stay clear of the cleaner cliff that cleaner-pressure shows.
  Built b{scenario_base(cap, 8 * cap), {}};
  for (int i = 0; i < 3; ++i) {
    TenantSpec t;
    t.name = std::string("tenant-") + static_cast<char>('a' + i);
    t.capacity_bytes = cap;
    t.qos = qos_budget(0.35e9, 0.05);
    t.load.job.name = t.name + "-randwrite";
    t.load.job.pattern = wl::AccessPattern::kRandom;
    t.load.job.io_bytes = 64 * 1024;
    t.load.job.queue_depth = 8;
    t.load.job.write_ratio = 1.0;
    t.load.job.duration = duration;
    t.load.job.seed = opt.seed ^ (0xfa1ull + static_cast<unsigned>(i));
    // Replay form: three identical ~0.26 GB/s 64 KiB write streams with
    // mild bursts — the healthy-colocation mix, open loop.
    if (opt.replay) to_replay(t, 4000.0, 8000.0, 0.1);
    b.tenants.push_back(std::move(t));
  }
  return b;
}

Built build_cleaner_pressure(const ScenarioOptions& opt) {
  const std::uint64_t cap = opt.quick ? 128 * kMiB : 192 * kMiB;
  const SimTime duration = opt.quick ? 3 * kSec / 2 : 3 * kSec;
  // Tight cluster-wide spare and a cleaner that keeps up with any single
  // tenant (250 MB/s load vs 300 MB/s cleaning) but not with three.
  Built b{scenario_base(cap, cap / 2), {}};
  b.base.cluster.cleaner.processing_mbps = 300.0;
  for (int i = 0; i < 3; ++i) {
    TenantSpec t;
    t.name = std::string("overwriter-") + static_cast<char>('a' + i);
    t.capacity_bytes = cap;
    t.qos = qos_budget(250.0e6, 0.05);  // well under budget individually
    t.load.job.name = t.name + "-overwrite";
    t.load.job.pattern = wl::AccessPattern::kRandom;
    t.load.job.io_bytes = 256 * 1024;
    t.load.job.queue_depth = 16;
    t.load.job.write_ratio = 1.0;
    t.load.job.duration = duration;
    t.load.job.seed = opt.seed ^ (0xc1eaull + static_cast<unsigned>(i));
    // Replay form: ~235 MB/s of steady 256 KiB overwrites per tenant —
    // each fits under its budget and the cleaner solo, the aggregate does
    // not, exactly the closed-loop story.
    if (opt.replay) to_replay(t, 900.0, 0.0, 0.0);
    b.tenants.push_back(std::move(t));
  }
  return b;
}

Built build_burst_collision(const ScenarioOptions& opt) {
  const std::uint64_t cap = opt.quick ? 128 * kMiB : 256 * kMiB;
  const SimTime duration = opt.quick ? kSec : 2 * kSec;
  Built b{scenario_base(cap, 3 * cap), {}};
  // Halve the shared uplink: the sustained budgets (3 x 0.4 GB/s) fit
  // comfortably, the collective burst does not.
  b.base.cluster.fabric.vm_nic_mbps = 6000.0;
  for (int i = 0; i < 3; ++i) {
    TenantSpec t;
    t.name = std::string("burster-") + static_cast<char>('a' + i);
    t.capacity_bytes = cap;
    // One full second of budget banked as burst credit, all cashed at t=0.
    t.qos = qos_budget(0.4e9, 1.0);
    t.load.job.name = t.name + "-burstwrite";
    t.load.job.pattern = wl::AccessPattern::kRandom;
    t.load.job.io_bytes = 128 * 1024;
    t.load.job.queue_depth = 16;
    t.load.job.write_ratio = 1.0;
    t.load.job.duration = duration;
    t.load.job.seed = opt.seed ^ (0xb1a57ull + static_cast<unsigned>(i));
    // Replay form: ~0.32 GB/s base per tenant with hard superimposed
    // bursts — the arrival-process version of everyone cashing burst
    // credits at once.
    if (opt.replay) to_replay(t, 2500.0, 10000.0, 0.5);
    b.tenants.push_back(std::move(t));
  }
  return b;
}

Built build(Scenario s, const ScenarioOptions& opt) {
  switch (s) {
    case Scenario::kNoisyNeighbor:
      return build_noisy_neighbor(opt);
    case Scenario::kFairShare:
      return build_fair_share(opt);
    case Scenario::kCleanerPressure:
      return build_cleaner_pressure(opt);
    case Scenario::kBurstCollision:
      return build_burst_collision(opt);
  }
  UC_ASSERT(false, "unknown scenario");
  return Built{};
}

}  // namespace

ScenarioSetup build_scenario(Scenario s, const ScenarioOptions& opt) {
  ScenarioSetup b = build(s, opt);
  // One knob steers every queue: `cluster.sched` drives the shared cluster
  // resources and each device's own gate/frontend.  Per-tenant weights come
  // from the specs (the host folds them into cluster.sched by VolumeId).
  b.base.cluster.sched = opt.sched;
  for (std::size_t i = 0; i < opt.weights.size() && i < b.tenants.size(); ++i) {
    b.tenants[i].weight = opt.weights[i];
  }
  if (opt.replay) {
    for (std::size_t i = 0; i < b.tenants.size(); ++i) {
      wl::LoadSpec& load = b.tenants[i].load;
      load.open_loop = true;  // builders already derived a gen per role
      if (i < opt.trace_paths.size() && !opt.trace_paths[i].empty()) {
        load.trace_path = opt.trace_paths[i];
      }
      load.rate_scale = opt.rate_scale;
      load.max_events = opt.replay_events;
    }
  }
  return b;
}

}  // namespace uc::tenant
