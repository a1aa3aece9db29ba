#pragma once

/// \file scenarios.h
/// Canned multi-tenant colocation scenarios.
///
/// Each scenario is a shared-cluster base profile plus a small tenant mix
/// (`build_scenario`).  `placement::run_placement_scenario` runs it on a
/// `placement::ShardedHost` — colocated on one cluster, a single shard, by
/// default — optionally reruns every tenant solo on a private cluster
/// (`tenant::run_solo`, the interference baseline), and condenses the
/// outcome into a `FairnessReport` plus the cluster-side counters.
///
/// The catalogue:
/// - **noisy-neighbour** — one random-write hog saturating the shared
///   block-server uplink and node pipelines vs. latency-sensitive QD1
///   readers; the victims' p99 inflates although their own QoS budgets are
///   nowhere near exhausted.
/// - **fair-share** — identical tenants with identical budgets; throughput
///   shares must come out near-equal (Jain index ~1.0).
/// - **cleaner-pressure** — every tenant's overwrite load fits under its
///   own budget and under the cleaner solo, but the *aggregate* outruns the
///   cleaner, the shared spare pool drains, and the paper's GC cliff
///   (Observation 2) reappears cluster-wide.
/// - **burst-collision** — all tenants' QoS burst credits fire at t=0; the
///   collective burst oversubscribes the cluster that comfortably serves
///   the sustained budgets, so tails spike exactly when everyone bursts.

#include <cstdint>
#include <string>
#include <vector>

#include "essd/essd_config.h"
#include "sched/sched.h"
#include "tenant/tenant.h"

namespace uc::tenant {

enum class Scenario {
  kNoisyNeighbor,
  kFairShare,
  kCleanerPressure,
  kBurstCollision,
};

const char* scenario_name(Scenario s);
/// One-line interpretation for reports and docs.
const char* scenario_blurb(Scenario s);
std::vector<Scenario> all_scenarios();

struct ScenarioOptions {
  bool quick = false;           ///< smaller volumes and shorter duration
  bool solo_baselines = true;   ///< compute interference ratios
  std::uint64_t seed = 42;      ///< workload seed base

  /// Queue discipline at every shared resource (and the device-local
  /// queues).  FIFO reproduces the pre-sched runs bit for bit; WFQ/priority
  /// are the isolation policies under study.
  sched::SchedulerConfig sched;

  /// Optional per-tenant WFQ weight overrides, applied by tenant index
  /// (missing entries keep the scenario's default of 1.0).
  std::vector<double> weights;

  /// Open-loop replay study: every tenant's closed-loop job is replaced by
  /// a `wl::TraceReplayer` — fed by `trace_paths[i]` (index-matched CSVs;
  /// missing or empty entries fall back to a synthetic trace the scenario
  /// derives from that tenant's role) — submitted at `rate_scale`x the
  /// trace's recorded arrival rate.  Solo baselines replay the same trace
  /// alone, so interference ratios stay meaningful.
  bool replay = false;
  std::vector<std::string> trace_paths;
  double rate_scale = 1.0;
  /// Optional per-tenant cap on replayed events (0 = whole trace).
  std::uint64_t replay_events = 0;

  /// Worker threads for the parallel engine (`sim::ParallelExecutor`):
  /// > 1 advances the `placement::ShardedHost` shards concurrently and fans
  /// the solo baselines out per tenant.  Sets only the worker count;
  /// results are identical at every value.
  int threads = 1;
};

/// The raw scenario ingredients — the shared-cluster base profile (with the
/// options' scheduling policy and weight overrides already folded in) and
/// the tenant mix — before any host is built.
/// `placement::run_placement_scenario` runs them, on one cluster or many.
struct ScenarioSetup {
  essd::EssdConfig base;
  std::vector<TenantSpec> tenants;
};

ScenarioSetup build_scenario(Scenario s, const ScenarioOptions& opt);

}  // namespace uc::tenant
