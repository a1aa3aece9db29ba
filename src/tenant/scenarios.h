#pragma once

/// \file scenarios.h
/// Canned multi-tenant colocation scenarios.
///
/// Each scenario builds a shared cluster, colocates a small tenant mix,
/// runs it, optionally reruns every tenant solo on a private cluster (the
/// interference baseline), and condenses the outcome into a
/// `FairnessReport` plus the cluster-side counters.
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

#include "common/types.h"
#include "ebs/cleaner.h"
#include "ebs/cluster.h"
#include "ftl/mapping.h"
#include "net/fabric.h"
#include "sched/sched.h"
#include "tenant/fairness.h"
#include "tenant/tenant.h"
#include "workload/trace.h"

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

  /// Node-local flash-index model on the shared cluster: each storage node
  /// runs a `ftl::MappingPolicy` (`node_mapping.kind`) and media reads pay
  /// per-fault translation penalties.  Off by default — the pinned
  /// scenario digests assume no node index.
  bool model_node_index = false;
  ftl::MappingConfig node_mapping;

  /// Worker threads for the parallel engine (`sim::ParallelExecutor`):
  /// > 1 fans solo baselines out per tenant and — in
  /// `placement::run_placement_scenario` — advances the
  /// `placement::ShardedHost` shards concurrently.  Sets only the worker
  /// count; results are identical at every value.
  int threads = 1;
};

struct ScenarioResult {
  Scenario scenario = Scenario::kFairShare;
  std::vector<TenantSpec> tenants;
  std::vector<wl::JobStats> colocated;
  std::vector<wl::JobStats> solo;  ///< empty when baselines disabled
  /// Per-tenant peak outstanding I/Os and replayed-trace summaries (the
  /// latter zero-event for closed-loop tenants); see `HostResult`.
  std::vector<std::uint64_t> backlog_peak;
  std::vector<wl::TraceSummary> traces;
  FairnessReport report;
  /// Shared-cluster activity during the measured window (precondition fill
  /// excluded), so the numbers diff cleanly across runs and PRs.
  ebs::ClusterStats cluster;
  ebs::CleanerStats cleaner;
  net::FabricStats fabric;
  /// Shared-resource occupancy with per-IoClass slices, same window.
  ebs::ClusterBusyStats busy;
  sched::Policy policy = sched::Policy::kFifo;  ///< policy this run used
  SimTime makespan = 0;  ///< measured-window duration
  /// Events the host simulator processed (fill + measure) — the events/sec
  /// numerator for the bench JSON contract.
  std::uint64_t sim_events = 0;
};

/// The raw scenario ingredients — the shared-cluster base profile (with the
/// options' scheduling policy and weight overrides already folded in) and
/// the tenant mix — before any host is built.  `run_scenario` uses this,
/// and `placement::run_placement_scenario` reuses the same mixes across
/// multi-cluster topologies.
struct ScenarioSetup {
  essd::EssdConfig base;
  std::vector<TenantSpec> tenants;
};

ScenarioSetup build_scenario(Scenario s, const ScenarioOptions& opt);

/// Builds, runs, and analyzes one scenario.
ScenarioResult run_scenario(Scenario s, const ScenarioOptions& opt = {});

}  // namespace uc::tenant
