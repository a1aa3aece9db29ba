#pragma once

/// \file tenant.h
/// Multi-tenant hosting: N ESSD volumes on one shared `StorageCluster`.
///
/// The paper measures a single volume, but its mechanisms — the shared QoS
/// budget (Observation 4) and the off-critical-path cleaner (Observation 2)
/// — exist because real EBS clusters multiplex many tenants over shared
/// nodes, fabric, and spare capacity.  `SharedClusterHost` builds that
/// colocation: one cluster, one fabric, one segment pool and cleaner, and a
/// per-tenant `EssdDevice` (own QoS gate and frontend) + `wl::LoadSource`
/// (closed-loop job or open-loop trace replay) per attached volume, all
/// advancing on one simulator.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "ebs/cluster.h"
#include "essd/essd_device.h"
#include "essd/qos.h"
#include "workload/load_source.h"
#include "workload/runner.h"
#include "workload/spec.h"
#include "workload/trace.h"

namespace uc::tenant {

/// One tenant: a volume of `capacity_bytes`, a provisioned QoS profile, and
/// the load the tenant offers against it — a closed-loop job (the default)
/// or an open-loop trace replay (`load.open_loop`, per-tenant trace file or
/// generator config; see workload/load_source.h).
struct TenantSpec {
  std::string name = "tenant";
  std::uint64_t capacity_bytes = 0;
  essd::QosConfig qos;
  wl::LoadSpec load;

  /// Fair-queueing weight at every shared cluster resource (WFQ policy
  /// only); the host folds these into `cluster.sched.weights` by VolumeId.
  double weight = 1.0;

  /// Bytes to write sequentially into the job's region before the measured
  /// job starts (so read workloads hit media-backed data, not metadata
  /// zeros).  All tenants precondition concurrently, then the cluster
  /// drains before any measured job begins.
  std::uint64_t precondition_bytes = 0;
};

/// Per-tenant outcome of a colocated (or solo-baseline) run.
struct HostResult {
  std::vector<wl::JobStats> stats;  ///< per tenant, in spec order
  /// Peak outstanding I/Os per tenant: the queue depth for closed-loop
  /// tenants, the open-loop backlog for replayed ones.
  std::vector<std::uint64_t> backlog_peak;
  /// Per-tenant replayed-trace summaries (zero `events` for closed-loop
  /// tenants) — the contract replay checker's input.
  std::vector<wl::TraceSummary> traces;
  SimTime makespan = 0;             ///< latest completion across tenants
  SimTime measure_start = 0;        ///< when measured jobs began (after fill)
  /// Cluster/cleaner/fabric activity within the measured window only — the
  /// precondition fill phase is subtracted out, so these diff cleanly
  /// across runs and PRs.
  ebs::ClusterStats cluster;
  ebs::CleanerStats cleaner;
  net::FabricStats fabric;
  /// Measured-window occupancy of the shared resources, with per-IoClass
  /// slices — the bench JSON's `busy_ns` block and the signal the placement
  /// layer's interference-aware policy steers by.
  ebs::ClusterBusyStats busy;
};

/// Builds the shared cluster from `base.cluster` (so `spare_pool_bytes` is
/// the *cluster-wide* headroom), attaches one volume per tenant, and runs
/// every tenant's load concurrently on the host's simulator.  Frontend and
/// cluster latency parameters come from `base`; capacity, QoS, and workload
/// come from each `TenantSpec`.  The scheduling policy knob is
/// `base.cluster.sched`, which also sets each device's local queues; the
/// host overwrites `cluster.sched.weights` with the tenants' weights in
/// attach order.
class SharedClusterHost {
 public:
  /// Zero tenants is legal: `placement::ShardedHost` builds one host per
  /// cluster, and an idle cluster must still exist (it can become a
  /// migration destination).
  SharedClusterHost(sim::Simulator& sim, const essd::EssdConfig& base,
                    std::vector<TenantSpec> tenants);

  /// Preconditions every tenant, starts every load source, drains the
  /// simulator, and collects the per-tenant stats: exactly `run_fill()`,
  /// `begin_measure(sim.now())`, `sim.run()`, `collect()`.
  HostResult run();

  /// The phases of `run()`, split so a fleet coordinator can put epoch
  /// barriers between them.  `run_fill()` runs every tenant's precondition
  /// fill concurrently and drains.  `begin_measure(t)` advances the (idle)
  /// clock to `t` — the fleet-wide measured-window start — snapshots the
  /// before-stats, and starts every load.  `collect()`, after the caller
  /// drained the simulator however it liked, builds the result.
  void run_fill();
  void begin_measure(SimTime measure_start);
  HostResult collect();

  /// The base profile with the tenants' WFQ weights folded in — what every
  /// device of this host and its solo baselines derive from.
  const essd::EssdConfig& base() const { return base_; }
  const ebs::StorageCluster& cluster() const { return *cluster_; }
  /// Mutable cluster/device access for a fleet coordinator, which wires
  /// cross-cluster migrations through the hosts' own objects.
  ebs::StorageCluster& cluster_mut() { return *cluster_; }
  essd::EssdDevice& device_mut(std::size_t i) { return *devices_[i]; }
  /// Whether tenant `i`'s load source has completed.
  bool tenant_finished(std::size_t i) const { return sources_[i]->finished(); }

  /// Derives tenant `i`'s device config from the host's base profile
  /// (shared by the colocated run and the solo baseline, so the two differ
  /// only in colocation).
  static essd::EssdConfig tenant_config(const essd::EssdConfig& base,
                                        const TenantSpec& spec,
                                        std::size_t index);

  /// Solo baseline: the same tenant, alone on a private cluster built from
  /// the same base profile — the denominator of the interference ratio.
  static wl::JobStats run_solo(const essd::EssdConfig& base,
                               const TenantSpec& spec, std::size_t index);

 private:
  sim::Simulator& sim_;
  essd::EssdConfig base_;
  std::vector<TenantSpec> tenants_;
  std::unique_ptr<ebs::StorageCluster> cluster_;
  std::vector<std::unique_ptr<essd::EssdDevice>> devices_;
  std::vector<std::unique_ptr<wl::LoadSource>> sources_;
  /// Before-stats snapshotted by `begin_measure`, so `collect` reports
  /// measured-window deltas.
  SimTime measure_start_ = 0;
  ebs::ClusterStats cluster_before_;
  ebs::CleanerStats cleaner_before_;
  net::FabricStats fabric_before_;
  ebs::ClusterBusyStats busy_before_;
  bool filled_ = false;
  bool measuring_ = false;
  bool ran_ = false;
};

}  // namespace uc::tenant
