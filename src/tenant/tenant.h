#pragma once

/// \file tenant.h
/// Multi-tenant hosting: what a tenant is, and the per-tenant pieces every
/// host of N ESSD volumes on one shared `StorageCluster` derives from.
///
/// The paper measures a single volume, but its mechanisms — the shared QoS
/// budget (Observation 4) and the off-critical-path cleaner (Observation 2)
/// — exist because real EBS clusters multiplex many tenants over shared
/// nodes, fabric, and spare capacity.  `placement::ShardedHost` builds that
/// colocation: per cluster, one fabric, one segment pool and cleaner, and a
/// per-tenant `EssdDevice` (own QoS gate and frontend) + `wl::LoadSource`
/// (closed-loop job or open-loop trace replay) per attached volume, all
/// advancing on the cluster's simulator.  This header keeps the tenant
/// description and the helpers the colocated run and the solo baseline
/// share, so the two differ only in colocation.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "common/block_device.h"
#include "essd/essd_config.h"
#include "essd/qos.h"
#include "sim/simulator.h"
#include "workload/load_source.h"
#include "workload/runner.h"

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

/// Derives the device config of the tenant attached as volume `index` from
/// a host's base profile (shared by the colocated run and the solo
/// baseline, so the two differ only in colocation).
essd::EssdConfig tenant_config(const essd::EssdConfig& base,
                               const TenantSpec& spec, std::size_t index);

/// Builds and starts `spec`'s sequential precondition fill on `device`, or
/// returns null when `spec.precondition_bytes` is 0.  A host starts every
/// tenant's fill and then drains its simulator once, so the fills run
/// concurrently; the runner must outlive that drain.
std::unique_ptr<wl::JobRunner> start_precondition(sim::Simulator& sim,
                                                  BlockDevice& device,
                                                  const TenantSpec& spec);

/// Solo baseline: the same tenant, alone on a private cluster built from
/// the same base profile — the denominator of the interference ratio.
wl::JobStats run_solo(const essd::EssdConfig& base, const TenantSpec& spec,
                      std::size_t index);

}  // namespace uc::tenant
