#pragma once

/// \file fleet.h
/// Fleet-scale scenario generation and execution: hundreds of clusters,
/// thousands of tenants, one seeded spec.
///
/// The paper measures one volume; every scenario so far colocates a
/// handful.  A provider's contract problems are *fleet* problems — the
/// worst tenant's p99.9 across thousands of volumes (tail of tails),
/// placement of skewed populations, churn stampeding the control plane.
/// `generate_fleet` draws a synthetic population with the skew production
/// fleets show — lognormal volume sizes, Zipf heat (a few volumes carry
/// most of the IOPS), tenant arrival/departure over the run, a shared
/// diurnal cycle — and `run_fleet` executes it through the placement
/// engine (`placement::ShardedHost` on a `sim::ParallelExecutor`),
/// condensing the outcome into a `FleetReport`.
///
/// Determinism contract: a `FleetSpec` fully determines the generated
/// population (same seed ⇒ identical tenants), and a generated fleet runs
/// thread-count-invariant — `shard_digests` over the fleet result are
/// identical at any `--threads` value (asserted in tests/fleet_test.cpp
/// and CI).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "common/units.h"
#include "placement/placement.h"
#include "tenant/tenant.h"

namespace uc::fleet {

/// The whole fleet in one seeded value: population shape, run shape, and
/// the control-plane configuration under test.
struct FleetSpec {
  int clusters = 16;
  int tenants = 128;
  std::uint64_t seed = 7;

  // --- population shape ---
  /// Volume capacities: a lognormal multiplier around the geometric mean of
  /// [min, max], clamped and rounded to the fleet's 4 MiB chunk size (both
  /// bounds must be 4 MiB multiples).  Kept small (the paper's
  /// capacities are scaled; GC cliffs are capacity-relative) so thousands
  /// of precondition fills stay affordable.
  std::uint64_t min_capacity_bytes = 8ull << 20;
  std::uint64_t max_capacity_bytes = 64ull << 20;
  double size_sigma = 0.8;

  /// Heat: tenant at (shuffled) rank r offers IOPS proportional to
  /// 1/(r+1)^heat_theta, scaled so the fleet mean is `mean_iops` and capped
  /// at `max_tenant_iops`.  Size and heat are drawn independently — a hot
  /// small volume is exactly what bytes-driven placement gets wrong.
  double heat_theta = 1.0;
  double mean_iops = 600.0;
  double max_tenant_iops = 8000.0;

  double write_fraction = 0.6;
  /// Spatial skew of each tenant's accesses within its volume.
  double zipf_theta = 0.9;

  // --- run shape ---
  /// Length of the measured window (every tenant's trace timeline lives
  /// inside it).
  SimTime duration = 800 * units::kMs;

  /// Fraction of tenants with an [arrive, depart) activity window strictly
  /// inside the run — volume churn.  The rest are active the whole run.
  double churn_fraction = 0.25;

  /// Fleet-wide diurnal cycle: every tenant's generator is modulated by the
  /// same absolute-time sinusoid (`TraceGenConfig::start_offset` keeps a
  /// late arriver mid-cycle), so cluster load genuinely swings together.
  double diurnal_amplitude = 0.4;
  SimTime diurnal_period = 400 * units::kMs;

  /// Burstiness riding on every tenant's base process.
  double bursts_per_s = 0.2;
  double burst_iops = 4000.0;

  // --- control plane under test ---
  placement::Policy policy = placement::Policy::kLeastInterference;
  /// > 1 enables watermark rebalancing: the shard-per-cluster engine cuts
  /// fixed slices and fuses coupled clusters only while a migration is live
  /// (see `ShardedHost`); <= 1 leaves placement static, one unbounded slice.
  double rebalance_watermark = 0.0;
  SimTime rebalance_interval = 50 * units::kMs;
  placement::MigrationBudget budget;

  /// Rejects a spec `generate_fleet` cannot draw: no cluster or tenant; a
  /// capacity range that is unordered or not made of 4 MiB multiples; a
  /// window under 10 ms; a zero diurnal period; a negative diurnal
  /// amplitude, burst rate or burst frequency; a non-positive tenant rate;
  /// any non-finite rate; a negative size spread; a heat skew outside
  /// [0, 10] or `zipf_theta > 10`; and a churn or write fraction outside
  /// [0, 1].
  Status validate() const;
};

/// Where one tenant came from in the population model.
struct FleetTenantInfo {
  std::size_t heat_rank = 0;  ///< 0 = hottest
  double iops = 0.0;          ///< offered base IOPS (after the cap)
  SimTime arrive = 0;         ///< activity window within the measured run
  SimTime depart = 0;
  bool churned = false;       ///< window strictly inside the run
};

/// A fully-materialized fleet: the shared base profile, the placement
/// configuration, and one `TenantSpec` (with open-loop generator) per
/// tenant.  Deterministic in `FleetSpec` alone.
struct GeneratedFleet {
  FleetSpec spec;
  essd::EssdConfig base;
  placement::PlacementConfig placement;
  std::vector<tenant::TenantSpec> tenants;
  std::vector<FleetTenantInfo> info;
  int churned_tenants = 0;
  std::uint64_t total_capacity_bytes = 0;
};

/// `spec` must pass `FleetSpec::validate`.
GeneratedFleet generate_fleet(const FleetSpec& spec);

struct FleetRunOptions {
  /// Worker threads for the parallel engine (1 runs every shard inline);
  /// never changes a result.
  int threads = 1;
};

/// The fleet-level outcome: tail of tails, fairness across clusters, and
/// control-plane churn.  `raw` keeps the merged per-tenant/per-cluster
/// result for callers that drill deeper (benches, tests).
struct FleetReport {
  /// Worst per-tenant p99.9 of completion latency, and of open-loop
  /// slowdown (completion delay against intended arrival) — the tail of
  /// tails.  Tenants that completed no operations are skipped.
  double worst_p999_us = 0.0;
  double worst_slowdown_p999_us = 0.0;
  std::size_t worst_tenant = 0;       ///< index of the slowdown worst
  double mean_p999_us = 0.0;          ///< fleet mean of per-tenant p99.9
  std::uint64_t active_tenants = 0;   ///< tenants with >= 1 completed op

  double jain_clusters = 0.0;  ///< Jain over per-cluster throughput
  double aggregate_gbs = 0.0;

  int migrations = 0;
  int peak_concurrent_migrations = 0;
  std::uint64_t migration_bytes_copied = 0;

  /// Per-shard FNV digests of the fleet result — identical across thread
  /// counts by construction; the determinism artifact CI compares.
  std::vector<std::uint64_t> digests;
  std::uint64_t sim_events = 0;
  SimTime makespan = 0;  ///< measured window span (max completion - start)

  placement::PlacementResult raw;
};

/// Executes a generated fleet on a `placement::ShardedHost` and condenses
/// the outcome.  Results (and `digests`) are bit-identical at every
/// `threads` value.
FleetReport run_fleet(const GeneratedFleet& fleet,
                      const FleetRunOptions& opt = {});

/// Convenience: generate + run.
FleetReport run_fleet(const FleetSpec& spec, const FleetRunOptions& opt = {});

}  // namespace uc::fleet
