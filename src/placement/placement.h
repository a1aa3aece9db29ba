#pragma once

/// \file placement.h
/// Cross-cluster placement: several `StorageCluster`s behind one host, a
/// pluggable policy deciding which cluster each tenant volume lands on, and
/// watermark-triggered live migration to repair imbalance.
///
/// The paper measures one volume on one cluster; a provider's real degree
/// of freedom is *where volumes land*.  Interference follows placement:
/// spreading tenants buys isolation at the cost of per-cluster utilisation,
/// packing maximises utilisation and concentrates noisy neighbours, and
/// migration converts a bad initial decision into copy traffic that itself
/// competes on the shared pipes (`sched::IoClass::kMigration`).
///
/// `ShardedHost` is the engine, and its per-cluster shard is the
/// shared-cluster host: one `StorageCluster` with a per-tenant
/// `EssdDevice` + `wl::LoadSource`, on the shard's own simulator.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "common/units.h"
#include "sim/parallel.h"
#include "ebs/cleaner.h"
#include "ebs/cluster.h"
#include "essd/essd_config.h"
#include "essd/essd_device.h"
#include "net/fabric.h"
#include "placement/migration.h"
#include "tenant/fairness.h"
#include "tenant/scenarios.h"
#include "tenant/tenant.h"
#include "workload/runner.h"

namespace uc::placement {

/// Which cluster a new volume attaches to.
enum class Policy {
  kSpread,            ///< round-robin across clusters
  kPack,              ///< first cluster with room (`pack_limit_bytes`)
  kLeastLoadedBytes,  ///< cluster with the fewest attached bytes
  kLeastLoadedWeight, ///< cluster with the smallest summed tenant weight
  /// Interference-aware: initial placement greedily levels the tenants'
  /// *expected offered load* (`expected_offered_bps`) instead of their
  /// attached bytes — a hot 8 GiB volume outweighs a cold 1 TiB one — and
  /// watermark rebalancing steers by each cluster's measured busy/stall
  /// signal (`ebs::ClusterBusyStats::signal()` deltas between checks)
  /// rather than by capacity.
  kLeastInterference,
};

const char* policy_name(Policy p);
/// Parses "spread" / "pack" / "least-loaded" / "least-weight" /
/// "least-interference".
bool parse_policy(const std::string& text, Policy* out);
std::vector<Policy> all_policies();

/// The load a tenant is expected to offer, in bytes/s — the planning
/// signal of `Policy::kLeastInterference`.  Synthetic open-loop tenants
/// estimate from their generator (base + burst-duty IOPS x mean I/O size,
/// at the replay's rate scale); everything else falls back to the
/// provisioned QoS byte budget.
double expected_offered_bps(const tenant::TenantSpec& t);

/// Caps how much repair the control plane may do at once: watermark
/// rebalancing never holds more than `max_concurrent` live migrations, all
/// concurrent copy streams share one `copy_bandwidth_bps` budget
/// (`MigrationPacer`; 0 = unpaced), and a run performs at most `max_total`
/// migrations (0 = unbounded).  The defaults reproduce the pre-budget
/// behaviour: one migration at a time, back-to-back copy fragments.
struct MigrationBudget {
  int max_concurrent = 1;
  double copy_bandwidth_bps = 0.0;
  int max_total = 0;
};

/// Per-cluster seed stride: cluster `c` of a multi-cluster host derives its
/// placement and jitter streams from `seed + c * stride`, so cluster 0
/// reproduces the single-cluster host exactly.
inline constexpr std::uint64_t kClusterSeedStride = 0x632be59bd9b4e019ull;

struct PlacementConfig {
  int clusters = 1;
  Policy policy = Policy::kSpread;

  /// Pack: a cluster accepts volumes until attaching the next one would
  /// push its attached bytes past this; 0 = unbounded (everything lands on
  /// cluster 0).  When nothing fits anywhere, least-loaded-by-bytes wins.
  std::uint64_t pack_limit_bytes = 0;

  /// Live rebalance: when one cluster's attached bytes exceed
  /// `rebalance_watermark x` the cross-cluster mean, the host migrates its
  /// largest volume to the least-loaded cluster (if that strictly lowers
  /// the maximum).  <= 1 disables rebalancing.
  double rebalance_watermark = 0.0;
  /// Time between watermark checks.  It is also the slice length of the
  /// epoch-sliced engine: each check runs at a coordinator barrier, where
  /// shard fusion and splitting are decided too.
  SimTime rebalance_interval = 50 * units::kMs;

  MigrationConfig migration;
  /// Concurrency / copy-bandwidth caps on rebalancing (defaults reproduce
  /// the single-migration, unpaced behaviour exactly).
  MigrationBudget budget;

  /// A watermark above 1 over several clusters: volumes may move live.
  bool rebalancing() const { return clusters > 1 && rebalance_watermark > 1.0; }
  /// Rejects a cluster count, budget, watermark, interval or migration copy
  /// setting the engine cannot run.
  Status validate() const;
};

/// Pure placement planning (exposed for tests): cluster index per tenant,
/// in spec order.
std::vector<int> plan_placement(const PlacementConfig& cfg,
                                const std::vector<tenant::TenantSpec>& tenants);

struct MigrationRecord {
  std::size_t tenant = 0;  ///< spec index
  int from_cluster = 0;
  int to_cluster = 0;
  MigrationStats stats;
};

/// Accounting for the epoch-sliced parallel run (one slice, no fusion when
/// the fleet cannot rebalance).  Reported, never digest-mixed: the partition
/// evolution depends only on config + signals, so these are themselves
/// thread-count-invariant, but they describe the engine, not the fleet.
struct SliceExecStats {
  std::uint64_t slices = 0;   ///< slice barriers crossed
  std::uint64_t fusions = 0;  ///< net group merges across barriers
  std::uint64_t splits = 0;   ///< net group splits across barriers
  int max_group_clusters = 1; ///< largest fused group ever advanced together
};

/// Outcome of a multi-cluster colocated run.
struct PlacementResult {
  std::vector<wl::JobStats> stats;  ///< per tenant, spec order
  /// Per-tenant peak outstanding I/Os (the queue depth for closed-loop
  /// tenants, the open-loop backlog for replayed ones) and replayed-trace
  /// summaries (zero-event for closed-loop tenants; the contract replay
  /// checker's input).
  std::vector<std::uint64_t> backlog_peak;
  std::vector<wl::TraceSummary> traces;
  std::vector<int> initial_cluster;
  std::vector<int> final_cluster;
  std::vector<MigrationRecord> migrations;
  /// Most live migrations in flight at once — must never exceed the
  /// configured `MigrationBudget::max_concurrent`.
  int peak_concurrent_migrations = 0;
  SimTime makespan = 0;       ///< latest completion across tenants
  SimTime measure_start = 0;  ///< when measured loads began (after fill)
  /// Per-cluster activity within the measured window only — the
  /// precondition fill is subtracted out, so these diff cleanly across
  /// runs.
  std::vector<ebs::ClusterStats> cluster;
  std::vector<ebs::CleanerStats> cleaner;
  /// Per-cluster shared-resource occupancy (busy + stall, per-class slices)
  /// over the same window — the interference signal, reported but *not*
  /// digest-mixed (digests pin tenant- and cluster-observable outcomes;
  /// occupancy is derived accounting).
  std::vector<ebs::ClusterBusyStats> busy;
  /// Per-cluster fabric traffic and uplink occupancy, same window.
  std::vector<net::FabricStats> fabric;
  /// Events processed by the shard simulators over fill + measure, summed
  /// — the numerator of the parallel engine's events/sec trajectory.
  std::uint64_t sim_events = 0;
  /// Slice/fusion accounting of the epoch-sliced engine.
  SliceExecStats sliced;
};

/// How a fleet splits into independently-advancing shards: shard `c` is
/// cluster `c`.  The partition depends only on the placement config —
/// never on the thread count — so per-shard results are comparable across
/// any `--threads` value.
struct ShardPlan {
  int clusters = 1;

  std::size_t shards() const { return static_cast<std::size_t>(clusters); }
};

/// The partition rule (see docs/ARCHITECTURE.md, "Threading model"):
/// one shard per cluster, always.  With rebalancing off, clusters never
/// interact and the shards are independent for the whole run; with
/// rebalancing on, live migration couples *specific* cluster pairs for a
/// *bounded window*, and the epoch-sliced engine fuses exactly those
/// shards for exactly that window instead of co-sharding the whole fleet.
ShardPlan compute_shard_plan(const PlacementConfig& cfg);

/// One FNV-1a digest per shard, so per cluster, condensing everything
/// tenant- and cluster-observable about its run: per-tenant job stats,
/// latency/slowdown percentiles, backlog peaks, trace summaries, final
/// placement, and per-cluster + cleaner counters.  A tenant digests into
/// its planned cluster, a migration into its source.  Computed from the
/// whole-fleet result, so runs at every thread count digest through the
/// same code — "identical at every thread count" is a vector equality.
std::vector<std::uint64_t> shard_digests(const ShardPlan& plan,
                                         const PlacementResult& result);

/// The multi-cluster engine: K clusters, each on its own `Simulator`
/// (shard `c` is cluster `c`), advanced concurrently on a
/// `sim::ParallelExecutor`.  Cluster `c` is built from `base` with
/// `c * kClusterSeedStride` added to its seeds and the WFQ weights of the
/// tenants planned onto it folded in attach order (local tenant `j` is
/// VolumeId `j`); each tenant gets an `EssdDevice` from
/// `tenant::tenant_config` and a `wl::LoadSource`.  Frontend and cluster
/// latency parameters come from `base`; capacity, QoS and load come from
/// each `TenantSpec`; `base.cluster.sched` is the scheduling policy of the
/// shared cluster and of every device's local queues.  A one-cluster fleet
/// is the single shared-cluster host: cluster 0 adds no seed stride.
///
/// Every fleet runs one *epoch-sliced* schedule.  A fill epoch's barrier
/// opens the measured window for every shard at the max drain time across
/// shards; the window is then cut into slices of `rebalance_interval`;
/// within a slice each fused shard group advances independently; at each
/// slice barrier the coordinator reads the per-cluster busy/stall signals,
/// runs the placement policy (at most one migration per barrier, under the
/// `MigrationBudget`), and fuses exactly the coupled source/dest/home
/// shards of live migrations into merged groups that advance in
/// event-timestamp lockstep.  After
/// cutover, the coupling shrinks to {home, destination} until the tenant's
/// load drains, then the group splits back.  A fleet that cannot rebalance
/// never fuses, so its window is one unbounded slice: two epochs in all.
///
/// The schedule does not depend on the thread count, so per-shard digests
/// are bit-identical at any `--threads` value.
class ShardedHost {
 public:
  ShardedHost(const essd::EssdConfig& base,
              std::vector<tenant::TenantSpec> tenants,
              const PlacementConfig& cfg);

  /// A fill epoch on `exec`, then one epoch per slice over the fused
  /// groups; each shard collects into its own slots of the result.
  PlacementResult run(sim::ParallelExecutor& exec);

  /// Cluster `c`, built whether or not a tenant was planned onto it.
  const ebs::StorageCluster& cluster(int c) const;
  void check_invariants() const;
  /// Solo baseline for tenant `i`: alone on a private cluster derived from
  /// its planned cluster's seeds and weight fold, at the same attach index
  /// it had there, so only colocation differs.
  wl::JobStats run_solo(std::size_t i) const;

 private:
  /// One cluster and the tenants planned onto it.  A tenant's device and
  /// load source stay in its home shard for the whole run, even after a
  /// migration moves its volume to another cluster.
  struct Shard {
    std::vector<std::size_t> tenant;  ///< global spec index per local index
    std::unique_ptr<sim::Simulator> sim;
    /// `base` with this cluster's seed stride and its tenants' WFQ weights
    /// folded in: what its devices and their solo baselines derive from.
    essd::EssdConfig base;
    std::unique_ptr<ebs::StorageCluster> cluster;
    std::vector<std::unique_ptr<essd::EssdDevice>> devices;  ///< per local
    std::vector<std::unique_ptr<wl::LoadSource>> sources;    ///< per local
    /// Snapshots taken when the measured window opens, so `collect`
    /// reports measured-window deltas.
    ebs::ClusterStats cluster_before;
    ebs::CleanerStats cleaner_before;
    net::FabricStats fabric_before;
    ebs::ClusterBusyStats busy_before;
  };

  // --- shard phases ---
  /// Starts every tenant's precondition fill, then drains once.
  void fill(Shard& sh);
  /// Advances the drained shard's clock to the fleet-wide window start
  /// `t0`, snapshots the before-stats, and starts every load.
  static void begin_measure(Shard& sh, SimTime t0);
  /// Writes cluster `c`'s tenants' and counters' slots of the pre-sized
  /// `result`, moving each finished tenant's `JobStats` out of its source.
  /// Shards own disjoint slots, so workers may collect concurrently.
  void collect(std::size_t c, PlacementResult& result);

  // --- epoch-sliced engine (coordinator side, barriers only) ---
  /// Advances every member simulator of one fused group to `bound`
  /// (`kNoTime`: until drained), stepping the members in event-timestamp
  /// lockstep so cross-simulator callbacks (migration copies, a cutover
  /// tenant's remote cluster) always observe aligned clocks.
  void advance_group(const std::vector<std::size_t>& members, SimTime bound);
  /// The current shard partition: union-find over the live couplings
  /// (active migrations couple {home, source, dest}; a cutover-but-
  /// undrained tenant couples {home, current cluster}), rebuilt from
  /// scratch at every barrier, ordered by smallest member shard.
  std::vector<std::vector<std::size_t>> coupled_groups() const;
  /// One watermark check at a slice barrier; starts (at most) one
  /// migration, within the configured `MigrationBudget`.  Bytes-driven
  /// policies move the largest volume off the cluster with the most
  /// attached bytes; `kLeastInterference` moves the expectedly-hottest
  /// volume off the cluster with the largest busy/stall delta since the
  /// previous check.
  bool fleet_rebalance();
  bool fleet_rebalance_bytes();
  bool fleet_rebalance_signal();
  void start_fleet_migration(std::size_t tenant, int to_cluster);
  /// Collapses the pacers of newly-fused groups into one survivor and gives
  /// fresh migrations theirs (copy bandwidth is budgeted per fused group).
  void reconcile_pacers();
  int fleet_active_migrations() const;
  bool fleet_under_budget() const;
  bool fleet_tenant_finished(std::size_t tenant) const;

  PlacementConfig cfg_;
  std::vector<tenant::TenantSpec> tenants_;
  std::vector<int> planned_;  ///< global cluster per tenant (the one plan)
  std::vector<Shard> shards_;  ///< one per cluster, indexed by cluster
  std::vector<std::size_t> local_of_tenant_;

  // Coordinator state.  Mutated either at barriers (single threaded) or
  // from migration done-callbacks, which run on the worker advancing the
  // migration's fused group — distinct tenants/records per group, and
  // byte-sized flags, so groups never race.  A fleet that cannot rebalance
  // never migrates, so there it stays at the plan.
  SimTime slice_ = kNoTime;  ///< kNoTime: one unbounded slice
  std::vector<int> fleet_cluster_of_;          ///< current cluster per tenant
  std::vector<std::uint8_t> fleet_migrating_;  ///< mid-migration
  std::vector<std::uint8_t> fleet_migrated_;   ///< moved once (signal path)
  std::vector<std::unique_ptr<VolumeMigrator>> migrators_;  ///< per record
  std::vector<std::unique_ptr<MigrationPacer>> pacers_;
  std::vector<MigrationRecord> records_;
  std::vector<SimTime> signal_at_check_;
  int peak_concurrent_ = 0;
  SliceExecStats slice_stats_;
  bool ran_ = false;
};

/// The one runner for the canned tenant scenarios: builds a scenario's mix
/// (`tenant::build_scenario`), runs it on a `ShardedHost` — one cluster with
/// the default `PlacementConfig` — and reports the measured window,
/// per-cluster fairness slices and the migration log.
struct PlacementScenarioOptions {
  tenant::ScenarioOptions base;
  PlacementConfig placement;
};

struct PlacementScenarioResult {
  tenant::Scenario scenario = tenant::Scenario::kFairShare;
  std::vector<tenant::TenantSpec> tenants;
  std::vector<wl::JobStats> colocated;
  std::vector<wl::JobStats> solo;  ///< empty when baselines disabled
  std::vector<std::uint64_t> backlog_peak;
  std::vector<wl::TraceSummary> traces;
  tenant::FairnessReport report;   ///< across all tenants
  /// Fairness within each cluster (tenants grouped by *final* placement;
  /// a migrated tenant's stats span both homes and are attributed to the
  /// destination).
  std::vector<tenant::FairnessReport> per_cluster;
  std::vector<int> initial_cluster;
  std::vector<int> final_cluster;
  std::vector<MigrationRecord> migrations;
  std::vector<ebs::ClusterStats> cluster;
  std::vector<ebs::CleanerStats> cleaner;
  std::vector<ebs::ClusterBusyStats> busy;
  std::vector<net::FabricStats> fabric;
  SimTime makespan = 0;
  /// Per-shard FNV digests (`shard_digests` over `compute_shard_plan`) and
  /// total simulator events — always computed, so single- and multi-thread
  /// runs of the same scenario can be compared with one vector equality.
  std::vector<std::uint64_t> shard_digest;
  std::uint64_t sim_events = 0;
};

/// Runs the fleet as a `ShardedHost` on `opt.base.threads` worker threads
/// (solo baselines fan out per tenant on the same executor); the thread
/// count never changes a result.
PlacementScenarioResult run_placement_scenario(
    tenant::Scenario s, const PlacementScenarioOptions& opt);

}  // namespace uc::placement
