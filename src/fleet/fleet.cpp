#include "fleet/fleet.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "common/rng.h"
#include "common/strfmt.h"
#include "essd/essd_config.h"
#include "sim/parallel.h"
#include "tenant/fairness.h"

namespace uc::fleet {

namespace {

using units::kMiB;
using units::kMs;

/// Per-tenant generator-seed stride (golden ratio, same family as
/// `placement::kClusterSeedStride`): tenant i's trace stream is
/// `seed + (i+1) * stride`, so adding a tenant never perturbs another's.
constexpr std::uint64_t kTenantSeedStride = 0x9e3779b97f4a7c15ull;

/// Fleet chunk geometry: volumes are MiB-scale (thousands of precondition
/// fills must stay affordable), so the cluster's chunk/segment units shrink
/// with them — a volume still spans several chunks (striping across nodes)
/// and a chunk several segments (cleaner granularity).  Capacities round to
/// the chunk size (`EssdConfig::validate` requires a chunk multiple).
constexpr std::uint64_t kFleetChunkBytes = 4 * kMiB;
constexpr std::uint64_t kFleetSegmentBytes = kMiB;

double mean_io_bytes(const wl::TraceGenConfig& gen) {
  double bytes = 0.0, weight = 0.0;
  for (const auto& [sz, w] : gen.size_mix) {
    bytes += static_cast<double>(sz) * w;
    weight += w;
  }
  return weight > 0.0 ? bytes / weight
                      : static_cast<double>(kLogicalPageBytes);
}

std::uint64_t draw_capacity(Rng& rng, const FleetSpec& spec) {
  const double geo =
      std::exp(0.5 * (std::log(static_cast<double>(spec.min_capacity_bytes)) +
                      std::log(static_cast<double>(spec.max_capacity_bytes))));
  const double raw = geo * rng.lognormal_unit_mean(spec.size_sigma);
  auto bytes = static_cast<std::uint64_t>(raw);
  bytes = std::clamp(bytes, spec.min_capacity_bytes, spec.max_capacity_bytes);
  bytes = (bytes + kFleetChunkBytes / 2) / kFleetChunkBytes * kFleetChunkBytes;
  return std::clamp(bytes, spec.min_capacity_bytes, spec.max_capacity_bytes);
}

}  // namespace

Status FleetSpec::validate() const {
  const auto bad = [](const char* what) {
    return Status::invalid_argument(what);
  };
  const auto non_negative = [](double v) {
    return std::isfinite(v) && v >= 0.0;
  };
  const auto positive = [](double v) { return std::isfinite(v) && v > 0.0; };
  const auto fraction = [](double v) { return v >= 0.0 && v <= 1.0; };
  if (clusters < 1) return bad("fleet needs at least one cluster");
  if (tenants < 1) return bad("fleet needs at least one tenant");
  if (min_capacity_bytes < kFleetChunkBytes ||
      min_capacity_bytes % kFleetChunkBytes != 0 ||
      max_capacity_bytes % kFleetChunkBytes != 0 ||
      min_capacity_bytes > max_capacity_bytes) {
    return bad("capacity range must be ordered, chunk-aligned multiples");
  }
  if (duration < 10 * kMs) return bad("fleet runs need a non-trivial window");
  if (diurnal_period == 0) return bad("diurnal_period must be positive");
  if (!non_negative(diurnal_amplitude)) {
    return bad("diurnal_amplitude must be finite and >= 0");
  }
  if (!non_negative(burst_iops)) {
    return bad("burst_iops must be finite and >= 0");
  }
  if (!non_negative(bursts_per_s)) {
    return bad("bursts_per_s must be finite and >= 0");
  }
  if (!positive(mean_iops) || !positive(max_tenant_iops)) {
    return bad("mean_iops and max_tenant_iops must be finite and positive");
  }
  if (!non_negative(size_sigma)) {
    return bad("size_sigma must be finite and >= 0");
  }
  // Past 10 the Zipf weights of a large fleet's tail underflow to zero
  // IOPS, which no tenant generator accepts.
  if (!(heat_theta >= 0.0 && heat_theta <= 10.0)) {
    return bad("heat_theta must be within [0, 10]");
  }
  if (!(zipf_theta <= 10.0)) return bad("zipf_theta must be <= 10");
  if (!fraction(churn_fraction)) {
    return bad("churn_fraction must be within [0, 1]");
  }
  if (!fraction(write_fraction)) {
    return bad("write_fraction must be within [0, 1]");
  }
  return Status::ok();
}

GeneratedFleet generate_fleet(const FleetSpec& spec) {
  UC_ASSERT(spec.validate().is_ok(), "invalid fleet spec");

  GeneratedFleet fleet;
  fleet.spec = spec;
  const auto n = static_cast<std::size_t>(spec.tenants);

  // One population stream for sizes / ranks / churn, decorrelated from the
  // per-tenant trace streams (which use `spec.seed` directly, strided).
  Rng rng(spec.seed ^ 0xf1ee7a61e5f1ee7aull);

  // --- capacities: lognormal around the geometric mean, clamped ---
  std::vector<std::uint64_t> capacity(n);
  for (auto& c : capacity) c = draw_capacity(rng, spec);

  // --- heat: shuffled Zipf ranks, scaled to the fleet mean, capped ---
  std::vector<std::size_t> rank(n);
  for (std::size_t i = 0; i < n; ++i) rank[i] = i;
  for (std::size_t i = n - 1; i > 0; --i) {
    const auto j = static_cast<std::size_t>(rng.uniform_u64(i + 1));
    std::swap(rank[i], rank[j]);
  }
  std::vector<double> weight(n);
  double weight_sum = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    weight[r] = std::pow(static_cast<double>(r + 1), -spec.heat_theta);
    weight_sum += weight[r];
  }
  // Capping the head truncates a little mass instead of renormalizing it
  // onto the tail: the fleet mean lands slightly under `mean_iops`, which
  // is the honest reading of "capped".
  std::vector<double> iops(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double share = weight[rank[i]] / weight_sum;
    iops[i] = std::min(spec.max_tenant_iops,
                       static_cast<double>(n) * spec.mean_iops * share);
  }

  // --- churn: a fraction of tenants live in a window inside the run ---
  fleet.info.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto& info = fleet.info[i];
    info.heat_rank = rank[i];
    info.iops = iops[i];
    info.churned = rng.bernoulli(spec.churn_fraction);
    if (info.churned) {
      const auto d = static_cast<std::uint64_t>(spec.duration);
      info.arrive = static_cast<SimTime>(rng.uniform_range(d / 10, d / 2));
      const auto len = static_cast<SimTime>(rng.uniform_range(d / 4, d / 2));
      info.depart = std::min<SimTime>(info.arrive + len,
                                      spec.duration - spec.duration / 10);
      ++fleet.churned_tenants;
    } else {
      info.arrive = 0;
      info.depart = spec.duration;
    }
  }

  // --- tenant specs: one open-loop synthetic generator per tenant ---
  fleet.tenants.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    tenant::TenantSpec& t = fleet.tenants[i];
    const FleetTenantInfo& info = fleet.info[i];
    t.name = strfmt("t%04zu", i);
    t.capacity_bytes = capacity[i];
    t.weight = 1.0;
    // Full fill so every measured access hits media-backed data; the fleet's
    // capacities are kept small precisely to afford thousands of fills.
    t.precondition_bytes = capacity[i];

    t.load.open_loop = true;
    t.load.job.name = t.name;
    t.load.job.region_bytes = capacity[i];
    t.load.job.seed = spec.seed + (i + 1) * kTenantSeedStride;

    wl::TraceGenConfig& gen = t.load.gen;
    gen.duration = info.depart - info.arrive;
    gen.start_offset = info.arrive;  // fleet-wide diurnal clock
    gen.base_iops = info.iops;
    gen.diurnal_amplitude = spec.diurnal_amplitude;
    gen.diurnal_period = spec.diurnal_period;
    gen.bursts_per_s = spec.bursts_per_s;
    gen.burst_iops = spec.burst_iops;
    gen.burst_duration = 20 * kMs;
    gen.write_fraction = spec.write_fraction;
    gen.zipf_theta = spec.zipf_theta;
    gen.region_bytes = capacity[i];
    gen.seed = t.load.job.seed;

    // Provisioned QoS sized off the expected offered load: generous enough
    // that admission is not the fleet's bottleneck (interference on shared
    // pipes is what's under test), tight enough that a runaway burst still
    // meets a budget.
    const double io_bytes = mean_io_bytes(gen);
    t.qos.bw_bytes_per_s =
        2.0 * info.iops * io_bytes + spec.burst_iops * io_bytes;
    t.qos.bw_burst_s = 0.5;
    t.qos.iops = 100000.0;
    t.qos.iops_burst_s = 30.0;

    fleet.total_capacity_bytes += capacity[i];
  }

  // --- shared base profile ---
  // The io2-class mechanism profile, with the spare pool reinterpreted as
  // cluster-wide headroom: roughly half the expected attached bytes per
  // cluster (plus a floor), so the cleaner works without pool-exhaustion
  // stalls dominating the tail.
  fleet.base = essd::aws_io2_profile(spec.max_capacity_bytes);
  fleet.base.cluster.chunk_bytes = kFleetChunkBytes;
  fleet.base.cluster.segment_bytes = kFleetSegmentBytes;
  // Mini-clusters: the shared pipes shrink with the volumes (a fleet of
  // full 16-node, 3.1 GB/s clusters under MiB-scale tenants would never
  // congest, and placement would be unmeasurable).  A hot cluster under a
  // skewed placement runs its uplink near saturation; a level one does not.
  fleet.base.cluster.fabric.nodes = 4;
  fleet.base.cluster.fabric.vm_nic_mbps = 1200.0;
  fleet.base.cluster.fabric.node_nic_mbps = 1200.0;
  fleet.base.cluster.node_append_mbps = 800.0;
  fleet.base.cluster.node_read_mbps = 800.0;
  fleet.base.cluster.cleaner.processing_mbps = 300.0;
  const std::uint64_t attached_per_cluster =
      fleet.total_capacity_bytes / static_cast<std::uint64_t>(spec.clusters);
  fleet.base.cluster.spare_pool_bytes =
      attached_per_cluster / 2 + 64 * kMiB;

  // --- control plane ---
  fleet.placement.clusters = spec.clusters;
  fleet.placement.policy = spec.policy;
  fleet.placement.rebalance_watermark = spec.rebalance_watermark;
  fleet.placement.rebalance_interval = spec.rebalance_interval;
  fleet.placement.budget = spec.budget;
  // Fleet volumes are tiny (MiBs, not GiBs); the default stop-and-copy
  // threshold (2048 pages = 8 MiB) would freeze a whole min-size volume on
  // pass one, so migrations would never pre-copy.
  fleet.placement.migration.freeze_threshold_pages = 256;

  return fleet;
}

FleetReport run_fleet(const GeneratedFleet& fleet, const FleetRunOptions& opt) {
  FleetReport rep;
  sim::ParallelExecutor exec(opt.threads);
  placement::ShardedHost host(fleet.base, fleet.tenants, fleet.placement);
  placement::PlacementResult run = host.run(exec);
  host.check_invariants();

  rep.digests =
      placement::shard_digests(placement::compute_shard_plan(fleet.placement),
                               run);
  rep.sim_events = run.sim_events;
  rep.makespan = run.makespan - run.measure_start;
  rep.migrations = static_cast<int>(run.migrations.size());
  rep.peak_concurrent_migrations = run.peak_concurrent_migrations;
  for (const auto& m : run.migrations) {
    rep.migration_bytes_copied += m.stats.bytes_copied;
  }

  // Tail of tails: worst per-tenant p99.9 across the fleet.
  double p999_sum = 0.0;
  for (std::size_t i = 0; i < run.stats.size(); ++i) {
    const wl::JobStats& s = run.stats[i];
    if (s.total_ops() == 0) continue;
    ++rep.active_tenants;
    const double p999 =
        static_cast<double>(s.all_latency.percentile(99.9)) / 1e3;
    p999_sum += p999;
    rep.worst_p999_us = std::max(rep.worst_p999_us, p999);
    const double sd =
        static_cast<double>(s.slowdown.percentile(99.9)) / 1e3;
    if (sd > rep.worst_slowdown_p999_us) {
      rep.worst_slowdown_p999_us = sd;
      rep.worst_tenant = i;
    }
    rep.aggregate_gbs += s.throughput_gbs();
  }
  if (rep.active_tenants > 0) {
    rep.mean_p999_us = p999_sum / static_cast<double>(rep.active_tenants);
  }

  // Fairness across clusters: Jain over per-cluster delivered throughput,
  // tenants attributed to their *final* home.
  std::vector<double> per_cluster(
      static_cast<std::size_t>(fleet.placement.clusters), 0.0);
  for (std::size_t i = 0; i < run.stats.size(); ++i) {
    const auto c = static_cast<std::size_t>(run.final_cluster[i]);
    per_cluster[c] += run.stats[i].throughput_gbs();
  }
  rep.jain_clusters = tenant::jain_index(per_cluster);

  rep.raw = std::move(run);
  return rep;
}

FleetReport run_fleet(const FleetSpec& spec, const FleetRunOptions& opt) {
  return run_fleet(generate_fleet(spec), opt);
}

}  // namespace uc::fleet
