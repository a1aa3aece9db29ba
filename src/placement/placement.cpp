#include "placement/placement.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/digest.h"
#include "workload/load_source.h"
#include "workload/trace.h"

namespace uc::placement {

const char* policy_name(Policy p) {
  switch (p) {
    case Policy::kSpread:
      return "spread";
    case Policy::kPack:
      return "pack";
    case Policy::kLeastLoadedBytes:
      return "least-loaded";
    case Policy::kLeastLoadedWeight:
      return "least-weight";
    case Policy::kLeastInterference:
      return "least-interference";
  }
  return "unknown";
}

bool parse_policy(const std::string& text, Policy* out) {
  if (text == "spread") {
    *out = Policy::kSpread;
  } else if (text == "pack") {
    *out = Policy::kPack;
  } else if (text == "least-loaded") {
    *out = Policy::kLeastLoadedBytes;
  } else if (text == "least-weight") {
    *out = Policy::kLeastLoadedWeight;
  } else if (text == "least-interference") {
    *out = Policy::kLeastInterference;
  } else {
    return false;
  }
  return true;
}

std::vector<Policy> all_policies() {
  return {Policy::kSpread, Policy::kPack, Policy::kLeastLoadedBytes,
          Policy::kLeastLoadedWeight, Policy::kLeastInterference};
}

Status PlacementConfig::validate() const {
  const auto bad = [](const char* what) {
    return Status::invalid_argument(what);
  };
  if (clusters < 1) return bad("placement needs at least one cluster");
  if (budget.max_concurrent < 1) return bad("migration budget has no slot");
  if (budget.max_total < 0) return bad("negative migration total cap");
  if (!std::isfinite(budget.copy_bandwidth_bps) ||
      budget.copy_bandwidth_bps < 0.0) {
    return bad("copy bandwidth must be finite and >= 0");
  }
  if (!std::isfinite(rebalance_watermark) || rebalance_watermark < 0.0) {
    return bad("rebalance watermark must be finite and >= 0");
  }
  if (rebalancing() && rebalance_interval == 0) {
    return bad("rebalancing needs a positive interval");
  }
  return Status::ok();
}

double expected_offered_bps(const tenant::TenantSpec& t) {
  const wl::LoadSpec& l = t.load;
  if (l.open_loop && l.trace_path.empty()) {
    // Synthetic replay: the generator states the offered load outright.
    double mean_bytes = static_cast<double>(kLogicalPageBytes);
    if (!l.gen.size_mix.empty()) {
      double weight_sum = 0.0;
      double byte_sum = 0.0;
      for (const auto& [bytes, w] : l.gen.size_mix) {
        weight_sum += w;
        byte_sum += static_cast<double>(bytes) * w;
      }
      if (weight_sum > 0.0) mean_bytes = byte_sum / weight_sum;
    }
    const double burst_duty = std::min(
        1.0, l.gen.bursts_per_s * static_cast<double>(l.gen.burst_duration) /
                 1e9);
    const double iops = l.gen.base_iops + burst_duty * l.gen.burst_iops;
    return iops * mean_bytes * l.rate_scale;
  }
  // CSV replays and closed-loop jobs: the provisioned byte budget is the
  // best prior for what the tenant may offer.
  return t.qos.bw_bytes_per_s;
}

std::vector<int> plan_placement(
    const PlacementConfig& cfg,
    const std::vector<tenant::TenantSpec>& tenants) {
  UC_ASSERT(cfg.clusters >= 1, "placement needs at least one cluster");
  const auto k = static_cast<std::size_t>(cfg.clusters);
  std::vector<std::uint64_t> bytes(k, 0);
  std::vector<double> weight(k, 0.0);
  std::vector<double> offered(k, 0.0);
  std::vector<int> out;
  out.reserve(tenants.size());

  const auto least_bytes = [&]() -> int {
    std::size_t best = 0;
    for (std::size_t c = 1; c < k; ++c) {
      if (bytes[c] < bytes[best]) best = c;
    }
    return static_cast<int>(best);
  };

  for (std::size_t i = 0; i < tenants.size(); ++i) {
    const tenant::TenantSpec& t = tenants[i];
    int pick = 0;
    switch (cfg.policy) {
      case Policy::kSpread:
        pick = static_cast<int>(i % k);
        break;
      case Policy::kPack: {
        pick = -1;
        for (std::size_t c = 0; c < k; ++c) {
          if (cfg.pack_limit_bytes == 0 ||
              bytes[c] + t.capacity_bytes <= cfg.pack_limit_bytes) {
            pick = static_cast<int>(c);
            break;
          }
        }
        if (pick < 0) pick = least_bytes();  // nothing fits: spill evenly
        break;
      }
      case Policy::kLeastLoadedBytes:
        pick = least_bytes();
        break;
      case Policy::kLeastLoadedWeight: {
        std::size_t best = 0;
        for (std::size_t c = 1; c < k; ++c) {
          if (weight[c] < weight[best]) best = c;
        }
        pick = static_cast<int>(best);
        break;
      }
      case Policy::kLeastInterference: {
        std::size_t best = 0;
        for (std::size_t c = 1; c < k; ++c) {
          if (offered[c] < offered[best]) best = c;
        }
        pick = static_cast<int>(best);
        break;
      }
    }
    bytes[static_cast<std::size_t>(pick)] += t.capacity_bytes;
    weight[static_cast<std::size_t>(pick)] += t.weight;
    offered[static_cast<std::size_t>(pick)] += expected_offered_bps(t);
    out.push_back(pick);
  }
  return out;
}

ShardPlan compute_shard_plan(const PlacementConfig& cfg) {
  UC_ASSERT(cfg.clusters >= 1, "placement needs at least one cluster");
  // One shard per cluster, rebalancing or not.  A VolumeMigrator touches
  // source and destination clusters inside one logical timeline, but the
  // epoch-sliced engine fuses exactly the coupled shards for exactly the
  // migration's window — the whole fleet never co-shards.
  return ShardPlan{cfg.clusters};
}

namespace {

void mix_histogram(Fnv1a& d, const LatencyHistogram& h) {
  d.mix(h.count());
  d.mix(static_cast<std::uint64_t>(h.min()));
  d.mix(static_cast<std::uint64_t>(h.max()));
  d.mix(h.mean());
  d.mix(static_cast<std::uint64_t>(h.percentile(50)));
  d.mix(static_cast<std::uint64_t>(h.percentile(99)));
  d.mix(static_cast<std::uint64_t>(h.percentile(99.9)));
}

void mix_job(Fnv1a& d, const wl::JobStats& s) {
  d.mix(s.read_ops);
  d.mix(s.write_ops);
  d.mix(s.read_bytes);
  d.mix(s.write_bytes);
  d.mix(static_cast<std::uint64_t>(s.first_submit));
  d.mix(static_cast<std::uint64_t>(s.last_complete));
  mix_histogram(d, s.read_latency);
  mix_histogram(d, s.write_latency);
  mix_histogram(d, s.all_latency);
  mix_histogram(d, s.slowdown);
}

void mix_trace(Fnv1a& d, const wl::TraceSummary& t) {
  d.mix(t.events);
  d.mix(static_cast<std::uint64_t>(t.span_ns));
  d.mix(t.total_bytes);
  d.mix(t.write_bytes);
  d.mix(t.peak_to_mean);
  d.mix(t.byte_peak_to_mean);
  d.mix(t.small_io_byte_fraction);
}

void mix_cluster(Fnv1a& d, const ebs::ClusterStats& c) {
  d.mix(c.writes);
  d.mix(c.written_pages);
  d.mix(c.reads);
  d.mix(c.read_pages);
  d.mix(c.cache_hit_pages);
  d.mix(c.media_read_pages);
  d.mix(c.unwritten_read_pages);
  d.mix(c.readahead_fetches);
  d.mix(c.trims);
  d.mix(c.trimmed_pages);
  d.mix(c.stalled_writes);
  d.mix(static_cast<std::uint64_t>(c.append_stall_ns));
}

void mix_cleaner(Fnv1a& d, const ebs::CleanerStats& c) {
  d.mix(c.segments_cleaned);
  d.mix(c.pages_relocated);
  d.mix(c.bytes_processed);
  for (const std::uint64_t v : c.tenant_segments) d.mix(v);
  for (const std::uint64_t v : c.tenant_pages) d.mix(v);
  d.mix(static_cast<std::uint64_t>(c.tenant_segments.size()));
  d.mix(static_cast<std::uint64_t>(c.tenant_pages.size()));
}

}  // namespace

std::vector<std::uint64_t> shard_digests(const ShardPlan& plan,
                                         const PlacementResult& result) {
  std::vector<Fnv1a> digest(plan.shards());
  // Shard == cluster.  Tenants digest into the cluster that *planned* them.
  for (std::size_t i = 0; i < result.stats.size(); ++i) {
    Fnv1a& d = digest[static_cast<std::size_t>(result.initial_cluster[i])];
    d.mix(static_cast<std::uint64_t>(i));
    d.mix(static_cast<std::uint64_t>(result.final_cluster[i]));
    d.mix(result.backlog_peak[i]);
    mix_job(d, result.stats[i]);
    mix_trace(d, result.traces[i]);
  }
  for (std::size_t c = 0; c < result.cluster.size(); ++c) {
    Fnv1a& d = digest[c];
    d.mix(static_cast<std::uint64_t>(c));
    mix_cluster(d, result.cluster[c]);
    mix_cleaner(d, result.cleaner[c]);
  }
  for (const MigrationRecord& m : result.migrations) {
    Fnv1a& d = digest[static_cast<std::size_t>(m.from_cluster)];
    d.mix(static_cast<std::uint64_t>(m.tenant));
    d.mix(static_cast<std::uint64_t>(m.from_cluster));
    d.mix(static_cast<std::uint64_t>(m.to_cluster));
  }
  std::vector<std::uint64_t> out;
  out.reserve(digest.size());
  for (const Fnv1a& d : digest) out.push_back(d.value());
  return out;
}

ShardedHost::ShardedHost(const essd::EssdConfig& base,
                         std::vector<tenant::TenantSpec> tenants,
                         const PlacementConfig& cfg)
    : cfg_(cfg), tenants_(std::move(tenants)) {
  UC_ASSERT(!tenants_.empty(), "host needs at least one tenant");
  UC_ASSERT(cfg_.validate().is_ok(), "invalid placement configuration");
  planned_ = plan_placement(cfg_, tenants_);
  if (cfg_.rebalancing()) slice_ = cfg_.rebalance_interval;

  // One shard per cluster, so shard index == cluster index throughout.
  shards_.resize(static_cast<std::size_t>(cfg_.clusters));
  local_of_tenant_.resize(tenants_.size());
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    auto& local = shards_[static_cast<std::size_t>(planned_[i])].tenant;
    local_of_tenant_[i] = local.size();
    local.push_back(i);
  }

  // Every cluster is built, idle ones included: an idle cluster can become
  // a migration destination at any barrier, and its node caches allocate
  // lazily, so it costs a few small vectors.
  for (std::size_t c = 0; c < shards_.size(); ++c) {
    Shard& sh = shards_[c];
    sh.sim = std::make_unique<sim::Simulator>();
    sh.base = base;
    const std::uint64_t stride =
        kClusterSeedStride * static_cast<std::uint64_t>(c);
    sh.base.seed += stride;
    sh.base.cluster.seed += stride;
    // Local tenant j attaches as VolumeId j, so the WFQ weights are the
    // planned tenants' weights in attach order.
    sh.base.cluster.sched.weights.clear();
    for (const std::size_t g : sh.tenant) {
      sh.base.cluster.sched.weights.push_back(tenants_[g].weight);
    }
    sh.cluster = std::make_unique<ebs::StorageCluster>(*sh.sim,
                                                       sh.base.cluster);
    sh.devices.reserve(sh.tenant.size());
    sh.sources.reserve(sh.tenant.size());
    for (std::size_t j = 0; j < sh.tenant.size(); ++j) {
      const tenant::TenantSpec& t = tenants_[sh.tenant[j]];
      const ebs::VolumeId vol = sh.cluster->attach_volume(t.capacity_bytes);
      sh.devices.push_back(std::make_unique<essd::EssdDevice>(
          *sh.sim, tenant::tenant_config(sh.base, t, j), *sh.cluster, vol));
      sh.sources.push_back(wl::make_load_source_or_die(
          *sh.sim, *sh.devices.back(), t.load, "tenant " + t.name));
    }
  }

  fleet_cluster_of_ = planned_;
  fleet_migrating_.assign(tenants_.size(), 0);
  fleet_migrated_.assign(tenants_.size(), 0);
}

PlacementResult ShardedHost::run(sim::ParallelExecutor& exec) {
  UC_ASSERT(!ran_, "host already ran");
  ran_ = true;
  // Epoch 1: every shard preconditions and drains its own simulator (idle
  // clusters are a no-op fill).
  exec.run_epoch(shards_.size(), [this](std::size_t s) { fill(shards_[s]); });
  // Barrier: the fleet's measured window opens at the slowest drain.
  SimTime t0 = 0;
  for (const Shard& sh : shards_) t0 = std::max(t0, sh.sim->now());
  // Opening the measured window is cheap (clock alignment, stats snapshots,
  // source starts), so the coordinator does it serially.
  for (Shard& sh : shards_) begin_measure(sh, t0);
  if (cfg_.policy == Policy::kLeastInterference) {
    // Signal baseline: the first rebalance window opens at measure start,
    // so fill-phase occupancy never counts.
    for (const Shard& sh : shards_) {
      signal_at_check_.push_back(sh.cluster->busy_stats().signal());
    }
  }
  // Pre-sized, so each shard collects into its own slots.
  const std::size_t n = tenants_.size();
  PlacementResult result;
  result.measure_start = t0;
  result.stats.resize(n);
  result.backlog_peak.resize(n);
  result.traces.resize(n);
  result.cluster.resize(shards_.size());
  result.cleaner.resize(shards_.size());
  result.busy.resize(shards_.size());
  result.fabric.resize(shards_.size());

  // The slice loop: advance every fused group one slice, then decide at the
  // barrier.  The partition is rebuilt from the live couplings each time,
  // so fusion and splitting both fall out of `coupled_groups`.  A fleet
  // that cannot rebalance runs one unbounded slice, which drains every
  // load: its shards collect inside that epoch, on the workers (the trace
  // summaries scan every replayed event) without a third barrier, and its
  // one barrier finds nothing to repair.
  std::vector<std::vector<std::size_t>> groups = coupled_groups();
  bool collected = false;
  SimTime tk = t0;
  for (;;) {
    if (std::all_of(shards_.begin(), shards_.end(),
                    [](const Shard& sh) { return sh.sim->idle(); })) {
      break;
    }
    tk = slice_ == kNoTime ? kNoTime : tk + slice_;
    exec.run_epoch(groups.size(), [this, &groups, &result, tk](std::size_t g) {
      advance_group(groups[g], tk);
      if (tk != kNoTime) return;
      for (const std::size_t m : groups[g]) collect(m, result);
    });
    collected = tk == kNoTime;
    ++slice_stats_.slices;
    note_cutovers();
    reconcile_pacers();  // a group that split must not keep sharing a pacer
    fleet_rebalance();
    std::vector<std::vector<std::size_t>> next = coupled_groups();
    if (next.size() < groups.size()) {
      slice_stats_.fusions += groups.size() - next.size();
    } else if (next.size() > groups.size()) {
      slice_stats_.splits += next.size() - groups.size();
    }
    for (const auto& grp : next) {
      slice_stats_.max_group_clusters = std::max(
          slice_stats_.max_group_clusters, static_cast<int>(grp.size()));
    }
    groups = std::move(next);
  }

  if (!collected) {
    for (std::size_t c = 0; c < shards_.size(); ++c) collect(c, result);
  }
  result.initial_cluster = planned_;
  result.final_cluster = fleet_cluster_of_;
  result.migrations = records_;
  for (std::size_t r = 0; r < records_.size(); ++r) {
    result.migrations[r].stats = migrators_[r]->stats();
  }
  result.peak_concurrent_migrations = peak_concurrent_;
  result.sliced = slice_stats_;
  for (const wl::JobStats& s : result.stats) {
    result.makespan = std::max(result.makespan, s.last_complete);
  }
  for (const Shard& sh : shards_) {
    result.sim_events += sh.sim->events_processed();
  }
  return result;
}

void ShardedHost::fill(Shard& sh) {
  std::vector<std::unique_ptr<wl::JobRunner>> fills;
  for (std::size_t j = 0; j < sh.tenant.size(); ++j) {
    std::unique_ptr<wl::JobRunner> f = tenant::start_precondition(
        *sh.sim, *sh.devices[j], tenants_[sh.tenant[j]]);
    if (f) fills.push_back(std::move(f));
  }
  if (!fills.empty()) sh.sim->run();
}

void ShardedHost::begin_measure(Shard& sh, SimTime t0) {
  // The queue is already drained, so this only advances the clock (a no-op
  // on the shard whose drain set `t0`).
  sh.sim->run_until(t0);
  sh.cluster_before = sh.cluster->stats();
  sh.cleaner_before = sh.cluster->cleaner().stats();
  sh.fabric_before = sh.cluster->fabric().stats();
  sh.busy_before = sh.cluster->busy_stats();
  for (auto& source : sh.sources) source->start();
}

void ShardedHost::collect(std::size_t c, PlacementResult& result) {
  Shard& sh = shards_[c];
  for (std::size_t j = 0; j < sh.tenant.size(); ++j) {
    wl::LoadSource& source = *sh.sources[j];
    UC_ASSERT(source.finished(), "simulator drained but a tenant load hung");
    const std::size_t g = sh.tenant[j];
    result.stats[g] = source.take_stats();
    result.backlog_peak[g] = source.backlog_peak();
    result.traces[g] = wl::load_source_trace_summary(source);
  }
  const ebs::StorageCluster& cl = *sh.cluster;
  result.cluster[c] = subtract(cl.stats(), sh.cluster_before);
  result.cleaner[c] = subtract(cl.cleaner().stats(), sh.cleaner_before);
  result.fabric[c] = net::subtract(cl.fabric().stats(), sh.fabric_before);
  result.busy[c] = subtract(cl.busy_stats(), sh.busy_before);
}

void ShardedHost::advance_group(const std::vector<std::size_t>& members,
                                SimTime bound) {
  if (members.size() > 1) {
    // Event-timestamp lockstep: find the earliest pending event across the
    // group, align every member's clock to it, then fire that timestamp in
    // ascending shard order.  Re-iterating catches events a member just
    // scheduled into a sibling at the same timestamp.  Cross-simulator
    // callbacks are causally safe because clocks are pre-aligned before
    // anything fires.
    for (;;) {
      SimTime t = kNoTime;
      for (const std::size_t m : members) {
        t = std::min(t, shards_[m].sim->next_event_time());
      }
      if (t == kNoTime || t > bound) break;
      for (const std::size_t m : members) shards_[m].sim->advance_to(t);
      for (const std::size_t m : members) shards_[m].sim->run_until(t);
    }
  }
  for (const std::size_t m : members) {
    sim::Simulator& sim = *shards_[m].sim;
    // An unbounded slice must not park the clock at kNoTime.
    bound == kNoTime ? sim.run() : sim.run_until(bound);
  }
}

std::vector<std::vector<std::size_t>> ShardedHost::coupled_groups() const {
  const std::size_t n = shards_.size();
  std::vector<std::size_t> parent(n);
  for (std::size_t s = 0; s < n; ++s) parent[s] = s;
  const auto find = [&](std::size_t s) {
    while (parent[s] != s) {
      parent[s] = parent[parent[s]];
      s = parent[s];
    }
    return s;
  };
  const auto unite = [&](std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a != b) parent[std::max(a, b)] = std::min(a, b);
  };
  for (std::size_t r = 0; r < records_.size(); ++r) {
    if (migrators_[r]->finished()) continue;
    const auto home =
        static_cast<std::size_t>(planned_[records_[r].tenant]);
    unite(home, static_cast<std::size_t>(records_[r].from_cluster));
    unite(home, static_cast<std::size_t>(records_[r].to_cluster));
  }
  // Post-cutover drain: the tenant's device (home shard) keeps talking to
  // its new cluster until the load finishes, so those two stay fused.
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    if (!fleet_migrated_[i] || fleet_tenant_finished(i)) continue;
    unite(static_cast<std::size_t>(planned_[i]),
          static_cast<std::size_t>(fleet_cluster_of_[i]));
  }
  std::vector<std::vector<std::size_t>> groups;
  std::vector<std::size_t> group_of(n, n);
  for (std::size_t s = 0; s < n; ++s) {
    const std::size_t root = find(s);
    if (group_of[root] == n) {
      group_of[root] = groups.size();
      groups.emplace_back();
    }
    groups[group_of[root]].push_back(s);
  }
  return groups;
}

bool ShardedHost::fleet_tenant_finished(std::size_t tenant) const {
  return shards_[static_cast<std::size_t>(planned_[tenant])]
      .sources[local_of_tenant_[tenant]]
      ->finished();
}

int ShardedHost::fleet_active_migrations() const {
  int active = 0;
  for (const auto& m : migrators_) {
    if (!m->finished()) ++active;
  }
  return active;
}

bool ShardedHost::fleet_under_budget() const {
  if (fleet_active_migrations() >= cfg_.budget.max_concurrent) return false;
  if (cfg_.budget.max_total > 0 &&
      static_cast<int>(records_.size()) >= cfg_.budget.max_total) {
    return false;
  }
  return true;
}

bool ShardedHost::fleet_rebalance() {
  // Run once per slice barrier: nothing to repair once every load drained.
  bool any_running = false;
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    if (!fleet_tenant_finished(i)) {
      any_running = true;
      break;
    }
  }
  if (!any_running) return false;
  if (!fleet_under_budget()) return false;

  // The policy supplies each cluster's load and each tenant's size.  Bytes
  // policies: attached bytes by current cluster, and capacity.  The signal
  // policy: the busy/stall delta since the previous check (occupancy is
  // cumulative, so consecutive snapshots diff to "how contended was this
  // cluster over the last slice"), and the expected offered load.
  const bool by_signal = cfg_.policy == Policy::kLeastInterference;
  const auto k = static_cast<std::size_t>(cfg_.clusters);
  std::vector<std::uint64_t> load(k, 0);
  if (by_signal) {
    for (std::size_t c = 0; c < k; ++c) {
      const SimTime now_signal = shards_[c].cluster->busy_stats().signal();
      load[c] = now_signal - signal_at_check_[c];
      signal_at_check_[c] = now_signal;
    }
  } else {
    for (std::size_t i = 0; i < tenants_.size(); ++i) {
      load[static_cast<std::size_t>(fleet_cluster_of_[i])] +=
          tenants_[i].capacity_bytes;
    }
  }
  std::uint64_t total = 0;
  std::size_t busiest = 0;
  std::size_t coolest = 0;
  for (std::size_t c = 0; c < k; ++c) {
    total += load[c];
    if (load[c] > load[busiest]) busiest = c;
    if (load[c] < load[coolest]) coolest = c;
  }
  const double mean = static_cast<double>(total) / static_cast<double>(k);
  if (busiest == coolest ||
      static_cast<double>(load[busiest]) <= cfg_.rebalance_watermark * mean) {
    return false;
  }
  // The heaviest still-running volume on the busiest cluster; moving a
  // finished tenant frees no contended bandwidth, and a mid-copy volume is
  // not re-picked.  The signal window is noisy enough that a volume bounced
  // twice is churn, not repair, so under it each tenant moves at most once.
  std::size_t pick = tenants_.size();
  double pick_size = 0.0;
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    if (static_cast<std::size_t>(fleet_cluster_of_[i]) != busiest) continue;
    if (fleet_migrating_[i] || (by_signal && fleet_migrated_[i])) continue;
    if (fleet_tenant_finished(i)) continue;
    const double size =
        by_signal ? expected_offered_bps(tenants_[i])
                  : static_cast<double>(tenants_[i].capacity_bytes);
    if (pick == tenants_.size() || size > pick_size) {
      pick = i;
      pick_size = size;
    }
  }
  if (pick == tenants_.size()) return false;
  // Bytes policies move only when that strictly lowers the maximum load:
  // the guard that keeps repeated checks from bouncing a volume back and
  // forth.
  const std::uint64_t cap = tenants_[pick].capacity_bytes;
  if (!by_signal &&
      std::max(load[busiest] - cap, load[coolest] + cap) >= load[busiest]) {
    return false;
  }
  start_fleet_migration(pick, static_cast<int>(coolest));
  return true;
}

void ShardedHost::start_fleet_migration(std::size_t tenant, int to_cluster) {
  const auto home = static_cast<std::size_t>(planned_[tenant]);
  const int from = fleet_cluster_of_[tenant];
  // The tenant's device lives in its home shard forever; its *current*
  // cluster (after earlier migrations) is whatever the device targets.
  essd::EssdDevice& dev = *shards_[home].devices[local_of_tenant_[tenant]];
  ebs::StorageCluster& src = dev.cluster();
  ebs::StorageCluster& dst =
      *shards_[static_cast<std::size_t>(to_cluster)].cluster;
  const ebs::VolumeId src_vol = dev.volume();
  const ebs::VolumeId dst_vol =
      dst.attach_volume(tenants_[tenant].capacity_bytes);
  // The destination's construction-time weight fold only covered volumes
  // planned onto it; carry the tenant's WFQ weight through the cutover so
  // the copy traffic and the tenant's post-migration foreground I/O keep
  // their fair share on the new home.
  dst.set_volume_weight(dst_vol, tenants_[tenant].weight);
  records_.push_back(MigrationRecord{tenant, from, to_cluster, {}});
  migrators_.push_back(std::make_unique<VolumeMigrator>(
      *shards_[home].sim, dev, src, src_vol, dst, dst_vol, cfg_.migration));
  reconcile_pacers();
  peak_concurrent_ = std::max(peak_concurrent_, fleet_active_migrations());
  migrators_.back()->start();
  // A volume with nothing left to copy cuts over inside `start()`.
  note_cutovers();
}

void ShardedHost::note_cutovers() {
  // Records are in start order, and a tenant's next migration starts only
  // after its previous one cut over, so a tenant's last record wins.
  for (std::size_t r = 0; r < records_.size(); ++r) {
    const std::size_t t = records_[r].tenant;
    const bool done = migrators_[r]->finished();
    fleet_migrating_[t] = done ? 0 : 1;
    if (!done) continue;
    fleet_cluster_of_[t] = records_[r].to_cluster;
    fleet_migrated_[t] = 1;
  }
}

void ShardedHost::reconcile_pacers() {
  // Copy bandwidth is budgeted per fused group: every active migration in
  // one coupled component shares one pacer (serialized reservations).  When
  // components merge, the earliest record's pacer survives with the max of
  // the reservation high-waters (`absorb`); when a group splits, the first
  // part keeps the pacer and every other part gets a copy, because groups
  // advance on different workers and a shared pacer would be a data race.
  // Called at every barrier, where all member clocks agree.
  if (cfg_.budget.copy_bandwidth_bps <= 0.0) return;
  const std::vector<std::vector<std::size_t>> groups = coupled_groups();
  std::vector<std::size_t> group_of(shards_.size(), 0);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (const std::size_t s : groups[g]) group_of[s] = g;
  }
  std::vector<MigrationPacer*> survivor(groups.size(), nullptr);
  for (std::size_t r = 0; r < records_.size(); ++r) {
    VolumeMigrator& migrator = *migrators_[r];
    if (migrator.finished()) continue;
    const std::size_t g =
        group_of[static_cast<std::size_t>(records_[r].to_cluster)];
    MigrationPacer* const own = migrator.pacer();
    if (survivor[g] == nullptr) {
      const bool claimed =
          own != nullptr &&
          std::find(survivor.begin(), survivor.end(), own) != survivor.end();
      if (own == nullptr || claimed) {
        pacers_.push_back(
            std::make_unique<MigrationPacer>(cfg_.budget.copy_bandwidth_bps));
        if (claimed) pacers_.back()->absorb(*own);
        survivor[g] = pacers_.back().get();
      } else {
        survivor[g] = own;
      }
    } else if (own != nullptr && own != survivor[g]) {
      survivor[g]->absorb(*own);
    }
    migrator.set_pacer(survivor[g]);
  }
}

const ebs::StorageCluster& ShardedHost::cluster(int c) const {
  return *shards_[static_cast<std::size_t>(c)].cluster;
}

void ShardedHost::check_invariants() const {
  for (const Shard& sh : shards_) sh.cluster->check_invariants();
}

wl::JobStats ShardedHost::run_solo(std::size_t i) const {
  return tenant::run_solo(shards_[static_cast<std::size_t>(planned_[i])].base,
                          tenants_[i], local_of_tenant_[i]);
}

PlacementScenarioResult run_placement_scenario(
    tenant::Scenario s, const PlacementScenarioOptions& opt) {
  tenant::ScenarioSetup setup = tenant::build_scenario(s, opt.base);
  PlacementScenarioResult result;
  result.scenario = s;
  result.tenants = setup.tenants;

  sim::ParallelExecutor exec(opt.base.threads);
  ShardedHost host(setup.base, setup.tenants, opt.placement);
  PlacementResult run = host.run(exec);
  host.check_invariants();
  result.shard_digest = shard_digests(compute_shard_plan(opt.placement), run);
  result.sim_events = run.sim_events;
  result.makespan = run.makespan - run.measure_start;
  result.initial_cluster = std::move(run.initial_cluster);
  result.final_cluster = std::move(run.final_cluster);
  result.migrations = std::move(run.migrations);
  result.cluster = std::move(run.cluster);
  result.cleaner = std::move(run.cleaner);
  result.busy = std::move(run.busy);
  result.fabric = std::move(run.fabric);
  result.colocated = std::move(run.stats);
  result.backlog_peak = std::move(run.backlog_peak);
  result.traces = std::move(run.traces);

  if (opt.base.solo_baselines) {
    result.solo.resize(setup.tenants.size());
    // Each solo builds its own private simulator, so baselines fan out on
    // the same executor.
    exec.run_epoch(setup.tenants.size(),
                   [&](std::size_t i) { result.solo[i] = host.run_solo(i); });
  }
  result.report = tenant::build_fairness_report(setup.tenants,
                                                result.colocated, result.solo);
  result.per_cluster = tenant::build_cluster_reports(
      setup.tenants, result.colocated, result.solo, result.final_cluster,
      opt.placement.clusters);
  return result;
}

}  // namespace uc::placement
