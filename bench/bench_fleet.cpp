// Fleet-scale bench: the tail of tails across a synthetic fleet.
//
// `fleet::generate_fleet` draws a seeded population (lognormal sizes, Zipf
// heat, churn windows, a shared diurnal cycle) and this bench runs it three
// ways:
//
//   1. placement by attached bytes (`least-loaded`) — the capacity-driven
//      baseline every real control plane starts from,
//   2. placement by expected offered load (`least-interference`) — the
//      busy-signal-aware policy under test,
//   3. the interference policy again with watermark rebalancing under a
//      `MigrationBudget` — live repair, with hard caps on concurrent
//      migrations and copy bandwidth.
//
// Every leg runs shard-per-cluster on `--threads N` workers: legs 1 and 2
// are static placements (one unbounded slice), and leg 3 runs the
// epoch-sliced engine — shards advance slice by slice, and only the
// clusters coupled by a live migration fuse into a merged shard for the
// copy's window.  The per-shard FNV digests printed per leg are the
// determinism artifact: identical across any `--threads` value (CI
// compares 1 vs 4).
//
// `--json` emits the `metrics.fleet` block documented in docs/BENCH_JSON.md.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/units.h"
#include "fleet/fleet.h"
#include "placement/placement.h"
#include "sched/sched.h"

namespace uc {
namespace {

using namespace units;

struct LegOutcome {
  fleet::FleetReport report;
  double wall_s = 0.0;
};

LegOutcome run_leg(const fleet::GeneratedFleet& fleet, int threads) {
  LegOutcome out;
  const auto start = std::chrono::steady_clock::now();
  out.report = fleet::run_fleet(fleet, {.threads = threads});
  out.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return out;
}

bench::Json digests_json(const std::vector<std::uint64_t>& digests) {
  // 16-hex-char strings: the JSON number type (double) cannot carry a
  // 64-bit digest exactly.
  bench::Json arr = bench::Json::array();
  for (const auto d : digests) {
    arr.push(strfmt("%016llx", static_cast<unsigned long long>(d)));
  }
  return arr;
}

bench::Json busy_json(const std::vector<ebs::ClusterBusyStats>& busy) {
  // Fleet-wide occupancy of the shared resources, with per-IoClass slices
  // (every reservation accrues to one class, so the classes sum to total).
  ebs::ClusterBusyStats sum;
  for (const auto& b : busy) {
    sum.busy_ns += b.busy_ns;
    sum.stall_ns += b.stall_ns;
    for (int c = 0; c < sched::kIoClassCount; ++c) {
      sum.class_busy_ns[static_cast<std::size_t>(c)] +=
          b.class_busy_ns[static_cast<std::size_t>(c)];
    }
  }
  bench::Json j = bench::Json::object();
  j.set("total", sum.busy_ns);
  j.set("stall", sum.stall_ns);
  for (int c = 0; c < sched::kIoClassCount; ++c) {
    j.set(sched::io_class_name(static_cast<sched::IoClass>(c)),
          sum.class_busy_ns[static_cast<std::size_t>(c)]);
  }
  return j;
}

bench::Json leg_json(const char* policy, const LegOutcome& leg) {
  const fleet::FleetReport& r = leg.report;
  const double events_per_sec =
      leg.wall_s > 0.0 ? static_cast<double>(r.sim_events) / leg.wall_s : 0.0;
  bench::Json j = bench::Json::object();
  j.set("policy", policy);
  j.set("worst_p999_us", r.worst_p999_us);
  j.set("worst_slowdown_p999_us", r.worst_slowdown_p999_us);
  j.set("worst_tenant", static_cast<std::uint64_t>(r.worst_tenant));
  j.set("mean_p999_us", r.mean_p999_us);
  j.set("active_tenants", r.active_tenants);
  j.set("jain_clusters", r.jain_clusters);
  j.set("aggregate_gbs", r.aggregate_gbs);
  j.set("migrations", r.migrations);
  j.set("peak_concurrent_migrations", r.peak_concurrent_migrations);
  j.set("migration_bytes_copied", r.migration_bytes_copied);
  j.set("makespan_s", static_cast<double>(r.makespan) / 1e9);
  j.set("wall_s", leg.wall_s);
  j.set("sim_events", r.sim_events);
  j.set("events_per_sec", events_per_sec);
  j.set("busy_ns", busy_json(r.raw.busy));
  j.set("digests", digests_json(r.digests));
  return j;
}

void print_leg(const char* name, const LegOutcome& leg) {
  const fleet::FleetReport& r = leg.report;
  std::printf(
      "%-24s worst p99.9 %9.0f us | slowdown p99.9 %9.0f us | mean p99.9 "
      "%8.0f us\n",
      name, r.worst_p999_us, r.worst_slowdown_p999_us, r.mean_p999_us);
  std::printf(
      "%-24s jain %.4f | %.2f GB/s | migrations %d (peak %d, %.1f MiB "
      "copied)\n",
      "", r.jain_clusters, r.aggregate_gbs, r.migrations,
      r.peak_concurrent_migrations,
      static_cast<double>(r.migration_bytes_copied) / (1 << 20));
  std::printf("%-24s wall %.2f s | %llu sim events | %.0f events/sec\n", "",
              leg.wall_s, static_cast<unsigned long long>(r.sim_events),
              leg.wall_s > 0.0
                  ? static_cast<double>(r.sim_events) / leg.wall_s
                  : 0.0);
  std::printf("%-24s digests", "");
  for (const auto d : r.digests) {
    std::printf(" %016llx", static_cast<unsigned long long>(d));
  }
  std::printf("\n");
}

}  // namespace
}  // namespace uc

int main(int argc, char** argv) {
  using namespace uc;
  const auto scale = bench::parse_scale(
      argc, argv,
      {"--clusters", "--tenants", "--threads", "--seed", "--mean-iops",
       "--max-iops"});

  fleet::FleetSpec spec;
  spec.clusters = scale.quick ? 16 : 64;
  spec.tenants = scale.quick ? 128 : 1000;
  spec.duration = scale.quick ? 400 * kMs : 800 * kMs;
  spec.diurnal_period = spec.duration / 2;
  int threads = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--clusters") == 0) {
      spec.clusters = std::atoi(bench::flag_value(argc, argv, i));
    } else if (std::strcmp(argv[i], "--tenants") == 0) {
      spec.tenants = std::atoi(bench::flag_value(argc, argv, i));
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      threads = bench::threads_value(argc, argv, i);
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      spec.seed = std::strtoull(bench::flag_value(argc, argv, i), nullptr, 10);
    } else if (std::strcmp(argv[i], "--mean-iops") == 0) {
      spec.mean_iops = std::strtod(bench::flag_value(argc, argv, i), nullptr);
    } else if (std::strcmp(argv[i], "--max-iops") == 0) {
      spec.max_tenant_iops =
          std::strtod(bench::flag_value(argc, argv, i), nullptr);
    } else if (std::strcmp(argv[i], "--json") == 0) {
      ++i;  // the path, read by parse_scale
    }
  }
  if (const Status valid = spec.validate(); !valid.is_ok()) {
    std::fprintf(stderr, "error: invalid fleet spec: %s\n",
                 valid.to_string().c_str());
    return 2;
  }

  bench::print_header(
      "Fleet: tail of tails across a synthetic population",
      "beyond the paper - fleet-scale placement of its mechanisms");
  std::printf(
      "fleet: %d clusters, %d tenants, seed %llu, %.0f ms window, "
      "%d threads\n\n",
      spec.clusters, spec.tenants,
      static_cast<unsigned long long>(spec.seed),
      static_cast<double>(spec.duration) / 1e6, threads);

  // One population, three control planes.
  spec.policy = placement::Policy::kLeastLoadedBytes;
  const fleet::GeneratedFleet by_bytes = fleet::generate_fleet(spec);
  spec.policy = placement::Policy::kLeastInterference;
  const fleet::GeneratedFleet by_signal = fleet::generate_fleet(spec);
  std::printf("population: %.1f GiB attached, %d churned tenants\n\n",
              static_cast<double>(by_bytes.total_capacity_bytes) / (1 << 30),
              by_bytes.churned_tenants);

  const LegOutcome bytes_leg = run_leg(by_bytes, threads);
  print_leg("least-loaded (bytes)", bytes_leg);
  const LegOutcome signal_leg = run_leg(by_signal, threads);
  print_leg("least-interference", signal_leg);

  // The measured delta the acceptance bar asks for: worst-tenant p99.9
  // under bytes-driven vs interference-aware placement.
  const double delta =
      signal_leg.report.worst_p999_us > 0.0
          ? bytes_leg.report.worst_p999_us / signal_leg.report.worst_p999_us
          : 0.0;
  std::printf(
      "\nworst-tenant p99.9: least-interference is %.2fx vs least-loaded "
      "(%s)\n\n",
      delta, delta >= 1.0 ? "better or equal" : "worse");

  // Leg 3: live repair under a budget, on the epoch-sliced engine — the
  // rebalancing fleet stays shard-per-cluster, fusing only migration-
  // coupled clusters at slice barriers, so this leg exercises the parallel
  // engine and the control plane together.
  fleet::FleetSpec repair = spec;
  repair.rebalance_watermark = 1.1;
  repair.rebalance_interval = repair.duration / 16;
  repair.budget.max_concurrent = 4;
  repair.budget.copy_bandwidth_bps = 400e6;
  repair.budget.max_total = repair.clusters;
  const fleet::GeneratedFleet repaired = fleet::generate_fleet(repair);
  const LegOutcome repair_leg = run_leg(repaired, threads);
  print_leg("rebalance (budgeted)", repair_leg);
  {
    const placement::SliceExecStats& s = repair_leg.report.raw.sliced;
    std::printf(
        "%-24s sliced: %llu slices | %llu fusions | %llu splits | max group "
        "%d clusters\n",
        "", static_cast<unsigned long long>(s.slices),
        static_cast<unsigned long long>(s.fusions),
        static_cast<unsigned long long>(s.splits), s.max_group_clusters);
  }
  if (repair_leg.report.peak_concurrent_migrations >
      repair.budget.max_concurrent) {
    std::fprintf(stderr, "error: migration budget violated (peak %d > %d)\n",
                 repair_leg.report.peak_concurrent_migrations,
                 repair.budget.max_concurrent);
    return 1;
  }

  if (!scale.json_path.empty()) {
    bench::Json config = bench::Json::object();
    config.set("quick", scale.quick);
    config.set("clusters", spec.clusters);
    config.set("tenants", spec.tenants);
    config.set("seed", spec.seed);
    config.set("threads", threads);
    config.set("duration_s", static_cast<double>(spec.duration) / 1e9);

    bench::Json policies = bench::Json::array();
    policies.push(leg_json("least-loaded", bytes_leg));
    policies.push(leg_json("least-interference", signal_leg));

    bench::Json delta_json = bench::Json::object();
    delta_json.set("baseline", "least-loaded");
    delta_json.set("candidate", "least-interference");
    delta_json.set("worst_p999_ratio", delta);
    delta_json.set("candidate_wins", delta >= 1.0);

    bench::Json budget = bench::Json::object();
    budget.set("max_concurrent", repair.budget.max_concurrent);
    budget.set("copy_bandwidth_bps", repair.budget.copy_bandwidth_bps);
    budget.set("max_total", repair.budget.max_total);
    bench::Json rebalance = leg_json("least-interference", repair_leg);
    rebalance.set("watermark", repair.rebalance_watermark);
    rebalance.set("budget", std::move(budget));
    // Epoch-sliced engine accounting (docs/BENCH_JSON.md): slice barriers
    // crossed, fusion/split events, and the largest fused group.  Thread-
    // count-invariant, so CI can compare them across --threads runs.
    const placement::SliceExecStats& sliced = repair_leg.report.raw.sliced;
    bench::Json sliced_json = bench::Json::object();
    sliced_json.set("slice_ms",
                    static_cast<double>(repair.rebalance_interval) / 1e6);
    sliced_json.set("slices", sliced.slices);
    sliced_json.set("fusions", sliced.fusions);
    sliced_json.set("splits", sliced.splits);
    sliced_json.set("max_group_clusters", sliced.max_group_clusters);
    rebalance.set("sliced", std::move(sliced_json));

    bench::Json metrics = bench::Json::object();
    bench::Json fleet_block = bench::Json::object();
    fleet_block.set("clusters", spec.clusters);
    fleet_block.set("tenants", spec.tenants);
    fleet_block.set("threads", threads);
    fleet_block.set("total_capacity_bytes", by_bytes.total_capacity_bytes);
    fleet_block.set("churned_tenants", by_bytes.churned_tenants);
    fleet_block.set("policies", std::move(policies));
    fleet_block.set("delta", std::move(delta_json));
    fleet_block.set("rebalance", std::move(rebalance));
    metrics.set("fleet", std::move(fleet_block));
    bench::maybe_write_json(
        scale, bench::bench_report("fleet", std::move(config),
                                   std::move(metrics)));
  }
  return 0;
}
