// Multi-tenant colocation study: runs the four canned tenant scenarios
// (noisy-neighbour, fair-share, cleaner-pressure, burst-collision) on a
// shared StorageCluster, prints per-tenant fairness tables, and emits the
// shared JSON schema with --json <path>.
//
// Since the sched refactor this is also the isolation buy-back study:
// `--sched fifo|wfq|prio` selects the queue discipline at every shared
// resource (default: run FIFO plus both alternatives), `--weights a,b,c`
// sets per-tenant WFQ weights, and the noisy-neighbour / fair-share /
// cleaner-pressure scenarios are re-run per policy with the victim p99,
// Jain index, and interference-ratio deltas against FIFO reported and
// JSON-emitted.
//
// The headline checks mirror the subsystem's acceptance criteria: the
// noisy-neighbour victims' colocated p99 must be >= 2x their solo baseline
// under FIFO, WFQ (equal weights) must improve the victims' interference
// ratio by >= 25%, and fair-share must hold a Jain index >= 0.95.
//
// Since the placement refactor it is also the cross-cluster study:
// `--clusters N` (default 1: bit-identical to the single-cluster bench)
// reruns noisy-neighbour and fair-share per placement policy
// (`--placement spread|pack|least-loaded|least-weight`, default: all
// three byte-based policies) over N clusters, reports per-cluster Jain
// indices, and demonstrates watermark-triggered live migration relieving a
// deliberately packed placement.  Spread must beat pack on victim tails.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "contract/replay.h"
#include "placement/placement.h"
#include "sched/sched.h"
#include "tenant/scenarios.h"

namespace uc {
namespace {

// `replay` runs always carry the slowdown keys (the validator requires
// them, zero or not — a tenant replaying an empty trace still conforms);
// closed-loop runs omit them so the pre-replay schema stays unchanged.
bench::Json tenant_json(const tenant::TenantMetrics& m, bool replay = false) {
  bench::Json t = bench::Json::object();
  t.set("name", m.name);
  t.set("ops", m.ops);
  t.set("gbs", m.throughput_gbs);
  t.set("share", m.share);
  t.set("p50_us", m.p50_us);
  t.set("p99_us", m.p99_us);
  t.set("p999_us", m.p999_us);
  if (replay) {
    t.set("slowdown_p50_us", m.slowdown_p50_us);
    t.set("slowdown_p99_us", m.slowdown_p99_us);
  }
  if (m.interference > 0.0) {
    t.set("solo_p99_us", m.solo_p99_us);
    t.set("solo_gbs", m.solo_gbs);
    t.set("interference", m.interference);
  }
  return t;
}

// Measured-window occupancy of the shared cluster resources, with one slice
// per `sched::IoClass` (every reservation accrues to one class, so the
// slices sum to the total).
bench::Json busy_json(const ebs::ClusterBusyStats& busy) {
  bench::Json b = bench::Json::object();
  b.set("total", busy.busy_ns);
  b.set("stall", busy.stall_ns);
  for (int c = 0; c < sched::kIoClassCount; ++c) {
    b.set(sched::io_class_name(static_cast<sched::IoClass>(c)),
          busy.class_busy_ns[static_cast<std::size_t>(c)]);
  }
  return b;
}

// The single-cluster scenario blocks below report cluster 0: the policy
// study and the replay study run on the default one-cluster placement.
bench::Json fabric_json(const placement::PlacementScenarioResult& r) {
  const net::FabricStats& fabric = r.fabric[0];
  bench::Json f = bench::Json::object();
  f.set("vm_tx_bytes", fabric.vm_tx_bytes);
  f.set("vm_rx_bytes", fabric.vm_rx_bytes);
  const double span = static_cast<double>(r.makespan);
  f.set("vm_tx_util",
        span > 0 ? static_cast<double>(fabric.vm_tx_busy_ns) / span : 0.0);
  f.set("vm_rx_util",
        span > 0 ? static_cast<double>(fabric.vm_rx_busy_ns) / span : 0.0);
  bench::Json tx = bench::Json::array();
  bench::Json rx = bench::Json::array();
  for (const auto b : fabric.node_tx_bytes) tx.push(b);
  for (const auto b : fabric.node_rx_bytes) rx.push(b);
  f.set("node_tx_bytes", std::move(tx));
  f.set("node_rx_bytes", std::move(rx));
  return f;
}

bench::Json scenario_json(const placement::PlacementScenarioResult& r,
                          sched::Policy policy) {
  const ebs::ClusterStats& stats = r.cluster[0];
  const ebs::CleanerStats& cleaner = r.cleaner[0];
  bench::Json s = bench::Json::object();
  s.set("name", tenant::scenario_name(r.scenario));
  s.set("policy", sched::policy_name(policy));
  s.set("jain_index", r.report.jain_index);
  s.set("aggregate_gbs", r.report.aggregate_gbs);
  s.set("makespan_s", static_cast<double>(r.makespan) / 1e9);
  bench::Json cluster = bench::Json::object();
  cluster.set("stalled_writes", stats.stalled_writes);
  cluster.set("append_stall_ms",
              static_cast<double>(stats.append_stall_ns) / 1e6);
  cluster.set("written_pages", stats.written_pages);
  cluster.set("segments_cleaned", cleaner.segments_cleaned);
  cluster.set("pages_relocated", cleaner.pages_relocated);
  bench::Json gc = bench::Json::array();
  for (std::size_t i = 0; i < r.tenants.size(); ++i) {
    gc.push(cleaner.tenant_segments_cleaned(static_cast<std::uint32_t>(i)));
  }
  cluster.set("tenant_segments_cleaned", std::move(gc));
  s.set("cluster", std::move(cluster));
  s.set("fabric", fabric_json(r));
  s.set("busy_ns", busy_json(r.busy[0]));
  bench::Json tenants = bench::Json::array();
  for (const auto& m : r.report.tenants) tenants.push(tenant_json(m));
  s.set("tenants", std::move(tenants));
  return s;
}

// One replay-driven scenario: per-tenant slowdown percentiles, backlog, the
// replayed trace's shape, and the contract replay checker's verdict against
// each tenant's own provisioned budget.  The host's per-tenant summaries
// are already computed at the replayed rate scale.
bench::Json replay_scenario_json(const placement::PlacementScenarioResult& r,
                                 sched::Policy policy) {
  bench::Json s = bench::Json::object();
  s.set("name", tenant::scenario_name(r.scenario));
  s.set("policy", sched::policy_name(policy));
  s.set("jain_index", r.report.jain_index);
  s.set("aggregate_gbs", r.report.aggregate_gbs);
  s.set("makespan_s", static_cast<double>(r.makespan) / 1e9);
  bench::Json tenants = bench::Json::array();
  for (std::size_t i = 0; i < r.report.tenants.size(); ++i) {
    bench::Json t = tenant_json(r.report.tenants[i], /*replay=*/true);
    t.set("backlog_peak", r.backlog_peak[i]);
    bench::Json trace = bench::Json::object();
    trace.set("events", r.traces[i].events);
    trace.set("offered_gbs", r.traces[i].offered_gbs());
    trace.set("peak_to_mean", r.traces[i].peak_to_mean);
    t.set("trace", std::move(trace));
    contract::ReplayCheckConfig check;
    check.budget_gbs = r.tenants[i].qos.bw_bytes_per_s / 1e9;
    check.budget_iops = r.tenants[i].qos.iops;
    const auto verdict = contract::evaluate_replay(
        r.traces[i], r.colocated[i], r.backlog_peak[i], check);
    bench::Json violations = bench::Json::array();
    for (const auto& violation : verdict.violations) {
      bench::Json v = bench::Json::object();
      v.set("rule", violation.rule);
      v.set("severity", violation.severity);
      v.set("detail", violation.detail);
      violations.push(std::move(v));
    }
    t.set("violations", std::move(violations));
    tenants.push(std::move(t));
  }
  s.set("tenants", std::move(tenants));
  return s;
}

double worst_victim_interference(
    const placement::PlacementScenarioResult& r) {
  double worst = 0.0;
  for (const auto& m : r.report.tenants) {
    if (m.name.rfind("victim", 0) == 0 && m.interference > worst) {
      worst = m.interference;
    }
  }
  return worst;
}

double mean_victim_interference(const tenant::FairnessReport& report) {
  double sum = 0.0;
  int victims = 0;
  for (const auto& m : report.tenants) {
    if (m.name.rfind("victim", 0) != 0) continue;
    sum += m.interference;
    ++victims;
  }
  return victims == 0 ? 0.0 : sum / victims;
}

bench::Json placement_scenario_json(
    const placement::PlacementScenarioResult& r) {
  bench::Json s = bench::Json::object();
  s.set("name", tenant::scenario_name(r.scenario));
  s.set("jain_index", r.report.jain_index);
  s.set("aggregate_gbs", r.report.aggregate_gbs);
  s.set("makespan_s", static_cast<double>(r.makespan) / 1e9);
  s.set("victim_mean_interference", mean_victim_interference(r.report));
  bench::Json per_cluster_jain = bench::Json::array();
  bench::Json per_cluster_gbs = bench::Json::array();
  for (const auto& rep : r.per_cluster) {
    per_cluster_jain.push(rep.jain_index);
    per_cluster_gbs.push(rep.aggregate_gbs);
  }
  s.set("per_cluster_jain", std::move(per_cluster_jain));
  s.set("per_cluster_aggregate_gbs", std::move(per_cluster_gbs));
  bench::Json initial = bench::Json::array();
  bench::Json final_c = bench::Json::array();
  for (const int c : r.initial_cluster) initial.push(c);
  for (const int c : r.final_cluster) final_c.push(c);
  s.set("initial_cluster", std::move(initial));
  s.set("final_cluster", std::move(final_c));
  s.set("migrations", static_cast<std::uint64_t>(r.migrations.size()));
  std::uint64_t pages_copied = 0;
  SimTime frozen_ns = 0;
  for (const auto& m : r.migrations) {
    pages_copied += m.stats.pages_copied;
    frozen_ns += m.stats.frozen_ns;
  }
  s.set("migration_pages_copied", pages_copied);
  s.set("migration_frozen_ms", static_cast<double>(frozen_ns) / 1e6);
  ebs::ClusterBusyStats busy_sum;
  for (const auto& b : r.busy) {
    busy_sum.busy_ns += b.busy_ns;
    busy_sum.stall_ns += b.stall_ns;
    for (int c = 0; c < sched::kIoClassCount; ++c) {
      busy_sum.class_busy_ns[static_cast<std::size_t>(c)] +=
          b.class_busy_ns[static_cast<std::size_t>(c)];
    }
  }
  s.set("busy_ns", busy_json(busy_sum));
  bench::Json tenants = bench::Json::array();
  for (const auto& m : r.report.tenants) tenants.push(tenant_json(m));
  s.set("tenants", std::move(tenants));
  return s;
}

void print_placement_scenario(const char* policy,
                              const placement::PlacementScenarioResult& r) {
  std::printf("\n--- %s [placement=%s, %zu clusters] ---\n%s",
              tenant::scenario_name(r.scenario), policy,
              r.per_cluster.size(), r.report.to_table().c_str());
  for (std::size_t c = 0; c < r.per_cluster.size(); ++c) {
    std::printf("cluster %zu: %zu tenant(s), Jain %.4f, %.3f GB/s\n", c,
                r.per_cluster[c].tenants.size(), r.per_cluster[c].jain_index,
                r.per_cluster[c].aggregate_gbs);
  }
  if (!r.migrations.empty()) {
    for (const auto& m : r.migrations) {
      std::printf(
          "migration: tenant %zu cluster %d -> %d, %llu pages in %d passes, "
          "frozen %.2f ms\n",
          m.tenant, m.from_cluster, m.to_cluster,
          static_cast<unsigned long long>(m.stats.pages_copied),
          m.stats.passes, static_cast<double>(m.stats.frozen_ns) / 1e6);
    }
  }
}

void print_scenario(const placement::PlacementScenarioResult& r,
                    sched::Policy policy) {
  std::printf("\n--- %s [%s] ---\n(%s)\n%s", tenant::scenario_name(r.scenario),
              sched::policy_name(policy), tenant::scenario_blurb(r.scenario),
              r.report.to_table().c_str());
  std::printf(
      "cluster: %llu stalled writes, %.1f ms stalled, %llu segments cleaned; "
      "vm uplink %.0f%% busy\n",
      static_cast<unsigned long long>(r.cluster[0].stalled_writes),
      static_cast<double>(r.cluster[0].append_stall_ns) / 1e6,
      static_cast<unsigned long long>(r.cleaner[0].segments_cleaned),
      r.makespan > 0 ? 100.0 * static_cast<double>(r.fabric[0].vm_tx_busy_ns) /
                           static_cast<double>(r.makespan)
                     : 0.0);
}

}  // namespace
}  // namespace uc

int main(int argc, char** argv) {
  using namespace uc;
  const auto scale = bench::parse_scale(
      argc, argv,
      {"--trace", "--rate-scale", "--clusters", "--threads", "--placement",
       "--sched", "--weights"},
      {"--trace-gen"});

  // --sched restricts the study to one alternative policy (or to FIFO
  // alone); --weights sets per-tenant WFQ weights by tenant index.
  // --clusters N (with optional --placement) switches on the cross-cluster
  // placement study.
  bool want_wfq = true;
  bool want_prio = true;
  bool sched_given = false;
  int clusters = 1;
  int threads = 1;
  std::vector<placement::Policy> placements;
  std::vector<double> weights;
  bool trace_gen = false;
  std::vector<std::string> trace_paths;
  double rate_scale = 1.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0) {
      // Repeatable: the k-th --trace feeds tenant k of each replay
      // scenario (missing tenants fall back to their synthetic role
      // traces).
      trace_paths.emplace_back(bench::flag_value(argc, argv, i));
    } else if (std::strcmp(argv[i], "--trace-gen") == 0) {
      trace_gen = true;
    } else if (std::strcmp(argv[i], "--rate-scale") == 0) {
      rate_scale = std::strtod(bench::flag_value(argc, argv, i), nullptr);
      if (rate_scale <= 0.0) {
        std::fprintf(stderr, "error: --rate-scale wants a positive factor\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--clusters") == 0) {
      clusters = std::atoi(bench::flag_value(argc, argv, i));
      if (clusters < 1) {
        std::fprintf(stderr, "error: --clusters wants a positive count\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      threads = bench::threads_value(argc, argv, i);
    } else if (std::strcmp(argv[i], "--placement") == 0) {
      const char* name = bench::flag_value(argc, argv, i);
      placement::Policy p;
      if (!placement::parse_policy(name, &p)) {
        std::fprintf(stderr,
                     "error: unknown placement '%s' (spread|pack|"
                     "least-loaded|least-weight|least-interference)\n",
                     name);
        return 2;
      }
      placements.push_back(p);
    } else if (std::strcmp(argv[i], "--sched") == 0) {
      const char* name = bench::flag_value(argc, argv, i);
      sched::Policy p;
      if (!sched::parse_policy(name, &p)) {
        std::fprintf(stderr, "error: unknown policy '%s' (fifo|wfq|prio)\n",
                     name);
        return 2;
      }
      want_wfq = p == sched::Policy::kWfq;
      want_prio = p == sched::Policy::kPrio;
      sched_given = true;
    } else if (std::strcmp(argv[i], "--weights") == 0) {
      const char* list = bench::flag_value(argc, argv, i);
      const char* s = list;
      for (;;) {
        char* end = nullptr;
        const double w = std::strtod(s, &end);
        if (end == s || w <= 0.0 || (*end != ',' && *end != '\0')) {
          std::fprintf(stderr,
                       "error: --weights wants positive numbers like 2,1,1 "
                       "(got '%s')\n",
                       list);
          return 2;
        }
        weights.push_back(w);
        if (*end == '\0') break;
        s = end + 1;
      }
    } else if (std::strcmp(argv[i], "--json") == 0) {
      ++i;  // the path, read by parse_scale
    }
  }

  if (!placements.empty() && clusters < 2) {
    std::fprintf(stderr, "error: --placement needs --clusters >= 2\n");
    return 2;
  }
  if (sched_given && clusters > 1) {
    // Refuse rather than silently drop the flag: the placement study runs
    // FIFO-only, so an explicit --sched request cannot be honoured.
    std::fprintf(stderr,
                 "error: --sched and --clusters are mutually exclusive (the "
                 "placement study runs FIFO-only)\n");
    return 2;
  }
  if (clusters > 1) {
    // The cross-cluster study replaces the scheduling-policy reruns (the
    // baseline scenarios and placement runs all use FIFO).
    want_wfq = false;
    want_prio = false;
    if (placements.empty()) {
      placements = {placement::Policy::kSpread, placement::Policy::kPack,
                    placement::Policy::kLeastLoadedBytes};
    }
  }

  bench::print_header(
      "Multi-tenant colocation — shared cluster, per-tenant QoS, pluggable "
      "scheduling, cross-cluster placement",
      "beyond the paper: its single-volume observations re-measured under "
      "colocation, the isolation each scheduling policy buys back, and what "
      "volume placement does to interference");

  tenant::ScenarioOptions opt;
  opt.quick = scale.quick;
  opt.weights = weights;
  opt.threads = threads;

  // The policy study covers the three contention scenarios; burst-collision
  // is a QoS-credit phenomenon the data-path scheduler cannot see, so it
  // runs under FIFO only.
  const std::vector<tenant::Scenario> study = {
      tenant::Scenario::kNoisyNeighbor, tenant::Scenario::kFairShare,
      tenant::Scenario::kCleanerPressure};

  bench::Json scenarios = bench::Json::array();
  std::vector<placement::PlacementScenarioResult> fifo_results;
  for (const tenant::Scenario s : tenant::all_scenarios()) {
    auto result = placement::run_placement_scenario(s, {opt, {}});
    print_scenario(result, opt.sched.policy);
    if (s == tenant::Scenario::kNoisyNeighbor) {
      std::printf(
          "noisy-neighbour victim p99 inflation: %.2fx (target >= 2x)\n",
          worst_victim_interference(result));
    }
    if (s == tenant::Scenario::kFairShare) {
      std::printf("fair-share Jain index: %.4f (target >= 0.95)\n",
                  result.report.jain_index);
    }
    scenarios.push(scenario_json(result, opt.sched.policy));
    fifo_results.push_back(std::move(result));
  }

  std::vector<sched::Policy> alts;
  if (want_wfq) alts.push_back(sched::Policy::kWfq);
  if (want_prio) alts.push_back(sched::Policy::kPrio);

  bench::Json policies = bench::Json::array();
  bench::Json buyback = bench::Json::array();
  for (const sched::Policy p : alts) {
    tenant::ScenarioOptions alt_opt = opt;
    alt_opt.sched.policy = p;
    bench::Json alt_scenarios = bench::Json::array();
    bench::Json bb = bench::Json::object();
    bb.set("policy", sched::policy_name(p));
    for (const tenant::Scenario s : study) {
      const auto result = placement::run_placement_scenario(s, {alt_opt, {}});
      print_scenario(result, p);
      const auto base_it =
          std::find_if(fifo_results.begin(), fifo_results.end(),
                       [s](const placement::PlacementScenarioResult& r) {
                         return r.scenario == s;
                       });
      UC_ASSERT(base_it != fifo_results.end(), "no FIFO baseline for scenario");
      const auto& base = *base_it;
      const auto cmp = tenant::compare_fairness(base.report, result.report);
      std::printf("vs fifo:\n%s", cmp.to_table().c_str());
      if (s == tenant::Scenario::kNoisyNeighbor) {
        const double improvement =
            worst_victim_interference(base) > 0.0
                ? 1.0 - worst_victim_interference(result) /
                            worst_victim_interference(base)
                : 0.0;
        std::printf(
            "victim interference buy-back under %s: %.1f%% (target >= 25%%)\n",
            sched::policy_name(p), improvement * 100.0);
        bb.set("victim_interference_improvement", improvement);
      }
      if (s == tenant::Scenario::kFairShare) {
        std::printf("fair-share Jain under %s: %.4f (target >= 0.95)\n",
                    sched::policy_name(p), result.report.jain_index);
        bb.set("fair_share_jain", result.report.jain_index);
      }
      if (s == tenant::Scenario::kCleanerPressure) {
        bb.set("cleaner_pressure_jain", result.report.jain_index);
      }
      alt_scenarios.push(scenario_json(result, p));
    }
    bench::Json pol = bench::Json::object();
    pol.set("policy", sched::policy_name(p));
    pol.set("scenarios", std::move(alt_scenarios));
    policies.push(std::move(pol));
    buyback.push(std::move(bb));
  }

  // ------------------------------------------------- placement study --
  // Re-run the contention scenarios over N clusters per placement policy,
  // then show live migration repairing a deliberately packed placement.
  bench::Json placement_json = bench::Json::object();
  if (clusters > 1) {
    placement::PlacementScenarioOptions popt;
    popt.base = opt;  // carries --threads into the sharded-host path
    popt.placement.clusters = clusters;

    // Wall time and simulator events across every placement run below —
    // the parallel engine's events/sec numbers for this bench.
    double study_wall_s = 0.0;
    std::uint64_t study_sim_events = 0;
    const auto run_timed = [&](tenant::Scenario s,
                               const placement::PlacementScenarioOptions& o) {
      const auto start = std::chrono::steady_clock::now();
      auto r = placement::run_placement_scenario(s, o);
      study_wall_s += std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
      study_sim_events += r.sim_events;
      return r;
    };

    const std::vector<tenant::Scenario> placement_study = {
        tenant::Scenario::kNoisyNeighbor, tenant::Scenario::kFairShare};

    bench::Json pol_array = bench::Json::array();
    double pack_victims = 0.0;
    double spread_victims = 0.0;
    for (const placement::Policy p : placements) {
      popt.placement.policy = p;
      bench::Json pol = bench::Json::object();
      pol.set("placement", placement::policy_name(p));
      bench::Json pol_scenarios = bench::Json::array();
      for (const tenant::Scenario s : placement_study) {
        const auto result = run_timed(s, popt);
        print_placement_scenario(placement::policy_name(p), result);
        if (s == tenant::Scenario::kNoisyNeighbor) {
          const double victims = mean_victim_interference(result.report);
          std::printf("victim mean interference under %s: %.2fx\n",
                      placement::policy_name(p), victims);
          if (p == placement::Policy::kPack) pack_victims = victims;
          if (p == placement::Policy::kSpread) spread_victims = victims;
        }
        pol_scenarios.push(placement_scenario_json(result));
      }
      pol.set("scenarios", std::move(pol_scenarios));
      pol_array.push(std::move(pol));
    }
    placement_json.set("clusters", clusters);
    placement_json.set("policies", std::move(pol_array));
    if (pack_victims > 0.0 && spread_victims > 0.0) {
      const double improvement = 1.0 - spread_victims / pack_victims;
      std::printf(
          "\nspread vs pack victim interference improvement: %.1f%% "
          "(spread must win)\n",
          improvement * 100.0);
      placement_json.set("spread_vs_pack_victim_improvement", improvement);
    }

    // Migration relief: pack the cleaner-pressure mix onto cluster 0 — the
    // aggregate overwrite load outruns that cluster's cleaner and appends
    // stall — then rerun with the watermark moving one tenant out mid-run.
    // Stall time and aggregate throughput are cumulative, so the relief is
    // visible even though the copy itself takes simulated time.
    placement::PlacementScenarioOptions packed = popt;
    packed.placement.policy = placement::Policy::kPack;
    packed.placement.pack_limit_bytes = 0;  // deliberately imbalanced
    const auto congested =
        run_timed(tenant::Scenario::kCleanerPressure, packed);
    print_placement_scenario("pack", congested);

    placement::PlacementScenarioOptions relief = packed;
    relief.placement.rebalance_watermark = 1.25;
    relief.placement.rebalance_interval = 10 * units::kMs;
    const auto relieved =
        run_timed(tenant::Scenario::kCleanerPressure, relief);
    print_placement_scenario("pack+migration", relieved);

    const auto total_stall_ms = [](const placement::PlacementScenarioResult&
                                       r) {
      SimTime ns = 0;
      for (const auto& c : r.cluster) ns += c.append_stall_ns;
      return static_cast<double>(ns) / 1e6;
    };
    std::printf(
        "\nmigration relief (cleaner-pressure packed on cluster 0): "
        "stalled %.1f ms -> %.1f ms, aggregate %.3f -> %.3f GB/s "
        "(%zu migration(s))\n",
        total_stall_ms(congested), total_stall_ms(relieved),
        congested.report.aggregate_gbs, relieved.report.aggregate_gbs,
        relieved.migrations.size());

    bench::Json relief_json = bench::Json::object();
    relief_json.set("scenario",
                    tenant::scenario_name(tenant::Scenario::kCleanerPressure));
    relief_json.set("watermark", relief.placement.rebalance_watermark);
    relief_json.set("packed", placement_scenario_json(congested));
    relief_json.set("relieved", placement_scenario_json(relieved));
    relief_json.set("stall_ms_packed", total_stall_ms(congested));
    relief_json.set("stall_ms_relieved", total_stall_ms(relieved));
    relief_json.set("aggregate_gbs_packed", congested.report.aggregate_gbs);
    relief_json.set("aggregate_gbs_relieved", relieved.report.aggregate_gbs);
    relief_json.set("migrations",
                    static_cast<std::uint64_t>(relieved.migrations.size()));
    placement_json.set("migration_relief", std::move(relief_json));

    // Parallel-engine trajectory for this bench: only a --threads > 1 run
    // grows the envelope (the default stays byte-identical).
    if (threads > 1) {
      const double eps =
          study_wall_s > 0.0
              ? static_cast<double>(study_sim_events) / study_wall_s
              : 0.0;
      std::printf(
          "\nparallel: placement study on %d threads — wall %.2f s, %llu "
          "sim events, %.0f events/sec\n",
          threads, study_wall_s,
          static_cast<unsigned long long>(study_sim_events), eps);
      bench::Json par = bench::Json::object();
      par.set("threads", threads);
      par.set("wall_s", study_wall_s);
      par.set("sim_events", study_sim_events);
      par.set("events_per_sec", eps);
      placement_json.set("parallel", std::move(par));
    }
  }

  // --------------------------------------------------- replay study --
  // Open-loop replay-driven scenarios (--trace / --trace-gen): the same
  // tenant mixes driven by per-tenant traces through the shared cluster,
  // with per-tenant slowdown percentiles and the contract replay checker's
  // violations per tenant.  Solo baselines replay the same trace alone, so
  // the interference ratio keeps its meaning.
  const bool replay_requested = trace_gen || !trace_paths.empty();
  bench::Json replay_json = bench::Json::object();
  if (replay_requested) {
    tenant::ScenarioOptions ropt = opt;
    ropt.replay = true;
    ropt.trace_paths = trace_paths;
    ropt.rate_scale = rate_scale;

    const std::vector<tenant::Scenario> replay_study = {
        tenant::Scenario::kNoisyNeighbor, tenant::Scenario::kFairShare};
    bench::Json replay_scenarios = bench::Json::array();
    std::vector<placement::PlacementScenarioResult> replay_fifo;
    for (const tenant::Scenario s : replay_study) {
      auto result = placement::run_placement_scenario(s, {ropt, {}});
      std::printf("\n--- %s [replay, rate-scale %.2f] ---\n%s",
                  tenant::scenario_name(s), rate_scale,
                  result.report.to_table().c_str());
      if (s == tenant::Scenario::kNoisyNeighbor) {
        std::printf(
            "replay noisy-neighbour victim p99 inflation: %.2fx (open-loop "
            "arrivals, per-tenant traces)\n",
            worst_victim_interference(result));
      }
      replay_scenarios.push(replay_scenario_json(result, ropt.sched.policy));
      replay_fifo.push_back(std::move(result));
    }
    replay_json.set("rate_scale", rate_scale);
    bench::Json paths = bench::Json::array();
    for (const auto& p : trace_paths) paths.push(p);
    replay_json.set("trace_paths", std::move(paths));
    replay_json.set("scenarios", std::move(replay_scenarios));

    // The isolation buy-back study under open-loop load: the same replayed
    // scenarios per alternative queue discipline, with the victims' p99
    // inflation delta against the FIFO replay above.  A policy only proves
    // itself if it still helps when arrivals do not back off.
    if (!alts.empty()) {
      bench::Json replay_policies = bench::Json::array();
      for (const sched::Policy p : alts) {
        tenant::ScenarioOptions palt = ropt;
        palt.sched.policy = p;
        bench::Json pol = bench::Json::object();
        pol.set("policy", sched::policy_name(p));
        bench::Json pol_scenarios = bench::Json::array();
        for (std::size_t si = 0; si < replay_study.size(); ++si) {
          const tenant::Scenario s = replay_study[si];
          const auto result =
              placement::run_placement_scenario(s, {palt, {}});
          std::printf("\n--- %s [replay, %s] ---\n%s",
                      tenant::scenario_name(s), sched::policy_name(p),
                      result.report.to_table().c_str());
          const auto& base = replay_fifo[si];
          if (s == tenant::Scenario::kNoisyNeighbor) {
            const double improvement =
                worst_victim_interference(base) > 0.0
                    ? 1.0 - worst_victim_interference(result) /
                                worst_victim_interference(base)
                    : 0.0;
            std::printf(
                "replay victim interference buy-back under %s: %.1f%% (vs "
                "FIFO replay)\n",
                sched::policy_name(p), improvement * 100.0);
            pol.set("victim_interference_improvement", improvement);
          }
          if (s == tenant::Scenario::kFairShare) {
            std::printf("replay fair-share Jain under %s: %.4f (FIFO %.4f)\n",
                        sched::policy_name(p), result.report.jain_index,
                        base.report.jain_index);
            pol.set("fair_share_jain", result.report.jain_index);
          }
          pol_scenarios.push(replay_scenario_json(result, p));
        }
        pol.set("scenarios", std::move(pol_scenarios));
        replay_policies.push(std::move(pol));
      }
      replay_json.set("policies", std::move(replay_policies));
    }
  }

  bench::Json config = bench::Json::object();
  config.set("quick", opt.quick);
  config.set("seed", opt.seed);
  config.set("solo_baselines", opt.solo_baselines);
  // Only a multi-cluster run grows the envelope; --clusters 1 output stays
  // byte-identical to the single-cluster bench.
  if (clusters > 1) config.set("clusters", clusters);
  if (threads > 1) config.set("threads", threads);
  bench::Json wjson = bench::Json::array();
  for (const double w : weights) wjson.push(w);
  config.set("weights", std::move(wjson));
  bench::Json metrics = bench::Json::object();
  metrics.set("scenarios", std::move(scenarios));
  metrics.set("policies", std::move(policies));
  metrics.set("buyback", std::move(buyback));
  if (clusters > 1) metrics.set("placement", std::move(placement_json));
  if (replay_requested) metrics.set("replay", std::move(replay_json));
  bench::maybe_write_json(
      scale, bench::bench_report("multi_tenant", std::move(config),
                                 std::move(metrics)));
  return 0;
}
