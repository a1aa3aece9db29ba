// Open-loop trace replay at scale: feeds a multi-million-event cloud block
// trace (synthetic Li-et-al-style by default, any CSV via --trace) through
// the open-loop replayer against an ESSD profile, runs the contract replay
// checker over the result, and contrasts open-loop slowdown with
// closed-loop latency at the same offered load.
//
// The point (implications 4 and 5): a closed-loop benchmark can never show
// what overload feels like in production, because its queue depth paces the
// load down.  Open loop, the same offered bytes make the backlog — and the
// per-op slowdown — diverge the moment the offered rate crosses the budget,
// while the closed-loop run of identical work just takes longer at calm
// per-op latency.
//
// Legs:
//   1. scale   — replay the full trace (>= 5M events in --quick) at
//                --rate-scale (default 1.0).  The synthetic trace's *mean*
//                offered load fits the budget (~0.75x) but its bursts and
//                diurnal peaks do not — the checker flags exactly that.
//   2. closed  — a closed-loop job moving the same bytes with the same mix:
//                the latency the same work shows when self-paced.
//   3. overload— replay a capped prefix time-warped above the budget:
//                slowdown p99 detaches from p50, backlog grows, and the
//                contract checker reports the violations by implication.
//   4. multi-cluster (--clusters K, optional) — the same offered load split
//                across K independent clusters, one open-loop tenant each,
//                run as a `placement::ShardedHost` on `--threads N` workers.
//                Reports wall time, events/sec, per-shard FNV digests (the
//                thread-count-invariance artifact), and per-cluster
//                contract verdicts.
//
// --json emits the documented `trace_replay` schema (docs/BENCH_JSON.md).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/strfmt.h"
#include "common/table.h"
#include "contract/replay.h"
#include "essd/essd_config.h"
#include "placement/placement.h"
#include "sim/parallel.h"
#include "tenant/tenant.h"
#include "workload/load_source.h"
#include "workload/runner.h"
#include "workload/trace.h"

namespace uc {
namespace {

struct ReplayRun {
  wl::JobStats stats;
  std::uint64_t backlog_peak = 0;
};

// Takes the trace by value so multi-million-event legs can std::move their
// buffer in instead of holding a second copy alive.
ReplayRun replay(const contract::DeviceFactory& factory,
                 std::vector<wl::TraceEvent> trace,
                 const wl::ReplayOptions& opt) {
  sim::Simulator sim;
  auto device = factory(sim);
  wl::TraceReplayer replayer(sim, *device, std::move(trace), opt);
  replayer.start();
  sim.run();
  UC_ASSERT(replayer.finished(), "trace replay incomplete");
  ReplayRun r;
  r.stats = replayer.stats();
  r.backlog_peak = replayer.backlog_peak();
  return r;
}

bench::Json violations_json(const contract::ReplayVerdict& verdict) {
  bench::Json arr = bench::Json::array();
  for (const auto& violation : verdict.violations) {
    bench::Json v = bench::Json::object();
    v.set("rule", violation.rule);
    v.set("severity", violation.severity);
    v.set("detail", violation.detail);
    arr.push(v);
  }
  return arr;
}

bench::Json verdict_json(const contract::ReplayVerdict& v) {
  bench::Json j = bench::Json::object();
  j.set("offered_gbs", v.offered_gbs);
  j.set("offered_iops", v.offered_iops);
  j.set("achieved_gbs", v.achieved_gbs);
  j.set("peak_to_mean", v.peak_to_mean);
  j.set("slowdown_p50_ms", v.slowdown_p50_ms);
  j.set("slowdown_p99_ms", v.slowdown_p99_ms);
  j.set("backlog_peak", v.backlog_peak);
  j.set("violations", violations_json(v));
  return j;
}

void print_verdict(const char* leg, const contract::ReplayVerdict& v) {
  std::printf(
      "%s: offered %.3f GB/s (%.0f IOPS), achieved %.3f GB/s, slowdown "
      "p50/p99 %.2f/%.2f ms, peak backlog %llu\n",
      leg, v.offered_gbs, v.offered_iops, v.achieved_gbs, v.slowdown_p50_ms,
      v.slowdown_p99_ms, static_cast<unsigned long long>(v.backlog_peak));
  if (v.clean()) {
    std::printf("%s: contract clean (no violations)\n", leg);
  } else {
    for (const auto& violation : v.violations) {
      std::printf("%s: VIOLATION [%s, %.2fx] %s\n", leg,
                  violation.rule.c_str(), violation.severity,
                  violation.detail.c_str());
    }
  }
}

}  // namespace
}  // namespace uc

int main(int argc, char** argv) {
  using namespace uc;
  const auto scale = bench::parse_scale(
      argc, argv,
      {"--trace", "--events", "--rate-scale", "--clusters", "--threads"});

  std::string trace_path;
  std::uint64_t want_events = 0;
  double rate_scale = 1.0;
  int clusters = 1;
  int threads = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0) {
      trace_path = bench::flag_value(argc, argv, i);
    } else if (std::strcmp(argv[i], "--events") == 0) {
      want_events =
          std::strtoull(bench::flag_value(argc, argv, i), nullptr, 10);
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
    } else if (std::strcmp(argv[i], "--json") == 0) {
      ++i;  // the path, read by parse_scale
    }
  }

  bench::print_header(
      "Open-loop trace replay at scale — slowdown, backlog, and the "
      "contract under production-shaped load",
      "implications 4/5: bursty open-loop cloud workloads vs the budget; "
      "closed-loop latency cannot show the backlog a real arrival process "
      "builds");

  // The device under test: the ESSD-2-class profile (1.1 GB/s budget).
  const auto device_factory = bench::essd2_factory(scale.essd_capacity);
  const double budget_gbs = 1.1;
  const double budget_iops = 100000.0;

  // ---------------------------------------------------------- the trace --
  // Synthetic default: the Li-et-al-style generator sized so the *mean*
  // offered load sits at ~0.75x the budget while bursts and diurnal peaks
  // overshoot it (the Implication 4 shape), and the event count clears 5M
  // even in --quick.
  std::vector<wl::TraceEvent> trace;
  if (!trace_path.empty()) {
    auto loaded = wl::load_trace_csv(trace_path);
    if (!loaded.is_ok()) {
      std::fprintf(stderr, "error: %s\n", loaded.status().to_string().c_str());
      return 1;
    }
    trace = std::move(loaded).take();
    if (want_events > 0 && trace.size() > want_events) {
      trace.resize(want_events);
    }
  } else {
    if (want_events == 0) want_events = scale.quick ? 5'200'000 : 12'000'000;
    wl::TraceGenConfig gen;
    gen.base_iops = 26000.0;  // ~0.77 GB/s at the default ~30 KiB size mix
    gen.burst_iops = 20000.0;
    gen.bursts_per_s = 0.05;
    gen.diurnal_amplitude = 0.35;
    gen.duration = static_cast<SimTime>(
        static_cast<double>(want_events) / gen.base_iops * 1e9);
    gen.region_bytes = 4ull << 30;
    gen.seed = 20240 + (scale.quick ? 1 : 0);
    sim::Simulator probe;
    auto probe_dev = device_factory(probe);
    trace = wl::generate_trace(gen, probe_dev->info());
    // Bursts and diurnal peaks generate past the base-rate estimate; cap
    // to the requested count so --events means the same thing for
    // synthetic and CSV traces.
    if (trace.size() > want_events) trace.resize(want_events);
  }
  const auto summary = wl::summarize_trace(trace);
  std::printf(
      "trace: %llu events over %.0f s, offered %.3f GB/s / %.0f IOPS, "
      "peak-to-mean %.1fx, %.0f%% of bytes in sub-64KiB I/Os\n\n",
      static_cast<unsigned long long>(summary.events),
      static_cast<double>(summary.span_ns) / 1e9, summary.offered_gbs(),
      summary.offered_iops(), summary.peak_to_mean,
      summary.small_io_byte_fraction * 100.0);

  contract::ReplayCheckConfig check;
  check.budget_gbs = budget_gbs;
  check.budget_iops = budget_iops;

  // The overload leg (leg 3) replays this capped prefix; carve it out now
  // so the scale leg below can consume the full trace by move.
  const std::uint64_t overload_events =
      std::min<std::uint64_t>(trace.size(), scale.quick ? 250'000 : 600'000);
  std::vector<wl::TraceEvent> prefix(
      trace.begin(),
      trace.begin() + static_cast<std::ptrdiff_t>(overload_events));

  // ------------------------------------------------------ leg 1: scale --
  wl::ReplayOptions scale_opt;
  scale_opt.rate_scale = rate_scale;
  const auto scale_offered = wl::summarize_trace(trace, rate_scale);
  const ReplayRun scale_run =
      replay(device_factory, std::move(trace), scale_opt);
  auto scale_verdict = contract::evaluate_replay(
      scale_offered, scale_run.stats, scale_run.backlog_peak, check);
  print_verdict("scale", scale_verdict);

  // ----------------------------------------------- leg 2: closed loop --
  // The same bytes, same mix, self-paced at QD16: the latency the paper's
  // measurement mode reports for this work.
  wl::JobSpec closed;
  closed.name = "closed-loop-reference";
  closed.pattern = wl::AccessPattern::kRandom;
  closed.io_bytes = 32768;  // ~ the trace's mean I/O size
  closed.queue_depth = 16;
  closed.write_ratio = 0.7;
  closed.region_bytes = 4ull << 30;
  closed.total_bytes = summary.total_bytes;
  closed.seed = 977;
  sim::Simulator closed_sim;
  auto closed_dev = device_factory(closed_sim);
  const auto closed_stats =
      wl::JobRunner::run_to_completion(closed_sim, *closed_dev, closed);
  const double closed_p99_ms =
      static_cast<double>(closed_stats.all_latency.percentile(99.0)) / 1e6;
  std::printf(
      "closed: same %.2f GiB self-paced at QD16 — %.3f GB/s, p50/p99 "
      "%.2f/%.2f ms\n",
      static_cast<double>(summary.total_bytes) / (1ull << 30),
      closed_stats.throughput_gbs(),
      static_cast<double>(closed_stats.all_latency.percentile(50.0)) / 1e6,
      closed_p99_ms);

  // --------------------------------------------------- leg 3: overload --
  // The capped prefix, time-warped so the offered load crosses the budget:
  // the open-loop failure mode the closed-loop run structurally cannot
  // show.
  const double overload_scale =
      budget_gbs / summary.offered_gbs() * 1.35;  // offered = 1.35x budget
  wl::ReplayOptions over_opt;
  over_opt.rate_scale = overload_scale;
  const auto over_offered = wl::summarize_trace(prefix, overload_scale);
  const ReplayRun over_run =
      replay(device_factory, std::move(prefix), over_opt);
  auto over_verdict = contract::evaluate_replay(
      over_offered, over_run.stats, over_run.backlog_peak, check);
  print_verdict("overload", over_verdict);

  // ------------------------------------------------------- divergence --
  const double divergence =
      closed_p99_ms > 0.0 ? over_verdict.slowdown_p99_ms / closed_p99_ms : 0.0;
  std::printf(
      "\nopen-loop vs closed-loop: overload p99 slowdown %.1f ms vs "
      "closed-loop p99 latency %.2f ms — %.0fx (open loop must dwarf "
      "closed loop)\n",
      over_verdict.slowdown_p99_ms, closed_p99_ms, divergence);

  TextTable table({"leg", "offered GB/s", "achieved GB/s", "sd-p50 ms",
                   "sd-p99 ms", "backlog", "violations"});
  for (std::size_t c = 1; c < 7; ++c) {
    table.set_align(c, TextTable::Align::kRight);
  }
  const auto row = [&](const char* leg, const contract::ReplayVerdict& v) {
    table.add_row({leg, strfmt("%.3f", v.offered_gbs),
                   strfmt("%.3f", v.achieved_gbs),
                   strfmt("%.2f", v.slowdown_p50_ms),
                   strfmt("%.2f", v.slowdown_p99_ms),
                   strfmt("%llu", static_cast<unsigned long long>(
                                      v.backlog_peak)),
                   strfmt("%zu", v.violations.size())});
  };
  row("scale", scale_verdict);
  row("overload", over_verdict);
  std::printf("\n%s", table.to_string().c_str());

  // ------------------------------------------- leg 4: multi-cluster --
  // The leg-1 load shape replicated per cluster (distinct generator seeds,
  // the leg's event total split K ways), run as a `placement::ShardedHost`
  // on `--threads` workers.  The per-shard digests are the determinism
  // artifact: any two runs of the same --clusters/--events at different
  // --threads must print identical digest vectors.  Gated on --clusters so
  // the default single-cluster output stays byte-identical.
  bench::Json multi_json = bench::Json::object();
  if (clusters > 1) {
    const essd::EssdConfig mc_base =
        essd::alibaba_pl3_profile(scale.essd_capacity);
    const std::uint64_t per_cluster = std::max<std::uint64_t>(
        1, summary.events / static_cast<std::uint64_t>(clusters));
    std::vector<tenant::TenantSpec> specs;
    for (int c = 0; c < clusters; ++c) {
      tenant::TenantSpec t;
      t.name = strfmt("cluster%d", c);
      t.capacity_bytes = scale.essd_capacity;
      t.qos = mc_base.qos;
      t.load.job.name = t.name;
      t.load.open_loop = true;
      t.load.rate_scale = rate_scale;
      t.load.max_events = per_cluster;
      t.load.gen.base_iops = 26000.0;
      t.load.gen.burst_iops = 20000.0;
      t.load.gen.bursts_per_s = 0.05;
      t.load.gen.diurnal_amplitude = 0.35;
      t.load.gen.duration = static_cast<SimTime>(
          static_cast<double>(per_cluster) / t.load.gen.base_iops * 1e9);
      t.load.gen.region_bytes = 4ull << 30;
      t.load.gen.seed = 20240 + (scale.quick ? 1 : 0) +
                        1000ull * static_cast<std::uint64_t>(c);
      specs.push_back(std::move(t));
    }

    placement::PlacementConfig pcfg;
    pcfg.clusters = clusters;
    pcfg.policy = placement::Policy::kSpread;
    placement::ShardedHost host(mc_base, specs, pcfg);

    sim::ParallelExecutor exec(threads);
    const auto wall_start = std::chrono::steady_clock::now();
    const auto fleet = host.run(exec);
    const double wall_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - wall_start)
                              .count();
    const placement::ShardPlan plan = placement::compute_shard_plan(pcfg);
    const auto digests = placement::shard_digests(plan, fleet);
    std::uint64_t replayed = 0;
    for (const auto& tr : fleet.traces) replayed += tr.events;
    const double events_per_sec =
        wall_s > 0.0 ? static_cast<double>(fleet.sim_events) / wall_s : 0.0;

    std::printf(
        "\nmulti-cluster: %d clusters x %llu events on %d thread(s) "
        "(%zu shards) — wall %.2f s, %llu sim events, %.0f events/sec\n",
        clusters, static_cast<unsigned long long>(per_cluster),
        exec.threads(), plan.shards(), wall_s,
        static_cast<unsigned long long>(fleet.sim_events), events_per_sec);

    bench::Json mc_tenants = bench::Json::array();
    for (std::size_t i = 0; i < specs.size(); ++i) {
      contract::ReplayCheckConfig mc_check;
      mc_check.budget_gbs = specs[i].qos.bw_bytes_per_s / 1e9;
      mc_check.budget_iops = specs[i].qos.iops;
      const auto v = contract::evaluate_replay(
          fleet.traces[i], fleet.stats[i], fleet.backlog_peak[i], mc_check);
      print_verdict(specs[i].name.c_str(), v);
      bench::Json t = verdict_json(v);
      t.set("name", specs[i].name);
      t.set("events", fleet.traces[i].events);
      mc_tenants.push(std::move(t));
    }
    std::printf("multi-cluster digests:");
    // Hex strings in the JSON too: bench::Json stores numbers as double,
    // which cannot carry a 64-bit digest exactly.
    bench::Json dig = bench::Json::array();
    for (const auto d : digests) {
      std::printf(" %016llx", static_cast<unsigned long long>(d));
      dig.push(strfmt("%016llx", static_cast<unsigned long long>(d)));
    }
    std::printf("\n");

    multi_json.set("clusters", clusters);
    multi_json.set("threads", exec.threads());
    multi_json.set("shards", static_cast<std::uint64_t>(plan.shards()));
    multi_json.set("wall_s", wall_s);
    multi_json.set("replayed_events", replayed);
    multi_json.set("sim_events", fleet.sim_events);
    multi_json.set("events_per_sec", events_per_sec);
    multi_json.set("digests", std::move(dig));
    multi_json.set("tenants", std::move(mc_tenants));
  }

  bench::Json config = bench::Json::object();
  config.set("quick", scale.quick);
  config.set("trace", trace_path.empty() ? "synthetic" : trace_path);
  config.set("events", summary.events);
  config.set("rate_scale", rate_scale);
  config.set("device", "ESSD-2 (Alibaba PL3 sim)");
  config.set("budget_gbs", budget_gbs);
  // Only the multi-cluster leg grows the envelope; the default output stays
  // byte-identical to the single-cluster bench.
  if (clusters > 1) {
    config.set("clusters", clusters);
    config.set("threads", threads);
  }

  bench::Json metrics = bench::Json::object();
  bench::Json trace_json = bench::Json::object();
  trace_json.set("events", summary.events);
  trace_json.set("span_s", static_cast<double>(summary.span_ns) / 1e9);
  trace_json.set("offered_gbs", summary.offered_gbs());
  trace_json.set("offered_iops", summary.offered_iops());
  trace_json.set("peak_to_mean", summary.peak_to_mean);
  trace_json.set("small_io_byte_fraction", summary.small_io_byte_fraction);
  metrics.set("trace", std::move(trace_json));
  metrics.set("scale_replay", verdict_json(scale_verdict));
  bench::Json closed_json = bench::Json::object();
  closed_json.set("gbs", closed_stats.throughput_gbs());
  closed_json.set(
      "p50_ms",
      static_cast<double>(closed_stats.all_latency.percentile(50.0)) / 1e6);
  closed_json.set("p99_ms", closed_p99_ms);
  metrics.set("closed_loop", std::move(closed_json));
  bench::Json over_json = verdict_json(over_verdict);
  over_json.set("rate_scale", overload_scale);
  over_json.set("events", overload_events);
  metrics.set("overload_replay", std::move(over_json));
  bench::Json div = bench::Json::object();
  div.set("open_p99_slowdown_ms", over_verdict.slowdown_p99_ms);
  div.set("closed_p99_latency_ms", closed_p99_ms);
  div.set("ratio", divergence);
  metrics.set("divergence", std::move(div));
  if (clusters > 1) metrics.set("multi_cluster", std::move(multi_json));

  bench::maybe_write_json(
      scale, bench::bench_report("trace_replay", std::move(config),
                                 std::move(metrics)));
  return 0;
}
