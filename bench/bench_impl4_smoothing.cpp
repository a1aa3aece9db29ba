// Implication 4 ablation: "smooth the read/write I/Os to be evenly
// distributed across the timeline and below the guaranteed throughput
// budget."  Replays a bursty synthetic cloud trace against ESSD profiles
// provisioned with decreasing budgets, raw vs through the leaky-bucket
// smoother, and reports tail latency — showing that a smoothed workload
// rides a much cheaper budget at comparable tails.

#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "common/strfmt.h"
#include "common/table.h"
#include "workload/shaper.h"
#include "workload/trace.h"

namespace uc {
namespace {

struct ReplayResult {
  double p50_ms = 0.0;
  double p999_ms = 0.0;
  std::uint64_t max_inflight = 0;
};

ReplayResult replay(const contract::DeviceFactory& factory,
                    const std::vector<wl::TraceEvent>& trace,
                    double smooth_gbs) {
  sim::Simulator sim;
  auto device = factory(sim);
  std::unique_ptr<wl::SmoothingDevice> smoother;
  BlockDevice* target = device.get();
  if (smooth_gbs > 0.0) {
    smoother = std::make_unique<wl::SmoothingDevice>(
        sim, *device, wl::SmootherConfig{smooth_gbs * 1e9, 0.25});
    target = smoother.get();
  }
  wl::TraceReplayer replayer(sim, *target, trace);
  replayer.start();
  sim.run();
  UC_ASSERT(replayer.finished(), "trace replay incomplete");
  ReplayResult r;
  r.p50_ms =
      static_cast<double>(replayer.stats().all_latency.percentile(50)) / 1e6;
  r.p999_ms =
      static_cast<double>(replayer.stats().all_latency.percentile(99.9)) / 1e6;
  r.max_inflight = replayer.backlog_peak();
  return r;
}

/// An ESSD-2-style profile with an arbitrary provisioned budget (the cost
/// lever this experiment turns).
contract::DeviceFactory budgeted_essd(std::uint64_t capacity, double gbs,
                                      double iops) {
  return [capacity, gbs, iops](sim::Simulator& sim) {
    auto cfg = essd::alibaba_pl3_profile(capacity);
    cfg.qos.bw_bytes_per_s = gbs * 1e9;
    cfg.qos.iops = iops;
    return std::make_unique<essd::EssdDevice>(sim, cfg);
  };
}

}  // namespace
}  // namespace uc

int main(int argc, char** argv) {
  using namespace uc;
  const auto scale = bench::parse_scale(argc, argv);

  bench::print_header(
      "Implication 4 — smooth bursts below the throughput budget",
      "bursty cloud workloads waste provisioned peak budget; pacing to the "
      "mean lets a smaller (cheaper) budget hit comparable tails");

  wl::TraceGenConfig tcfg;
  tcfg.duration = (scale.quick ? 20 : 60) * units::kSec;
  tcfg.base_iops = 2500.0;
  tcfg.burst_iops = 30000.0;
  tcfg.bursts_per_s = 0.1;
  tcfg.write_fraction = 0.7;
  tcfg.region_bytes = 2ull << 30;
  tcfg.seed = 77;

  sim::Simulator probe;
  auto probe_dev = bench::essd2_factory(scale.essd_capacity)(probe);
  const auto trace = wl::generate_trace(tcfg, probe_dev->info());
  const double peak_to_mean = wl::summarize_trace(trace).peak_to_mean;
  double mean_gbs = 0.0;
  for (const auto& ev : trace) mean_gbs += static_cast<double>(ev.bytes);
  mean_gbs /= static_cast<double>(tcfg.duration);
  std::printf("trace: %zu I/Os over %.0f s, mean %.3f GB/s, "
              "peak-to-mean %.1fx\n\n",
              trace.size(), static_cast<double>(tcfg.duration) / 1e9, mean_gbs,
              peak_to_mean);

  TextTable table({"budget (GB/s)", "mode", "p50 (ms)", "p99.9 (ms)",
                   "max queue"});
  bench::Json sweep = bench::Json::array();
  for (const double budget : {1.1, 0.5, 0.25}) {
    for (const bool smoothed : {false, true}) {
      const auto factory =
          budgeted_essd(scale.essd_capacity, budget,
                        budget * 100000.0 / 1.1);  // scale IOPS with budget
      // Pace just under the paid budget: bursts queue host-side instead of
      // against the provider's throttle.
      const auto r =
          replay(factory, trace, smoothed ? budget * 0.9 : 0.0);
      table.add_row({strfmt("%.2f", budget), smoothed ? "smoothed" : "raw",
                     strfmt("%.2f", r.p50_ms), strfmt("%.1f", r.p999_ms),
                     strfmt("%llu", static_cast<unsigned long long>(
                                        r.max_inflight))});
      bench::Json row = bench::Json::object();
      row.set("budget_gbs", budget);
      row.set("smoothed", smoothed);
      row.set("p50_ms", r.p50_ms);
      row.set("p999_ms", r.p999_ms);
      row.set("max_queue", r.max_inflight);
      sweep.push(std::move(row));
    }
  }
  std::printf("%s", table.to_string().c_str());
  std::printf(
      "smoothing pace: 0.9x the paid budget.\n"
      "reading the table: the burst backlog, not the mean (%.3f GB/s), sets "
      "the budget a latency SLO needs — Implication 4's advice is the row "
      "where pacing keeps P99.9 affordable at a fraction of the peak-"
      "provisioned budget; smoothing makes that backlog host-visible and "
      "tunable instead of a provider-side throttle artifact.\n",
      mean_gbs);

  bench::Json config = bench::Json::object();
  config.set("quick", scale.quick);
  config.set("smoothing_pace", 0.9);
  bench::Json metrics = bench::Json::object();
  bench::Json trace_json = bench::Json::object();
  trace_json.set("events", static_cast<std::uint64_t>(trace.size()));
  trace_json.set("duration_s", static_cast<double>(tcfg.duration) / 1e9);
  trace_json.set("mean_gbs", mean_gbs);
  trace_json.set("peak_to_mean", peak_to_mean);
  metrics.set("trace", std::move(trace_json));
  metrics.set("sweep", std::move(sweep));
  bench::maybe_write_json(
      scale, bench::bench_report("impl4_smoothing", std::move(config),
                                 std::move(metrics)));
  return 0;
}
