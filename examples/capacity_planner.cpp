// Capacity planner: given a workload description, searches the simulated
// provider catalog for the cheapest (budget, smoothing, reduction)
// configuration that meets a latency SLO — a small Cosine-style what-if
// tool built on the library's device models and the unwritten contract's
// implications 4 and 5.

#include <cstdio>
#include <memory>
#include <vector>

#include "common/strfmt.h"
#include "common/table.h"
#include "common/units.h"
#include "essd/essd_device.h"
#include "sim/simulator.h"
#include "workload/reducer.h"
#include "workload/shaper.h"
#include "workload/trace.h"

namespace uc {
namespace {

using namespace units;

struct PlanResult {
  double p999_ms = 0.0;
  bool meets_slo = false;
};

PlanResult evaluate(const std::vector<wl::TraceEvent>& trace, double budget_gbs,
                    bool compress, double slo_p999_ms) {
  sim::Simulator sim;
  auto cfg = essd::alibaba_pl3_profile(4 * kGiB);
  cfg.qos.bw_bytes_per_s = budget_gbs * 1e9;
  cfg.qos.iops = 100000.0 * budget_gbs / 1.1;
  essd::EssdDevice device(sim, cfg);

  BlockDevice* target = &device;
  std::unique_ptr<wl::ReducingDevice> reducer;
  if (compress) {
    wl::ReducerConfig rcfg;
    rcfg.reduction_ratio = 0.5;
    rcfg.encode_us_per_page = 3.0;
    rcfg.decode_us_per_page = 1.5;
    rcfg.cpu_workers = 2;
    reducer = std::make_unique<wl::ReducingDevice>(sim, *target, rcfg);
    target = reducer.get();
  }

  wl::TraceReplayer replayer(sim, *target, trace);
  replayer.start();
  sim.run();
  PlanResult r;
  r.p999_ms =
      static_cast<double>(replayer.stats().all_latency.percentile(99.9)) / 1e6;
  r.meets_slo = r.p999_ms <= slo_p999_ms;
  return r;
}

}  // namespace
}  // namespace uc

int main() {
  using namespace uc;
  using namespace uc::units;

  const double slo_p999_ms = 50.0;
  std::printf("capacity planner: cheapest ESSD configuration meeting "
              "P99.9 <= %.0f ms\n\n", slo_p999_ms);

  wl::TraceGenConfig tcfg;
  tcfg.duration = 20 * kSec;
  tcfg.base_iops = 3000.0;
  tcfg.burst_iops = 20000.0;
  tcfg.bursts_per_s = 0.1;
  tcfg.write_fraction = 0.75;
  tcfg.region_bytes = 1 * kGiB;
  tcfg.seed = 4321;

  sim::Simulator probe;
  essd::EssdDevice probe_dev(probe, essd::alibaba_pl3_profile(4 * kGiB));
  const auto trace = wl::generate_trace(tcfg, probe_dev.info());
  double mean_gbs = 0.0;
  for (const auto& ev : trace) mean_gbs += static_cast<double>(ev.bytes);
  mean_gbs /= static_cast<double>(tcfg.duration);
  std::printf("workload: %zu I/Os, mean %.3f GB/s, peak-to-mean %.1fx\n\n",
              trace.size(), mean_gbs,
              wl::summarize_trace(trace).peak_to_mean);

  // Price model: linear in provisioned bandwidth (relative units).
  TextTable table({"budget GB/s", "compression", "P99.9 ms", "meets SLO",
                   "relative cost"});
  struct Plan {
    double budget;
    bool compress;
  };
  const Plan plans[] = {
      {1.10, false}, {0.55, false}, {0.55, true},
      {0.30, false}, {0.30, true},  {0.20, true},
  };
  const Plan* best = nullptr;
  for (const auto& plan : plans) {
    const auto r = evaluate(trace, plan.budget, plan.compress, slo_p999_ms);
    table.add_row({strfmt("%.2f", plan.budget),
                   plan.compress ? "yes" : "no", strfmt("%.1f", r.p999_ms),
                   r.meets_slo ? "YES" : "no",
                   strfmt("%.2f", plan.budget / 1.10)});
    if (r.meets_slo && (best == nullptr || plan.budget < best->budget)) {
      best = &plan;
    }
  }
  std::printf("%s", table.to_string().c_str());
  if (best != nullptr) {
    std::printf("\ncheapest passing plan: %.2f GB/s budget%s — %.0f%% of "
                "the naive peak-provisioned cost (Implication 5: byte "
                "reduction buys budget headroom the bursts need).\n",
                best->budget, best->compress ? " + compression" : "",
                100.0 * best->budget / 1.10);
  } else {
    std::printf("\nno plan met the SLO; raise the budget.\n");
  }
  return 0;
}
