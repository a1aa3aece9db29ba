// Design-choice ablation A (DESIGN.md): local-SSD over-provisioning
// sensitivity under greedy GC.  Sweeps the spare-superblock count, reporting
// steady-state write amplification, sustained random-write throughput, and
// the GC-cliff position — the knob that places the SSD curve in Figure 3.
//
// --json <path> emits the shared {bench, config, metrics} schema with one
// row per spare-superblock sweep point.

#include <cstdint>
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "common/strfmt.h"
#include "common/table.h"
#include "contract/observations.h"
#include "ssd/ssd_device.h"
#include "workload/runner.h"

namespace uc {
namespace {

struct AblationResult {
  double cliff_multiple = 0.0;
  double plateau_gbs = 0.0;
  double final_gbs = 0.0;
  double wa = 0.0;
  double stall_pct = 0.0;
};

AblationResult run(std::uint64_t capacity, std::uint64_t spare_sbs,
                   double multiples) {
  sim::Simulator sim;
  auto cfg = ssd::samsung_970pro_scaled(capacity);
  // Re-derive the geometry with the requested spare.
  auto g = cfg.ftl.geometry;
  const std::uint64_t user_sbs =
      (capacity + g.superblock_bytes() - 1) / g.superblock_bytes();
  g.blocks_per_plane = static_cast<int>(user_sbs + spare_sbs);
  cfg.ftl.geometry = g;
  ssd::SsdDevice device(sim, cfg);

  wl::JobSpec spec;
  spec.pattern = wl::AccessPattern::kRandom;
  spec.io_bytes = 131072;
  spec.queue_depth = 32;
  spec.total_bytes =
      static_cast<std::uint64_t>(multiples * static_cast<double>(capacity));
  spec.seed = 61;
  spec.timeline_bin = units::kSec / 4;  // bench-scale runs span seconds
  const auto stats = wl::JobRunner::run_to_completion(sim, device, spec);

  contract::GcRunResult run_result;
  run_result.timeline = stats.timeline.smoothed_series(5);
  run_result.device_capacity_bytes = capacity;
  run_result.total_written_bytes = stats.write_bytes;
  const auto cliff = contract::detect_gc_cliff(run_result);

  AblationResult r;
  r.cliff_multiple = cliff.found ? cliff.at_capacity_multiple : 0.0;
  r.plateau_gbs = cliff.plateau_gbs;
  r.final_gbs = cliff.final_gbs;
  r.wa = device.ftl().write_amplification();
  const SimTime span = stats.last_complete - stats.first_submit;
  r.stall_pct = span == 0 ? 0.0
                          : 100.0 *
                                static_cast<double>(
                                    device.ftl().stats().user_stall_ns) /
                                static_cast<double>(span);
  return r;
}

}  // namespace
}  // namespace uc

int main(int argc, char** argv) {
  using namespace uc;
  const auto scale = bench::parse_scale(argc, argv);
  const std::uint64_t capacity = scale.quick ? (8ull << 30) : (16ull << 30);
  const double multiples = scale.quick ? 2.0 : 2.5;

  bench::print_header(
      "Ablation A — SSD over-provisioning under greedy GC",
      "more spare -> lower WA, later/softer cliff "
      "(the mechanism behind the paper's Figure 3 SSD curve)");

  TextTable table({"spare SBs", "cliff (xcap)", "plateau GB/s", "final GB/s",
                   "WA", "stall %"});
  bench::Json sweep = bench::Json::array();
  for (const std::uint64_t spare : {8ull, 12ull, 20ull}) {
    const auto r = run(capacity, spare, multiples);
    table.add_row(
        {strfmt("%llu", static_cast<unsigned long long>(spare)),
         r.cliff_multiple > 0 ? strfmt("%.2f", r.cliff_multiple)
                              : std::string("none"),
         strfmt("%.2f", r.plateau_gbs), strfmt("%.2f", r.final_gbs),
         strfmt("%.2f", r.wa), strfmt("%.1f", r.stall_pct)});
    bench::Json row = bench::Json::object();
    row.set("spare_superblocks", spare);
    row.set("cliff_found", r.cliff_multiple > 0);
    row.set("cliff_xcap", r.cliff_multiple);
    row.set("plateau_gbs", r.plateau_gbs);
    row.set("final_gbs", r.final_gbs);
    row.set("write_amplification", r.wa);
    row.set("stall_pct", r.stall_pct);
    sweep.push(std::move(row));
  }
  std::printf("%s", table.to_string().c_str());

  bench::Json config = bench::Json::object();
  config.set("quick", scale.quick);
  config.set("capacity_bytes", capacity);
  config.set("capacity_multiples", multiples);
  config.set("io_bytes", 131072);
  config.set("queue_depth", 32);
  bench::Json metrics = bench::Json::object();
  metrics.set("sweep", std::move(sweep));
  bench::maybe_write_json(
      scale, bench::bench_report("ablation_gc", std::move(config),
                                 std::move(metrics)));
  return 0;
}
