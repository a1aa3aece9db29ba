// Implication 5 ablation: re-evaluate I/O reduction (compression /
// deduplication).  On the ~10 us local SSD the per-page encode cost lands
// directly on the critical path; behind the ~300 us cloud path it is
// invisible, while the byte savings stretch the provisioned budget —
// turning a known pessimization into a win (paper §III-E).

#include <cstdint>
#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "common/strfmt.h"
#include "common/table.h"
#include "workload/reducer.h"
#include "workload/runner.h"

namespace uc {
namespace {

struct RunResult {
  double user_gbs = 0.0;  ///< logical bytes the app moved per second
  double avg_us = 0.0;
};

RunResult run(const contract::DeviceFactory& factory,
              const wl::ReducerConfig* reducer, std::uint64_t total_bytes,
              std::uint32_t io_bytes, int qd) {
  sim::Simulator sim;
  auto device = factory(sim);
  std::unique_ptr<wl::ReducingDevice> reducing;
  BlockDevice* target = device.get();
  if (reducer != nullptr) {
    reducing = std::make_unique<wl::ReducingDevice>(sim, *device, *reducer);
    target = reducing.get();
  }
  wl::JobSpec spec;
  spec.pattern = wl::AccessPattern::kRandom;
  spec.io_bytes = io_bytes;
  spec.queue_depth = qd;
  spec.region_bytes = 2ull << 30;
  spec.total_bytes = total_bytes;
  spec.seed = 53;
  const auto stats = wl::JobRunner::run_to_completion(sim, *target, spec);
  const SimTime span = stats.last_complete - stats.first_submit;
  RunResult r;
  r.user_gbs = span == 0 ? 0.0
                         : static_cast<double>(total_bytes) /
                               static_cast<double>(span);
  r.avg_us = stats.all_latency.mean() / 1e3;
  return r;
}

}  // namespace
}  // namespace uc

int main(int argc, char** argv) {
  using namespace uc;
  const auto scale = bench::parse_scale(argc, argv);
  const std::uint64_t volume = scale.quick ? (256ull << 20) : (1ull << 30);

  bench::print_header(
      "Implication 5 — re-evaluate compression/deduplication",
      "CPU-side reduction hurts the local SSD but helps the ESSD: the "
      "encode cost hides under the cloud latency floor while byte savings "
      "stretch the byte budget");

  wl::ReducerConfig comp;
  comp.reduction_ratio = 0.5;      // 2:1 compressible data
  comp.encode_us_per_page = 3.0;   // lz4-class cost per 4 KiB
  comp.decode_us_per_page = 1.5;
  comp.cpu_workers = 2;            // ~2.7 GB/s encode ceiling

  TextTable table({"device", "raw GB/s (user)", "compressed GB/s (user)",
                   "speedup", "raw avg us", "compressed avg us"});
  bench::Json devices_json = bench::Json::array();
  for (const auto& dev : bench::paper_devices(scale)) {
    const auto raw = run(dev.factory, nullptr, volume, 65536, 16);
    const auto red = run(dev.factory, &comp, volume, 65536, 16);
    table.add_row({dev.name, strfmt("%.2f", raw.user_gbs),
                   strfmt("%.2f", red.user_gbs),
                   strfmt("%.2fx", raw.user_gbs > 0
                                       ? red.user_gbs / raw.user_gbs
                                       : 0.0),
                   strfmt("%.0f", raw.avg_us), strfmt("%.0f", red.avg_us)});
    bench::Json row = bench::Json::object();
    row.set("device", dev.name);
    row.set("raw_gbs", raw.user_gbs);
    row.set("reduced_gbs", red.user_gbs);
    row.set("speedup", raw.user_gbs > 0 ? red.user_gbs / raw.user_gbs : 0.0);
    row.set("raw_avg_us", raw.avg_us);
    row.set("reduced_avg_us", red.avg_us);
    devices_json.push(std::move(row));
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("workload: 64 KiB random writes, QD16, 2:1 reduction, "
              "3 us/4KiB encode on 2 CPU workers (~2.7 GB/s ceiling).\n");
  std::printf("the encode ceiling throttles the fast local SSD but sits "
              "above the ESSD budgets, so reduction flips from loss to "
              "win in the cloud.\n");

  bench::Json config = bench::Json::object();
  config.set("quick", scale.quick);
  config.set("volume_bytes", volume);
  config.set("reduction_ratio", comp.reduction_ratio);
  config.set("encode_us_per_page", comp.encode_us_per_page);
  config.set("cpu_workers", comp.cpu_workers);
  bench::Json metrics = bench::Json::object();
  metrics.set("devices", std::move(devices_json));
  bench::maybe_write_json(
      scale, bench::bench_report("impl5_reduction", std::move(config),
                                 std::move(metrics)));
  return 0;
}
