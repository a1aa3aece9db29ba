// Reproduces Figure 2: average and P99.9 latency of ESSD-1 and ESSD-2
// under four access patterns x I/O sizes {4..256} KiB x queue depths
// {1..16}, expressed as the multiple over the local-SSD reference (the
// "latency gap"), with the absolute ESSD latency in parentheses — the same
// cell format as the paper's heatmaps.  --json <path> dumps every cell.

#include <cstdio>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "contract/report.h"

namespace uc {
namespace {

bench::Json matrix_json(const contract::LatencyMatrix& matrix,
                        const contract::LatencyMatrix& reference) {
  bench::Json rows = bench::Json::array();
  for (std::size_t q = 0; q < matrix.queue_depths.size(); ++q) {
    for (std::size_t s = 0; s < matrix.sizes.size(); ++s) {
      const auto& cell = matrix.cell(q, s);
      const auto& ref = reference.cell(q, s);
      bench::Json row = bench::Json::object();
      row.set("io_bytes", static_cast<std::uint64_t>(cell.io_bytes));
      row.set("queue_depth", cell.queue_depth);
      row.set("avg_us", cell.avg_ns / 1e3);
      row.set("p99_us", cell.p99_ns / 1e3);
      row.set("p999_us", cell.p999_ns / 1e3);
      row.set("avg_gap", ref.avg_ns > 0.0 ? cell.avg_ns / ref.avg_ns : 0.0);
      row.set("p999_gap",
              ref.p999_ns > 0.0 ? cell.p999_ns / ref.p999_ns : 0.0);
      rows.push(std::move(row));
    }
  }
  bench::Json m = bench::Json::object();
  m.set("workload", contract::workload_kind_name(matrix.kind));
  m.set("cells", std::move(rows));
  return m;
}

}  // namespace
}  // namespace uc

int main(int argc, char** argv) {
  using namespace uc;
  const auto scale = bench::parse_scale(argc, argv);

  contract::SuiteConfig cfg;
  cfg.sizes = {4096, 16384, 65536, 262144};
  cfg.queue_depths = scale.quick ? std::vector<int>{1, 4, 16}
                                 : std::vector<int>{1, 2, 4, 8, 16};
  cfg.ops_per_cell = scale.quick ? 800 : 3000;
  cfg.region_bytes = 2ull << 30;
  cfg.seed = 7;
  const contract::CharacterizationSuite suite(cfg);

  bench::print_header(
      "Figure 2 — ESSD latency and the gap over the local SSD",
      "ESSD-1 avg gaps up to ~48x (P99.9 ~99x), ESSD-2 up to ~17x (~104x); "
      "gaps shrink as size/QD scale; random-read gaps smallest "
      "(ESSD-1 ~8-9x, ESSD-2 ~4-5x)");

  const auto devices = bench::paper_devices(scale);
  const auto& ssd = devices[2];
  std::printf("running reference study: %s ...\n", ssd.name.c_str());
  const auto ssd_study = suite.run_latency_study(ssd.factory);

  bench::Json json_devices = bench::Json::array();
  for (int d = 0; d < 2; ++d) {
    std::printf("\nrunning target study: %s ...\n", devices[d].name.c_str());
    const auto study = suite.run_latency_study(devices[d].factory);
    for (const bool p999 : {false, true}) {
      std::printf("\n--- %s, %s latency (gap over SSD, absolute in parens) ---\n",
                  devices[d].name.c_str(), p999 ? "P99.9" : "average");
      for (int k = 0; k < contract::kWorkloadKinds; ++k) {
        std::printf("%s",
                    contract::render_latency_matrix(
                        study.matrices[k], ssd_study.matrices[k], p999)
                        .c_str());
      }
    }
    bench::Json dev = bench::Json::object();
    dev.set("device", devices[d].name);
    bench::Json matrices = bench::Json::array();
    for (int k = 0; k < contract::kWorkloadKinds; ++k) {
      matrices.push(matrix_json(study.matrices[k], ssd_study.matrices[k]));
    }
    dev.set("matrices", std::move(matrices));
    json_devices.push(std::move(dev));
  }

  std::printf("\n--- SSD reference absolute latencies (average) ---\n");
  for (int k = 0; k < contract::kWorkloadKinds; ++k) {
    std::printf("%s", contract::render_latency_matrix_absolute(
                          ssd_study.matrices[k], false)
                          .c_str());
  }

  bench::Json config = bench::Json::object();
  config.set("quick", scale.quick);
  config.set("ops_per_cell", cfg.ops_per_cell);
  config.set("region_bytes", cfg.region_bytes);
  config.set("seed", cfg.seed);
  bench::Json metrics = bench::Json::object();
  metrics.set("reference", ssd.name);
  metrics.set("devices", std::move(json_devices));
  bench::maybe_write_json(
      scale, bench::bench_report("fig2_latency", std::move(config),
                                 std::move(metrics)));
  return 0;
}
