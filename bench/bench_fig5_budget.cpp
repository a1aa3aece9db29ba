// Reproduces Figure 5: total and write throughput under mixed random
// read/write workloads as the write ratio sweeps 0..100%.  Both ESSDs pin
// deterministically to their guaranteed budget (3.0 / 1.1 GB/s); the local
// SSD wanders between ~2.5 and ~4.3 GB/s because reads and writes stress
// different internal resources.
//
// --json <path> emits the shared {bench, config, metrics} schema with the
// full per-device ratio sweep.

#include <cstdio>

#include "bench/bench_util.h"
#include "common/stats.h"
#include "contract/report.h"

int main(int argc, char** argv) {
  using namespace uc;
  const auto scale = bench::parse_scale(argc, argv);

  bench::print_header(
      "Figure 5 — throughput vs read/write mix",
      "ESSD-1 ~3.0 GB/s and ESSD-2 ~1.1 GB/s at every ratio; SSD varies "
      "~2.5-4.3 GB/s");

  contract::SuiteConfig cfg;
  cfg.seed = 23;
  cfg.region_bytes = 2ull << 30;
  cfg.settle_time = 10 * units::kSec;
  const contract::CharacterizationSuite suite(cfg);

  const int step = scale.quick ? 25 : 10;
  const SimTime cell = scale.quick ? units::kSec : 2 * units::kSec;

  bench::Json devices = bench::Json::array();
  for (const auto& dev : bench::paper_devices(scale)) {
    std::printf("\nrunning %s ...\n", dev.name.c_str());
    const auto scan = suite.run_budget_scan(dev.factory, 262144, 32, step, cell);
    std::printf("%s", contract::render_budget_scan(dev.name, scan).c_str());
    RunningStat stat;
    for (const double g : scan.total_gbs) stat.add(g);
    std::printf("summary: mean %.2f GB/s, CV %.3f (guaranteed %.2f GB/s)\n",
                stat.mean(), stat.cv(), dev.guaranteed_gbs);

    bench::Json d = bench::Json::object();
    d.set("device", dev.name);
    d.set("guaranteed_gbs", dev.guaranteed_gbs);
    d.set("mean_gbs", stat.mean());
    d.set("cv", stat.cv());
    bench::Json sweep = bench::Json::array();
    for (std::size_t i = 0; i < scan.write_ratios_pct.size(); ++i) {
      bench::Json cell_j = bench::Json::object();
      cell_j.set("write_pct", scan.write_ratios_pct[i]);
      cell_j.set("total_gbs", scan.total_gbs[i]);
      cell_j.set("write_gbs", scan.write_gbs[i]);
      sweep.push(std::move(cell_j));
    }
    d.set("sweep", std::move(sweep));
    devices.push(std::move(d));
  }

  bench::Json config = bench::Json::object();
  config.set("quick", scale.quick);
  config.set("seed", cfg.seed);
  config.set("io_bytes", 262144);
  config.set("queue_depth", 32);
  config.set("ratio_step_pct", step);
  config.set("cell_seconds", static_cast<double>(cell) / 1e9);
  bench::Json metrics = bench::Json::object();
  metrics.set("devices", std::move(devices));
  bench::maybe_write_json(
      scale,
      bench::bench_report("fig5_budget", std::move(config), std::move(metrics)));
  return 0;
}
