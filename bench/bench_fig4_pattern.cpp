// Reproduces Figure 4: random-write throughput and the random-over-
// sequential throughput gain across I/O sizes and queue depths.  ESSD-1
// peaks around 1.5x (concentrated at higher QDs, small-medium sizes),
// ESSD-2 reaches ~2.8x across a wide size range, and the local SSD shows
// no meaningful difference (GC-free).
//
// --json <path> emits the shared {bench, config, metrics} schema with one
// cell per (device, io_bytes, queue_depth): random GB/s, sequential GB/s,
// and their ratio.

#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "contract/report.h"

int main(int argc, char** argv) {
  using namespace uc;
  const auto scale = bench::parse_scale(argc, argv);

  bench::print_header(
      "Figure 4 — random vs sequential write throughput",
      "gain up to 1.52x (ESSD-1) and 2.79x (ESSD-2); ~1.0x on the SSD; "
      "ESSD-2 small-I/O gain grows with QD, larger-I/O gain peaks earlier "
      "as size increases");

  const std::vector<std::uint32_t> sizes =
      scale.quick ? std::vector<std::uint32_t>{4096, 65536, 262144}
                  : std::vector<std::uint32_t>{4096, 8192, 16384, 32768,
                                               65536, 131072, 262144};
  const std::vector<int> qds = scale.quick ? std::vector<int>{1, 8, 32}
                                           : std::vector<int>{1, 2, 4, 8, 16,
                                                              32};
  // Long enough that QoS burst credits do not inflate the measured rate.
  const SimTime cell = scale.quick ? units::kSec / 4 : units::kSec;

  contract::SuiteConfig cfg;
  cfg.seed = 17;
  cfg.region_bytes = 2ull << 30;
  const contract::CharacterizationSuite suite(cfg);

  bench::Json devices = bench::Json::array();
  for (const auto& dev : bench::paper_devices(scale)) {
    std::printf("\nrunning %s ...\n", dev.name.c_str());
    const auto matrix = suite.run_pattern_gain(dev.factory, sizes, qds, cell);
    std::printf("%s", contract::render_gain_matrix(dev.name, matrix).c_str());

    bench::Json d = bench::Json::object();
    d.set("device", dev.name);
    d.set("max_gain", matrix.max_gain());
    bench::Json cells = bench::Json::array();
    for (std::size_t q = 0; q < matrix.queue_depths.size(); ++q) {
      for (std::size_t s = 0; s < matrix.sizes.size(); ++s) {
        bench::Json c = bench::Json::object();
        c.set("io_bytes", static_cast<std::uint64_t>(matrix.sizes[s]));
        c.set("queue_depth", matrix.queue_depths[q]);
        c.set("rand_gbs", matrix.random_gbs[q * matrix.sizes.size() + s]);
        c.set("seq_gbs", matrix.sequential_gbs[q * matrix.sizes.size() + s]);
        c.set("gain", matrix.gain(q, s));
        cells.push(std::move(c));
      }
    }
    d.set("cells", std::move(cells));
    devices.push(std::move(d));
  }

  bench::Json config = bench::Json::object();
  config.set("quick", scale.quick);
  config.set("seed", cfg.seed);
  config.set("cell_s", static_cast<double>(cell) / 1e9);
  bench::Json sz = bench::Json::array();
  for (const auto s : sizes) sz.push(static_cast<std::uint64_t>(s));
  config.set("sizes", std::move(sz));
  bench::Json qd = bench::Json::array();
  for (const int q : qds) qd.push(q);
  config.set("queue_depths", std::move(qd));
  bench::Json metrics = bench::Json::object();
  metrics.set("devices", std::move(devices));
  bench::maybe_write_json(
      scale, bench::bench_report("fig4_pattern", std::move(config),
                                 std::move(metrics)));
  return 0;
}
