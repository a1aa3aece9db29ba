// Reproduces Figure 3: runtime throughput under a sustained random-write
// workload until 3x the device capacity has been written.  The local SSD
// shows a GC cliff at ~0.9x capacity decaying to a long-term low; ESSD-1
// sustains its budget until ~2.55x capacity then settles at the provider's
// cleaning rate; ESSD-2 stays flat through 3x.
//
// --json <path> emits the shared {bench, config, metrics} schema with the
// full per-device throughput timeline.

#include <cstdio>

#include "bench/bench_util.h"
#include "contract/report.h"

int main(int argc, char** argv) {
  using namespace uc;
  const auto scale = bench::parse_scale(argc, argv);
  const double multiples = scale.quick ? 1.5 : 3.0;

  bench::print_header(
      "Figure 3 — throughput timeline under sustained random writes",
      "SSD: 2.7 GB/s, cliff at 0.9x capacity -> 1.0 GB/s, decaying to "
      "~150 MB/s; ESSD-1: 3.0 GB/s flat until 2.55x -> ~305 MB/s; "
      "ESSD-2: 1.1 GB/s flat through 3x");

  contract::SuiteConfig cfg;
  cfg.seed = 13;
  const contract::CharacterizationSuite suite(cfg);

  bench::Json devices = bench::Json::array();
  for (const auto& dev : bench::paper_devices(scale)) {
    std::printf("\nrunning %s (%.1fx capacity of random writes)...\n",
                dev.name.c_str(), multiples);
    const auto run = suite.run_gc_timeline(dev.factory, multiples, 131072, 32);
    std::printf("%s", contract::render_gc_timeline(dev.name, run, 30).c_str());

    bench::Json d = bench::Json::object();
    d.set("device", dev.name);
    d.set("capacity_bytes", run.device_capacity_bytes);
    d.set("total_written_bytes", run.total_written_bytes);
    d.set("wall_time_s", static_cast<double>(run.wall_time) / 1e9);
    bench::Json timeline = bench::Json::array();
    for (const auto& p : run.timeline) {
      bench::Json pt = bench::Json::object();
      pt.set("time_s", p.time_s);
      pt.set("gb_per_s", p.gb_per_s);
      timeline.push(std::move(pt));
    }
    d.set("timeline", std::move(timeline));
    devices.push(std::move(d));
  }

  bench::Json config = bench::Json::object();
  config.set("quick", scale.quick);
  config.set("seed", cfg.seed);
  config.set("capacity_multiples", multiples);
  config.set("io_bytes", 131072);
  config.set("queue_depth", 32);
  bench::Json metrics = bench::Json::object();
  metrics.set("devices", std::move(devices));
  bench::maybe_write_json(scale, bench::bench_report("fig3_gc", std::move(config),
                                                     std::move(metrics)));
  return 0;
}
