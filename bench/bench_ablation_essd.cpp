// Design-choice ablation B (DESIGN.md): ESSD architecture sensitivity.
// Sweeps (a) the per-chunk append bandwidth — which sets the sequential-
// write ceiling and therefore the Observation-3 gain; (b) the replication
// factor — which multiplies fan-out cost; and (c) cleaner bandwidth vs
// spare-pool size — which decides whether a Figure-3 cliff exists at all.
//
// --json <path> emits the shared {bench, config, metrics} schema with one
// row per sweep point in each of the three sweeps.

#include <cstdint>
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "common/strfmt.h"
#include "common/table.h"
#include "contract/observations.h"
#include "essd/essd_device.h"
#include "workload/runner.h"

namespace uc {
namespace {

double write_gbs(const essd::EssdConfig& cfg, wl::AccessPattern pattern,
                 SimTime duration) {
  sim::Simulator sim;
  essd::EssdDevice device(sim, cfg);
  wl::JobSpec spec;
  spec.pattern = pattern;
  spec.io_bytes = 65536;
  spec.queue_depth = 32;
  spec.region_bytes = 2ull << 30;
  spec.duration = duration;
  spec.seed = 71;
  return wl::JobRunner::run_to_completion(sim, device, spec).throughput_gbs();
}

contract::GcCliff gc_cliff(const essd::EssdConfig& cfg, double multiples) {
  sim::Simulator sim;
  essd::EssdDevice device(sim, cfg);
  wl::JobSpec spec;
  spec.pattern = wl::AccessPattern::kRandom;
  spec.io_bytes = 131072;
  spec.queue_depth = 32;
  spec.total_bytes = static_cast<std::uint64_t>(
      multiples * static_cast<double>(cfg.capacity_bytes));
  spec.seed = 73;
  spec.timeline_bin = units::kSec / 4;
  const auto stats = wl::JobRunner::run_to_completion(sim, device, spec);
  contract::GcRunResult run;
  run.timeline = stats.timeline.smoothed_series(5);
  run.device_capacity_bytes = cfg.capacity_bytes;
  run.total_written_bytes = stats.write_bytes;
  return contract::detect_gc_cliff(run);
}

}  // namespace
}  // namespace uc

int main(int argc, char** argv) {
  using namespace uc;
  const auto scale = bench::parse_scale(argc, argv);
  const std::uint64_t capacity = scale.quick ? (8ull << 30) : (16ull << 30);
  const SimTime duration = scale.quick ? units::kSec / 2 : units::kSec;

  bench::print_header(
      "Ablation B — ESSD design choices",
      "per-chunk bandwidth sets the rand/seq gain; replication multiplies "
      "write fan-out; cleaner-vs-spare sizing decides the GC cliff");

  std::printf("\n(a) per-chunk append bandwidth -> Observation 3 gain\n");
  TextTable t1({"node append MB/s", "rand GB/s", "seq GB/s", "gain"});
  bench::Json chunk_rows = bench::Json::array();
  for (const double mbps : {430.0, 900.0, 2200.0}) {
    auto cfg = essd::alibaba_pl3_profile(capacity);
    cfg.cluster.node_append_mbps = mbps;
    const double rnd = write_gbs(cfg, wl::AccessPattern::kRandom, duration);
    const double seq = write_gbs(cfg, wl::AccessPattern::kSequential, duration);
    t1.add_row({strfmt("%.0f", mbps), strfmt("%.2f", rnd),
                strfmt("%.2f", seq),
                strfmt("%.2fx", seq > 0 ? rnd / seq : 0.0)});
    bench::Json row = bench::Json::object();
    row.set("node_append_mbps", mbps);
    row.set("rand_gbs", rnd);
    row.set("seq_gbs", seq);
    row.set("gain", seq > 0 ? rnd / seq : 0.0);
    chunk_rows.push(std::move(row));
  }
  std::printf("%s", t1.to_string().c_str());

  std::printf("\n(b) replication factor -> write path cost\n");
  TextTable t2({"replication", "rand write GB/s", "4K QD1 avg (us)"});
  bench::Json repl_rows = bench::Json::array();
  for (const int r : {1, 2, 3}) {
    auto cfg = essd::aws_io2_profile(capacity);
    cfg.cluster.replication = r;
    sim::Simulator sim;
    essd::EssdDevice device(sim, cfg);
    wl::JobSpec lat;
    lat.pattern = wl::AccessPattern::kRandom;
    lat.io_bytes = 4096;
    lat.queue_depth = 1;
    lat.total_ops = 2000;
    lat.seed = 79;
    const auto lat_stats = wl::JobRunner::run_to_completion(sim, device, lat);
    const double rnd = write_gbs(cfg, wl::AccessPattern::kRandom, duration);
    t2.add_row({strfmt("%d", r), strfmt("%.2f", rnd),
                strfmt("%.0f", lat_stats.all_latency.mean() / 1e3)});
    bench::Json row = bench::Json::object();
    row.set("replication", r);
    row.set("rand_gbs", rnd);
    row.set("qd1_avg_us", lat_stats.all_latency.mean() / 1e3);
    repl_rows.push(std::move(row));
  }
  std::printf("%s", t2.to_string().c_str());

  std::printf("\n(c) cleaner bandwidth vs spare pool -> Figure 3 cliff\n");
  const double multiples = scale.quick ? 2.2 : 2.8;
  TextTable t3({"cleaner MB/s", "spare (xcap)", "cliff (xcap)",
                "post-cliff GB/s"});
  struct Case {
    double cleaner;
    double spare;
  };
  bench::Json cleaner_rows = bench::Json::array();
  for (const Case c : {Case{420.0, 0.5}, Case{420.0, 1.3}, Case{2600.0, 0.5}}) {
    auto cfg = essd::aws_io2_profile(capacity);
    cfg.cluster.cleaner.processing_mbps = c.cleaner;
    cfg.cluster.spare_pool_bytes = static_cast<std::uint64_t>(
        c.spare * static_cast<double>(capacity));
    const auto cliff = gc_cliff(cfg, multiples);
    t3.add_row({strfmt("%.0f", c.cleaner), strfmt("%.1f", c.spare),
                cliff.found ? strfmt("%.2f", cliff.at_capacity_multiple)
                            : std::string("none"),
                cliff.found ? strfmt("%.2f", cliff.post_gbs)
                            : strfmt("%.2f", cliff.final_gbs)});
    bench::Json row = bench::Json::object();
    row.set("cleaner_mbps", c.cleaner);
    row.set("spare_xcap", c.spare);
    row.set("cliff_found", cliff.found);
    row.set("cliff_xcap", cliff.found ? cliff.at_capacity_multiple : 0.0);
    row.set("post_gbs", cliff.found ? cliff.post_gbs : cliff.final_gbs);
    cleaner_rows.push(std::move(row));
  }
  std::printf("%s", t3.to_string().c_str());

  bench::Json config = bench::Json::object();
  config.set("quick", scale.quick);
  config.set("capacity_bytes", capacity);
  config.set("duration_s", static_cast<double>(duration) / 1e9);
  config.set("capacity_multiples", multiples);
  bench::Json metrics = bench::Json::object();
  metrics.set("chunk_bandwidth", std::move(chunk_rows));
  metrics.set("replication", std::move(repl_rows));
  metrics.set("cleaner_vs_spare", std::move(cleaner_rows));
  bench::maybe_write_json(
      scale, bench::bench_report("ablation_essd", std::move(config),
                                 std::move(metrics)));
  return 0;
}
