// Implication 1 ablation: quantifies how scaling I/O size and queue depth
// shrinks the cloud latency *gap* — and shows total service time for a
// fixed amount of data moved, the form in which an application feels it.
// (Paper §III-B: "scale the I/O sizes and I/O queue depths up as much as
// possible"; at full scale ESSD-1 even beats the local SSD's P99.9.)

#include <cstdint>
#include <cstdio>

#include "bench/bench_util.h"
#include "common/strfmt.h"
#include "common/table.h"
#include "workload/runner.h"

namespace uc {
namespace {

struct Cell {
  double avg_us = 0.0;
  double p999_us = 0.0;
  double gbs = 0.0;
};

Cell run_one(const contract::DeviceFactory& factory, std::uint32_t io_bytes,
             int qd, std::uint64_t move_bytes) {
  sim::Simulator sim;
  auto device = factory(sim);
  wl::JobSpec spec;
  spec.pattern = wl::AccessPattern::kRandom;
  spec.io_bytes = io_bytes;
  spec.queue_depth = qd;
  spec.write_ratio = 1.0;
  spec.region_bytes = 1ull << 30;
  spec.total_bytes = move_bytes;
  spec.seed = 31;
  const auto stats = wl::JobRunner::run_to_completion(sim, *device, spec);
  return Cell{stats.all_latency.mean() / 1e3,
              static_cast<double>(stats.all_latency.percentile(99.9)) / 1e3,
              stats.throughput_gbs()};
}

}  // namespace
}  // namespace uc

int main(int argc, char** argv) {
  using namespace uc;
  const auto scale = bench::parse_scale(argc, argv);
  const std::uint64_t move = scale.quick ? (64ull << 20) : (512ull << 20);

  bench::print_header(
      "Implication 1 — scale I/O sizes and queue depths up",
      "gap shrinks from ~30-50x at 4KiB/QD1 toward ~1x at 256KiB/QD16");

  struct Step {
    std::uint32_t io_bytes;
    int qd;
  };
  const Step steps[] = {{4096, 1},   {4096, 16},   {65536, 1},
                        {65536, 16}, {262144, 16}, {262144, 32}};

  const auto devices = bench::paper_devices(scale);
  TextTable table({"I/O config", "ESSD-1 avg(us)/GBps", "ESSD-2 avg(us)/GBps",
                   "SSD avg(us)/GBps", "gap1", "gap2",
                   "time to move data E1/E2/SSD (s)"});
  bench::Json steps_json = bench::Json::array();
  for (const auto& step : steps) {
    const auto e1 = run_one(devices[0].factory, step.io_bytes, step.qd, move);
    const auto e2 = run_one(devices[1].factory, step.io_bytes, step.qd, move);
    const auto sd = run_one(devices[2].factory, step.io_bytes, step.qd, move);
    const double secs = static_cast<double>(move) / 1e9;
    table.add_row(
        {strfmt("%uKiB QD%d", step.io_bytes / 1024, step.qd),
         strfmt("%.0f / %.2f", e1.avg_us, e1.gbs),
         strfmt("%.0f / %.2f", e2.avg_us, e2.gbs),
         strfmt("%.0f / %.2f", sd.avg_us, sd.gbs),
         strfmt("%.1fx", sd.avg_us > 0 ? e1.avg_us / sd.avg_us : 0.0),
         strfmt("%.1fx", sd.avg_us > 0 ? e2.avg_us / sd.avg_us : 0.0),
         strfmt("%.1f / %.1f / %.1f", e1.gbs > 0 ? secs / e1.gbs : 0.0,
                e2.gbs > 0 ? secs / e2.gbs : 0.0,
                sd.gbs > 0 ? secs / sd.gbs : 0.0)});
    bench::Json row = bench::Json::object();
    row.set("io_bytes", static_cast<std::uint64_t>(step.io_bytes));
    row.set("queue_depth", step.qd);
    const auto cell = [](const Cell& c) {
      bench::Json j = bench::Json::object();
      j.set("avg_us", c.avg_us);
      j.set("p999_us", c.p999_us);
      j.set("gbs", c.gbs);
      return j;
    };
    row.set("essd1", cell(e1));
    row.set("essd2", cell(e2));
    row.set("ssd", cell(sd));
    row.set("gap1", sd.avg_us > 0 ? e1.avg_us / sd.avg_us : 0.0);
    row.set("gap2", sd.avg_us > 0 ? e2.avg_us / sd.avg_us : 0.0);
    steps_json.push(std::move(row));
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("advice: batch small I/Os and raise iodepth — the cloud path "
              "amortizes its fixed latency over bytes in flight.\n");

  bench::Json config = bench::Json::object();
  config.set("quick", scale.quick);
  config.set("move_bytes", move);
  bench::Json metrics = bench::Json::object();
  metrics.set("steps", std::move(steps_json));
  bench::maybe_write_json(
      scale, bench::bench_report("impl1_scaling", std::move(config),
                                 std::move(metrics)));
  return 0;
}
