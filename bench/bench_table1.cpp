// Reproduces Table I: device configurations plus *measured* maximum
// bandwidth and IOPS for the two ESSD profiles and the local-SSD reference,
// and the 4 KiB QD1 latency anchors the Figure 2 gaps divide by.
// --json <path> dumps the measured row per device.

#include <algorithm>
#include <cstdint>
#include <cstdio>

#include "bench/bench_util.h"
#include "common/table.h"
#include "common/strfmt.h"
#include "workload/runner.h"

namespace uc {
namespace {

using namespace units;

struct Measured {
  double seq_read_gbs = 0.0;
  double seq_write_gbs = 0.0;
  double rand_read_gbs = 0.0;
  double rand_write_gbs = 0.0;
  double rand_read_kiops = 0.0;
  double rand_write_kiops = 0.0;
  double lat_rw_us = 0.0;  // 4 KiB QD1 average latencies
  double lat_sw_us = 0.0;
  double lat_rr_us = 0.0;
  double lat_sr_us = 0.0;
};

double run_cell(const contract::DeviceFactory& factory, wl::AccessPattern pat,
                bool write, std::uint32_t io_bytes, int qd, SimTime duration,
                bool precondition, double* avg_us) {
  sim::Simulator sim;
  auto device = factory(sim);
  const std::uint64_t region =
      std::min<std::uint64_t>(2ull << 30, device->info().capacity_bytes);
  if (precondition) {
    contract::CharacterizationSuite::precondition(sim, *device, region,
                                                  10 * kSec, 11);
  }
  wl::JobSpec spec;
  spec.pattern = pat;
  spec.io_bytes = io_bytes;
  spec.queue_depth = qd;
  spec.write_ratio = write ? 1.0 : 0.0;
  spec.region_bytes = region;
  spec.duration = duration;
  spec.seed = 101;
  const auto stats = wl::JobRunner::run_to_completion(sim, *device, spec);
  if (avg_us != nullptr) *avg_us = stats.all_latency.mean() / 1e3;
  return stats.throughput_gbs();
}

Measured measure(const contract::DeviceFactory& factory, SimTime duration) {
  Measured m;
  m.seq_read_gbs = run_cell(factory, wl::AccessPattern::kSequential, false,
                            256 * 1024, 32, duration, true, nullptr);
  m.seq_write_gbs = run_cell(factory, wl::AccessPattern::kSequential, true,
                             256 * 1024, 32, duration, false, nullptr);
  m.rand_read_gbs = run_cell(factory, wl::AccessPattern::kRandom, false,
                             256 * 1024, 32, duration, true, nullptr);
  m.rand_write_gbs = run_cell(factory, wl::AccessPattern::kRandom, true,
                              256 * 1024, 32, duration, false, nullptr);
  m.rand_read_kiops = run_cell(factory, wl::AccessPattern::kRandom, false,
                               4096, 64, duration, true, nullptr) *
                      1e9 / 4096.0 / 1e3;
  m.rand_write_kiops = run_cell(factory, wl::AccessPattern::kRandom, true,
                                4096, 64, duration, false, nullptr) *
                       1e9 / 4096.0 / 1e3;
  run_cell(factory, wl::AccessPattern::kRandom, true, 4096, 1, duration, false,
           &m.lat_rw_us);
  run_cell(factory, wl::AccessPattern::kSequential, true, 4096, 1, duration,
           false, &m.lat_sw_us);
  run_cell(factory, wl::AccessPattern::kRandom, false, 4096, 1, duration, true,
           &m.lat_rr_us);
  run_cell(factory, wl::AccessPattern::kSequential, false, 4096, 1, duration,
           true, &m.lat_sr_us);
  return m;
}

}  // namespace
}  // namespace uc

int main(int argc, char** argv) {
  using namespace uc;
  const auto scale = bench::parse_scale(argc, argv);
  const SimTime duration = scale.quick ? units::kSec / 2 : 2 * units::kSec;

  bench::print_header(
      "Table I — device configurations and measured ceilings",
      "ESSD-1 ~3.0 GB/s / 25.6K IOPS; ESSD-2 ~1.1 GB/s / 100K IOPS; "
      "SSD seq R/W 3.5/2.7 GB/s, rand R/W 500K/500K IOPS (4KiB QD32)");

  TextTable table({"device", "capacity", "seqR GB/s", "seqW GB/s",
                   "randR GB/s", "randW GB/s", "randR kIOPS", "randW kIOPS",
                   "4K QD1 RW/SW/RR/SR (us)"});
  bench::Json json_devices = bench::Json::array();
  for (const auto& dev : bench::paper_devices(scale)) {
    sim::Simulator probe_sim;
    const auto info = dev.factory(probe_sim)->info();
    const auto m = measure(dev.factory, duration);
    table.add_row({dev.name, format_bytes(info.capacity_bytes),
                   strfmt("%.2f", m.seq_read_gbs),
                   strfmt("%.2f", m.seq_write_gbs),
                   strfmt("%.2f", m.rand_read_gbs),
                   strfmt("%.2f", m.rand_write_gbs),
                   strfmt("%.0f", m.rand_read_kiops),
                   strfmt("%.0f", m.rand_write_kiops),
                   strfmt("%.0f/%.0f/%.0f/%.0f", m.lat_rw_us, m.lat_sw_us,
                          m.lat_rr_us, m.lat_sr_us)});
    bench::Json row = bench::Json::object();
    row.set("device", dev.name);
    row.set("capacity_bytes", info.capacity_bytes);
    row.set("seq_read_gbs", m.seq_read_gbs);
    row.set("seq_write_gbs", m.seq_write_gbs);
    row.set("rand_read_gbs", m.rand_read_gbs);
    row.set("rand_write_gbs", m.rand_write_gbs);
    row.set("rand_read_kiops", m.rand_read_kiops);
    row.set("rand_write_kiops", m.rand_write_kiops);
    row.set("lat_rand_write_us", m.lat_rw_us);
    row.set("lat_seq_write_us", m.lat_sw_us);
    row.set("lat_rand_read_us", m.lat_rr_us);
    row.set("lat_seq_read_us", m.lat_sr_us);
    json_devices.push(std::move(row));
  }
  std::printf("%s", table.to_string().c_str());
  std::printf(
      "note: capacities are bench-scaled; bandwidth/latency are unscaled.\n");

  bench::Json config = bench::Json::object();
  config.set("quick", scale.quick);
  config.set("duration_s", static_cast<double>(duration) / 1e9);
  bench::Json metrics = bench::Json::object();
  metrics.set("devices", std::move(json_devices));
  bench::maybe_write_json(scale, bench::bench_report("table1",
                                                     std::move(config),
                                                     std::move(metrics)));
  return 0;
}
