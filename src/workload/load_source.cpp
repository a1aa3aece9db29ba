#include "workload/load_source.h"

#include <cstdio>
#include <utility>
#include <vector>

#include "common/strfmt.h"

namespace uc::wl {

TraceGenConfig derive_trace_gen(const JobSpec& job, double base_iops) {
  UC_ASSERT(base_iops > 0.0, "derived trace needs a positive arrival rate");
  TraceGenConfig gen;
  gen.duration = job.duration > 0 ? job.duration : 10 * units::kSec;
  gen.base_iops = base_iops;
  gen.write_fraction = job.write_ratio;
  gen.size_mix = {{job.io_bytes, 1.0}};
  gen.region_offset = job.region_offset;
  gen.region_bytes = job.region_bytes;
  if (job.zipf_theta > 0.0) gen.zipf_theta = job.zipf_theta;
  gen.seed = job.seed;
  return gen;
}

namespace {

// A loaded CSV makes no promise about the device it will be replayed
// against; reject out-of-range or unaligned events here with a line-ish
// hint instead of letting them trip an assertion deep in the cluster.
Status validate_trace(const std::vector<TraceEvent>& trace,
                      const DeviceInfo& device, const std::string& path) {
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const TraceEvent& ev = trace[i];
    IoRequest req{0, ev.op, ev.offset, ev.bytes};
    const Status s = BlockDevice::validate_request(device, req);
    if (!s.is_ok()) {
      return Status::invalid_argument(
          strfmt("%s: event %zu does not fit device '%s' (%s); convert the "
                 "trace per docs/TRACES.md",
                 path.c_str(), i, device.name.c_str(), s.message().c_str()));
    }
  }
  return Status::ok();
}

}  // namespace

Result<std::unique_ptr<LoadSource>> make_load_source(sim::Simulator& sim,
                                                     BlockDevice& device,
                                                     const LoadSpec& spec) {
  if (!spec.open_loop) {
    return {std::make_unique<JobRunner>(sim, device, spec.job)};
  }
  std::vector<TraceEvent> trace;
  if (!spec.trace_path.empty()) {
    auto loaded = load_trace_csv(spec.trace_path);
    if (!loaded.is_ok()) return loaded.status();
    trace = std::move(loaded).take();
    const Status valid = validate_trace(trace, device.info(), spec.trace_path);
    if (!valid.is_ok()) return valid;
  } else {
    const Status valid = spec.gen.validate(device.info());
    if (!valid.is_ok()) return valid;
    trace = generate_trace(spec.gen, device.info(), spec.max_events);
  }
  ReplayOptions opt;
  opt.rate_scale = spec.rate_scale;
  opt.max_events = spec.max_events;
  return {std::make_unique<TraceReplayer>(sim, device, std::move(trace), opt)};
}

std::unique_ptr<LoadSource> make_load_source_or_die(sim::Simulator& sim,
                                                    BlockDevice& device,
                                                    const LoadSpec& spec,
                                                    const std::string& who) {
  auto source = make_load_source(sim, device, spec);
  if (!source.is_ok()) {
    std::fprintf(stderr, "%s: %s\n", who.c_str(),
                 source.status().to_string().c_str());
  }
  UC_ASSERT(source.is_ok(), "load source construction failed");
  return std::move(source).take();
}

JobStats run_load_to_completion(sim::Simulator& sim, BlockDevice& device,
                                const LoadSpec& spec) {
  auto source = make_load_source_or_die(sim, device, spec, spec.job.name);
  source->start();
  sim.run();
  UC_ASSERT(source->finished(),
            "simulator drained but the load source is incomplete");
  return source->take_stats();
}

}  // namespace uc::wl
