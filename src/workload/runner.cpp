#include "workload/runner.h"

#include <algorithm>
#include <utility>

#include "common/strfmt.h"

namespace uc::wl {

Status JobSpec::validate(const DeviceInfo& device) const {
  if (io_bytes == 0 || io_bytes % device.logical_block_bytes != 0) {
    return Status::invalid_argument("io_bytes must be a multiple of 4 KiB");
  }
  if (queue_depth < 1) {
    return Status::invalid_argument("queue depth must be >= 1");
  }
  if (write_ratio < 0.0 || write_ratio > 1.0) {
    return Status::invalid_argument("write ratio must be within [0, 1]");
  }
  if (region_offset + effective_region_bytes(device) > device.capacity_bytes) {
    return Status::out_of_range("job region exceeds device capacity");
  }
  if (effective_region_bytes(device) < io_bytes) {
    return Status::invalid_argument("region smaller than one I/O");
  }
  if (total_ops == 0 && total_bytes == 0 && duration == 0) {
    return Status::invalid_argument("job needs an ops/bytes/duration bound");
  }
  return Status::ok();
}

void JobStats::record(const IoResult& result) {
  const SimTime lat = result.latency();
  all_latency.record(lat);
  if (result.op == IoOp::kWrite) {
    write_latency.record(lat);
    ++write_ops;
    write_bytes += result.bytes;
  } else {
    read_latency.record(lat);
    ++read_ops;
    read_bytes += result.bytes;
  }
  timeline.record(result.complete_time, result.bytes);
  last_complete = result.complete_time;
}

JobStats LoadSource::take_stats() {
  UC_ASSERT(finished(), "take_stats() on an unfinished load");
  return std::exchange(stats_, JobStats{});
}

JobRunner::JobRunner(sim::Simulator& sim, BlockDevice& device,
                     const JobSpec& spec)
    : sim_(sim),
      device_(device),
      spec_(spec),
      offsets_(spec.pattern, spec.region_offset,
               spec.effective_region_bytes(device.info()) / spec.io_bytes *
                   spec.io_bytes,
               spec.io_bytes, spec.zipf_theta, spec.seed),
      mix_rng_(spec.seed ^ 0xabcdef0123456789ull) {
  UC_ASSERT(spec_.validate(device.info()).is_ok(), "invalid job spec");
  stats_.timeline = ThroughputTimeline(spec_.timeline_bin);
}

void JobRunner::start() {
  UC_ASSERT(!started_, "job already started");
  started_ = true;
  stats_.first_submit = sim_.now();
  if (spec_.duration > 0) deadline_ = sim_.now() + spec_.duration;
  for (int i = 0; i < spec_.queue_depth; ++i) {
    if (bound_reached()) break;
    issue_one();
  }
  if (outstanding_ == 0) stopped_issuing_ = true;
}

bool JobRunner::bound_reached() const {
  if (spec_.total_ops > 0 && issued_ops_ >= spec_.total_ops) return true;
  if (spec_.total_bytes > 0 && issued_bytes_ >= spec_.total_bytes) return true;
  if (spec_.duration > 0 && sim_.now() >= deadline_) return true;
  return false;
}

void JobRunner::issue_one() {
  IoRequest req;
  req.id = next_id_++;
  req.op = mix_rng_.bernoulli(spec_.write_ratio) ? IoOp::kWrite : IoOp::kRead;
  req.offset = offsets_.next();
  req.bytes = spec_.io_bytes;
  ++issued_ops_;
  issued_bytes_ += req.bytes;
  ++outstanding_;
  backlog_peak_ =
      std::max(backlog_peak_, static_cast<std::uint64_t>(outstanding_));
  device_.submit(req, [this](const IoResult& r) { on_complete(r); });
}

void JobRunner::on_complete(const IoResult& result) {
  --outstanding_;
  stats_.record(result);

  if (bound_reached()) {
    if (outstanding_ == 0) stopped_issuing_ = true;
    return;
  }
  if (spec_.think_time > 0) {
    sim_.schedule_after(spec_.think_time, [this] {
      if (!bound_reached()) {
        issue_one();
      } else if (outstanding_ == 0) {
        stopped_issuing_ = true;
      }
    });
    return;
  }
  issue_one();
}

JobStats JobRunner::run_to_completion(sim::Simulator& sim, BlockDevice& device,
                                      const JobSpec& spec) {
  JobRunner runner(sim, device, spec);
  runner.start();
  sim.run();
  UC_ASSERT(runner.finished(), "simulator drained but job incomplete");
  return runner.take_stats();
}

}  // namespace uc::wl
