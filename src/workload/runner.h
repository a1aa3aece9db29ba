#pragma once

/// \file runner.h
/// Closed-loop job execution (FIO semantics): keep `queue_depth` I/Os
/// outstanding, record per-op latency into HDR histograms and completed
/// bytes into a throughput timeline, stop at the job's bound.

#include <cstdint>
#include <functional>
#include <memory>

#include "common/block_device.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/timeline.h"
#include "common/types.h"
#include "sim/simulator.h"
#include "workload/patterns.h"
#include "workload/spec.h"

namespace uc::wl {

struct JobStats {
  LatencyHistogram read_latency;
  LatencyHistogram write_latency;
  LatencyHistogram all_latency;
  /// Open-loop replay only: per-op completion time minus the op's *intended*
  /// (rate-scaled) trace arrival — the response time including any backlog
  /// the open loop built up.  Empty for closed-loop runs, where the queue
  /// depth bounds the backlog and `all_latency` already tells the story.
  LatencyHistogram slowdown;
  ThroughputTimeline timeline{units::kSec};

  std::uint64_t read_ops = 0;
  std::uint64_t write_ops = 0;
  std::uint64_t read_bytes = 0;
  std::uint64_t write_bytes = 0;
  SimTime first_submit = 0;
  SimTime last_complete = 0;

  /// Records one completed I/O: its latency, op and byte counts, the
  /// timeline and `last_complete` (not `slowdown`, which needs the op's
  /// intended arrival).
  void record(const IoResult& result);

  std::uint64_t total_ops() const { return read_ops + write_ops; }
  std::uint64_t total_bytes() const { return read_bytes + write_bytes; }

  /// Completed-bytes throughput over the job's active window, decimal GB/s.
  double throughput_gbs() const {
    const SimTime span = last_complete - first_submit;
    return span == 0 ? 0.0
                     : static_cast<double>(total_bytes()) /
                           static_cast<double>(span);
  }
  double iops() const {
    const SimTime span = last_complete - first_submit;
    return span == 0 ? 0.0
                     : static_cast<double>(total_ops()) * 1e9 /
                           static_cast<double>(span);
  }
};

/// The uniform driver interface over every workload generator: the
/// closed-loop `JobRunner` below (FIO semantics, `queue_depth` outstanding)
/// and the open-loop `TraceReplayer` (arrival-timestamped submission,
/// unbounded queue growth) both implement it, so every consumer — tenant
/// hosts, placement hosts, benches — drives "a load" without caring which
/// loop it is.  Build one from a `wl::LoadSpec` via `make_load_source()`
/// (workload/load_source.h).
class LoadSource {
 public:
  virtual ~LoadSource() = default;

  /// Begins issuing; progress is driven by simulator events.
  virtual void start() = 0;
  virtual bool finished() const = 0;
  const JobStats& stats() const { return stats_; }
  /// Moves a finished load's stats out, leaving `stats()` an empty
  /// `JobStats`: a result that keeps the stats takes them without copying
  /// four histograms and a timeline.
  JobStats take_stats();

  /// Open loop = submissions follow trace arrival times regardless of
  /// completions; closed loop = a fixed queue depth paces submissions.
  virtual bool open_loop() const = 0;

  /// Most I/Os ever outstanding at once.  Closed loop: bounded by the queue
  /// depth.  Open loop: the backlog an overloaded device accumulated — the
  /// burst signal Implication 4's smoothing removes.
  virtual std::uint64_t backlog_peak() const = 0;

 protected:
  /// What the implementation records each completed I/O into.
  JobStats stats_;
};

class JobRunner : public LoadSource {
 public:
  JobRunner(sim::Simulator& sim, BlockDevice& device, const JobSpec& spec);

  void start() override;

  bool finished() const override {
    return stopped_issuing_ && outstanding_ == 0;
  }
  const JobSpec& spec() const { return spec_; }
  bool open_loop() const override { return false; }
  std::uint64_t backlog_peak() const override { return backlog_peak_; }

  /// Convenience: start the job and run the simulator until it finishes
  /// (plus any background activity it triggered).
  static JobStats run_to_completion(sim::Simulator& sim, BlockDevice& device,
                                    const JobSpec& spec);

 private:
  bool bound_reached() const;
  void issue_one();
  void on_complete(const IoResult& result);

  sim::Simulator& sim_;
  BlockDevice& device_;
  JobSpec spec_;
  OffsetGenerator offsets_;
  Rng mix_rng_;
  std::uint64_t issued_ops_ = 0;
  std::uint64_t issued_bytes_ = 0;
  SimTime deadline_ = kNoTime;
  int outstanding_ = 0;
  std::uint64_t backlog_peak_ = 0;
  bool stopped_issuing_ = false;
  bool started_ = false;
  IoId next_id_ = 1;
};

}  // namespace uc::wl
