#pragma once

/// \file qos.h
/// Provisioned-performance enforcement: the QoS gate every I/O passes
/// before entering the ESSD data path.
///
/// Two token buckets — bytes-per-second (the throughput budget) and
/// normalized IOPS — gate admission.  The byte bucket is what makes the
/// maximum bandwidth "deterministic and no longer sensitive to the access
/// pattern" (Observation 4): reads and writes draw from the same budget, so
/// any mix converges to the same ceiling.  Burst allowances model the
/// credit systems real providers layer on top.
///
/// The pending queue routes through the sched layer: FIFO admission by
/// default (bit-identical to the original deque), or WFQ/priority over the
/// waiting operations when a policy is configured.

#include <cstdint>
#include <memory>

#include "common/histogram.h"
#include "common/token_bucket.h"
#include "common/types.h"
#include "sched/scheduler.h"
#include "sim/simulator.h"

namespace uc::essd {

struct QosConfig {
  double bw_bytes_per_s = 3.0e9;
  double bw_burst_s = 2.0;       ///< byte-bucket depth, seconds of budget
  double iops = 25600.0;
  double iops_burst_s = 30.0;    ///< IOPS-bucket depth, seconds of budget
  /// An operation costs ceil(bytes / iops_unit_bytes) IOPS tokens (cloud
  /// providers meter I/Os in 256 KiB units).
  std::uint32_t iops_unit_bytes = 256 * 1024;
};

struct QosStats {
  std::uint64_t admitted = 0;
  std::uint64_t throttled = 0;   ///< ops that had to wait
  SimTime throttle_ns = 0;       ///< total admission delay
  std::uint64_t queue_depth_peak = 0;  ///< deepest the pending queue got
  /// Admission wait per operation (0 for immediate admits); p99 of this is
  /// the tail cost of the budget, not of the data path.
  LatencyHistogram wait;

  SimTime p99_wait_ns() const { return wait.percentile(99.0); }
};

class QosGate {
 public:
  QosGate(sim::Simulator& sim, const QosConfig& cfg,
          const sched::SchedulerConfig& sched_cfg = {});

  /// Admits an operation of `bytes` (overwriting `tag.bytes`); `go` fires
  /// with the admission time, inside the call when both buckets grant at
  /// once, else when the operation leaves the pending queue.  Admission
  /// order follows the configured policy (FIFO by default).
  void admit(std::uint64_t bytes, sched::SchedTag tag, sched::Grant go);

  const QosConfig& config() const { return cfg_; }
  const QosStats& stats() const { return stats_; }
  /// Operations currently waiting for tokens.
  std::size_t queue_depth() const { return queue_->size(); }

 private:
  double io_cost(std::uint64_t bytes) const {
    const auto unit = static_cast<std::uint64_t>(cfg_.iops_unit_bytes);
    const std::uint64_t cost = (bytes + unit - 1) / unit;
    return static_cast<double>(cost < 1 ? 1 : cost);
  }
  bool try_pass(std::uint64_t bytes, double cost);
  void pump();

  sim::Simulator& sim_;
  QosConfig cfg_;
  QosStats stats_;
  TokenBucket bytes_bucket_;
  TokenBucket iops_bucket_;
  std::unique_ptr<sched::Scheduler> queue_;
  bool timer_armed_ = false;
};

}  // namespace uc::essd
