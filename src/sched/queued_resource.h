#pragma once

/// \file queued_resource.h
/// The contention substrate: one (or k) servers, a busy horizon, and a
/// pluggable `Scheduler` deciding who goes next.
///
/// One grant path serves every policy.  `submit()` either grants at once
/// (FIFO: start = max(arrival, earliest-free), and the grant fires inside
/// `submit()` with the completion time) or enqueues the reservation for a
/// dispatch loop that serves the scheduler's pick whenever a server frees
/// (WFQ / PRIO), firing the grant at dispatch time.  The queued policies are
/// work-conserving and can reorder across tenants and classes, which is the
/// point.  Because FIFO grants fire synchronously, a continuation chain runs
/// its hops (and draws its random numbers) in the order straight-line code
/// would, so FIFO runs stay bit-identical to the pre-sched simulator.
/// `acquire()` returns the same FIFO reservation directly, for resources
/// that never take a policy (flash dies, reducer CPUs).
///
/// The resource keeps one busy-time slice per traffic class, so a report
/// can say what occupied the pipe; the total busy time is their sum,
/// derived on read.

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "sched/scheduler.h"

namespace uc::sim {
class Simulator;
}  // namespace uc::sim

namespace uc::sched {

/// Per-server free horizons, sorted ascending.  Server counts are tiny (one
/// for almost every resource; `cpu_workers` for the reducer), so the horizons
/// live in an inline array — `min()` is a load and `replace_min()` a bounded
/// shift, with no allocation unless a resource exceeds `kInline` servers.
/// Replaces a `std::priority_queue<SimTime>` whose every reservation paid a
/// heap sift; the multiset semantics are identical.
class ServerHorizons {
 public:
  static constexpr std::size_t kInline = 8;

  explicit ServerHorizons(int servers)
      : size_(static_cast<std::size_t>(servers > 0 ? servers : 0)) {
    UC_ASSERT(servers > 0, "need at least one server");
    if (size_ > kInline) spill_.assign(size_, 0);
  }

  /// Earliest time any server is free.
  SimTime min() const { return data()[0]; }

  /// Pops the minimum and inserts `v`, keeping the array sorted.  One pass;
  /// stable for equal horizons (same multiset as the old min-heap).
  void replace_min(SimTime v) {
    SimTime* d = data();
    std::size_t i = 1;
    for (; i < size_ && d[i] < v; ++i) d[i - 1] = d[i];
    d[i - 1] = v;
  }

 private:
  SimTime* data() { return size_ > kInline ? spill_.data() : inline_.data(); }
  const SimTime* data() const {
    return size_ > kInline ? spill_.data() : inline_.data();
  }

  std::size_t size_;
  std::array<SimTime, kInline> inline_{};
  std::vector<SimTime> spill_;
};

class QueuedResource {
 public:
  /// Unconfigured: FIFO, synchronous-only, no simulator needed.
  explicit QueuedResource(int servers = 1);

  QueuedResource(const QueuedResource&) = delete;
  QueuedResource& operator=(const QueuedResource&) = delete;
  // Moves exist so resources can live in growing vectors during model
  // construction; once traffic starts, pending dispatch timers capture
  // `this`, so a live resource must never relocate (asserted).
  QueuedResource(QueuedResource&& other) noexcept;
  QueuedResource& operator=(QueuedResource&&) = delete;

  /// Attaches a simulator and a policy.  Must be called before any traffic;
  /// non-FIFO policies need the simulator for their dispatch events.
  void configure(sim::Simulator& sim, const SchedulerConfig& cfg);

  /// Re-registers one tenant's fair-share weight at runtime (weight-aware
  /// policies only; already-queued items keep their accumulated deficit).
  void set_tenant_weight(std::uint32_t tenant, double weight);

  Policy policy() const { return cfg_.policy; }

  /// Synchronous horizon reservation; returns the completion time.  Only
  /// valid under FIFO (on a policy-scheduled resource it would jump the
  /// queue).  Untagged reservations accrue to tenant 0 / `kFgWrite`.
  SimTime acquire(SimTime now, SimTime duration, const SchedTag& tag = {});

  /// Tagged reservation becoming eligible at `arrival`; `grant(finish)`
  /// fires when the reservation is placed.  Under FIFO that is inside the
  /// call, and `grant` is invoked as is; queued policies store it as a
  /// `Grant` until dispatch.
  template <typename G>
  void submit(SimTime arrival, const SchedTag& tag, SimTime duration,
              G&& grant) {
    if (cfg_.policy == Policy::kFifo) {
      grant(reserve(arrival, duration, tag));
      return;
    }
    submit_queued(arrival, tag, duration, Grant(std::forward<G>(grant)));
  }

  /// Horizon of the most recently placed reservation.
  SimTime busy_until() const { return busy_until_; }
  /// Total busy time across all servers (utilization accounting): the sum
  /// of the class slices.
  SimTime busy_time() const;
  SimTime class_busy_time(IoClass c) const {
    return class_busy_[static_cast<int>(c)];
  }

 private:
  SimTime reserve(SimTime arrival, SimTime duration, const SchedTag& tag);
  void submit_queued(SimTime arrival, const SchedTag& tag, SimTime duration,
                     Grant grant);
  void enqueue(const SchedTag& tag, SimTime duration, Grant grant);
  void pump();

  sim::Simulator* sim_ = nullptr;
  SchedulerConfig cfg_;
  std::unique_ptr<Scheduler> sched_;  ///< null under FIFO (no queue needed)
  ServerHorizons free_at_;
  SimTime busy_until_ = 0;
  SimTime class_busy_[kIoClassCount] = {};
  bool pumping_ = false;
  bool timer_armed_ = false;
};

}  // namespace uc::sched
