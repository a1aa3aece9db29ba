#pragma once

/// \file resources.h
/// Bandwidth pipes for event-driven device models.
///
/// Serial resources and server pools are plain `sched::QueuedResource`s;
/// a `BandwidthPipe` is one too, plus the MB/s -> ns conversion that turns
/// a byte count into a service time.  Unconfigured it is a FIFO horizon
/// reservation with no simulator events; configured with a policy, its
/// `submit()` grants dispatch through the pluggable scheduler.

#include <cstdint>
#include <utility>

#include "common/status.h"
#include "common/types.h"
#include "common/units.h"
#include "sched/queued_resource.h"

namespace uc::sim {

/// A bandwidth pipe: transfers serialize at `mb_per_s`.  Models NIC links,
/// flash channel buses, host links.
class BandwidthPipe {
 public:
  explicit BandwidthPipe(double mb_per_s)
      : ns_per_byte_(units::ns_per_byte_from_mbps(mb_per_s)) {
    UC_ASSERT(mb_per_s > 0.0, "bandwidth must be positive");
  }

  /// Reserves a `bytes` transfer starting no earlier than `now`; returns the
  /// completion time.  Untagged and synchronous, so FIFO only (the SSD host
  /// links and the flash channel buses).
  SimTime transfer(SimTime now, std::uint64_t bytes) {
    return q_.acquire(now, transfer_time(bytes));
  }

  /// Tagged transfer becoming eligible at `arrival`.
  template <typename G>
  void submit(SimTime arrival, const sched::SchedTag& tag, std::uint64_t bytes,
              G&& grant) {
    q_.submit(arrival, tag, transfer_time(bytes), std::forward<G>(grant));
  }

  void configure(Simulator& sim, const sched::SchedulerConfig& cfg) {
    q_.configure(sim, cfg);
  }

  void set_tenant_weight(std::uint32_t tenant, double weight) {
    q_.set_tenant_weight(tenant, weight);
  }

  sched::Policy policy() const { return q_.policy(); }

  SimTime transfer_time(std::uint64_t bytes) const {
    return static_cast<SimTime>(static_cast<double>(bytes) * ns_per_byte_);
  }

  SimTime busy_time() const { return q_.busy_time(); }

  const sched::QueuedResource& sched() const { return q_; }

 private:
  double ns_per_byte_;
  sched::QueuedResource q_;
};

}  // namespace uc::sim
