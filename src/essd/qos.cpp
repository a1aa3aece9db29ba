#include "essd/qos.h"

#include <algorithm>
#include <cstdint>
#include <utility>

namespace uc::essd {

QosGate::QosGate(sim::Simulator& sim, const QosConfig& cfg,
                 const sched::SchedulerConfig& sched_cfg)
    : sim_(sim),
      cfg_(cfg),
      bytes_bucket_(cfg.bw_bytes_per_s, cfg.bw_bytes_per_s * cfg.bw_burst_s),
      iops_bucket_(cfg.iops, cfg.iops * cfg.iops_burst_s),
      queue_(sched::make_scheduler(sched_cfg)) {}

bool QosGate::try_pass(std::uint64_t bytes, double cost) {
  const SimTime now = sim_.now();
  // A request larger than a bucket's burst capacity could never pass (the
  // bucket cannot fill beyond its capacity), so the *admission check* is
  // clamped to the capacity; the full amount is still consumed as debt,
  // which delays everything behind it by the correct pacing time.
  const double byte_need = std::min(static_cast<double>(bytes),
                                    bytes_bucket_.capacity());
  const double iops_need = std::min(cost, iops_bucket_.capacity());
  if (bytes_bucket_.delay_until_available(now, byte_need) > 0) return false;
  if (iops_bucket_.delay_until_available(now, iops_need) > 0) return false;
  bytes_bucket_.consume_with_debt(now, static_cast<double>(bytes));
  iops_bucket_.consume_with_debt(now, cost);
  return true;
}

void QosGate::admit(std::uint64_t bytes, sched::SchedTag tag,
                    sched::Grant go) {
  tag.bytes = bytes;
  const double cost = io_cost(bytes);
  if (queue_->empty() && try_pass(bytes, cost)) {
    ++stats_.admitted;
    stats_.wait.record(0);
    go(sim_.now());
    return;
  }
  ++stats_.throttled;
  queue_->push(sched::Item{tag, sim_.now(), 0, std::move(go)});
  if (queue_->size() > stats_.queue_depth_peak) {
    stats_.queue_depth_peak = queue_->size();
  }
  pump();
}

void QosGate::pump() {
  const SimTime now = sim_.now();
  while (const sched::Item* head = queue_->peek(now)) {
    if (!try_pass(head->tag.bytes, io_cost(head->tag.bytes))) break;
    sched::Item item = queue_->pop(now);
    ++stats_.admitted;
    const SimTime waited = now - item.enqueued;
    stats_.throttle_ns += waited;
    stats_.wait.record(waited);
    item.grant(now);
  }
  if (queue_->empty() || timer_armed_) return;
  const sched::Item* head = queue_->peek(now);
  const double head_cost = io_cost(head->tag.bytes);
  const double byte_need = std::min(static_cast<double>(head->tag.bytes),
                                    bytes_bucket_.capacity());
  const double iops_need = std::min(head_cost, iops_bucket_.capacity());
  const SimTime wait =
      std::max(bytes_bucket_.delay_until_available(now, byte_need),
               iops_bucket_.delay_until_available(now, iops_need));
  timer_armed_ = true;
  sim_.schedule_after(wait == 0 ? 1 : wait, [this] {
    timer_armed_ = false;
    pump();
  });
}

}  // namespace uc::essd
