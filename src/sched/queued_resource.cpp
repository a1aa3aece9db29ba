#include "sched/queued_resource.h"

#include <utility>

#include "sim/simulator.h"

namespace uc::sched {

QueuedResource::QueuedResource(int servers) : free_at_(servers) {}

QueuedResource::QueuedResource(QueuedResource&& other) noexcept
    : sim_(other.sim_),
      cfg_(std::move(other.cfg_)),
      sched_(std::move(other.sched_)),
      free_at_(std::move(other.free_at_)),
      busy_until_(other.busy_until_) {
  UC_ASSERT(!other.timer_armed_ && !other.pumping_ &&
                (sched_ == nullptr || sched_->empty()),
            "cannot move a QueuedResource with in-flight dispatch state");
  for (int i = 0; i < kIoClassCount; ++i) {
    class_busy_[i] = other.class_busy_[i];
  }
}

void QueuedResource::configure(sim::Simulator& sim,
                               const SchedulerConfig& cfg) {
  UC_ASSERT(busy_time() == 0 && (sched_ == nullptr || sched_->empty()),
            "configure() must precede traffic");
  sim_ = &sim;
  cfg_ = cfg;
  sched_ = cfg.policy == Policy::kFifo ? nullptr : make_scheduler(cfg);
}

void QueuedResource::set_tenant_weight(std::uint32_t tenant, double weight) {
  if (tenant >= cfg_.weights.size()) {
    cfg_.weights.resize(tenant + 1, kDefaultWeight);
  }
  cfg_.weights[tenant] = weight;
  if (sched_ != nullptr) sched_->set_weight(tenant, weight);
}

SimTime QueuedResource::reserve(SimTime arrival, SimTime duration,
                                const SchedTag& tag) {
  const SimTime free = free_at_.min();
  const SimTime start = arrival > free ? arrival : free;
  const SimTime end = start + duration;
  free_at_.replace_min(end);
  if (end > busy_until_) busy_until_ = end;
  class_busy_[static_cast<int>(tag.io_class)] += duration;
  return end;
}

SimTime QueuedResource::busy_time() const {
  SimTime total = 0;
  for (const SimTime t : class_busy_) total += t;
  return total;
}

SimTime QueuedResource::acquire(SimTime now, SimTime duration,
                                const SchedTag& tag) {
  UC_ASSERT(cfg_.policy == Policy::kFifo,
            "synchronous acquire() on a policy-scheduled resource");
  return reserve(now, duration, tag);
}

void QueuedResource::submit_queued(SimTime arrival, const SchedTag& tag,
                                   SimTime duration, Grant grant) {
  UC_ASSERT(sim_ != nullptr, "non-FIFO resource needs configure(sim, cfg)");
  if (arrival > sim_->now()) {
    sim_->schedule_at(arrival,
                      sim::boxed([this, tag, duration,
                                  g = std::move(grant)]() mutable {
                        enqueue(tag, duration, std::move(g));
                      }));
  } else {
    enqueue(tag, duration, std::move(grant));
  }
}

void QueuedResource::enqueue(const SchedTag& tag, SimTime duration,
                             Grant grant) {
  sched_->push(Item{tag, sim_->now(), duration, std::move(grant)});
  pump();
}

void QueuedResource::pump() {
  if (pumping_) return;
  pumping_ = true;
  const SimTime now = sim_->now();
  // Serve while a server is free *now*; grants may synchronously enqueue
  // follow-on work, which the loop re-examines.
  while (!sched_->empty() && free_at_.min() <= now) {
    Item item = sched_->pop(now);
    const SimTime finish = reserve(now, item.duration, item.tag);
    item.grant(finish);
  }
  pumping_ = false;
  if (sched_->empty() || timer_armed_) return;
  timer_armed_ = true;
  sim_->schedule_at(free_at_.min(), [this] {
    timer_armed_ = false;
    pump();
  });
}

}  // namespace uc::sched
