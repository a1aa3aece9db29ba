#include "sched/scheduler.h"

#include <cmath>
#include <cstddef>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace uc::sched {

const char* io_class_name(IoClass c) {
  switch (c) {
    case IoClass::kFgRead:
      return "fg-read";
    case IoClass::kFgWrite:
      return "fg-write";
    case IoClass::kCleanerGc:
      return "cleaner-gc";
    case IoClass::kPrefetch:
      return "prefetch";
    case IoClass::kMigration:
      return "migration";
  }
  return "unknown";
}

const char* policy_name(Policy p) {
  switch (p) {
    case Policy::kFifo:
      return "fifo";
    case Policy::kWfq:
      return "wfq";
    case Policy::kPrio:
      return "prio";
  }
  return "unknown";
}

bool parse_policy(const std::string& text, Policy* out) {
  if (text == "fifo") {
    *out = Policy::kFifo;
  } else if (text == "wfq") {
    *out = Policy::kWfq;
  } else if (text == "prio") {
    *out = Policy::kPrio;
  } else {
    return false;
  }
  return true;
}

Status SchedulerConfig::validate() const {
  if (quantum_ns == 0) {
    return Status::invalid_argument("scheduler quantum must be positive");
  }
  const auto positive = [](double w) { return std::isfinite(w) && w > 0.0; };
  if (!positive(default_weight)) {
    return Status::invalid_argument(
        "scheduler default weight must be finite and positive");
  }
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (!positive(weights[i])) {
      return Status::invalid_argument("scheduler weight " + std::to_string(i) +
                                      " must be finite and positive");
    }
  }
  return Status::ok();
}

namespace {

class FifoScheduler final : public Scheduler {
 protected:
  void do_push(Item item) override { queue_.push_back(std::move(item)); }

  std::optional<Item> do_select(SimTime /*now*/) override {
    if (queue_.empty()) return std::nullopt;
    Item out = std::move(queue_.front());
    queue_.pop_front();
    return out;
  }

 private:
  std::deque<Item> queue_;
};

/// Deficit round-robin over per-tenant flows (Shreedhar & Varghese).  A
/// flow's deficit is replenished by `quantum_ns * weight` once per visit to
/// the head of the active ring and spent in service-nanoseconds; a flow
/// whose head item does not fit rotates to the back, keeping its balance.
class DrrScheduler final : public Scheduler {
 public:
  explicit DrrScheduler(const SchedulerConfig& cfg) : cfg_(cfg) {}

  void set_weight(std::uint32_t tenant, double weight) override {
    if (tenant >= cfg_.weights.size()) {
      cfg_.weights.resize(tenant + 1, cfg_.default_weight);
    }
    cfg_.weights[tenant] = weight;
  }

 protected:
  void do_push(Item item) override {
    const std::uint32_t t = item.tag.tenant;
    if (t >= flows_.size()) flows_.resize(t + 1);
    Flow& f = flows_[t];
    f.queue.push_back(std::move(item));
    if (!f.active) {
      f.active = true;
      f.charged = false;
      ring_.push_back(t);
    }
  }

  std::optional<Item> do_select(SimTime /*now*/) override {
    if (ring_.empty()) return std::nullopt;
    for (;;) {
      const std::uint32_t t = ring_.front();
      Flow& f = flows_[t];
      if (f.queue.empty()) {
        // Became empty after its last pop; retire the flow and its balance.
        f.active = false;
        f.deficit = 0.0;
        ring_.pop_front();
        if (ring_.empty()) return std::nullopt;
        continue;
      }
      if (!f.charged) {
        f.deficit += static_cast<double>(cfg_.quantum_ns) * cfg_.weight(t);
        f.charged = true;
      }
      const double cost = service_cost(f.queue.front());
      if (f.deficit + 1e-9 >= cost) {
        f.deficit -= cost;
        Item out = std::move(f.queue.front());
        f.queue.pop_front();
        if (f.queue.empty()) {
          f.active = false;
          f.deficit = 0.0;
          ring_.pop_front();
        }
        return out;
      }
      // Head does not fit this visit: rotate, keep the accumulated deficit,
      // and replenish again on the next visit (guarantees progress for any
      // cost with any positive quantum).
      f.charged = false;
      ring_.pop_front();
      ring_.push_back(t);
    }
  }

 private:
  struct Flow {
    std::deque<Item> queue;
    double deficit = 0.0;
    bool active = false;
    bool charged = false;  ///< replenished on the current ring visit
  };

  static double service_cost(const Item& item) {
    // Service time is the universal currency; zero-duration items (pure
    // admission queues) fall back to their byte footprint.
    if (item.duration > 0) return static_cast<double>(item.duration);
    return static_cast<double>(item.tag.bytes > 0 ? item.tag.bytes : 1);
  }

  SchedulerConfig cfg_;
  std::vector<Flow> flows_;
  std::deque<std::uint32_t> ring_;
};

/// Strict class priority with a starvation guard.
class PrioScheduler final : public Scheduler {
 public:
  explicit PrioScheduler(const SchedulerConfig& cfg) : cfg_(cfg) {}

 protected:
  void do_push(Item item) override {
    queues_[rank(item.tag.io_class)].push_back(std::move(item));
  }

  std::optional<Item> do_select(SimTime now) override {
    // Starvation guard first: the longest-waiting demoted head wins once it
    // has waited past the bound, so a flood of reads cannot park writes or
    // background reclaim forever.
    int starved = -1;
    SimTime oldest = kNoTime;
    for (int r = 1; r < kIoClassCount; ++r) {
      if (queues_[r].empty()) continue;
      const SimTime enq = queues_[r].front().enqueued;
      if (now - enq > cfg_.starvation_ns && enq < oldest) {
        starved = r;
        oldest = enq;
      }
    }
    if (starved >= 0) return take(starved);
    for (int r = 0; r < kIoClassCount; ++r) {
      if (!queues_[r].empty()) return take(r);
    }
    return std::nullopt;
  }

 private:
  /// fg-read > fg-write > cleaner-gc > prefetch > migration; the enum order
  /// is already the demotion order.
  static int rank(IoClass c) { return static_cast<int>(c); }

  std::optional<Item> take(int r) {
    Item out = std::move(queues_[r].front());
    queues_[r].pop_front();
    return out;
  }

  SchedulerConfig cfg_;
  std::deque<Item> queues_[kIoClassCount];
};

}  // namespace

std::unique_ptr<Scheduler> make_scheduler(const SchedulerConfig& cfg) {
  switch (cfg.policy) {
    case Policy::kFifo:
      return std::make_unique<FifoScheduler>();
    case Policy::kWfq:
      return std::make_unique<DrrScheduler>(cfg);
    case Policy::kPrio:
      return std::make_unique<PrioScheduler>(cfg);
  }
  UC_ASSERT(false, "unknown scheduling policy");
  return nullptr;
}

}  // namespace uc::sched
