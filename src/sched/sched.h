#pragma once

/// \file sched.h
/// Vocabulary of the pluggable scheduling layer: who is asking for service
/// (`SchedTag`), what kind of traffic it is (`IoClass`), and which policy
/// arbitrates a contended resource (`Policy` + `SchedulerConfig`).
///
/// Every shared queue in the simulator — NIC pipes, node append/read
/// pipelines, the cleaner's background bandwidth, the QoS gate's pending
/// deque — routes through this layer (see `sched::QueuedResource`), so the
/// question the paper leaves implicit ("who wins when tenants and background
/// work collide?") becomes an explicit, swappable policy instead of
/// hard-coded FIFO.

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace uc::sched {

/// Traffic class carried with every tagged reservation.  Foreground classes
/// are user-visible I/O; cleaner-gc, prefetch, and migration are provider
/// background work that a priority policy demotes.
enum class IoClass : std::uint8_t {
  kFgRead = 0,
  kFgWrite = 1,
  kCleanerGc = 2,
  kPrefetch = 3,
  /// Cross-cluster volume migration copy traffic (`uc::placement`).  Lowest
  /// priority under `kPrio` — a rebalance must never beat foreground I/O or
  /// the reclaim that keeps the pool alive — and an ordinary per-tenant
  /// flow under WFQ (source-side copy reads share the migrating tenant's
  /// weighted flow; the destination re-registers the tenant's weight at
  /// attach via `StorageCluster::set_volume_weight`).
  kMigration = 4,
};
inline constexpr int kIoClassCount = 5;

const char* io_class_name(IoClass c);

/// Identity of one unit of demand as it moves down the request path: which
/// tenant (volume) it belongs to, what class of traffic it is, and how many
/// payload bytes it represents (for accounting and byte-proportional
/// policies; the *service cost* of a reservation is its duration).
struct SchedTag {
  std::uint32_t tenant = 0;  ///< volume / tenant id (dense, attach order)
  IoClass io_class = IoClass::kFgWrite;
  std::uint64_t bytes = 0;
};

enum class Policy : std::uint8_t {
  kFifo = 0,  ///< arrival order — bit-identical to the pre-sched simulator
  kWfq = 1,   ///< weighted fair queueing via deficit round-robin per tenant
  kPrio = 2,  ///< strict class priority; cleaner/prefetch demoted
};

const char* policy_name(Policy p);

/// Parses "fifo" / "wfq" / "prio"; returns false on anything else.
bool parse_policy(const std::string& text, Policy* out);

/// DRR weight of a tenant beyond `SchedulerConfig::weights` (and of
/// untagged traffic).
inline constexpr double kDefaultWeight = 1.0;

struct SchedulerConfig {
  Policy policy = Policy::kFifo;

  /// DRR: deficit replenished per ring visit is `quantum_ns * weight(t)`.
  /// The deficit currency is service-nanoseconds (the time a reservation
  /// occupies the resource), which is byte-proportional on bandwidth pipes
  /// and makes the same quantum meaningful on op-cost resources.
  SimTime quantum_ns = 100'000;  // ~a 256 KiB transfer on a 25 GbE NIC

  /// Per-tenant DRR weights, indexed by tenant id; tenants beyond the
  /// vector (and untagged traffic) get `kDefaultWeight`.
  std::vector<double> weights;

  /// Priority: a demoted head-of-line request that has waited longer than
  /// this is served next regardless of class (starvation guard).
  SimTime starvation_ns = 2'000'000;  // 2 ms

  double weight(std::uint32_t tenant) const {
    const double w = tenant < weights.size() ? weights[tenant] : kDefaultWeight;
    return w > 1e-3 ? w : 1e-3;
  }

  /// Rejects a zero quantum (DRR would never accumulate deficit, so the
  /// first WFQ dequeue spins forever) and any weight that is not finite
  /// and positive.
  Status validate() const;
};

}  // namespace uc::sched
