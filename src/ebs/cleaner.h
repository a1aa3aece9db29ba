#pragma once

/// \file cleaner.h
/// Background log cleaner (the provider-side GC of Observation 2).
///
/// The cleaner runs off the critical path on dedicated background bandwidth
/// — users never see it directly; they only see its *absence* when the
/// spare pool runs dry and appends stall until segments are freed.  The
/// volume's post-cliff sustained write rate therefore converges to the
/// cleaner's net reclaim rate, which is how the paper's Figure 3 ESSD-1
/// curve (flat, cliff at ~2.55x capacity, then ~305 MB/s) is produced.

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "ebs/segment_store.h"
#include "sched/queued_resource.h"
#include "sched/sched.h"
#include "sim/simulator.h"

namespace uc::ebs {

struct CleanerConfig {
  /// Victim-segment processing rate (read + rewrite, replicas in parallel).
  double processing_mbps = 600.0;
  /// Skip victims with less garbage than this unless the pool is desperate.
  double min_garbage_ratio = 0.02;
  /// Start cleaning once the pool's free ratio falls below this.
  double start_free_ratio = 0.75;
  /// Below this free ratio, clean any victim with nonzero garbage.
  double desperate_free_ratio = 0.05;

  /// Rejects a non-finite or non-positive processing rate, and a ratio
  /// that is not finite or lies outside [0, 1].
  Status validate() const;
};

/// The cleaner stores only the per-tenant slices; `Cleaner::stats()` derives
/// the totals from them on read.
struct CleanerStats {
  std::uint64_t segments_cleaned = 0;  ///< sum of `tenant_segments`
  std::uint64_t pages_relocated = 0;   ///< sum of `tenant_pages`
  std::uint64_t bytes_processed = 0;   ///< segments_cleaned x segment size
  /// Per-tenant slices, indexed by the VolumeId that owned each cleaned
  /// victim — who is actually consuming the shared background reclaim
  /// bandwidth.
  std::vector<std::uint64_t> tenant_segments;
  std::vector<std::uint64_t> tenant_pages;

  std::uint64_t tenant_segments_cleaned(std::uint32_t vol) const {
    return vol < tenant_segments.size() ? tenant_segments[vol] : 0;
  }
  std::uint64_t tenant_pages_relocated(std::uint32_t vol) const {
    return vol < tenant_pages.size() ? tenant_pages[vol] : 0;
  }

  bool operator==(const CleanerStats&) const = default;
};

/// Component-wise `a - b` for measurement windows (mirrors `net::subtract`).
CleanerStats subtract(const CleanerStats& a, const CleanerStats& b);

class Cleaner {
 public:
  /// `logs` is the cluster's registry of chunk logs across *all* attached
  /// volumes (global chunk id -> log); the cluster appends to it as volumes
  /// attach, and the cleaner indexes new entries before every pick, so it
  /// always picks over the current registry.  Every log must share one
  /// segment size; an indexed log publishes into the cleaner, so no log
  /// may change after the cleaner is gone.  `owners`
  /// is the parallel registry of owning volumes (per-tenant GC accounting).
  /// One cleaner therefore serves every tenant from the same background
  /// bandwidth, which is routed through a sched-tagged `QueuedResource` so
  /// the cluster policy arbitrates it and reports see its class busy time.
  Cleaner(sim::Simulator& sim, const CleanerConfig& cfg,
          std::uint64_t segment_bytes, const std::vector<ChunkLog*>& logs,
          const std::vector<std::uint32_t>& owners, SegmentPool& pool,
          const sched::SchedulerConfig& sched_cfg = {});

  /// Pool or garbage state changed; (re)start the cleaning loop if needed.
  void notify();

  /// Re-registers `tenant`'s weight on the background-bandwidth pipe.
  void set_tenant_weight(std::uint32_t tenant, double weight) {
    pipe_.set_tenant_weight(tenant, weight);
  }

  bool busy() const { return busy_; }
  CleanerStats stats() const;
  /// The background-bandwidth pipe (its `kCleanerGc` busy time).
  const sched::QueuedResource& pipe() const { return pipe_; }

 private:
  struct GlobalVictim {
    std::uint32_t chunk = 0;  ///< global chunk id (index into the registry)
    ChunkLog::Victim victim;
    bool found = false;
  };

  /// Reads the victim index's root: O(1) once the index is current.
  GlobalVictim pick_global_victim();
  /// Attaches registry entries added since the last pick to the index.
  void index_new_logs();
  void run_cycle();

  sim::Simulator& sim_;
  CleanerConfig cfg_;
  std::uint64_t segment_bytes_;
  const std::vector<ChunkLog*>& logs_;
  const std::vector<std::uint32_t>& owners_;
  SegmentPool& pool_;
  VictimIndex index_;  ///< (best live, global chunk) over `logs_`
  std::vector<std::uint64_t> tenant_segments_;  ///< per owning VolumeId
  std::vector<std::uint64_t> tenant_pages_;
  sched::QueuedResource pipe_;
  bool busy_ = false;
};

}  // namespace uc::ebs
