#pragma once

/// \file migration.h
/// Live volume migration between storage clusters.
///
/// Classic pre-copy migration, adapted to the log-structured cluster: copy
/// every written page of the source volume into an already-attached target
/// volume (preserving write stamps, which are the simulator's notion of
/// data), re-diff and copy what the tenant dirtied meanwhile, and once a
/// pass shrinks below the stop-and-copy threshold, freeze the tenant's
/// device, drain its in-flight I/O, copy the last dirty pages, cut the
/// device over atomically, and trim the stale source.  All copy traffic is
/// tagged `sched::IoClass::kMigration`, so it rides the same NIC pipes and
/// node pipelines as everyone else and competes under whatever policy the
/// clusters run — FIFO interleaves it, WFQ charges it to the migrating
/// tenant's weight, and strict priority demotes it below every other class.
///
/// Known modelling simplification: writes that are stalled in the *source
/// cluster's* append queue (segment-pool exhaustion) when the final pass
/// diffs are not chased.  Migrating away from a pool-starved cluster is
/// exactly when you would not trust a live copy either.

#include <algorithm>
#include <cstdint>

#include "common/types.h"
#include "ebs/cluster.h"
#include "essd/essd_device.h"
#include "sim/simulator.h"

namespace uc::placement {

/// Largest contiguous fragment a single copy read/write moves.
inline constexpr std::uint32_t kMigrationCopyBytes = 256 * 1024;
static_assert(kMigrationCopyBytes % kLogicalPageBytes == 0);
/// Hard bound on pre-copy passes: a tenant dirtying faster than the copy
/// stream converges would otherwise never cut over.
inline constexpr int kMaxPrecopyPasses = 8;

struct MigrationConfig {
  /// A pre-copy pass that moved no more than this many pages makes the next
  /// pass the frozen stop-and-copy pass.
  std::uint32_t freeze_threshold_pages = 2048;
};

/// Shared copy-bandwidth governor: every copy fragment of every concurrent
/// migration in one fused shard group reserves its transmission time on one
/// serialized budget, so N in-flight migrations together never offer more than
/// `bytes_per_s` of copy traffic.  This caps what migration *adds* to the
/// fleet; the sched layer still arbitrates what that traffic *gets* on each
/// shared pipe.  A zero budget is unpaced (fragments issue back to back,
/// the original behaviour).
class MigrationPacer {
 public:
  explicit MigrationPacer(double bytes_per_s = 0.0)
      : bytes_per_s_(bytes_per_s) {}

  /// Reserves a fragment of `bytes` arriving at `now`; returns the time the
  /// fragment may issue (>= now, monotone across reservations).
  SimTime reserve(SimTime now, std::uint64_t bytes) {
    if (bytes_per_s_ <= 0.0) return now;
    const SimTime start = now > next_free_ ? now : next_free_;
    next_free_ = start + static_cast<SimTime>(static_cast<double>(bytes) *
                                              1e9 / bytes_per_s_);
    return start;
  }

  /// Folds another pacer's reservations into this one: after two migration
  /// domains merge (fused shards in the sliced parallel run), the surviving
  /// pacer must not issue before either predecessor would have.  Only legal
  /// at a barrier, where both clocks agree.
  void absorb(const MigrationPacer& other) {
    next_free_ = std::max(next_free_, other.next_free_);
  }

 private:
  double bytes_per_s_;
  SimTime next_free_ = 0;
};

struct MigrationStats {
  std::uint64_t pages_copied = 0;
  std::uint64_t bytes_copied = 0;
  std::uint64_t pages_trimmed = 0;  ///< source trims mirrored to the target
  int passes = 0;                   ///< pre-copy passes + the frozen pass
  SimTime started = 0;
  SimTime cutover = 0;    ///< 0 until the migration finished
  SimTime frozen_ns = 0;  ///< stop-and-copy window (freeze -> thaw)
};

/// Migrates one tenant volume from `src` to an already-attached,
/// equal-capacity volume on `dst`, then retargets `device` to it.  The
/// tenant keeps running against `device` the whole time; only the final
/// stop-and-copy window parks its submissions.  The migrator reports
/// nothing on its own: whoever started it polls `finished()` (true from
/// the cutover on, with the device already thawed) and reads `stats()`.
class VolumeMigrator {
 public:
  /// `pacer` (optional, host-owned, shared across concurrent migrators)
  /// paces every copy fragment against the host's copy-bandwidth budget.
  VolumeMigrator(sim::Simulator& sim, essd::EssdDevice& device,
                 ebs::StorageCluster& src, ebs::VolumeId src_vol,
                 ebs::StorageCluster& dst, ebs::VolumeId dst_vol,
                 const MigrationConfig& cfg, MigrationPacer* pacer = nullptr);

  void start();
  bool finished() const { return finished_; }
  const MigrationStats& stats() const { return stats_; }

  /// Repoints the copy-bandwidth governor mid-flight: when two fused-shard
  /// groups merge, their pacers collapse into one survivor and every active
  /// migrator of the absorbed group re-targets it here (at a slice barrier,
  /// so the reservation clocks are comparable).  Null = unpaced.
  void set_pacer(MigrationPacer* pacer) { pacer_ = pacer; }
  /// The governor in force (null = unpaced); the host reconciles pacers
  /// from it at each barrier.
  MigrationPacer* pacer() const { return pacer_; }

 private:
  /// Scans forward from `offset` for the next dirty run, copies it, and
  /// re-enters itself from the run's end; finishes the pass at capacity.
  void scan_from(ByteOffset offset, bool frozen_pass);
  void finish_pass(bool frozen_pass);
  void enter_stop_and_copy();
  void cutover();
  /// Trims the source volume after cutover so the cleaner reclaims its
  /// segments (the provider deleting the stale replica set).
  void release_source();

  sim::Simulator& sim_;
  essd::EssdDevice& device_;
  ebs::StorageCluster& src_;
  ebs::VolumeId src_vol_;
  ebs::StorageCluster& dst_;
  ebs::VolumeId dst_vol_;
  MigrationConfig cfg_;
  MigrationPacer* pacer_;  ///< null = unpaced
  MigrationStats stats_;
  std::uint64_t capacity_bytes_ = 0;
  std::uint64_t pass_copied_pages_ = 0;
  SimTime freeze_at_ = 0;
  bool finished_ = false;
  bool started_ = false;
};

}  // namespace uc::placement
