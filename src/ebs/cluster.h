#pragma once

/// \file cluster.h
/// The storage cluster behind an ESSD (paper Figure 1): replica placement,
/// per-node append/read pipelines, journal-commit and media-read latency
/// models, node page caches with optional read-ahead, a cluster-wide
/// segment pool, and the background cleaner.
///
/// The block server (compute-side agent) fans a write out to every replica
/// of the target chunk and completes on the slowest; reads go to one
/// replica.  All four of the paper's observations trace back to mechanisms
/// in this file plus the QoS gate in `uc::essd`.
///
/// A cluster hosts one or more *volumes*: each `attach_volume()` call adds
/// an independent address space (its own `ChunkMap`, chunk logs, and stats)
/// on top of the shared node pipelines, node caches, fabric, segment pool,
/// and the single cluster-wide cleaner.  This is how real EBS clusters
/// multiplex tenants, and it is the interference medium for every
/// `uc::tenant` scenario.  There is one construction path: a cluster starts
/// with the shared spare pool and grows it on every attach; the
/// single-volume constructor is that path plus one `attach_volume()`.
///
/// Every data-path counter is stored once, in the narrowest slice that
/// sees it: `ClusterStats` per volume, busy time per traffic class on each
/// pipe, fabric bytes per node, cleaner work per tenant.  The cluster-wide
/// totals (`stats()`, `busy_stats()`) are sums derived on read, so a
/// cross-layer audit compares independent numbers, not copies.

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/lru_cache.h"
#include "common/ring_queue.h"
#include "common/rng.h"
#include "common/slot_pool.h"
#include "common/status.h"
#include "common/types.h"
#include "ebs/chunk_map.h"
#include "ebs/cleaner.h"
#include "ebs/segment_store.h"
#include "net/fabric.h"
#include "sched/queued_resource.h"
#include "sched/sched.h"
#include "sim/latency_model.h"
#include "sim/simulator.h"

namespace uc::ebs {

/// Index of an attached volume within its cluster (dense, allocation order).
using VolumeId = std::uint32_t;

/// Per-volume seed derivation stride (golden-ratio mix): volume `i` of a
/// cluster seeded `s` places its chunks with seed `s + i * stride`, so
/// volume 0 reproduces the single-volume placement exactly.  `uc::tenant`
/// derives its solo-baseline cluster seeds with the same stride so a solo
/// rerun of tenant `i` sees the identical placement it had colocated.
inline constexpr std::uint64_t kVolumeSeedStride = 0x9e3779b97f4a7c15ull;

struct ClusterConfig {
  net::FabricConfig fabric;

  std::uint64_t chunk_bytes = 64ull << 20;
  std::uint64_t segment_bytes = 8ull << 20;
  int replication = 3;

  /// Spare capacity beyond the volume's logical size (the provider's
  /// garbage headroom).  Sizing this against the cleaner bandwidth decides
  /// whether a volume ever shows a GC cliff (Observation 2).  On a shared
  /// cluster this is the *cluster-wide* headroom all tenants draw from.
  std::uint64_t spare_pool_bytes = 0;

  /// Per-node append pipeline: per-op CPU/journal overhead plus byte cost.
  /// This serialization is what caps a single-chunk (sequential) stream.
  double node_append_mbps = 2000.0;
  double node_append_op_us = 20.0;

  /// Per-node read pipeline.
  double node_read_mbps = 2000.0;
  double node_read_op_us = 15.0;

  sim::LatencyModelConfig replica_write;  ///< journal commit
  sim::LatencyModelConfig replica_read;   ///< backend media read

  std::uint32_t node_cache_pages = 16384;  ///< 64 MiB per node
  bool readahead = false;
  std::uint32_t readahead_pages = 64;

  CleanerConfig cleaner;
  std::uint64_t cleaner_reserve_groups = 4;

  /// Queue discipline at every shared resource the cluster owns (NIC pipes,
  /// node append/read pipelines, cleaner bandwidth).  FIFO reproduces the
  /// pre-sched simulator bit for bit; WFQ/priority reorder across tenants
  /// and traffic classes.  `sched.weights` is indexed by VolumeId.
  sched::SchedulerConfig sched;

  std::uint64_t seed = 99;

  /// Rejects an empty fabric, a replication factor the nodes cannot hold,
  /// segment/chunk geometry the chunk logs cannot carve up, an empty node
  /// cache, an invalid `cleaner` and an invalid `sched`.
  Status validate() const;
};

struct ClusterStats {
  std::uint64_t writes = 0;
  std::uint64_t written_pages = 0;
  std::uint64_t reads = 0;
  std::uint64_t read_pages = 0;
  std::uint64_t cache_hit_pages = 0;
  std::uint64_t media_read_pages = 0;
  std::uint64_t unwritten_read_pages = 0;
  std::uint64_t readahead_fetches = 0;
  std::uint64_t trims = 0;
  std::uint64_t trimmed_pages = 0;
  std::uint64_t stalled_writes = 0;
  SimTime append_stall_ns = 0;

  bool operator==(const ClusterStats&) const = default;
};

/// Component-wise `a - b` for measurement windows (mirrors `net::subtract`).
ClusterStats subtract(const ClusterStats& a, const ClusterStats& b);

/// Occupancy of everything the cluster owns — node append/read pipelines,
/// NIC pipes, and the cleaner's bandwidth — summed cluster-wide, with
/// per-`sched::IoClass` slices and the segment-pool stall time alongside.
/// This is the interference *signal* the placement layer steers by
/// (`placement::Policy::kLeastInterference`): a cluster hot on busy or
/// stall time is a bad home for a new volume even when its attached bytes
/// look modest.  Every reservation accrues to one class, so the class
/// slices sum to `busy_ns`.
struct ClusterBusyStats {
  SimTime busy_ns = 0;
  std::array<SimTime, sched::kIoClassCount> class_busy_ns{};
  SimTime stall_ns = 0;  ///< cumulative segment-pool append-stall time

  /// Scalar steering signal: total occupancy plus stall time (a stalled
  /// cluster is maximally contended even while its pipes idle).
  SimTime signal() const { return busy_ns + stall_ns; }
};

/// Component-wise `a - b` for measurement windows.
ClusterBusyStats subtract(const ClusterBusyStats& a, const ClusterBusyStats& b);

class StorageCluster {
 public:
  /// Starts with only the shared spare pool (plus the cleaner reserve);
  /// call `attach_volume()` for each tenant volume.
  StorageCluster(sim::Simulator& sim, const ClusterConfig& cfg);

  /// Single-volume shorthand: `StorageCluster(sim, cfg)` followed by
  /// `attach_volume(volume_bytes)`, which becomes VolumeId 0.  For a volume
  /// that is a segment multiple the pool comes out at the original
  /// one-volume size, live data + spare + one open segment per chunk + the
  /// cleaner reserve; `determinism_test` pins this path bit for bit.
  StorageCluster(sim::Simulator& sim, const ClusterConfig& cfg,
                 std::uint64_t volume_bytes);

  /// Adds a volume of `volume_bytes` to the shared address space, growing
  /// the segment pool by the volume's live + open-segment share.  Returns
  /// the dense id used to address the volume in every per-volume call.
  VolumeId attach_volume(std::uint64_t volume_bytes);

  /// Re-registers `vol`'s fair-share weight on every shared resource the
  /// cluster owns (NIC pipes, node pipelines, cleaner bandwidth).  The
  /// construction-time `cfg.sched.weights` fold only covers volumes known
  /// up front; a migrated-in volume calls this so it keeps its tenant's
  /// WFQ share on its new home instead of `sched::kDefaultWeight`.
  void set_volume_weight(VolumeId vol, double weight);

  /// Replicated append of a write fragment (must lie within one chunk).
  /// Pages get stamps `first_stamp + i`.  Completes on the slowest replica;
  /// stalls first if the segment pool is exhausted.  `io_class` is the
  /// traffic class the fragment is tagged with on every shared pipe —
  /// foreground writes by default; `uc::placement` re-tags migration copy
  /// traffic `kMigration` so it competes under the cluster policy instead
  /// of impersonating the tenant's foreground stream.
  void write(VolumeId vol, ByteOffset offset, std::uint32_t bytes,
             WriteStamp first_stamp, std::function<void()> done,
             sched::IoClass io_class = sched::IoClass::kFgWrite);

  /// Reads a fragment (single chunk) from one replica.  See `write` for the
  /// `io_class` override.
  void read(VolumeId vol, ByteOffset offset, std::uint32_t bytes,
            std::function<void()> done,
            sched::IoClass io_class = sched::IoClass::kFgRead);

  /// Drops the pages, leaving garbage for the cleaner.
  void trim(VolumeId vol, ByteOffset offset, std::uint32_t bytes);

  // --- probes ---
  const ChunkMap& chunks(VolumeId vol = 0) const { return volume(vol).map; }
  const SegmentPool& pool() const { return pool_; }
  const Cleaner& cleaner() const { return *cleaner_; }
  /// Cluster-wide totals: the per-volume slices summed on read.
  ClusterStats stats() const;
  /// Per-volume slice: the only stored copy of these counters.
  const ClusterStats& volume_stats(VolumeId vol) const {
    return volume(vol).stats;
  }
  const net::Fabric& fabric() const { return fabric_; }
  /// Cumulative occupancy across every shared resource (subtract two
  /// snapshots to scope a measurement or rebalance window).
  ClusterBusyStats busy_stats() const;

  std::uint32_t volume_count() const {
    return static_cast<std::uint32_t>(volumes_.size());
  }
  std::uint64_t volume_bytes(VolumeId vol) const { return volume(vol).bytes; }
  std::uint64_t chunk_bytes() const { return cfg_.chunk_bytes; }
  const ClusterConfig& config() const { return cfg_; }

  // --- capacity accessors (placement-layer enumeration) ---
  /// Logical bytes across every attached volume.  Note: volumes never
  /// detach, so after a live migration the (trimmed, dead) source volume
  /// still counts here — the placement layer therefore tracks load from
  /// its own tenant→cluster map rather than this total.
  std::uint64_t attached_bytes() const;
  /// Free segment-pool headroom in bytes (shared across all volumes).
  std::uint64_t free_pool_bytes() const {
    return pool_.free_groups() * cfg_.segment_bytes;
  }
  std::uint64_t total_pool_bytes() const {
    return pool_.total_groups() * cfg_.segment_bytes;
  }

  bool is_written(VolumeId vol, ByteOffset offset) const;
  WriteStamp page_stamp(VolumeId vol, ByteOffset offset) const;
  /// True when `node`'s page cache holds the page at `offset` of `vol`.
  bool page_cached_on(int node, VolumeId vol, ByteOffset offset) const;
  /// The resident bit of the page at `offset` of `vol`: set exactly when
  /// the page is in its chunk's primary node cache.
  bool page_resident(VolumeId vol, ByteOffset offset) const;
  std::uint64_t live_pages(VolumeId vol) const;
  std::uint64_t garbage_pages(VolumeId vol) const;

  /// Cluster-wide totals (all volumes).
  std::uint64_t live_pages() const;
  std::uint64_t garbage_pages() const;

  /// Debug probe: asserts every chunk log's own invariants, that the
  /// segment-pool totals reconcile with them (every allocated group is
  /// owned by exactly one non-freed chunk-log segment), and that each
  /// node's cache holds as many pages as the resident bitmap marks for the
  /// chunks it is primary for.  Returns true for use in EXPECT_TRUE.
  bool check_invariants() const;

 private:
  /// One attached volume: an address space (chunk map + logs + read-ahead
  /// cursors) over the shared cluster, with its own stats slice.
  struct Volume {
    Volume(std::uint64_t volume_bytes, std::uint32_t base, ChunkMap chunk_map)
        : bytes(volume_bytes), chunk_base(base), map(std::move(chunk_map)) {}

    std::uint64_t bytes;
    std::uint32_t chunk_base;  ///< global id of this volume's chunk 0
    ChunkMap map;
    std::vector<ChunkLog> logs;
    std::vector<std::uint64_t> readahead_cursor;  // per chunk: next page
    ClusterStats stats;
  };

  struct PendingWrite {
    VolumeId vol = 0;
    ChunkId chunk = 0;
    std::uint32_t first_page = 0;
    std::uint32_t pages = 0;
    std::uint32_t cursor = 0;
    WriteStamp first_stamp = 0;
    std::uint32_t bytes = 0;
    sched::IoClass io_class = sched::IoClass::kFgWrite;
    std::function<void()> done;
  };

  static std::uint64_t shared_pool_groups(const ClusterConfig& cfg);

  Volume& volume(VolumeId vol) {
    UC_DCHECK(vol < volumes_.size(), "unknown volume");
    return *volumes_[vol];
  }
  const Volume& volume(VolumeId vol) const {
    UC_DCHECK(vol < volumes_.size(), "unknown volume");
    return *volumes_[vol];
  }

  /// One replicated append from fan-out to ack (see `SlotPool`).
  struct WriteIo {
    sched::SchedTag tag;
    int remaining = 0;    ///< replicas not yet committed
    SimTime slowest = 0;  ///< latest journal commit so far
    std::function<void()> done;
  };

  /// One replica read from request to response (see `SlotPool`).  The
  /// response holds the slot, and so does a read-ahead fetch while pending.
  struct ReadIo {
    VolumeId vol = 0;
    ChunkId chunk = 0;
    std::uint32_t first_page = 0;
    std::uint32_t pages = 0;
    int node = 0;  ///< the chunk's primary replica
    bool ra_eligible = false;
    sched::SchedTag tag;
    SimTime ready = 0;             ///< latest cache-hit ready time
    std::uint64_t miss_bytes = 0;  ///< media bytes of the node read
    std::uint64_t ra_bytes = 0;    ///< read-ahead bytes, once issued
    int holds = 0;
    std::function<void()> done;
  };

  void pump_appends();
  // The write chain: fabric -> node append pipeline -> journal commit.
  void issue_write_io(PendingWrite& op);
  void append_replica(std::uint32_t slot, int node, SimTime delivered);
  void commit_replica(std::uint32_t slot, SimTime appended);
  // The read chain: request hop -> cache lookup -> node read pipeline
  // (-> media) -> read-ahead and response hop.
  void serve_read(std::uint32_t slot, SimTime t_req);
  void read_media(std::uint32_t slot, SimTime piped);
  void respond(std::uint32_t slot, SimTime ready);
  void fill_readahead(std::uint32_t slot, SimTime fetched);
  void release_read(std::uint32_t slot);
  /// Drops pages [first_page, first_page + pages) of `chunk` from its
  /// primary node's cache, the only cache that ever holds them; only the
  /// pages whose resident bit is set are probed.
  void invalidate_cached(const Volume& v, ChunkId chunk,
                         std::uint32_t first_page, std::uint32_t pages);
  /// Inserts the page into `node`'s cache (its chunk's primary), ready at
  /// `ready`, and keeps the resident bitmap exact across the insert and
  /// any eviction it causes.
  void cache_page(int node, const Volume& v, ChunkId chunk,
                  std::uint32_t page, SimTime ready);

  /// Node-cache keys are global-chunk scoped so colocated tenants share the
  /// cache honestly (no cross-volume key collisions).
  std::uint64_t cache_key(const Volume& v, ChunkId chunk,
                          std::uint32_t page) const {
    return (static_cast<std::uint64_t>(v.chunk_base + chunk) << 32) | page;
  }
  /// Index of the resident-bitmap word holding `page` of global chunk
  /// `global_chunk`.
  std::size_t resident_at(std::uint32_t global_chunk,
                          std::uint32_t page) const {
    return static_cast<std::size_t>(global_chunk) * resident_words_per_chunk_ +
           page / 64;
  }
  bool resident(const Volume& v, ChunkId chunk, std::uint32_t page) const {
    return ((resident_[resident_at(v.chunk_base + chunk, page)] >>
             (page % 64)) & 1) != 0;
  }

  /// `cfg.fabric` with the cluster-wide scheduling policy folded in, so the
  /// NIC pipes arbitrate with the same discipline as the node pipelines.
  static net::FabricConfig fabric_config(const ClusterConfig& cfg);

  sim::Simulator& sim_;
  ClusterConfig cfg_;
  Rng rng_;
  net::Fabric fabric_;
  SegmentPool pool_;
  std::vector<std::unique_ptr<Volume>> volumes_;
  std::vector<ChunkLog*> all_logs_;  ///< global chunk id -> log (cleaner view)
  std::vector<std::uint32_t> log_owner_;  ///< global chunk id -> VolumeId
  std::unique_ptr<Cleaner> cleaner_;
  sim::LatencyModel replica_write_;
  sim::LatencyModel replica_read_;
  std::vector<sched::QueuedResource> node_append_;
  std::vector<sched::QueuedResource> node_read_;
  std::vector<LruReadyCache<std::uint64_t>> node_caches_;
  /// One bit per (global chunk, page), set exactly while the page is in
  /// its chunk's primary node cache, so writes and reads skip the hash
  /// probes of pages that are not cached.  Sized by `attach_volume`.
  std::vector<std::uint64_t> resident_;
  std::uint32_t resident_words_per_chunk_ = 0;
  RingQueue<PendingWrite> append_queue_;
  SlotPool<WriteIo> writes_;
  SlotPool<ReadIo> reads_;
  std::uint32_t pages_per_segment_ = 0;
  bool stalled_ = false;
  SimTime stall_since_ = 0;
  double append_ns_per_byte_;
  double read_ns_per_byte_;
};

}  // namespace uc::ebs
