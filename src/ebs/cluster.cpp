#include "ebs/cluster.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

#include "common/units.h"

namespace uc::ebs {

// A shared cluster starts with the provider's spare capacity plus the
// cleaner reserve; every attach_volume() grows the pool by the volume's
// live + open-segment share.
std::uint64_t StorageCluster::shared_pool_groups(const ClusterConfig& cfg) {
  return cfg.spare_pool_bytes / cfg.segment_bytes + cfg.cleaner_reserve_groups;
}

// Pool sizing of the original single-volume cluster, reproduced exactly:
// live data + spare + one open segment per chunk, plus the cleaner reserve.
std::uint64_t StorageCluster::legacy_pool_groups(const ClusterConfig& cfg,
                                                 std::uint64_t volume_bytes) {
  const std::uint64_t chunks =
      (volume_bytes + cfg.chunk_bytes - 1) / cfg.chunk_bytes;
  return (volume_bytes + cfg.spare_pool_bytes) / cfg.segment_bytes + chunks +
         cfg.cleaner_reserve_groups;
}

StorageCluster::StorageCluster(sim::Simulator& sim, const ClusterConfig& cfg)
    : StorageCluster(sim, cfg, shared_pool_groups(cfg), 0) {}

StorageCluster::StorageCluster(sim::Simulator& sim, const ClusterConfig& cfg,
                               std::uint64_t volume_bytes)
    : StorageCluster(sim, cfg, legacy_pool_groups(cfg, volume_bytes), 0) {
  // The pool already covers the volume (legacy sizing), so don't grow it.
  attach_volume_internal(volume_bytes, /*grow_pool=*/false);
}

net::FabricConfig StorageCluster::fabric_config(const ClusterConfig& cfg) {
  net::FabricConfig fc = cfg.fabric;
  fc.sched = cfg.sched;
  return fc;
}

StorageCluster::StorageCluster(sim::Simulator& sim, const ClusterConfig& cfg,
                               std::uint64_t initial_pool_groups, int /*tag*/)
    : sim_(sim),
      cfg_(cfg),
      rng_(cfg.seed),
      fabric_(fabric_config(cfg), Rng(cfg.seed ^ 0xfab71cull), &sim),
      pool_(initial_pool_groups, cfg.cleaner_reserve_groups),
      replica_write_(cfg.replica_write),
      replica_read_(cfg.replica_read),
      append_ns_per_byte_(units::ns_per_byte_from_mbps(cfg.node_append_mbps)),
      read_ns_per_byte_(units::ns_per_byte_from_mbps(cfg.node_read_mbps)) {
  UC_ASSERT(cfg.segment_bytes > 0 &&
                cfg.segment_bytes % kLogicalPageBytes == 0,
            "segment size must be 4 KiB aligned");
  UC_ASSERT(cfg.chunk_bytes % cfg.segment_bytes == 0,
            "chunk size must be a multiple of the segment size");
  pages_per_segment_ =
      static_cast<std::uint32_t>(cfg.segment_bytes / kLogicalPageBytes);
  for (int n = 0; n < cfg.fabric.nodes; ++n) {
    node_append_.emplace_back();
    node_read_.emplace_back();
    node_caches_.emplace_back(cfg.node_cache_pages);
  }
  for (int n = 0; n < cfg.fabric.nodes; ++n) {
    node_append_[static_cast<std::size_t>(n)].configure(sim_, cfg.sched);
    node_read_[static_cast<std::size_t>(n)].configure(sim_, cfg.sched);
  }
  if (cfg.model_node_index) {
    UC_ASSERT(cfg.node_mapping.validate().is_ok(),
              "invalid node_mapping config");
    UC_ASSERT(cfg.node_index_window_pages > 0,
              "node index window must be positive");
    node_index_cursor_.assign(static_cast<std::size_t>(cfg.fabric.nodes), 0);
    for (int n = 0; n < cfg.fabric.nodes; ++n) {
      node_index_.push_back(ftl::make_mapping_policy(
          cfg.node_mapping, cfg.node_index_window_pages));
    }
  }
  cleaner_ = std::make_unique<Cleaner>(sim_, cfg.cleaner, cfg.segment_bytes,
                                       all_logs_, log_owner_, pool_, cfg.sched);
  pool_.set_release_callback([this] { pump_appends(); });
}

VolumeId StorageCluster::attach_volume(std::uint64_t volume_bytes) {
  return attach_volume_internal(volume_bytes, /*grow_pool=*/true);
}

void StorageCluster::set_volume_weight(VolumeId vol, double weight) {
  UC_ASSERT(vol < volumes_.size(), "unknown volume");
  UC_ASSERT(weight > 0.0, "weights must be positive");
  if (vol >= cfg_.sched.weights.size()) {
    cfg_.sched.weights.resize(vol + 1, cfg_.sched.default_weight);
  }
  cfg_.sched.weights[vol] = weight;
  fabric_.set_tenant_weight(vol, weight);
  for (auto& node : node_append_) node.set_tenant_weight(vol, weight);
  for (auto& node : node_read_) node.set_tenant_weight(vol, weight);
  cleaner_->set_tenant_weight(vol, weight);
}

VolumeId StorageCluster::attach_volume_internal(std::uint64_t volume_bytes,
                                                bool grow_pool) {
  UC_ASSERT(volume_bytes > 0 && volume_bytes % kLogicalPageBytes == 0,
            "volume size must be a positive 4 KiB multiple");
  const auto id = static_cast<VolumeId>(volumes_.size());
  // Every volume gets its own placement stream; volume 0 keeps the plain
  // config seed so the single-volume path is unchanged.
  const std::uint64_t map_seed =
      cfg_.seed + kVolumeSeedStride * static_cast<std::uint64_t>(id);
  auto vol = std::make_unique<Volume>(
      volume_bytes, static_cast<std::uint32_t>(all_logs_.size()),
      ChunkMap(volume_bytes,
               ChunkMapConfig{cfg_.chunk_bytes, cfg_.replication,
                              cfg_.fabric.nodes, map_seed}));
  const std::uint32_t chunks = vol->map.chunk_count();
  vol->logs.reserve(chunks);
  for (std::uint32_t c = 0; c < chunks; ++c) {
    vol->logs.emplace_back(vol->map.pages_per_chunk(), pages_per_segment_);
  }
  vol->readahead_cursor.assign(chunks, ~0ull);
  if (grow_pool) {
    pool_.grow((volume_bytes + cfg_.segment_bytes - 1) / cfg_.segment_bytes +
               chunks);
  }
  // `logs` never resizes after this point, so the registry pointers are
  // stable for the cluster's lifetime.
  for (std::uint32_t c = 0; c < chunks; ++c) {
    all_logs_.push_back(&vol->logs[c]);
    log_owner_.push_back(id);
  }
  volumes_.push_back(std::move(vol));
  return id;
}

// --------------------------------------------------------------- writes --

void StorageCluster::write(VolumeId vol, ByteOffset offset,
                           std::uint32_t bytes, WriteStamp first_stamp,
                           std::function<void()> done,
                           sched::IoClass io_class) {
  Volume& v = volume(vol);
  UC_ASSERT(v.map.offset_in_chunk(offset) + bytes <= v.map.chunk_bytes(),
            "write fragment crosses a chunk boundary");
  ++stats_.writes;
  ++v.stats.writes;
  PendingWrite op;
  op.vol = vol;
  op.chunk = v.map.chunk_of(offset);
  op.first_page = static_cast<std::uint32_t>(v.map.offset_in_chunk(offset) /
                                             kLogicalPageBytes);
  op.pages = bytes / kLogicalPageBytes;
  op.first_stamp = first_stamp;
  op.bytes = bytes;
  op.io_class = io_class;
  op.done = std::move(done);
  append_queue_.push_back(std::move(op));
  pump_appends();
}

void StorageCluster::pump_appends() {
  while (!append_queue_.empty()) {
    PendingWrite& op = append_queue_.front();
    Volume& v = volume(op.vol);
    ChunkLog& log = v.logs[op.chunk];
    const std::uint32_t run_start = op.cursor;
    while (op.cursor < op.pages) {
      if (!log.append_page(op.first_page + op.cursor,
                           op.first_stamp + op.cursor, pool_)) {
        // Pool dry: the cluster stalls until the cleaner frees segments.
        // This emergent throttling *is* the provider's flow limiting — and
        // on a shared cluster it is felt by every tenant at once.  The
        // stalled page leaves the caches now, so reads during the stall
        // miss; it is dropped again once its append lands.
        invalidate_cached(v, op.chunk, op.first_page + run_start,
                          op.cursor - run_start + 1);
        if (!stalled_) {
          stalled_ = true;
          stall_since_ = sim_.now();
          ++stats_.stalled_writes;
          ++v.stats.stalled_writes;
        }
        cleaner_->notify();
        return;
      }
      if (!node_index_.empty()) {
        // Every replica node records the accepted page in its own flash
        // index (after the append, so a pool stall cannot double-count).
        for (const int node : v.map.replicas(op.chunk)) {
          node_index_note_write(
              node, node_index_key(v, op.chunk, op.first_page + op.cursor));
        }
      }
      ++op.cursor;
    }
    // Writes invalidate any cached older version of the run's pages.
    invalidate_cached(v, op.chunk, op.first_page + run_start,
                      op.pages - run_start);
    if (stalled_) {
      stalled_ = false;
      const SimTime stalled_for = sim_.now() - stall_since_;
      stats_.append_stall_ns += stalled_for;
      v.stats.append_stall_ns += stalled_for;
    }
    stats_.written_pages += op.pages;
    v.stats.written_pages += op.pages;
    issue_write_io(op);
    append_queue_.pop_front();
  }
  cleaner_->notify();
}

void StorageCluster::invalidate_cached(const Volume& v, ChunkId chunk,
                                       std::uint32_t first_page,
                                       std::uint32_t pages) {
  for (const int node : v.map.replicas(chunk)) {
    auto& cache = node_caches_[static_cast<std::size_t>(node)];
    for (std::uint32_t i = 0; i < pages && cache.size() > 0; ++i) {
      cache.invalidate(cache_key(v, chunk, first_page + i));
    }
  }
}

void StorageCluster::issue_write_io(PendingWrite& op) {
  // Fan the payload out to every replica; the op completes on the slowest
  // journal commit plus the ack hop back to the block server.  Every stage
  // is a sched-tagged reservation: FIFO takes the synchronous horizon path
  // below (bit-identical to the pre-sched arithmetic); under WFQ/priority
  // each pipe dispatches by policy at its own pace via continuations.
  const Volume& v = volume(op.vol);
  const auto& replicas = v.map.replicas(op.chunk);
  if (cfg_.sched.policy == sched::Policy::kFifo) {
    // Allocation-free fast path: FIFO grants are synchronous, so the
    // original horizon arithmetic applies verbatim (tagged, so per-class
    // and per-tenant accounting still accrues).
    const sched::SchedTag tag{op.vol, op.io_class, op.bytes};
    SimTime slowest = 0;
    for (const int node : replicas) {
      SimTime t = fabric_.to_node(sim_.now(), node, op.bytes, tag);
      const auto svc = static_cast<SimTime>(
          cfg_.node_append_op_us * 1e3 +
          append_ns_per_byte_ * static_cast<double>(op.bytes));
      t = node_append_[static_cast<std::size_t>(node)].acquire(t, svc, tag);
      t += replica_write_.sample(rng_, op.bytes);
      slowest = std::max(slowest, t);
    }
    slowest += fabric_.hop_latency();
    sim_.schedule_at(slowest, std::move(op.done));
    return;
  }
  struct Join {
    int remaining = 0;
    SimTime slowest = 0;
    std::function<void()> done;
  };
  auto join = std::make_shared<Join>();
  join->remaining = static_cast<int>(replicas.size());
  join->done = std::move(op.done);
  const sched::SchedTag tag{op.vol, op.io_class, op.bytes};
  const std::uint32_t bytes = op.bytes;
  for (const int node : replicas) {
    fabric_.to_node(
        sim_.now(), node, bytes, tag,
        [this, join, tag, bytes, node](SimTime delivered) {
          const auto svc = static_cast<SimTime>(
              cfg_.node_append_op_us * 1e3 +
              append_ns_per_byte_ * static_cast<double>(bytes));
          node_append_[static_cast<std::size_t>(node)].submit(
              delivered, tag, svc, [this, join, bytes](SimTime appended) {
                const SimTime committed =
                    appended + replica_write_.sample(rng_, bytes);
                if (committed > join->slowest) join->slowest = committed;
                if (--join->remaining == 0) {
                  const SimTime acked = join->slowest + fabric_.hop_latency();
                  sim_.schedule_at(acked, std::move(join->done));
                }
              });
        });
  }
}

// ---------------------------------------------------------------- reads --

void StorageCluster::read(VolumeId vol, ByteOffset offset, std::uint32_t bytes,
                          std::function<void()> done,
                          sched::IoClass io_class) {
  Volume& v = volume(vol);
  UC_ASSERT(v.map.offset_in_chunk(offset) + bytes <= v.map.chunk_bytes(),
            "read fragment crosses a chunk boundary");
  ++stats_.reads;
  ++v.stats.reads;
  const ChunkId chunk = v.map.chunk_of(offset);
  const auto first_page = static_cast<std::uint32_t>(
      v.map.offset_in_chunk(offset) / kLogicalPageBytes);
  const std::uint32_t pages = bytes / kLogicalPageBytes;
  stats_.read_pages += pages;
  v.stats.read_pages += pages;

  // Reads route to the chunk's primary replica: caches and read-ahead
  // state live where the reads go, and load still spreads because chunk
  // primaries are distributed across the cluster.
  const int node = v.map.replicas(chunk)[0];
  const sched::SchedTag tag{vol, io_class, bytes};

  if (cfg_.sched.policy == sched::Policy::kFifo) {
    // Allocation-free fast path: FIFO grants are synchronous, so the
    // original straight-line arithmetic applies verbatim.  KEEP IN SYNC
    // with the queued-policy continuation below — the two must model the
    // same service chain (the digests only pin this copy).
    auto& cache = node_caches_[static_cast<std::size_t>(node)];
    ChunkLog& log = v.logs[chunk];

    const SimTime t_req = fabric_.to_node(sim_.now(), node, 256, tag);

    std::uint32_t miss_pages = 0;
    std::uint32_t index_faults = 0;
    SimTime ready = t_req;
    for (std::uint32_t i = 0; i < pages; ++i) {
      const std::uint32_t page = first_page + i;
      if (!log.is_written(page)) {
        ++stats_.unwritten_read_pages;  // served as zeros from metadata
        ++v.stats.unwritten_read_pages;
        continue;
      }
      if (auto r = cache.lookup(cache_key(v, chunk, page)); r.has_value()) {
        ++stats_.cache_hit_pages;
        ++v.stats.cache_hit_pages;
        ready = std::max(ready, *r);
        continue;
      }
      ++miss_pages;
      // Only media-bound pages consult the node's flash index; cache hits
      // are served from DRAM without a translation.
      index_faults += node_index_translate(node, v, chunk, page);
    }

    if (miss_pages == 0 && pages > 0) {
      // Cache-served reads still occupy the node's read pipeline briefly.
      ready = std::max(
          ready, node_read_[static_cast<std::size_t>(node)].acquire(
                     t_req, static_cast<SimTime>(cfg_.node_read_op_us * 1e3),
                     tag));
    }
    if (miss_pages > 0) {
      stats_.media_read_pages += miss_pages;
      v.stats.media_read_pages += miss_pages;
      const std::uint64_t miss_bytes =
          static_cast<std::uint64_t>(miss_pages) * kLogicalPageBytes;
      const auto svc = static_cast<SimTime>(
                           cfg_.node_read_op_us * 1e3 +
                           read_ns_per_byte_ * static_cast<double>(miss_bytes)) +
                       node_index_penalty_ns(node, index_faults);
      SimTime t =
          node_read_[static_cast<std::size_t>(node)].acquire(t_req, svc, tag);
      t += replica_read_.sample(rng_, miss_bytes);
      ready = std::max(ready, t);
      for (std::uint32_t i = 0; i < pages; ++i) {
        const std::uint32_t page = first_page + i;
        if (log.is_written(page)) cache.insert(cache_key(v, chunk, page), t);
      }
    }

    // Node-side sequential read-ahead (provider-dependent; Alibaba-style
    // profiles enable it, which is why their sequential reads outrun their
    // random reads in Figure 2c).
    if (cfg_.readahead && v.readahead_cursor[chunk] == first_page) {
      const std::uint32_t ra_first = first_page + pages;
      std::uint32_t ra_pages = 0;
      for (std::uint32_t i = 0; i < cfg_.readahead_pages; ++i) {
        const std::uint32_t page = ra_first + i;
        if (page >= v.map.pages_per_chunk()) break;
        if (!log.is_written(page)) break;
        if (cache.contains(cache_key(v, chunk, page))) continue;
        ++ra_pages;
      }
      if (ra_pages > 0) {
        ++stats_.readahead_fetches;
        ++v.stats.readahead_fetches;
        const std::uint64_t ra_bytes =
            static_cast<std::uint64_t>(ra_pages) * kLogicalPageBytes;
        const auto svc = static_cast<SimTime>(
            cfg_.node_read_op_us * 1e3 +
            read_ns_per_byte_ * static_cast<double>(ra_bytes));
        const sched::SchedTag ra_tag{vol, sched::IoClass::kPrefetch, ra_bytes};
        const SimTime t_ra =
            node_read_[static_cast<std::size_t>(node)].acquire(ready, svc,
                                                               ra_tag) +
            replica_read_.sample(rng_, ra_bytes);
        for (std::uint32_t i = 0; i < cfg_.readahead_pages; ++i) {
          const std::uint32_t page = ra_first + i;
          if (page >= v.map.pages_per_chunk()) break;
          if (!log.is_written(page)) break;
          cache.insert(cache_key(v, chunk, page), t_ra);
        }
      }
    }
    v.readahead_cursor[chunk] = first_page + pages;

    const SimTime t_back = fabric_.to_vm(ready, node, bytes, tag);
    sim_.schedule_at(t_back, std::move(done));
    return;
  }

  // Sequentiality detection is submit-order state: decide (and advance the
  // cursor) now, even if the request itself gets scheduled behind others.
  const bool ra_eligible =
      cfg_.readahead && v.readahead_cursor[chunk] == first_page;
  v.readahead_cursor[chunk] = first_page + pages;

  // Queued-policy path: the request message reaches the node first and the
  // service chain runs as a continuation once it is delivered.  KEEP IN
  // SYNC with the FIFO fast path above.
  fabric_.to_node(
      sim_.now(), node, 256, tag,
      [this, &v, vol, chunk, first_page, pages, bytes, node, ra_eligible, tag,
       done = std::move(done)](SimTime t_req) mutable {
        auto& cache = node_caches_[static_cast<std::size_t>(node)];
        ChunkLog& log = v.logs[chunk];

        std::uint32_t miss_pages = 0;
        std::uint32_t index_faults = 0;
        SimTime ready = t_req;
        for (std::uint32_t i = 0; i < pages; ++i) {
          const std::uint32_t page = first_page + i;
          if (!log.is_written(page)) {
            ++stats_.unwritten_read_pages;  // served as zeros from metadata
            ++v.stats.unwritten_read_pages;
            continue;
          }
          if (auto r = cache.lookup(cache_key(v, chunk, page)); r.has_value()) {
            ++stats_.cache_hit_pages;
            ++v.stats.cache_hit_pages;
            ready = std::max(ready, *r);
            continue;
          }
          ++miss_pages;
          // Only media-bound pages consult the node's flash index; cache
          // hits are served from DRAM without a translation.
          index_faults += node_index_translate(node, v, chunk, page);
        }

        // Runs once the media read (if any) has been placed: issues the
        // read-ahead and sends the payload back to the VM.
        auto respond = [this, &v, vol, chunk, first_page, pages, bytes, node,
                        ra_eligible, tag,
                        done = std::move(done)](SimTime ready_at) mutable {
          auto& node_cache = node_caches_[static_cast<std::size_t>(node)];
          ChunkLog& chunk_log = v.logs[chunk];
          // Node-side sequential read-ahead (provider-dependent;
          // Alibaba-style profiles enable it, which is why their sequential
          // reads outrun their random reads in Figure 2c).  Prefetch is its
          // own traffic class, so a priority policy demotes it.
          if (ra_eligible) {
            const std::uint32_t ra_first = first_page + pages;
            std::uint32_t ra_pages = 0;
            for (std::uint32_t i = 0; i < cfg_.readahead_pages; ++i) {
              const std::uint32_t page = ra_first + i;
              if (page >= v.map.pages_per_chunk()) break;
              if (!chunk_log.is_written(page)) break;
              if (node_cache.contains(cache_key(v, chunk, page))) continue;
              ++ra_pages;
            }
            if (ra_pages > 0) {
              ++stats_.readahead_fetches;
              ++v.stats.readahead_fetches;
              const std::uint64_t ra_bytes =
                  static_cast<std::uint64_t>(ra_pages) * kLogicalPageBytes;
              const auto svc = static_cast<SimTime>(
                  cfg_.node_read_op_us * 1e3 +
                  read_ns_per_byte_ * static_cast<double>(ra_bytes));
              const sched::SchedTag ra_tag{vol, sched::IoClass::kPrefetch,
                                           ra_bytes};
              node_read_[static_cast<std::size_t>(node)].submit(
                  ready_at, ra_tag, svc,
                  [this, &v, chunk, ra_first, ra_bytes, node](SimTime fetched) {
                    const SimTime t_ra =
                        fetched + replica_read_.sample(rng_, ra_bytes);
                    auto& c = node_caches_[static_cast<std::size_t>(node)];
                    ChunkLog& l = v.logs[chunk];
                    for (std::uint32_t i = 0; i < cfg_.readahead_pages; ++i) {
                      const std::uint32_t page = ra_first + i;
                      if (page >= v.map.pages_per_chunk()) break;
                      if (!l.is_written(page)) break;
                      c.insert(cache_key(v, chunk, page), t_ra);
                    }
                  });
            }
          }
          fabric_.to_vm(ready_at, node, bytes, tag,
                        [this, done = std::move(done)](SimTime t_back) mutable {
                          sim_.schedule_at(t_back, std::move(done));
                        });
        };

        if (miss_pages == 0 && pages > 0) {
          // Cache-served reads still occupy the node's read pipeline briefly.
          node_read_[static_cast<std::size_t>(node)].submit(
              t_req, tag, static_cast<SimTime>(cfg_.node_read_op_us * 1e3),
              [ready, respond = std::move(respond)](SimTime piped) mutable {
                respond(std::max(ready, piped));
              });
          return;
        }
        if (miss_pages > 0) {
          stats_.media_read_pages += miss_pages;
          v.stats.media_read_pages += miss_pages;
          const std::uint64_t miss_bytes =
              static_cast<std::uint64_t>(miss_pages) * kLogicalPageBytes;
          const auto svc =
              static_cast<SimTime>(
                  cfg_.node_read_op_us * 1e3 +
                  read_ns_per_byte_ * static_cast<double>(miss_bytes)) +
              node_index_penalty_ns(node, index_faults);
          node_read_[static_cast<std::size_t>(node)].submit(
              t_req, tag, svc,
              [this, &v, chunk, first_page, pages, miss_bytes, node, ready,
               respond = std::move(respond)](SimTime piped) mutable {
                const SimTime t = piped + replica_read_.sample(rng_, miss_bytes);
                auto& c = node_caches_[static_cast<std::size_t>(node)];
                ChunkLog& l = v.logs[chunk];
                for (std::uint32_t i = 0; i < pages; ++i) {
                  const std::uint32_t page = first_page + i;
                  if (l.is_written(page)) c.insert(cache_key(v, chunk, page), t);
                }
                respond(std::max(ready, t));
              });
          return;
        }
        respond(ready);
      });
}

// ----------------------------------------------------------------- misc --

void StorageCluster::trim(VolumeId vol, ByteOffset offset,
                          std::uint32_t bytes) {
  Volume& v = volume(vol);
  UC_ASSERT(v.map.offset_in_chunk(offset) + bytes <= v.map.chunk_bytes(),
            "trim fragment crosses a chunk boundary");
  const ChunkId chunk = v.map.chunk_of(offset);
  const auto first_page = static_cast<std::uint32_t>(
      v.map.offset_in_chunk(offset) / kLogicalPageBytes);
  const std::uint32_t pages = bytes / kLogicalPageBytes;
  ++stats_.trims;
  ++v.stats.trims;
  for (std::uint32_t i = 0; i < pages; ++i) {
    ChunkLog& log = v.logs[chunk];
    // Only pages that were actually written turn into garbage; counting
    // no-op trims used to make trimmed_pages impossible to reconcile with
    // the live/garbage deltas.
    if (log.is_written(first_page + i)) {
      ++stats_.trimmed_pages;
      ++v.stats.trimmed_pages;
    }
    log.trim_page(first_page + i);
    for (const int node : v.map.replicas(chunk)) {
      node_index_note_trim(node, node_index_key(v, chunk, first_page + i));
    }
  }
  invalidate_cached(v, chunk, first_page, pages);
  cleaner_->notify();
}

// ----------------------------------------------------- node flash index --

void StorageCluster::node_index_note_write(int node, std::uint64_t key) {
  if (node_index_.empty()) return;
  auto& cursor = node_index_cursor_[static_cast<std::size_t>(node)];
  node_index_[static_cast<std::size_t>(node)]->update(key, cursor++,
                                                      ++node_index_stamp_);
}

void StorageCluster::node_index_note_trim(int node, std::uint64_t key) {
  if (node_index_.empty()) return;
  node_index_[static_cast<std::size_t>(node)]->invalidate(key,
                                                          ++node_index_stamp_);
}

std::uint32_t StorageCluster::node_index_translate(int node, const Volume& v,
                                                   ChunkId chunk,
                                                   std::uint32_t page) {
  if (node_index_.empty()) return 0;
  return node_index_[static_cast<std::size_t>(node)]
      ->translate(node_index_key(v, chunk, page))
      .flash_reads;
}

SimTime StorageCluster::node_index_penalty_ns(int node, std::uint32_t faults) {
  if (faults == 0) return 0;
  const auto ns = static_cast<SimTime>(
      static_cast<double>(faults) * cfg_.node_mapping.miss_penalty_us * 1e3);
  node_index_[static_cast<std::size_t>(node)]->add_miss_penalty_ns(ns);
  return ns;
}

ftl::MappingStats StorageCluster::node_index_stats() const {
  ftl::MappingStats agg;
  for (const auto& m : node_index_) {
    const auto& s = m->stats();
    agg.lookups += s.lookups;
    agg.cache_hits += s.cache_hits;
    agg.cache_misses += s.cache_misses;
    agg.table_bytes += s.table_bytes;
    agg.miss_penalty_ns_total += s.miss_penalty_ns_total;
    agg.evict_writebacks += s.evict_writebacks;
    agg.group_rmw_pages += s.group_rmw_pages;
    agg.learned_hits += s.learned_hits;
    agg.learned_segments += s.learned_segments;
    agg.fallback_entries += s.fallback_entries;
  }
  return agg;
}

bool StorageCluster::is_written(VolumeId vol, ByteOffset offset) const {
  const Volume& v = volume(vol);
  const ChunkId chunk = v.map.chunk_of(offset);
  return v.logs[chunk].is_written(static_cast<std::uint32_t>(
      v.map.offset_in_chunk(offset) / kLogicalPageBytes));
}

WriteStamp StorageCluster::page_stamp(VolumeId vol, ByteOffset offset) const {
  const Volume& v = volume(vol);
  const ChunkId chunk = v.map.chunk_of(offset);
  return v.logs[chunk].page_stamp(static_cast<std::uint32_t>(
      v.map.offset_in_chunk(offset) / kLogicalPageBytes));
}

ClusterStats subtract(const ClusterStats& a, const ClusterStats& b) {
  ClusterStats d;
  d.writes = a.writes - b.writes;
  d.written_pages = a.written_pages - b.written_pages;
  d.reads = a.reads - b.reads;
  d.read_pages = a.read_pages - b.read_pages;
  d.cache_hit_pages = a.cache_hit_pages - b.cache_hit_pages;
  d.media_read_pages = a.media_read_pages - b.media_read_pages;
  d.unwritten_read_pages = a.unwritten_read_pages - b.unwritten_read_pages;
  d.readahead_fetches = a.readahead_fetches - b.readahead_fetches;
  d.trims = a.trims - b.trims;
  d.trimmed_pages = a.trimmed_pages - b.trimmed_pages;
  d.stalled_writes = a.stalled_writes - b.stalled_writes;
  d.append_stall_ns = a.append_stall_ns - b.append_stall_ns;
  return d;
}

ClusterBusyStats subtract(const ClusterBusyStats& a,
                          const ClusterBusyStats& b) {
  ClusterBusyStats d;
  d.busy_ns = a.busy_ns - b.busy_ns;
  for (int c = 0; c < sched::kIoClassCount; ++c) {
    d.class_busy_ns[static_cast<std::size_t>(c)] =
        a.class_busy_ns[static_cast<std::size_t>(c)] -
        b.class_busy_ns[static_cast<std::size_t>(c)];
  }
  d.stall_ns = a.stall_ns - b.stall_ns;
  return d;
}

ClusterBusyStats StorageCluster::busy_stats() const {
  ClusterBusyStats s;
  const auto add = [&s](const sched::QueuedResource& q) {
    s.busy_ns += q.busy_time();
    for (int c = 0; c < sched::kIoClassCount; ++c) {
      s.class_busy_ns[static_cast<std::size_t>(c)] +=
          q.class_busy_time(static_cast<sched::IoClass>(c));
    }
  };
  for (const auto& r : node_append_) add(r.sched());
  for (const auto& r : node_read_) add(r.sched());
  add(cleaner_->pipe());
  s.busy_ns += fabric_.total_busy_ns();
  for (int c = 0; c < sched::kIoClassCount; ++c) {
    s.class_busy_ns[static_cast<std::size_t>(c)] +=
        fabric_.class_busy_ns(static_cast<sched::IoClass>(c));
  }
  s.stall_ns = stats_.append_stall_ns;
  return s;
}

std::uint64_t StorageCluster::attached_bytes() const {
  std::uint64_t total = 0;
  for (const auto& v : volumes_) total += v->bytes;
  return total;
}

std::uint64_t StorageCluster::live_pages(VolumeId vol) const {
  std::uint64_t total = 0;
  for (const auto& log : volume(vol).logs) total += log.live_pages();
  return total;
}

std::uint64_t StorageCluster::garbage_pages(VolumeId vol) const {
  std::uint64_t total = 0;
  for (const auto& log : volume(vol).logs) total += log.garbage_pages();
  return total;
}

std::uint64_t StorageCluster::live_pages() const {
  std::uint64_t total = 0;
  for (const ChunkLog* log : all_logs_) total += log->live_pages();
  return total;
}

std::uint64_t StorageCluster::garbage_pages() const {
  std::uint64_t total = 0;
  for (const ChunkLog* log : all_logs_) total += log->garbage_pages();
  return total;
}

bool StorageCluster::check_invariants() const {
  std::uint64_t allocated_groups = 0;
  for (const ChunkLog* log : all_logs_) {
    log->check_invariants();
    allocated_groups += log->allocated_segments();
  }
  UC_ASSERT(allocated_groups == pool_.total_groups() - pool_.free_groups(),
            "chunk-log segment ownership diverged from the pool totals");
  // The per-volume slices must add up to the cluster totals.
  ClusterStats sum;
  for (const auto& v : volumes_) {
    sum.writes += v->stats.writes;
    sum.written_pages += v->stats.written_pages;
    sum.reads += v->stats.reads;
    sum.read_pages += v->stats.read_pages;
    sum.trims += v->stats.trims;
    sum.trimmed_pages += v->stats.trimmed_pages;
    sum.stalled_writes += v->stats.stalled_writes;
  }
  UC_ASSERT(sum.writes == stats_.writes && sum.reads == stats_.reads &&
                sum.written_pages == stats_.written_pages &&
                sum.read_pages == stats_.read_pages &&
                sum.trims == stats_.trims &&
                sum.trimmed_pages == stats_.trimmed_pages &&
                sum.stalled_writes == stats_.stalled_writes,
            "per-volume stats slices diverged from the cluster totals");
  return true;
}

}  // namespace uc::ebs
