#include "ebs/cluster.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/units.h"

namespace uc::ebs {

Status ClusterConfig::validate() const {
  if (fabric.nodes < 1) {
    return Status::invalid_argument("a cluster needs at least one node");
  }
  if (replication < 1 || replication > fabric.nodes) {
    return Status::invalid_argument("replication must fit the node count");
  }
  if (segment_bytes == 0 || segment_bytes % kLogicalPageBytes != 0) {
    return Status::invalid_argument("segment size must be a 4 KiB multiple");
  }
  if (chunk_bytes == 0 || chunk_bytes % segment_bytes != 0) {
    return Status::invalid_argument(
        "chunk size must be a positive multiple of the segment size");
  }
  if (node_cache_pages == 0) {
    return Status::invalid_argument("node caches need at least one page");
  }
  if (const Status s = cleaner.validate(); !s.is_ok()) return s;
  return sched.validate();
}

// A cluster starts with the provider's spare capacity plus the cleaner
// reserve; every attach_volume() grows the pool by the volume's live +
// open-segment share.  This runs before the constructor body, so it checks
// the geometry it divides by.
std::uint64_t StorageCluster::shared_pool_groups(const ClusterConfig& cfg) {
  UC_ASSERT(cfg.validate().is_ok(), "invalid cluster configuration");
  return cfg.spare_pool_bytes / cfg.segment_bytes + cfg.cleaner_reserve_groups;
}

net::FabricConfig StorageCluster::fabric_config(const ClusterConfig& cfg) {
  net::FabricConfig fc = cfg.fabric;
  fc.sched = cfg.sched;
  return fc;
}

StorageCluster::StorageCluster(sim::Simulator& sim, const ClusterConfig& cfg,
                               std::uint64_t volume_bytes)
    : StorageCluster(sim, cfg) {
  attach_volume(volume_bytes);
}

StorageCluster::StorageCluster(sim::Simulator& sim, const ClusterConfig& cfg)
    : sim_(sim),
      cfg_(cfg),
      rng_(cfg.seed),
      fabric_(fabric_config(cfg), Rng(cfg.seed ^ 0xfab71cull), &sim),
      pool_(shared_pool_groups(cfg), cfg.cleaner_reserve_groups),
      replica_write_(cfg.replica_write),
      replica_read_(cfg.replica_read),
      append_ns_per_byte_(units::ns_per_byte_from_mbps(cfg.node_append_mbps)),
      read_ns_per_byte_(units::ns_per_byte_from_mbps(cfg.node_read_mbps)) {
  pages_per_segment_ =
      static_cast<std::uint32_t>(cfg.segment_bytes / kLogicalPageBytes);
  resident_words_per_chunk_ = static_cast<std::uint32_t>(
      (cfg.chunk_bytes / kLogicalPageBytes + 63) / 64);
  for (int n = 0; n < cfg.fabric.nodes; ++n) {
    node_append_.emplace_back();
    node_read_.emplace_back();
    node_caches_.emplace_back(cfg.node_cache_pages);
  }
  for (int n = 0; n < cfg.fabric.nodes; ++n) {
    node_append_[static_cast<std::size_t>(n)].configure(sim_, cfg.sched);
    node_read_[static_cast<std::size_t>(n)].configure(sim_, cfg.sched);
  }
  cleaner_ = std::make_unique<Cleaner>(sim_, cfg.cleaner, cfg.segment_bytes,
                                       all_logs_, log_owner_, pool_, cfg.sched);
  pool_.set_release_callback([this] { pump_appends(); });
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

VolumeId StorageCluster::attach_volume(std::uint64_t volume_bytes) {
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
  // Reserved exactly: the bitmap is the cluster's largest per-page array.
  const std::size_t resident_words =
      resident_.size() +
      static_cast<std::size_t>(chunks) * resident_words_per_chunk_;
  resident_.reserve(resident_words);
  resident_.resize(resident_words, 0);
  pool_.grow((volume_bytes + cfg_.segment_bytes - 1) / cfg_.segment_bytes +
             chunks);
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
    op.cursor += log.append_run(op.first_page + op.cursor,
                                op.pages - op.cursor,
                                op.first_stamp + op.cursor, pool_);
    if (op.cursor < op.pages) {
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
        ++v.stats.stalled_writes;
      }
      cleaner_->notify();
      return;
    }
    // Writes invalidate any cached older version of the run's pages.
    invalidate_cached(v, op.chunk, op.first_page + run_start,
                      op.pages - run_start);
    if (stalled_) {
      stalled_ = false;
      v.stats.append_stall_ns += sim_.now() - stall_since_;
    }
    v.stats.written_pages += op.pages;
    issue_write_io(op);
    append_queue_.pop_front();
  }
  cleaner_->notify();
}

void StorageCluster::invalidate_cached(const Volume& v, ChunkId chunk,
                                       std::uint32_t first_page,
                                       std::uint32_t pages) {
  // Invariant: a chunk's pages are only ever cached on its primary replica.
  // Reads and read-ahead insert into `replicas(chunk)[0]`'s cache alone, a
  // chunk's replica list never changes, and volumes are never detached, so
  // probing the other replicas' caches could never remove anything.
  // The resident bitmap names the cached pages, so the probes go a word
  // at a time over the set bits alone.
  const int primary = v.map.replicas(chunk)[0];
  auto& cache = node_caches_[static_cast<std::size_t>(primary)];
  const std::uint32_t end = first_page + pages;
  for (std::uint32_t page = first_page; page < end;) {
    const std::uint32_t shift = page % 64;
    const std::uint32_t k = std::min(end - page, 64 - shift);
    const std::uint64_t mask = (~std::uint64_t{0} >> (64 - k)) << shift;
    std::uint64_t& word = resident_[resident_at(v.chunk_base + chunk, page)];
    for (std::uint64_t hits = word & mask; hits != 0; hits &= hits - 1) {
      const auto bit = static_cast<std::uint32_t>(std::countr_zero(hits));
      cache.invalidate(cache_key(v, chunk, page - shift + bit));
    }
    word &= ~mask;
    page += k;
  }
}

void StorageCluster::cache_page(int node, const Volume& v, ChunkId chunk,
                                std::uint32_t page, SimTime ready) {
  auto& cache = node_caches_[static_cast<std::size_t>(node)];
  std::uint64_t& word = resident_[resident_at(v.chunk_base + chunk, page)];
  const std::uint64_t bit = std::uint64_t{1} << (page % 64);
  const std::uint64_t key = cache_key(v, chunk, page);
  if ((word & bit) != 0) {
    cache.insert(key, ready);  // cached already: never evicts
    return;
  }
  if (const auto evicted = cache.insert_absent(key, ready)) {
    const auto evicted_page = static_cast<std::uint32_t>(*evicted);
    resident_[resident_at(static_cast<std::uint32_t>(*evicted >> 32),
                          evicted_page)] &=
        ~(std::uint64_t{1} << (evicted_page % 64));
  }
  word |= bit;
}

void StorageCluster::issue_write_io(PendingWrite& op) {
  // Fan the payload out to every replica; the op completes on the slowest
  // journal commit plus the ack hop back to the block server.  Every stage
  // is a sched-tagged reservation whose grant runs the next stage.
  const auto& replicas = volume(op.vol).map.replicas(op.chunk);
  const sched::SchedTag tag{op.vol, op.io_class, op.bytes};
  const std::uint32_t slot = writes_.claim();
  writes_[slot] = WriteIo{tag, static_cast<int>(replicas.size()), 0,
                          std::move(op.done)};
  for (const int node : replicas) {
    fabric_.to_node(sim_.now(), node, op.bytes, tag,
                    [this, slot, node](SimTime delivered) {
                      append_replica(slot, node, delivered);
                    });
  }
}

void StorageCluster::append_replica(std::uint32_t slot, int node,
                                    SimTime delivered) {
  const sched::SchedTag tag = writes_[slot].tag;
  const auto svc = static_cast<SimTime>(
      cfg_.node_append_op_us * 1e3 +
      append_ns_per_byte_ * static_cast<double>(tag.bytes));
  node_append_[static_cast<std::size_t>(node)].submit(
      delivered, tag, svc,
      [this, slot](SimTime appended) { commit_replica(slot, appended); });
}

void StorageCluster::commit_replica(std::uint32_t slot, SimTime appended) {
  WriteIo& w = writes_[slot];
  const SimTime committed = appended + replica_write_.sample(rng_, w.tag.bytes);
  if (committed > w.slowest) w.slowest = committed;
  if (--w.remaining > 0) return;
  const SimTime acked = w.slowest + fabric_.hop_latency();
  std::function<void()> done = std::move(w.done);
  writes_.release(slot);
  sim_.schedule_at(acked, std::move(done));
}

// ---------------------------------------------------------------- reads --

void StorageCluster::read(VolumeId vol, ByteOffset offset, std::uint32_t bytes,
                          std::function<void()> done,
                          sched::IoClass io_class) {
  Volume& v = volume(vol);
  UC_ASSERT(v.map.offset_in_chunk(offset) + bytes <= v.map.chunk_bytes(),
            "read fragment crosses a chunk boundary");
  ++v.stats.reads;
  const ChunkId chunk = v.map.chunk_of(offset);
  const auto first_page = static_cast<std::uint32_t>(
      v.map.offset_in_chunk(offset) / kLogicalPageBytes);
  const std::uint32_t pages = bytes / kLogicalPageBytes;
  v.stats.read_pages += pages;

  // Reads route to the chunk's primary replica: caches and read-ahead
  // state live where the reads go, and load still spreads because chunk
  // primaries are distributed across the cluster.
  const int node = v.map.replicas(chunk)[0];
  const sched::SchedTag tag{vol, io_class, bytes};

  // Sequentiality detection is submit-order state: decide (and advance the
  // cursor) now, even if the request itself gets scheduled behind others.
  const bool ra_eligible =
      cfg_.readahead && v.readahead_cursor[chunk] == first_page;
  v.readahead_cursor[chunk] = first_page + pages;

  // The request message reaches the node first; the service chain runs as
  // grant continuations from there.
  const std::uint32_t slot = reads_.claim();
  reads_[slot] = ReadIo{.vol = vol,
                        .chunk = chunk,
                        .first_page = first_page,
                        .pages = pages,
                        .node = node,
                        .ra_eligible = ra_eligible,
                        .tag = tag,
                        .holds = 1,
                        .done = std::move(done)};
  fabric_.to_node(sim_.now(), node, 256, tag,
                  [this, slot](SimTime t_req) { serve_read(slot, t_req); });
}

void StorageCluster::serve_read(std::uint32_t slot, SimTime t_req) {
  ReadIo& r = reads_[slot];
  Volume& v = volume(r.vol);
  auto& cache = node_caches_[static_cast<std::size_t>(r.node)];
  const ChunkLog& log = v.logs[r.chunk];

  std::uint32_t miss_pages = 0;
  r.ready = t_req;
  for (std::uint32_t i = 0; i < r.pages; ++i) {
    const std::uint32_t page = r.first_page + i;
    if (!log.is_written(page)) {
      ++v.stats.unwritten_read_pages;  // served as zeros from metadata
      continue;
    }
    if (!resident(v, r.chunk, page)) {
      ++miss_pages;
      continue;
    }
    const auto hit = cache.lookup(cache_key(v, r.chunk, page));
    UC_DCHECK(hit.has_value(), "resident page missing from its cache");
    ++v.stats.cache_hit_pages;
    r.ready = std::max(r.ready, *hit);
  }
  if (r.pages == 0) {
    respond(slot, r.ready);
    return;
  }

  // Cache-served reads still occupy the node's read pipeline briefly;
  // misses pay the media transfer on top.
  v.stats.media_read_pages += miss_pages;
  r.miss_bytes = static_cast<std::uint64_t>(miss_pages) * kLogicalPageBytes;
  const auto svc = static_cast<SimTime>(
      cfg_.node_read_op_us * 1e3 +
      read_ns_per_byte_ * static_cast<double>(r.miss_bytes));
  const sched::SchedTag tag = r.tag;
  node_read_[static_cast<std::size_t>(r.node)].submit(
      t_req, tag, svc,
      [this, slot](SimTime piped) { read_media(slot, piped); });
}

void StorageCluster::read_media(std::uint32_t slot, SimTime piped) {
  ReadIo& r = reads_[slot];
  SimTime t = piped;
  if (r.miss_bytes > 0) {
    t += replica_read_.sample(rng_, r.miss_bytes);
    const Volume& v = volume(r.vol);
    const ChunkLog& log = v.logs[r.chunk];
    for (std::uint32_t i = 0; i < r.pages; ++i) {
      const std::uint32_t page = r.first_page + i;
      if (log.is_written(page)) cache_page(r.node, v, r.chunk, page, t);
    }
  }
  respond(slot, std::max(r.ready, t));
}

void StorageCluster::respond(std::uint32_t slot, SimTime ready) {
  ReadIo& r = reads_[slot];
  // Node-side sequential read-ahead (provider-dependent; Alibaba-style
  // profiles enable it, which is why their sequential reads outrun their
  // random reads in Figure 2c).  Prefetch is its own traffic class, so a
  // priority policy demotes it.
  if (r.ra_eligible) {
    Volume& v = volume(r.vol);
    const ChunkLog& log = v.logs[r.chunk];
    const std::uint32_t ra_first = r.first_page + r.pages;
    std::uint32_t ra_pages = 0;
    for (std::uint32_t i = 0; i < cfg_.readahead_pages; ++i) {
      const std::uint32_t page = ra_first + i;
      if (page >= v.map.pages_per_chunk()) break;
      if (!log.is_written(page)) break;
      if (resident(v, r.chunk, page)) continue;
      ++ra_pages;
    }
    if (ra_pages > 0) {
      ++v.stats.readahead_fetches;
      r.ra_bytes = static_cast<std::uint64_t>(ra_pages) * kLogicalPageBytes;
      const auto svc = static_cast<SimTime>(
          cfg_.node_read_op_us * 1e3 +
          read_ns_per_byte_ * static_cast<double>(r.ra_bytes));
      const sched::SchedTag ra_tag{r.vol, sched::IoClass::kPrefetch,
                                   r.ra_bytes};
      ++r.holds;
      node_read_[static_cast<std::size_t>(r.node)].submit(
          ready, ra_tag, svc,
          [this, slot](SimTime fetched) { fill_readahead(slot, fetched); });
    }
  }
  const sched::SchedTag tag = reads_[slot].tag;
  fabric_.to_vm(ready, reads_[slot].node, tag.bytes, tag,
                [this, slot](SimTime t_back) {
                  std::function<void()> done = std::move(reads_[slot].done);
                  release_read(slot);
                  sim_.schedule_at(t_back, std::move(done));
                });
}

void StorageCluster::fill_readahead(std::uint32_t slot, SimTime fetched) {
  const ReadIo& r = reads_[slot];
  const SimTime t_ra = fetched + replica_read_.sample(rng_, r.ra_bytes);
  const Volume& v = volume(r.vol);
  const ChunkLog& log = v.logs[r.chunk];
  const std::uint32_t ra_first = r.first_page + r.pages;
  for (std::uint32_t i = 0; i < cfg_.readahead_pages; ++i) {
    const std::uint32_t page = ra_first + i;
    if (page >= v.map.pages_per_chunk()) break;
    if (!log.is_written(page)) break;
    cache_page(r.node, v, r.chunk, page, t_ra);
  }
  release_read(slot);
}

void StorageCluster::release_read(std::uint32_t slot) {
  if (--reads_[slot].holds == 0) reads_.release(slot);
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
  ++v.stats.trims;
  for (std::uint32_t i = 0; i < pages; ++i) {
    ChunkLog& log = v.logs[chunk];
    // Only pages that were actually written turn into garbage; counting
    // no-op trims used to make trimmed_pages impossible to reconcile with
    // the live/garbage deltas.
    if (log.is_written(first_page + i)) ++v.stats.trimmed_pages;
    log.trim_page(first_page + i);
  }
  invalidate_cached(v, chunk, first_page, pages);
  cleaner_->notify();
}

bool StorageCluster::is_written(VolumeId vol, ByteOffset offset) const {
  const Volume& v = volume(vol);
  const ChunkId chunk = v.map.chunk_of(offset);
  return v.logs[chunk].is_written(static_cast<std::uint32_t>(
      v.map.offset_in_chunk(offset) / kLogicalPageBytes));
}

bool StorageCluster::page_cached_on(int node, VolumeId vol,
                                    ByteOffset offset) const {
  const Volume& v = volume(vol);
  const ChunkId chunk = v.map.chunk_of(offset);
  return node_caches_[static_cast<std::size_t>(node)].contains(cache_key(
      v, chunk,
      static_cast<std::uint32_t>(v.map.offset_in_chunk(offset) /
                                 kLogicalPageBytes)));
}

bool StorageCluster::page_resident(VolumeId vol, ByteOffset offset) const {
  const Volume& v = volume(vol);
  return resident(v, v.map.chunk_of(offset),
                  static_cast<std::uint32_t>(v.map.offset_in_chunk(offset) /
                                             kLogicalPageBytes));
}

WriteStamp StorageCluster::page_stamp(VolumeId vol, ByteOffset offset) const {
  const Volume& v = volume(vol);
  const ChunkId chunk = v.map.chunk_of(offset);
  return v.logs[chunk].page_stamp(static_cast<std::uint32_t>(
      v.map.offset_in_chunk(offset) / kLogicalPageBytes));
}

namespace {

ClusterStats add(const ClusterStats& a, const ClusterStats& b) {
  ClusterStats s;
  s.writes = a.writes + b.writes;
  s.written_pages = a.written_pages + b.written_pages;
  s.reads = a.reads + b.reads;
  s.read_pages = a.read_pages + b.read_pages;
  s.cache_hit_pages = a.cache_hit_pages + b.cache_hit_pages;
  s.media_read_pages = a.media_read_pages + b.media_read_pages;
  s.unwritten_read_pages = a.unwritten_read_pages + b.unwritten_read_pages;
  s.readahead_fetches = a.readahead_fetches + b.readahead_fetches;
  s.trims = a.trims + b.trims;
  s.trimmed_pages = a.trimmed_pages + b.trimmed_pages;
  s.stalled_writes = a.stalled_writes + b.stalled_writes;
  s.append_stall_ns = a.append_stall_ns + b.append_stall_ns;
  return s;
}

}  // namespace

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

ClusterStats StorageCluster::stats() const {
  ClusterStats total;
  for (const auto& v : volumes_) total = add(total, v->stats);
  return total;
}

ClusterBusyStats StorageCluster::busy_stats() const {
  ClusterBusyStats s;
  const auto add_pipe = [&s](const sched::QueuedResource& q) {
    s.busy_ns += q.busy_time();
    for (int c = 0; c < sched::kIoClassCount; ++c) {
      s.class_busy_ns[static_cast<std::size_t>(c)] +=
          q.class_busy_time(static_cast<sched::IoClass>(c));
    }
  };
  for (const auto& r : node_append_) add_pipe(r);
  for (const auto& r : node_read_) add_pipe(r);
  add_pipe(cleaner_->pipe());
  s.busy_ns += fabric_.total_busy_ns();
  for (int c = 0; c < sched::kIoClassCount; ++c) {
    s.class_busy_ns[static_cast<std::size_t>(c)] +=
        fabric_.class_busy_ns(static_cast<sched::IoClass>(c));
  }
  s.stall_ns = stats().append_stall_ns;
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
  std::vector<std::uint64_t> resident_pages(node_caches_.size(), 0);
  for (const auto& v : volumes_) {
    for (ChunkId c = 0; c < v->map.chunk_count(); ++c) {
      const std::size_t at = resident_at(v->chunk_base + c, 0);
      std::uint64_t& count =
          resident_pages[static_cast<std::size_t>(v->map.replicas(c)[0])];
      for (std::uint32_t w = 0; w < resident_words_per_chunk_; ++w) {
        count += static_cast<std::uint64_t>(std::popcount(resident_[at + w]));
      }
    }
  }
  for (std::size_t n = 0; n < node_caches_.size(); ++n) {
    UC_ASSERT(resident_pages[n] == node_caches_[n].size(),
              "resident bitmap diverged from a node cache's size");
  }
  return true;
}

}  // namespace uc::ebs
