#include "ebs/cleaner.h"

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace uc::ebs {

Status CleanerConfig::validate() const {
  if (!std::isfinite(processing_mbps) || processing_mbps <= 0.0) {
    return Status::invalid_argument(
        "cleaner processing rate must be finite and positive");
  }
  // NaN fails both comparisons, so non-finite ratios are rejected too.
  const auto ratio = [](double r) { return r >= 0.0 && r <= 1.0; };
  if (!ratio(min_garbage_ratio)) {
    return Status::invalid_argument("cleaner garbage ratio must be in [0, 1]");
  }
  if (!ratio(start_free_ratio) || !ratio(desperate_free_ratio)) {
    return Status::invalid_argument(
        "cleaner free-ratio thresholds must be in [0, 1]");
  }
  return Status::ok();
}

Cleaner::Cleaner(sim::Simulator& sim, const CleanerConfig& cfg,
                 std::uint64_t segment_bytes,
                 const std::vector<ChunkLog*>& logs,
                 const std::vector<std::uint32_t>& owners, SegmentPool& pool,
                 const sched::SchedulerConfig& sched_cfg)
    : sim_(sim),
      cfg_(cfg),
      segment_bytes_(segment_bytes),
      logs_(logs),
      owners_(owners),
      pool_(pool) {
  UC_ASSERT(cfg_.processing_mbps > 0.0, "cleaner needs positive bandwidth");
  pipe_.configure(sim, sched_cfg);
}

void Cleaner::notify() {
  if (busy_) return;
  if (pool_.free_ratio() >= cfg_.start_free_ratio) return;
  busy_ = true;
  run_cycle();
}

void Cleaner::index_new_logs() {
  while (index_.size() < logs_.size()) {
    const std::uint32_t c = index_.add_slot();
    // Fewest live pages is the highest garbage ratio only if every closed
    // segment has the same size, across logs as within one.
    UC_ASSERT(logs_[c]->pages_per_segment() == logs_[0]->pages_per_segment(),
              "chunk logs of one cleaner must share a segment size");
    logs_[c]->attach_index(&index_, c);
  }
}

Cleaner::GlobalVictim Cleaner::pick_global_victim() {
  // The highest garbage ratio, first chunk then first seq on ties: closed
  // segments are full and equal-sized, so the ratio orders as
  // (live, chunk, seq), which is the index's order.
  index_new_logs();
  GlobalVictim best;
  const auto chunk = index_.min_slot();
  if (!chunk.has_value()) return best;
  best.chunk = *chunk;
  best.victim = *logs_[*chunk]->pick_victim();
  best.found = true;
  return best;
}

void Cleaner::run_cycle() {
  if (pool_.free_ratio() >= cfg_.start_free_ratio) {
    busy_ = false;
    return;
  }
  const GlobalVictim target = pick_global_victim();
  const bool desperate = pool_.free_ratio() < cfg_.desperate_free_ratio;
  const double min_ratio = desperate ? 1e-9 : cfg_.min_garbage_ratio;
  if (!target.found || target.victim.garbage_ratio() < min_ratio) {
    busy_ = false;
    return;
  }
  // Processing a victim costs its full segment size through the background
  // cleaning bandwidth; replicas are cleaned in parallel on their nodes.
  // The bandwidth is a sched-tagged pipe: the cleaner itself stays strictly
  // serial (one victim in flight), so FIFO timing is unchanged, but the
  // reservation is tagged with the victim's owning tenant (its WFQ flow).
  const double seconds =
      static_cast<double>(segment_bytes_) / (cfg_.processing_mbps * 1e6);
  UC_ASSERT(target.chunk < owners_.size(),
            "chunk-log registry and owner registry diverged");
  const std::uint32_t owner = owners_[target.chunk];
  const sched::SchedTag tag{owner, sched::IoClass::kCleanerGc, segment_bytes_};
  pipe_.submit(
      sim_.now(), tag, static_cast<SimTime>(seconds * 1e9),
      [this, target, owner](SimTime finish) {
        sim_.schedule_at(finish, [this, target, owner] {
          std::uint32_t moved = 0;
          const bool ok = logs_[target.chunk]->clean_segment(
              target.victim.seq, pool_, &moved);
          UC_ASSERT(ok, "cleaner reserve exhausted");
          if (owner >= tenant_segments_.size()) {
            tenant_segments_.resize(owner + 1, 0);
            tenant_pages_.resize(owner + 1, 0);
          }
          ++tenant_segments_[owner];
          tenant_pages_[owner] += moved;
          run_cycle();
        });
      });
}

CleanerStats Cleaner::stats() const {
  CleanerStats s;
  s.tenant_segments = tenant_segments_;
  s.tenant_pages = tenant_pages_;
  for (const std::uint64_t n : tenant_segments_) s.segments_cleaned += n;
  for (const std::uint64_t n : tenant_pages_) s.pages_relocated += n;
  s.bytes_processed = s.segments_cleaned * segment_bytes_;
  return s;
}

CleanerStats subtract(const CleanerStats& a, const CleanerStats& b) {
  CleanerStats d;
  d.segments_cleaned = a.segments_cleaned - b.segments_cleaned;
  d.pages_relocated = a.pages_relocated - b.pages_relocated;
  d.bytes_processed = a.bytes_processed - b.bytes_processed;
  d.tenant_segments.resize(a.tenant_segments.size());
  d.tenant_pages.resize(a.tenant_pages.size());
  for (std::size_t i = 0; i < a.tenant_segments.size(); ++i) {
    const auto vol = static_cast<std::uint32_t>(i);
    d.tenant_segments[i] =
        a.tenant_segments[i] - b.tenant_segments_cleaned(vol);
    d.tenant_pages[i] = a.tenant_pages[i] - b.tenant_pages_relocated(vol);
  }
  return d;
}

}  // namespace uc::ebs
