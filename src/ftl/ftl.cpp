#include "ftl/ftl.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/strfmt.h"

namespace uc::ftl {

Status FtlConfig::validate() const {
  if (Status s = geometry.validate(); !s.is_ok()) return s;
  if (Status s = gc.validate(geometry); !s.is_ok()) return s;
  if (user_capacity_bytes == 0 ||
      user_capacity_bytes % kLogicalPageBytes != 0) {
    return Status::invalid_argument("user capacity must be 4 KiB aligned");
  }
  // GC needs working headroom: at least the stop watermark plus two
  // superblocks of true spare beyond the user capacity (gc.validate()
  // guarantees the spare is smaller than the whole device).
  const auto spare_sbs = static_cast<std::uint64_t>(gc.stop_free_sbs) + 2;
  const std::uint64_t max_user =
      geometry.physical_bytes() - spare_sbs * geometry.superblock_bytes();
  if (user_capacity_bytes > max_user) {
    return Status::invalid_argument(
        strfmt("user capacity too large: need %llu superblocks of spare",
               static_cast<unsigned long long>(spare_sbs)));
  }
  if (write_buffer_slots < static_cast<std::uint32_t>(
                               geometry.slots_per_row())) {
    return Status::invalid_argument(
        "write buffer must hold at least one allocation row");
  }
  if (read_cache_slots == 0) {
    return Status::invalid_argument("read cache needs at least one slot");
  }
  return Status::ok();
}

namespace {

/// DRAM service time of a write-buffer or read-cache hit.
constexpr SimTime kDramHitNs = 2000;
/// Row programs the flusher keeps outstanding.
constexpr int kFlushParallelism = 32;

const FtlConfig& validated(const FtlConfig& cfg) {
  UC_ASSERT(cfg.validate().is_ok(), "invalid FTL configuration");
  return cfg;
}

}  // namespace

Ftl::Ftl(sim::Simulator& sim, const FtlConfig& cfg, Rng rng)
    : sim_(sim),
      cfg_(validated(cfg)),
      user_pages_(cfg_.user_pages()),
      mapping_(user_pages_) {
  nand_ = std::make_unique<flash::NandArray>(cfg_.geometry, cfg_.timing, rng);
  sm_ = std::make_unique<SuperblockManager>(cfg_.geometry);
  wb_ = std::make_unique<WriteBuffer>(cfg_.write_buffer_slots);
  cache_ = std::make_unique<ReadCache>(cfg_.read_cache_slots);
  prefetcher_ = std::make_unique<SequentialPrefetcher>(cfg_.prefetch);
  gc_ = std::make_unique<GcController>(sim_, *nand_, *sm_, mapping_, cfg_.gc);
  gc_->set_space_freed_callback([this] {
    if (alloc_stalled_) {
      alloc_stalled_ = false;
      stats_.user_stall_ns += sim_.now() - stall_since_;
    }
    pump_flusher();
  });
}

// ---------------------------------------------------------------- writes --

void Ftl::write(Lpn start, std::uint32_t pages, std::function<void()> done) {
  UC_ASSERT(start + pages <= user_pages_, "write beyond device capacity");
  UC_ASSERT(pages > 0, "empty write");
  stats_.host_write_pages += pages;
  pending_writes_.push_back(PendingWrite{start, pages, 0, std::move(done)});
  drain_pending_writes();
}

void Ftl::drain_pending_writes() {
  while (!pending_writes_.empty()) {
    PendingWrite& w = pending_writes_.front();
    while (w.next < w.pages) {
      const Lpn lpn = w.start + w.next;
      // A newer write makes any cached copy of this page stale.
      cache_->invalidate(lpn);
      if (!wb_->try_insert(lpn, next_stamp())) {
        // Buffer full: the insert consumed no stamp slot state; retry the
        // same page when space frees.  (The stamp counter may skip values;
        // only monotonicity matters.)
        pump_flusher();
        return;
      }
      ++w.next;
    }
    // Fully buffered: acknowledge now (device frontend adds its latency).
    if (w.done) {
      sim_.schedule_after(0, std::move(w.done));
    }
    pending_writes_.pop_front();
  }
  pump_flusher();
}

void Ftl::pump_flusher() {
  const auto spr = static_cast<std::uint32_t>(cfg_.geometry.slots_per_row());
  while (outstanding_flushes_ < kFlushParallelism) {
    const bool full_row_ready = wb_->dirty_slots() >= spr;
    const bool partial_forced = force_flush_ && wb_->dirty_slots() > 0;
    if (!full_row_ready && !partial_forced) break;
    auto alloc = sm_->allocate_row(Stream::kUser, cfg_.gc.user_reserve_sbs);
    if (!alloc.has_value()) {
      if (!alloc_stalled_) {
        alloc_stalled_ = true;
        stall_since_ = sim_.now();
      }
      gc_->maybe_start();
      return;
    }
    if (alloc_stalled_) {
      alloc_stalled_ = false;
      stats_.user_stall_ns += sim_.now() - stall_since_;
    }

    const std::uint32_t slot = flush_ops_.claim();
    FlushOp& op = flush_ops_[slot];
    op.row = *alloc;
    op.batch.clear();
    op.batch.reserve(spr);  // a full row's room, so no reuse regrows
    wb_->take_flush_batch(spr, op.batch);
    UC_ASSERT(!op.batch.empty(), "dirty slots present but none flushable");
    if (op.batch.size() < spr) stats_.padded_slots += spr - op.batch.size();

    const auto res = nand_->program_row(sim_.now(), alloc->die,
                                        cfg_.geometry.planes_per_die);
    ++outstanding_flushes_;
    sim_.schedule_at(res.done, [this, slot] { on_flush_programmed(slot); });
    gc_->maybe_start();
  }
}

void Ftl::on_flush_programmed(std::uint32_t slot) {
  --outstanding_flushes_;
  const FlushOp& op = flush_ops_[slot];
  for (std::size_t i = 0; i < op.batch.size(); ++i) {
    const FlushItem& item = op.batch[i];
    const flash::Spa spa =
        sm_->fill_row_slot(op.row, static_cast<int>(i), item.lpn);
    const auto upd = mapping_.update(item.lpn, spa, item.stamp);
    if (!upd.applied) {
      // Newer data (or a trim) reached the mapping first; this copy is dead.
      sm_->invalidate_if_valid(spa);
    } else if (upd.previous != flash::kInvalidSpa) {
      sm_->invalidate_if_valid(upd.previous);
    }
    ++stats_.user_programmed_slots;
  }
  wb_->batch_programmed(op.batch);
  flush_ops_.release(slot);  // before pump_flusher claims again
  drain_pending_writes();  // buffer space freed
  complete_flush_waiters();
  pump_flusher();
}

void Ftl::flush(std::function<void()> done) {
  flush_waiters_.push_back(std::move(done));
  force_flush_ = true;
  pump_flusher();
  complete_flush_waiters();
}

void Ftl::complete_flush_waiters() {
  if (!wb_->empty() || flush_waiters_.empty()) {
    if (wb_->empty()) force_flush_ = false;
    return;
  }
  force_flush_ = false;
  while (!flush_waiters_.empty()) {
    std::function<void()> done = std::move(flush_waiters_.front());
    flush_waiters_.pop_front();
    if (done) sim_.schedule_after(0, std::move(done));
  }
}

// ----------------------------------------------------------------- reads --

void Ftl::read(Lpn start, std::uint32_t pages, std::function<void()> done) {
  UC_ASSERT(start + pages <= user_pages_, "read beyond device capacity");
  UC_ASSERT(pages > 0, "empty read");
  stats_.host_read_pages += pages;

  const auto suggestion = prefetcher_->on_read(start, pages, user_pages_);

  SimTime ready_floor = sim_.now() + kDramHitNs;

  // Collect the physical page of each flash-resident page; the pages of one
  // physical page coalesce into one read.
  const auto slots_per_page =
      static_cast<flash::Spa>(cfg_.geometry.slots_per_page());
  read_ppas_.clear();
  for (std::uint32_t i = 0; i < pages; ++i) {
    const Lpn lpn = start + i;
    if (wb_->read_lookup(lpn).has_value()) {
      ++stats_.buffer_hit_pages;
      continue;
    }
    if (auto ready = cache_->lookup(lpn); ready.has_value()) {
      ++stats_.cache_hit_pages;
      ready_floor = std::max(ready_floor, *ready + kDramHitNs);
      continue;
    }
    const flash::Spa spa = mapping_.translate(lpn);
    if (spa == flash::kInvalidSpa) {
      ++stats_.unmapped_read_pages;
      continue;
    }
    ++stats_.flash_read_pages;
    read_ppas_.push_back(spa / slots_per_page);
  }

  if (suggestion.active()) issue_prefetch(suggestion.start, suggestion.pages);

  if (read_ppas_.empty()) {
    sim_.schedule_at(ready_floor, std::move(done));
    return;
  }

  // Issue one read per physical page, in ascending page order.
  std::sort(read_ppas_.begin(), read_ppas_.end());
  const std::uint32_t slot = read_ops_.claim();
  ReadOp& op = read_ops_[slot];
  op.remaining = 0;
  op.ready_floor = ready_floor;
  op.done = std::move(done);
  for (std::size_t b = 0; b < read_ppas_.size();) {
    const flash::Ppa ppa = read_ppas_[b];
    std::size_t e = b + 1;
    while (e < read_ppas_.size() && read_ppas_[e] == ppa) ++e;
    const auto count = static_cast<std::uint32_t>(e - b);
    const int die = cfg_.geometry.die_of_ppa(ppa);
    const auto res =
        nand_->read_page(sim_.now(), die, count * kLogicalPageBytes);
    ++op.remaining;
    sim_.schedule_at(res.done, [this, slot] { on_page_read(slot); });
    b = e;
  }
}

void Ftl::on_page_read(std::uint32_t slot) {
  ReadOp& op = read_ops_[slot];
  if (--op.remaining > 0) return;
  const SimTime t = std::max(op.ready_floor, sim_.now());
  // `done` may read again, which claims a slot: release this one first.
  std::function<void()> done = std::move(op.done);
  read_ops_.release(slot);
  if (t > sim_.now()) {
    sim_.schedule_at(t, std::move(done));
  } else {
    done();
  }
}

void Ftl::issue_prefetch(Lpn start, std::uint32_t pages) {
  // Resolve mapped pages and read whole physical pages, grouped by
  // (die, block, page-row) so each group becomes one multi-plane read —
  // this is what keeps the prefetcher ahead of a QD1 sequential consumer.
  const auto& g = cfg_.geometry;
  prefetch_pages_.clear();
  for (std::uint32_t i = 0; i < pages; ++i) {
    const Lpn lpn = start + i;
    if (cache_->contains(lpn)) continue;
    if (wb_->read_lookup(lpn).has_value()) continue;
    // Speculative: peek leaves the lookup counters alone.
    const flash::Spa spa = mapping_.peek(lpn);
    if (spa == flash::kInvalidSpa) continue;
    const flash::Ppa ppa = spa / static_cast<flash::Spa>(g.slots_per_page());
    const int die = g.die_of_ppa(ppa);
    const int page = static_cast<int>(ppa % g.pages_per_block);
    const int block =
        static_cast<int>((ppa / g.pages_per_block) % g.blocks_per_plane);
    const std::uint64_t row_key =
        (static_cast<std::uint64_t>(die) * g.blocks_per_plane + block) *
            g.pages_per_block +
        static_cast<std::uint64_t>(page);
    prefetch_pages_.push_back(PrefetchPage{row_key, i, die, ppa});
  }
  // Rows in ascending key order; within a row, pages in window order.
  std::sort(prefetch_pages_.begin(), prefetch_pages_.end(),
            [](const PrefetchPage& a, const PrefetchPage& b) {
              return a.row_key != b.row_key ? a.row_key < b.row_key
                                            : a.order < b.order;
            });
  for (auto b = prefetch_pages_.begin(); b != prefetch_pages_.end();) {
    // A row holds one page per plane, but its logical pages need not be
    // adjacent in the window: dedupe against the whole row so a repeat can
    // never push it past planes_per_die.
    auto kept = b;
    auto e = b;
    for (; e != prefetch_pages_.end() && e->row_key == b->row_key; ++e) {
      const flash::Ppa ppa = e->ppa;
      if (std::none_of(b, kept, [ppa](const PrefetchPage& p) {
            return p.ppa == ppa;
          })) {
        *kept++ = *e;
      }
    }
    const auto res = nand_->read_row(sim_.now(), b->die,
                                     static_cast<int>(kept - b), g.page_bytes);
    ++stats_.prefetch_row_reads;
    // Each fetched physical page carries slots_per_page logical pages; cache
    // every valid one (dropping siblings would force redundant re-reads of
    // the same physical page).  Insert at issue time with the future ready
    // time, so demand reads that race the prefetch wait for the in-flight
    // transfer instead of re-reading flash.
    for (auto p = b; p != kept; ++p) {
      const flash::Spa base =
          p->ppa * static_cast<flash::Spa>(g.slots_per_page());
      for (int s = 0; s < g.slots_per_page(); ++s) {
        const flash::Spa spa = base + static_cast<flash::Spa>(s);
        if (!sm_->slot_valid(spa)) continue;
        cache_->insert(sm_->slot_lpn(spa), res.done);
      }
    }
    b = e;
  }
}

// ------------------------------------------------------------------ trim --

void Ftl::trim(Lpn start, std::uint32_t pages) {
  UC_ASSERT(start + pages <= user_pages_, "trim beyond device capacity");
  stats_.host_trim_pages += pages;
  for (std::uint32_t i = 0; i < pages; ++i) {
    const Lpn lpn = start + i;
    cache_->invalidate(lpn);
    wb_->discard(lpn);
    const auto inv = mapping_.invalidate(lpn, next_stamp());
    if (inv.previous != flash::kInvalidSpa) {
      sm_->invalidate_if_valid(inv.previous);
    }
  }
}

// ------------------------------------------------------------- integrity --

double Ftl::write_amplification() const {
  const double host = static_cast<double>(stats_.host_write_pages) *
                      kLogicalPageBytes;
  const double nand = static_cast<double>(nand_->counters().programmed_bytes);
  return host <= 0.0 ? 0.0 : nand / host;
}

Status Ftl::check_integrity() const {
  if (!wb_->empty()) {
    return Status::failed_precondition(
        "integrity check requires a drained write buffer");
  }
  std::uint64_t mapped_seen = 0;
  for (Lpn lpn = 0; lpn < user_pages_; ++lpn) {
    const flash::Spa spa = mapping_.peek(lpn);
    if (spa == flash::kInvalidSpa) continue;
    ++mapped_seen;
    if (!sm_->slot_valid(spa)) {
      return Status::internal(
          strfmt("lpn %llu maps to invalid slot %llu",
                 static_cast<unsigned long long>(lpn),
                 static_cast<unsigned long long>(spa)));
    }
    if (sm_->slot_lpn(spa) != lpn) {
      return Status::internal(
          strfmt("slot %llu carries lpn %llu, mapping says %llu",
                 static_cast<unsigned long long>(spa),
                 static_cast<unsigned long long>(sm_->slot_lpn(spa)),
                 static_cast<unsigned long long>(lpn)));
    }
  }
  if (mapped_seen != mapping_.mapped_count()) {
    return Status::internal("mapped_count disagrees with table scan");
  }
  // The converse walk: every valid slot is the one its LPN maps to.  GC
  // relocates a valid slot with its LPN's map stamp, which is right only
  // because of this.
  const std::uint64_t slots = cfg_.geometry.total_slots();
  for (flash::Spa spa = 0; spa < slots; ++spa) {
    if (!sm_->slot_valid(spa)) continue;
    const Lpn lpn = sm_->slot_lpn(spa);
    if (lpn >= user_pages_ || mapping_.peek(lpn) != spa) {
      return Status::internal(
          strfmt("valid slot %llu carries lpn %llu, which does not map to it",
                 static_cast<unsigned long long>(spa),
                 static_cast<unsigned long long>(lpn)));
    }
  }
  if (sm_->total_valid_slots() != mapped_seen) {
    return Status::internal(
        strfmt("valid slots %llu != mapped pages %llu",
               static_cast<unsigned long long>(sm_->total_valid_slots()),
               static_cast<unsigned long long>(mapped_seen)));
  }
  return Status::ok();
}

}  // namespace uc::ftl
