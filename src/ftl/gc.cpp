#include "ftl/gc.h"

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace uc::ftl {

namespace {

/// Victim-row read pipeline depth (parallelism GC steals from the array).
constexpr int kRowsInFlight = 8;

}  // namespace

Status GcConfig::validate(const flash::FlashGeometry& geometry) const {
  if (user_reserve_sbs < 0) {
    return Status::invalid_argument("GC user reserve must be >= 0");
  }
  if (trigger_free_sbs < user_reserve_sbs) {
    return Status::invalid_argument(
        "GC must trigger before the user reserve is reached");
  }
  if (trigger_free_sbs < 1) {
    // Triggered only once the pool is empty, GC has nowhere to relocate.
    return Status::invalid_argument(
        "GC must trigger while a superblock is still free");
  }
  if (stop_free_sbs < trigger_free_sbs) {
    return Status::invalid_argument("GC stop watermark below its trigger");
  }
  // Compared before FtlConfig::validate() subtracts the spare from the
  // physical capacity, so an oversized watermark cannot underflow there.
  if (static_cast<std::int64_t>(stop_free_sbs) + 2 >=
      geometry.superblock_count()) {
    return Status::invalid_argument(
        "GC spare (stop watermark + 2 superblocks) leaves no user space");
  }
  return Status::ok();
}

GcController::GcController(sim::Simulator& sim, flash::NandArray& nand,
                           SuperblockManager& superblocks,
                           PageMapping& mapping, const GcConfig& cfg)
    : sim_(sim), nand_(nand), sm_(superblocks), mapping_(mapping), cfg_(cfg) {
  UC_ASSERT(cfg_.trigger_free_sbs >= cfg_.user_reserve_sbs,
            "GC must trigger before the user reserve is reached");
  UC_ASSERT(cfg_.stop_free_sbs >= cfg_.trigger_free_sbs,
            "GC stop watermark below its trigger");
  reloc_buf_.reserve(static_cast<std::size_t>(
      sm_.geometry().slots_per_row() * (kRowsInFlight + 1)));
}

void GcController::maybe_start() {
  if (active_) return;
  if (sm_.free_count() > cfg_.trigger_free_sbs) return;
  active_ = true;
  begin_next_victim();
}

void GcController::begin_next_victim() {
  victim_ = sm_.pick_victim();
  if (victim_ < 0) {
    // Nothing closed to collect (e.g. tiny working set): go quiescent.
    active_ = false;
    return;
  }
  sm_.begin_gc(victim_);
  row_cursor_ = 0;
  erasing_ = false;
  pump_reads();
  maybe_finish_victim();
}

void GcController::pump_reads() {
  const int rows = sm_.rows_per_superblock();
  while (reads_in_flight_ < kRowsInFlight && row_cursor_ < rows) {
    scratch_spas_.clear();
    sm_.valid_slots_in_row(victim_, row_cursor_, scratch_spas_);
    const int die = sm_.die_of_row(row_cursor_);
    ++row_cursor_;
    if (scratch_spas_.empty()) continue;

    const std::uint32_t slot = row_reads_.claim();
    std::vector<RelocItem>& items = row_reads_[slot];
    items.clear();
    items.reserve(static_cast<std::size_t>(sm_.geometry().slots_per_row()));
    for (const flash::Spa spa : scratch_spas_) {
      // A valid slot is the one its LPN maps to, so the map's stamp is the
      // slot's.
      const Lpn lpn = sm_.slot_lpn(spa);
      items.push_back(RelocItem{lpn, mapping_.stamp_of(lpn), spa});
    }
    const auto& g = sm_.geometry();
    const std::uint64_t bytes =
        static_cast<std::uint64_t>(items.size()) * kLogicalPageBytes;
    const int pages = static_cast<int>(
        (bytes + g.page_bytes - 1) / g.page_bytes);
    const auto res = nand_.read_row(sim_.now(), die,
                                    pages < 1 ? 1 : pages, g.page_bytes);
    ++reads_in_flight_;
    sim_.schedule_at(res.done, [this, slot] { on_row_read(slot); });
  }
}

void GcController::on_row_read(std::uint32_t slot) {
  --reads_in_flight_;
  for (const RelocItem& item : row_reads_[slot]) {
    // Skip slots the host overwrote/trimmed while the read was in flight.
    if (!sm_.slot_valid(item.src)) {
      ++stats_.stale_relocations;
      continue;
    }
    reloc_buf_.push_back(item);
  }
  row_reads_.release(slot);
  flush_reloc_rows(/*force_partial=*/false);
  pump_reads();
  maybe_finish_victim();
}

void GcController::flush_reloc_rows(bool force_partial) {
  const auto spr = static_cast<std::size_t>(sm_.geometry().slots_per_row());
  while (reloc_buf_.size() >= spr ||
         (force_partial && !reloc_buf_.empty())) {
    const std::size_t take = reloc_buf_.size() < spr ? reloc_buf_.size() : spr;
    auto alloc = sm_.allocate_row(Stream::kGc, 0);
    UC_ASSERT(alloc.has_value(),
              "GC stream allocation failed: reserve sizing bug");
    const std::uint32_t slot = programs_.claim();
    GcProgram& program = programs_[slot];
    program.row = *alloc;
    program.batch.reserve(spr);  // a full row's room, so no reuse regrows
    const auto taken = reloc_buf_.begin() + static_cast<long>(take);
    program.batch.assign(reloc_buf_.begin(), taken);
    reloc_buf_.erase(reloc_buf_.begin(), taken);
    const auto res = nand_.program_row(sim_.now(), alloc->die,
                                       sm_.geometry().planes_per_die);
    ++programs_in_flight_;
    ++stats_.gc_row_programs;
    sim_.schedule_at(res.done, [this, slot] { on_gc_program_done(slot); });
  }
}

void GcController::on_gc_program_done(std::uint32_t slot) {
  --programs_in_flight_;
  const GcProgram& program = programs_[slot];
  for (std::size_t i = 0; i < program.batch.size(); ++i) {
    const RelocItem& item = program.batch[i];
    const flash::Spa dst =
        sm_.fill_row_slot(program.row, static_cast<int>(i), item.lpn);
    // Source slot dies either way (its superblock is about to be erased).
    sm_.invalidate_if_valid(item.src);
    const auto upd = mapping_.on_gc_relocate(item.lpn, dst, item.stamp);
    if (!upd.applied) {
      // The host wrote newer data onto flash mid-relocation.
      sm_.invalidate_if_valid(dst);
      ++stats_.stale_relocations;
    }
    ++stats_.relocated_slots;
  }
  programs_.release(slot);
  maybe_finish_victim();
}

void GcController::maybe_finish_victim() {
  if (!active_ || erasing_ || victim_ < 0) return;
  if (row_cursor_ < sm_.rows_per_superblock() || reads_in_flight_ > 0) return;
  if (!reloc_buf_.empty()) {
    flush_reloc_rows(/*force_partial=*/true);
  }
  if (programs_in_flight_ > 0) return;
  UC_ASSERT(sm_.info(victim_).valid_slots == 0,
            "victim still holds valid slots after relocation");
  // Erase one (multi-plane) block set per die, in parallel across dies.
  erasing_ = true;
  const int dies = sm_.geometry().total_dies();
  erases_pending_ = dies;
  for (int die = 0; die < dies; ++die) {
    const auto res = nand_.erase_on_die(sim_.now(), die);
    sim_.schedule_at(res.done, [this] { on_die_erased(); });
  }
}

void GcController::on_die_erased() {
  if (--erases_pending_ > 0) return;

  sm_.on_erased(victim_);
  ++stats_.victims_collected;
  victim_ = -1;
  erasing_ = false;
  if (space_freed_) space_freed_();

  if (sm_.free_count() < cfg_.stop_free_sbs) {
    begin_next_victim();
  } else {
    active_ = false;
  }
}

}  // namespace uc::ftl
