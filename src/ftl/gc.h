#pragma once

/// \file gc.h
/// Garbage collection controller (paper §II-A: "GC is carried out
/// periodically to reclaim invalid space in the granularity of flash
/// blocks, when the valid pages in some blocks are relocated and these
/// blocks can be erased").
///
/// GC is a real relocation pipeline, not a rate model: victims are chosen
/// by policy over live validity counters, valid rows are read through the
/// same dies/channels foreground I/O uses, relocated slots are re-packed
/// densely into the GC write stream, and blocks are erased before rejoining
/// the free pool.  The throughput cliff the paper's Figure 3 shows for the
/// local SSD *emerges* from this pipeline competing with foreground writes.

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "flash/geometry.h"
#include "flash/nand_array.h"
#include "ftl/mapping.h"
#include "ftl/superblock.h"
#include "sim/simulator.h"

namespace uc::ftl {

struct GcConfig {
  GcPolicy policy = GcPolicy::kGreedy;
  /// Start collecting when the free-superblock count drops to this.
  int trigger_free_sbs = 6;
  /// Keep collecting until the free count recovers to this.
  int stop_free_sbs = 10;
  /// User allocations may not take the last N free superblocks (the GC
  /// stream's guaranteed headroom); user writes stall instead.
  int user_reserve_sbs = 3;
  /// Victim-row read pipeline depth (parallelism GC steals from the array).
  int rows_in_flight = 8;

  /// Rejects watermarks that are negative or out of order, a trigger at
  /// zero free superblocks, an empty read pipeline, and a spare (`stop_free_sbs + 2` superblocks) that does not
  /// fit in `geometry`.
  Status validate(const flash::FlashGeometry& geometry) const;
};

struct GcStats {
  std::uint64_t victims_collected = 0;
  std::uint64_t relocated_slots = 0;
  std::uint64_t gc_row_programs = 0;
  std::uint64_t erased_superblocks = 0;
  std::uint64_t retired_superblocks = 0;
  std::uint64_t stale_relocations = 0;  ///< overwritten mid-relocation
};

class GcController {
 public:
  GcController(sim::Simulator& sim, flash::NandArray& nand,
               SuperblockManager& superblocks, PageMapping& mapping,
               const GcConfig& cfg);

  /// Invoked whenever a superblock is freed (user writes may unstall).
  void set_space_freed_callback(std::function<void()> cb) {
    space_freed_ = std::move(cb);
  }

  /// Kicks the controller if the free pool is at/below the trigger.
  void maybe_start();

  const GcStats& stats() const { return stats_; }

 private:
  struct RelocItem {
    Lpn lpn = 0;
    WriteStamp stamp = 0;
    flash::Spa src = flash::kInvalidSpa;
  };

  void begin_next_victim();
  void pump_reads();
  void on_row_read(std::vector<RelocItem> items);
  /// Flushes full rows from the relocation buffer; with `force_partial`,
  /// also flushes a trailing partial row (padding the remainder).
  void flush_reloc_rows(bool force_partial);
  void on_gc_program_done(RowAlloc row, std::vector<RelocItem> batch,
                          bool failed);
  void maybe_finish_victim();
  void on_die_erased(bool failed);

  sim::Simulator& sim_;
  flash::NandArray& nand_;
  SuperblockManager& sm_;
  PageMapping& mapping_;
  GcConfig cfg_;
  GcStats stats_;
  std::function<void()> space_freed_;

  bool active_ = false;
  int victim_ = -1;
  int row_cursor_ = 0;
  int reads_in_flight_ = 0;
  int programs_in_flight_ = 0;
  bool erasing_ = false;
  int erases_pending_ = 0;
  bool erase_failed_ = false;
  std::vector<RelocItem> reloc_buf_;
  std::vector<flash::Spa> scratch_spas_;
};

}  // namespace uc::ftl
