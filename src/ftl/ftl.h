#pragma once

/// \file ftl.h
/// The flash translation layer facade: logical 4 KiB page reads/writes/trims
/// against the NAND array, with DRAM write buffering, sequential prefetch,
/// one page-level map (`PageMapping`) and background GC (paper §II-A).
///
/// Latency shaping that belongs to the host interface (firmware command
/// overhead, host link transfer) lives in `uc::ssd::SsdDevice`; the FTL
/// models everything behind the interface.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/ring_queue.h"
#include "common/rng.h"
#include "common/slot_pool.h"
#include "common/status.h"
#include "common/types.h"
#include "flash/nand_array.h"
#include "ftl/gc.h"
#include "ftl/mapping.h"
#include "ftl/prefetcher.h"
#include "ftl/superblock.h"
#include "ftl/write_buffer.h"
#include "sim/simulator.h"

namespace uc::ftl {

struct FtlConfig {
  flash::FlashGeometry geometry;
  flash::FlashTiming timing;
  GcConfig gc;

  /// Host-visible capacity; the rest of the physical space is
  /// over-provisioning for GC.
  std::uint64_t user_capacity_bytes = 0;

  std::uint32_t write_buffer_slots = 16384;  ///< 64 MiB of 4 KiB slots
  std::uint32_t read_cache_slots = 4096;     ///< 16 MiB
  SequentialPrefetcher::Config prefetch;

  std::uint64_t user_pages() const {
    return user_capacity_bytes / kLogicalPageBytes;
  }

  Status validate() const;
};

struct FtlStats {
  std::uint64_t host_read_pages = 0;
  std::uint64_t host_write_pages = 0;
  std::uint64_t host_trim_pages = 0;
  std::uint64_t buffer_hit_pages = 0;
  std::uint64_t cache_hit_pages = 0;
  std::uint64_t unmapped_read_pages = 0;
  std::uint64_t flash_read_pages = 0;   ///< logical pages served from flash
  std::uint64_t prefetch_row_reads = 0;
  std::uint64_t user_programmed_slots = 0;  ///< host slots flushed to flash
  std::uint64_t padded_slots = 0;           ///< forced partial-row padding
  SimTime user_stall_ns = 0;  ///< flusher time blocked on free space
};

class Ftl {
 public:
  /// The FTL draws no random numbers; `rng` is unused and kept so callers
  /// that pass one still compile.
  Ftl(sim::Simulator& sim, const FtlConfig& cfg, Rng rng);

  std::uint64_t user_pages() const { return user_pages_; }

  /// Reads `pages` logical pages starting at `start`; `done` fires when all
  /// parts (buffer/cache/flash) have completed.
  void read(Lpn start, std::uint32_t pages, std::function<void()> done);

  /// Writes `pages` logical pages; `done` fires when every slot is accepted
  /// into the write buffer (ack-on-buffer, the local-SSD fast path).  Under
  /// backpressure the ack waits for flash/GC to free buffer space.
  void write(Lpn start, std::uint32_t pages, std::function<void()> done);

  /// Invalidates the range immediately (trim has no device latency here).
  void trim(Lpn start, std::uint32_t pages);

  /// Barrier: fires `done` once the write buffer has fully drained.
  void flush(std::function<void()> done);

  // --- introspection (tests, benches, ablations) ---
  const FtlStats& stats() const { return stats_; }
  const GcStats& gc_stats() const { return gc_->stats(); }
  const flash::NandArray& nand() const { return *nand_; }
  const PageMapping& mapping() const { return mapping_; }
  const MappingStats& mapping_stats() const { return mapping_.stats(); }
  bool write_buffer_empty() const { return wb_->empty(); }

  /// Host-write to NAND-program amplification (>= 1 once flushing starts).
  double write_amplification() const;

  /// Deep consistency check (call when quiesced: buffer drained, GC idle):
  /// every mapped LPN must resolve to a valid slot carrying that LPN, every
  /// valid slot's LPN must map back to it, and validity counters must agree.
  Status check_integrity() const;

 private:
  struct PendingWrite {
    Lpn start = 0;
    std::uint32_t pages = 0;
    std::uint32_t next = 0;
    std::function<void()> done;
  };
  /// A read waiting on its flash page reads (pooled; see `read`).
  struct ReadOp {
    int remaining = 0;
    SimTime ready_floor = 0;
    std::function<void()> done;
  };
  /// A row program of buffered slots in flight (pooled; the batch keeps its
  /// capacity from one program to the next).
  struct FlushOp {
    RowAlloc row;
    std::vector<FlushItem> batch;
  };
  /// One page `issue_prefetch` will read, tagged with its row and its
  /// position in the window so sorting keeps the window order per row.
  struct PrefetchPage {
    std::uint64_t row_key = 0;
    std::uint32_t order = 0;
    int die = 0;
    flash::Ppa ppa = 0;
  };

  void drain_pending_writes();
  void pump_flusher();
  void on_flush_programmed(std::uint32_t slot);
  void complete_flush_waiters();
  void on_page_read(std::uint32_t slot);
  void issue_prefetch(Lpn start, std::uint32_t pages);
  WriteStamp next_stamp() { return ++stamp_counter_; }

  sim::Simulator& sim_;
  FtlConfig cfg_;
  FtlStats stats_;
  std::uint64_t user_pages_ = 0;

  std::unique_ptr<flash::NandArray> nand_;
  std::unique_ptr<SuperblockManager> sm_;
  PageMapping mapping_;
  std::unique_ptr<WriteBuffer> wb_;
  std::unique_ptr<ReadCache> cache_;
  std::unique_ptr<SequentialPrefetcher> prefetcher_;
  std::unique_ptr<GcController> gc_;

  WriteStamp stamp_counter_ = 0;
  RingQueue<PendingWrite> pending_writes_;
  RingQueue<std::function<void()>> flush_waiters_;
  SlotPool<ReadOp> read_ops_;
  SlotPool<FlushOp> flush_ops_;
  std::vector<flash::Ppa> read_ppas_;         ///< `read` scratch
  std::vector<PrefetchPage> prefetch_pages_;  ///< `issue_prefetch` scratch
  int outstanding_flushes_ = 0;
  bool force_flush_ = false;
  bool alloc_stalled_ = false;
  SimTime stall_since_ = 0;
};

}  // namespace uc::ftl
