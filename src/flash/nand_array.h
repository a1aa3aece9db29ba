#pragma once

/// \file nand_array.h
/// Timing/contention model of the NAND array.
///
/// The array knows nothing about logical contents (that is the FTL's job);
/// it answers one question: *given an operation arriving at `now`, when does
/// it finish?*  Contention is modeled with reservation horizons:
///   - each die has a program/erase unit (serial) and a read port (serial);
///   - each channel is a half-duplex bandwidth pipe shared by its dies;
///   - reads arriving while the die is programming pay a program-suspend
///     penalty instead of waiting for tProg to finish (modern drives suspend
///     programs for reads, which is what keeps mixed workloads flowing and
///     lets the SSD exceed its pure-pattern bandwidth in Figure 5).

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "flash/geometry.h"
#include "flash/timing.h"
#include "sched/queued_resource.h"
#include "sim/resources.h"

namespace uc::flash {

struct NandCounters {
  std::uint64_t page_reads = 0;
  std::uint64_t row_programs = 0;
  std::uint64_t superblock_die_erases = 0;
  std::uint64_t read_bytes = 0;
  std::uint64_t programmed_bytes = 0;
};

/// Result of an operation reservation: when it completes.
struct NandOpResult {
  SimTime done = 0;
};

class NandArray {
 public:
  /// The array draws no random numbers; `rng` is unused and kept so callers
  /// that pass one still compile.
  NandArray(const FlashGeometry& geometry, const FlashTiming& timing,
            Rng rng);

  /// Reads one physical page on `die`, transferring `transfer_bytes` over
  /// the channel (partial-page transfers model sub-page logical reads).
  NandOpResult read_page(SimTime now, int die, std::uint32_t transfer_bytes);

  /// Multi-plane read on `die`: one tR, then `pages` sequential page
  /// transfers of `bytes_per_page` each (used by prefetch and GC).
  NandOpResult read_row(SimTime now, int die, int pages,
                        std::uint32_t bytes_per_page);

  /// Multi-plane program of `pages` full pages on `die`: channel transfers
  /// followed by one tProg.
  NandOpResult program_row(SimTime now, int die, int pages);

  /// Multi-plane erase of one block per plane on `die`.
  NandOpResult erase_on_die(SimTime now, int die);

  const FlashGeometry& geometry() const { return geometry_; }
  const FlashTiming& timing() const { return timing_; }
  const NandCounters& counters() const { return counters_; }

 private:
  struct Die {
    sched::QueuedResource program_unit;  // programs + erases
    sched::QueuedResource read_port;     // array reads
  };

  FlashGeometry geometry_;
  FlashTiming timing_;
  std::vector<Die> dies_;
  std::vector<sim::BandwidthPipe> channels_;
  NandCounters counters_;
};

}  // namespace uc::flash
