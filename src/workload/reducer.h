#pragma once

/// \file reducer.h
/// I/O-reduction decorators (Implication 5): compression and deduplication
/// trade CPU time for I/O volume.  On a ~10 µs local SSD the CPU cost can
/// dominate; behind a ~300 µs cloud path it vanishes into the latency floor
/// while the byte savings relax the throughput budget — the re-evaluation
/// the paper calls for.
///
/// `ReducingDevice` models the data path effects: writes pay a per-page CPU
/// cost and then carry only `1 - reduction_ratio` of their bytes to the
/// device; reads fetch the reduced volume and pay a (cheaper) decode cost.

#include <cstdint>

#include "common/block_device.h"
#include "common/rng.h"
#include "sched/queued_resource.h"
#include "sim/simulator.h"

namespace uc::wl {

struct ReducerConfig {
  /// Fraction of bytes eliminated (0.5 = 2:1 compression / 50% dedup hits).
  double reduction_ratio = 0.5;
  /// Encode (compress/fingerprint) cost per 4 KiB page.
  double encode_us_per_page = 6.0;
  /// Decode cost per 4 KiB page on reads.
  double decode_us_per_page = 2.0;
  /// Host CPU workers available for encode/decode.  This bounds reduction
  /// throughput (workers * 4 KiB / cost) — the reason reduction used to be
  /// a pessimization on fast local SSDs.
  int cpu_workers = 4;
};

struct ReducerStats {
  std::uint64_t logical_bytes = 0;   ///< what the application moved
  std::uint64_t physical_bytes = 0;  ///< what reached the device
  SimTime cpu_ns = 0;

  double savings_ratio() const {
    return logical_bytes == 0
               ? 0.0
               : 1.0 - static_cast<double>(physical_bytes) /
                           static_cast<double>(logical_bytes);
  }
};

class ReducingDevice : public BlockDevice {
 public:
  ReducingDevice(sim::Simulator& sim, BlockDevice& inner,
                 const ReducerConfig& cfg);

  const DeviceInfo& info() const override { return inner_.info(); }
  void submit(const IoRequest& req, CompletionFn done) override;

  const ReducerStats& stats() const { return stats_; }

 private:
  std::uint32_t reduced_bytes(std::uint32_t bytes) const;

  sim::Simulator& sim_;
  BlockDevice& inner_;
  ReducerConfig cfg_;
  ReducerStats stats_;
  sched::QueuedResource cpus_;  ///< `cpu_workers` servers, FIFO
};

}  // namespace uc::wl
