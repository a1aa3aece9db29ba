#pragma once

/// \file ladder.h
/// The layer ladder: each rung replays a workload's recorded op stream,
/// with its real tags, sizes and submit times, straight into one layer's
/// public entry point and times it from outside.  A rung that sits on top
/// of lower layers includes their cost; a layer's own cost is its rung
/// minus the rungs below it (see perfbench/README.md).
///
/// Every rung repeats whole passes until it has measured `min_ns` of host
/// time, building its layer afresh (untimed) for each pass.

#include <cstdint>
#include <utility>
#include <vector>

#include "workloads.h"

namespace perfbench {

struct RungResult {
  std::uint64_t units = 0;  ///< events, acquires, hops, I/Os or NAND ops
  std::uint64_t ops = 0;    ///< stream ops replayed, over all passes
  std::uint64_t events = 0;  ///< kernel events the timed replays fired
  std::int64_t ns = 0;
  std::uint64_t passes = 0;
  double ns_per_unit() const { return per(static_cast<double>(ns), units); }
  /// Units per replayed stream op (hops or acquires per I/O, ...).
  double units_per_op() const { return per(static_cast<double>(units), ops); }
  double events_per_unit() const {
    return per(static_cast<double>(events), units);
  }

 private:
  static double per(double x, std::uint64_t n) {
    return n == 0 ? 0.0 : x / static_cast<double>(n);
  }
};

/// A layer's own cost per I/O: its rung's ns per I/O minus what the rungs
/// below it charge for the units one I/O uses there.  `below` pairs each
/// lower rung with its units per I/O of this layer.
double self_ns_per_io(const RungResult& layer,
                      const std::vector<std::pair<const RungResult*, double>>& below);

/// Bare `sim::Simulator`: each op's submit and completion become events
/// carrying a 32-byte capture.  Unit: event.
RungResult kernel_rung(const std::vector<Stream>& streams, std::int64_t min_ns);

/// `sched::QueuedResource::acquire`, one FIFO resource per storage node,
/// one reservation per replica fragment.  Unit: acquire.
RungResult sched_rung(const std::vector<Stream>& streams, std::int64_t min_ns);

/// `net::Fabric::to_node` (each write replica) and `to_vm` (each read).
/// Unit: hop.
RungResult net_rung(const std::vector<Stream>& streams, std::int64_t min_ns);

/// `ebs::StorageCluster::write/read/trim` with chunk-aligned fragments on
/// a precondition-filled cluster built from the stream's config.  Ops with
/// no completion time yet get the one this rung simulated.  Unit: I/O.
RungResult ebs_rung(std::vector<Stream>& streams, std::int64_t min_ns);

/// `ftl::Ftl::read/write/trim` per page run on a filled FTL.  Unit: I/O.
RungResult ftl_rung(const std::vector<Stream>& streams, std::int64_t min_ns);

/// `flash::NandArray::read_page/program_row/erase_on_die` for the stream's
/// page reads and row-sized write batches.  Unit: NAND op.
RungResult flash_rung(const std::vector<Stream>& streams, std::int64_t min_ns);

/// `LatencyHistogram::record` over the stream's simulated latencies.
/// Unit: record.
RungResult histogram_rung(const std::vector<Stream>& streams,
                          std::int64_t min_ns);

}  // namespace perfbench
