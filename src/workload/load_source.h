#pragma once

/// \file load_source.h
/// The unified load driver: one `LoadSpec` fully describes a tenant's (or a
/// bench's) offered load — either the classic closed-loop FIO job or an
/// open-loop trace replay — and `make_load_source()` builds the matching
/// `wl::LoadSource` (interface in workload/runner.h).
///
/// Closed loop is the paper's measurement mode: a fixed queue depth paces
/// submissions, so an overloaded device just slows the loop down.  Open
/// loop is how production traffic actually arrives (implications 4 and 5):
/// submissions follow trace timestamps whether or not the device keeps up,
/// so overload shows as divergent slowdown and backlog instead of a gentle
/// throughput plateau.  Every consumer — `placement::ShardedHost`'s
/// per-cluster shards, the solo baselines (`tenant::run_solo`), the
/// benches — drives a `LoadSource` and therefore runs either mode
/// unchanged.

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "sim/simulator.h"
#include "workload/runner.h"
#include "workload/spec.h"
#include "workload/trace.h"

namespace uc::wl {

/// Everything needed to build one load stream against one device.
struct LoadSpec {
  /// Closed-loop definition — and, for open-loop sources, still the home of
  /// the stream's name, seed, and precondition region fallback.
  JobSpec job;

  /// Switches the source to open-loop trace replay.  The trace comes from
  /// `trace_path` (CSV, see docs/TRACES.md) when set, otherwise from the
  /// synthetic generator `gen` (seed a sensible one from the job via
  /// `derive_trace_gen`).
  bool open_loop = false;
  std::string trace_path;
  TraceGenConfig gen;

  /// Open-loop submission clock: arrivals are divided by this (2.0 offers
  /// the trace at twice its recorded rate).
  double rate_scale = 1.0;
  /// Replay only the first N trace events (0 = all).
  std::uint64_t max_events = 0;

  /// Region a precondition fill should cover so the load hits media-backed
  /// data (0 bytes = whole device): the generator's region for synthetic
  /// replay, the job's region otherwise (a CSV trace doesn't carry one; the
  /// job's default of "whole device" is the safe cover).
  ByteOffset precondition_offset() const {
    return open_loop && trace_path.empty() ? gen.region_offset
                                           : job.region_offset;
  }
  std::uint64_t precondition_region_bytes() const {
    return open_loop && trace_path.empty() ? gen.region_bytes
                                           : job.region_bytes;
  }
};

/// A trace-generator config statistically shaped like `job`: same region,
/// write mix, single-entry size mix, duration, and seed, offered at
/// `base_iops` — the bridge from a closed-loop scenario role to its
/// open-loop equivalent.  Burstiness knobs keep their defaults; callers
/// tune them per role.
TraceGenConfig derive_trace_gen(const JobSpec& job, double base_iops);

/// Builds the source: a `JobRunner` (closed loop) or a `TraceReplayer`
/// (open loop, trace loaded or generated against `device`).  Fails only on
/// an unreadable/invalid `trace_path` (including events that do not fit
/// `device`) or a generator config `TraceGenConfig::validate` rejects.
Result<std::unique_ptr<LoadSource>> make_load_source(sim::Simulator& sim,
                                                     BlockDevice& device,
                                                     const LoadSpec& spec);

/// `make_load_source` for hosts that cannot propagate a Status (assertion
/// policy of the library): prints the error naming `who` and aborts.
std::unique_ptr<LoadSource> make_load_source_or_die(sim::Simulator& sim,
                                                    BlockDevice& device,
                                                    const LoadSpec& spec,
                                                    const std::string& who);

/// Convenience: start the source and run the simulator until it finishes
/// (plus any background activity it triggered).
JobStats run_load_to_completion(sim::Simulator& sim, BlockDevice& device,
                                const LoadSpec& spec);

}  // namespace uc::wl
