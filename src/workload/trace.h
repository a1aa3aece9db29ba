#pragma once

/// \file trace.h
/// Synthetic cloud block-storage traces and an open-loop replayer.
///
/// The paper's implications 4 and 5 concern real cloud workloads — bursty,
/// diurnally modulated, spatially skewed (Li et al., cited as [2]).  Since
/// production traces are not redistributable, this generator reconstructs
/// those statistical features: a base Poisson arrival process with
/// sinusoidal modulation, superimposed bursts, zipf spatial skew, and a
/// realistic I/O-size mix.  Traces can be saved/loaded as CSV for
/// experiment repeatability.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/block_device.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/types.h"
#include "common/units.h"
#include "sim/simulator.h"
#include "workload/runner.h"

namespace uc::wl {

/// Widest field first, so an event packs to 24 bytes: a generated trace is
/// the largest thing an open-loop replay keeps resident.
struct TraceEvent {
  SimTime arrival = 0;
  ByteOffset offset = 0;
  std::uint32_t bytes = kLogicalPageBytes;
  IoOp op = IoOp::kWrite;
};
static_assert(sizeof(TraceEvent) == 24, "TraceEvent must stay packed");

struct TraceGenConfig {
  SimTime duration = 60 * units::kSec;
  double base_iops = 3000.0;

  /// Arrival timestamps are offset by this much, and the diurnal sinusoid is
  /// evaluated at the *offset* (absolute) time — so a fleet of tenants with
  /// different activity windows shares one fleet-wide diurnal clock, and a
  /// late-arriving tenant's trace starts mid-cycle instead of restarting it.
  /// 0 (the default) reproduces the original generator bit for bit.
  SimTime start_offset = 0;

  /// rate(t) = base * (1 + amplitude * sin(2*pi*t/period)), floored at 5%.
  double diurnal_amplitude = 0.5;
  SimTime diurnal_period = 30 * units::kSec;

  /// Poisson-started bursts riding on the base process.
  double bursts_per_s = 0.08;
  double burst_iops = 40000.0;
  SimTime burst_duration = 250 * units::kMs;

  double write_fraction = 0.7;
  double zipf_theta = 0.9;

  /// I/O size mix: (bytes, weight).  Defaults follow measured cloud-volume
  /// distributions: mostly small, a tail of large I/Os.
  std::vector<std::pair<std::uint32_t, double>> size_mix = {
      {4096, 0.50}, {16384, 0.30}, {65536, 0.15}, {262144, 0.05}};

  ByteOffset region_offset = 0;
  std::uint64_t region_bytes = 0;  ///< 0 = whole device

  std::uint64_t seed = 2024;

  /// Rejects a config the generator cannot walk: a non-positive or
  /// non-finite base rate; a negative or non-finite burst rate, burst
  /// frequency or diurnal amplitude; a zero diurnal period; a write
  /// fraction outside [0, 1]; an empty size mix, a zero-byte size or a
  /// non-positive weight; `zipf_theta > 10`; and a region that leaves
  /// `device` or is smaller than the largest I/O size (or one page).
  Status validate(const DeviceInfo& device) const;
};

/// Generates an arrival-ordered trace against `device`'s address space.
/// `cfg` must pass `validate(device)`.
///
/// Arrivals are a thinned non-homogeneous Poisson process: candidates are
/// drawn at the peak rate and each is kept with probability
/// rate(t)/peak.  The thinning draw is decided from precomputed bounds on
/// rate(t) over the diurnal cycle, and the sinusoid is evaluated only for
/// the few draws those bounds cannot decide.  The bounds are exact for the
/// floating-point rate, and the shortcut adds, removes and reorders no RNG
/// draw, so every trace is the one the sinusoid-per-candidate walk
/// produces, event for event (pinned in tests/trace_test.cpp).
///
/// The event vector is reserved once, at 1.1x the count the config implies
/// (mean diurnal rate plus the burst rate times the fraction of time spent
/// bursting) plus 64, so a typical trace never regrows; a longer one still
/// grows as usual.
///
/// A nonzero `max_events` stops the walk once that many events are kept
/// and caps the reservation at it.  The kept events draw exactly what they
/// draw uncapped, so a capped trace is a prefix of the uncapped one.
std::vector<TraceEvent> generate_trace(const TraceGenConfig& cfg,
                                       const DeviceInfo& device,
                                       std::uint64_t max_events = 0);

/// Shape of a trace at a glance — the inputs the contract replay checker
/// (`contract::evaluate_replay`) judges a replay run against.
struct TraceSummary {
  std::uint64_t events = 0;
  SimTime span_ns = 0;  ///< last arrival (the trace's own timeline length)
  std::uint64_t total_bytes = 0;
  std::uint64_t write_bytes = 0;
  /// Peak/mean of per-100ms *arrival counts* (IOPS burstiness) and of
  /// per-100ms *arriving bytes* (throughput burstiness).  They diverge
  /// when bursts have a different size mix than the base load — small-I/O
  /// storms spike the first, a few huge I/Os spike the second — and the
  /// budget rules must judge bytes against a byte budget.
  double peak_to_mean = 0.0;
  double byte_peak_to_mean = 0.0;
  /// Fraction of *bytes* moved by I/Os smaller than 64 KiB — the "did you
  /// scale your I/Os up" signal of Implication 1.
  double small_io_byte_fraction = 0.0;

  double offered_gbs() const {
    return span_ns == 0 ? 0.0
                        : static_cast<double>(total_bytes) /
                              static_cast<double>(span_ns);
  }
  double offered_iops() const {
    return span_ns == 0 ? 0.0
                        : static_cast<double>(events) * 1e9 /
                              static_cast<double>(span_ns);
  }
};

/// Summarizes the trace as it would be *offered* at `rate_scale`x its
/// recorded pace: arrivals are compressed before binning, so the windowed
/// peak-to-mean ratios are those of the time-warped replay, not the
/// original timeline's.
TraceSummary summarize_trace(const std::vector<TraceEvent>& trace,
                             double rate_scale = 1.0);

/// The summary of the trace an open-loop source is replaying; a zero-event
/// summary for closed-loop sources and for open-loop implementations other
/// than `TraceReplayer`.
TraceSummary load_source_trace_summary(const LoadSource& source);

Status save_trace_csv(const std::vector<TraceEvent>& trace,
                      const std::string& path);
Result<std::vector<TraceEvent>> load_trace_csv(const std::string& path);

struct ReplayOptions {
  /// Time-warp: arrival timestamps are divided by this, so 2.0 offers the
  /// trace's load at twice its recorded rate (the overload lever).
  double rate_scale = 1.0;
  /// Replay only the first N events (0 = the whole trace).  A generated
  /// trace arrives already capped (see `generate_trace`); a loaded CSV is
  /// truncated here.
  std::uint64_t max_events = 0;
};

/// Open-loop replay: submissions happen at (rate-scaled) trace arrival
/// times regardless of completions — queue growth is the burst signal the
/// smoother removes, and `stats().slowdown` records each op's completion
/// delay against its intended arrival (per-op slowdown accounting).
class TraceReplayer : public LoadSource {
 public:
  TraceReplayer(sim::Simulator& sim, BlockDevice& device,
                std::vector<TraceEvent> trace, const ReplayOptions& opt = {});

  void start() override;
  bool finished() const override {
    return started_ && submitted_ == trace_.size() && inflight_ == 0;
  }

  bool open_loop() const override { return true; }
  std::uint64_t backlog_peak() const override { return max_inflight_; }
  const std::vector<TraceEvent>& trace() const { return trace_; }
  double rate_scale() const { return opt_.rate_scale; }

 private:
  void schedule_next();
  /// `arrival / rate_scale`, the submission clock of the replay.
  SimTime scaled(SimTime arrival) const;

  sim::Simulator& sim_;
  BlockDevice& device_;
  std::vector<TraceEvent> trace_;
  ReplayOptions opt_;
  std::size_t submitted_ = 0;
  std::uint64_t inflight_ = 0;
  std::uint64_t max_inflight_ = 0;
  SimTime t0_ = 0;
  IoId next_id_ = 1;
  bool started_ = false;
};

}  // namespace uc::wl
