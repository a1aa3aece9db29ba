#include "workload/trace.h"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/strfmt.h"

namespace uc::wl {

Status TraceGenConfig::validate(const DeviceInfo& device) const {
  const auto bad = [](const char* what) {
    return Status::invalid_argument(what);
  };
  const auto non_negative = [](double v) {
    return std::isfinite(v) && v >= 0.0;
  };
  if (!non_negative(base_iops) || base_iops == 0.0) {
    return bad("trace base_iops must be finite and positive");
  }
  if (!non_negative(burst_iops)) {
    return bad("burst_iops must be finite and >= 0");
  }
  if (!non_negative(bursts_per_s)) {
    return bad("bursts_per_s must be finite and >= 0");
  }
  if (!non_negative(diurnal_amplitude)) {
    return bad("diurnal_amplitude must be finite and >= 0");
  }
  if (diurnal_period == 0) return bad("diurnal_period must be positive");
  if (!(write_fraction >= 0.0 && write_fraction <= 1.0)) {
    return bad("write_fraction must be within [0, 1]");
  }
  if (size_mix.empty()) return bad("trace needs an I/O size mix");
  std::uint32_t largest = kLogicalPageBytes;
  for (const auto& [bytes, w] : size_mix) {
    if (bytes == 0) return bad("size_mix has a zero-byte size");
    if (!std::isfinite(w) || w <= 0.0) {
      return bad("size_mix weights must be finite and positive");
    }
    largest = std::max(largest, bytes);
  }
  if (!(zipf_theta <= 10.0)) return bad("zipf_theta must be <= 10");
  if (region_offset >= device.capacity_bytes) {
    return bad("trace region starts past the device end");
  }
  const std::uint64_t room = device.capacity_bytes - region_offset;
  const std::uint64_t region = region_bytes == 0 ? room : region_bytes;
  if (region > room) {
    return bad("trace region exceeds device capacity");
  }
  if (region < largest) {
    return bad("trace region smaller than its largest I/O (or one page)");
  }
  return Status::ok();
}

std::vector<TraceEvent> generate_trace(const TraceGenConfig& cfg,
                                       const DeviceInfo& device,
                                       std::uint64_t max_events) {
  UC_ASSERT(cfg.validate(device).is_ok(), "invalid trace generator config");
  Rng rng(cfg.seed);
  const std::uint64_t region_bytes =
      cfg.region_bytes == 0 ? device.capacity_bytes - cfg.region_offset
                            : cfg.region_bytes;
  const std::uint64_t region_pages = region_bytes / kLogicalPageBytes;
  ZipfGenerator zipf(region_pages, cfg.zipf_theta > 0 ? cfg.zipf_theta : 0.99);

  double weight_sum = 0.0;
  for (const auto& [bytes, w] : cfg.size_mix) weight_sum += w;

  auto pick_size = [&]() -> std::uint32_t {
    double x = rng.uniform() * weight_sum;
    for (const auto& [bytes, w] : cfg.size_mix) {
      if (x < w) return bytes;
      x -= w;
    }
    return cfg.size_mix.back().first;
  };

  // One allocation for a typical trace: reserve 10% over the count the
  // config implies (the diurnal sinusoid averages to the base rate), or
  // the cap if that is smaller.
  constexpr double kReserveSlack = 1.1;
  const double duration_s = static_cast<double>(cfg.duration) / 1e9;
  const double burst_share = std::min(
      1.0, cfg.bursts_per_s * static_cast<double>(cfg.burst_duration) / 1e9);
  const double expected_events =
      duration_s * (cfg.base_iops + cfg.burst_iops * burst_share);
  std::vector<TraceEvent> trace;
  // Clamped before the cast: a double past `size_t`'s range does not convert.
  const double cap = max_events > 0 ? static_cast<double>(max_events)
                                    : static_cast<double>(trace.max_size());
  trace.reserve(static_cast<std::size_t>(
      std::min(expected_events * kReserveSlack + 64, cap)));

  // Thinned non-homogeneous Poisson: walk in small steps, drawing arrivals
  // at the max rate and accepting with probability rate(t)/max_rate.
  const double max_rate =
      cfg.base_iops * (1.0 + cfg.diurnal_amplitude) + cfg.burst_iops;
  // Bounds on the acceptance probability over a whole diurnal cycle, indexed
  // by "in a burst".  With amplitude >= 0 and |sin| <= 1, every rounding
  // step of rate(t) below (the product, the 5% floor, the burst add, the
  // division) is monotone, so these bound the computed probability exactly:
  // a draw at or above `accept_hi` is rejected and one below `accept_lo`
  // accepted at every phase, and the sinusoid is only needed in between.
  const double floor_rate = cfg.base_iops * 0.05;
  const double rate_hi =
      std::max(cfg.base_iops * (1.0 + cfg.diurnal_amplitude), floor_rate);
  const double rate_lo =
      std::max(cfg.base_iops * (1.0 - cfg.diurnal_amplitude), floor_rate);
  const double accept_hi[2] = {rate_hi / max_rate,
                               (rate_hi + cfg.burst_iops) / max_rate};
  const double accept_lo[2] = {rate_lo / max_rate,
                               (rate_lo + cfg.burst_iops) / max_rate};
  SimTime burst_until = 0;
  SimTime next_burst_check = 0;
  double t = 0.0;
  while (true) {
    t += rng.exponential(1.0 / max_rate);
    if (t >= duration_s) break;
    // The diurnal and burst clocks run at absolute (fleet) time; only the
    // thinning walk is window-relative.
    const auto now = cfg.start_offset + static_cast<SimTime>(t * 1e9);

    // Burst process: re-draw burst starts lazily.
    while (next_burst_check <= now) {
      if (rng.bernoulli(cfg.bursts_per_s * 0.01)) {  // checked every 10 ms
        burst_until = next_burst_check + cfg.burst_duration;
      }
      next_burst_check += 10 * units::kMs;
    }

    // The thinning draw: accept iff u < rate(now) / max_rate.
    const bool bursting = now < burst_until;
    const double u = rng.uniform();
    if (u >= accept_hi[bursting]) continue;
    if (u >= accept_lo[bursting]) {
      double rate =
          cfg.base_iops *
          (1.0 + cfg.diurnal_amplitude *
                     std::sin(2.0 * 3.14159265358979 *
                              static_cast<double>(now) /
                              static_cast<double>(cfg.diurnal_period)));
      rate = std::max(rate, floor_rate);
      if (bursting) rate += cfg.burst_iops;
      if (!(u < rate / max_rate)) continue;
    }

    TraceEvent ev;
    ev.arrival = now;
    ev.op = rng.bernoulli(cfg.write_fraction) ? IoOp::kWrite : IoOp::kRead;
    ev.bytes = pick_size();
    const std::uint64_t page =
        (zipf.next(rng) * 0x9e3779b97f4a7c15ull) % region_pages;
    ByteOffset off = cfg.region_offset + page * kLogicalPageBytes;
    if (off + ev.bytes > cfg.region_offset + region_bytes) {
      off = cfg.region_offset + region_bytes - ev.bytes;
      off -= off % kLogicalPageBytes;
    }
    ev.offset = off;
    trace.push_back(ev);
    if (trace.size() == max_events) break;
  }
  return trace;
}

TraceSummary summarize_trace(const std::vector<TraceEvent>& trace,
                             double rate_scale) {
  UC_ASSERT(rate_scale > 0.0, "rate_scale must be positive");
  TraceSummary s;
  s.events = trace.size();
  const SimTime bin = 100 * units::kMs;
  std::vector<std::uint64_t> event_bins;
  std::vector<std::uint64_t> byte_bins;
  std::uint64_t small_bytes = 0;
  for (const auto& ev : trace) {
    const auto scaled =
        static_cast<SimTime>(static_cast<double>(ev.arrival) / rate_scale);
    s.span_ns = std::max(s.span_ns, scaled);
    s.total_bytes += ev.bytes;
    if (ev.op == IoOp::kWrite) s.write_bytes += ev.bytes;
    if (ev.bytes < 64 * 1024) small_bytes += ev.bytes;
    const auto b = static_cast<std::size_t>(scaled / bin);
    if (b >= event_bins.size()) {
      event_bins.resize(b + 1, 0);
      byte_bins.resize(b + 1, 0);
    }
    ++event_bins[b];
    byte_bins[b] += ev.bytes;
  }
  const auto peak_over_mean = [](const std::vector<std::uint64_t>& bins) {
    std::uint64_t total = 0;
    std::uint64_t peak = 0;
    for (const auto c : bins) {
      total += c;
      peak = std::max(peak, c);
    }
    if (total == 0) return 0.0;
    const double mean =
        static_cast<double>(total) / static_cast<double>(bins.size());
    return static_cast<double>(peak) / mean;
  };
  s.peak_to_mean = peak_over_mean(event_bins);
  s.byte_peak_to_mean = peak_over_mean(byte_bins);
  s.small_io_byte_fraction =
      s.total_bytes == 0 ? 0.0
                         : static_cast<double>(small_bytes) /
                               static_cast<double>(s.total_bytes);
  return s;
}

TraceSummary load_source_trace_summary(const LoadSource& source) {
  // A future open-loop implementation that is not a TraceReplayer (the
  // ROADMAP's bounded-submission client) simply reports a zero-event
  // summary instead of tripping undefined behavior.
  const auto* replayer = dynamic_cast<const TraceReplayer*>(&source);
  if (replayer == nullptr) return {};
  // Summarized at the replay's own rate scale: the summary describes the
  // load as offered, which is what the contract checker judges.
  return summarize_trace(replayer->trace(), replayer->rate_scale());
}

Status save_trace_csv(const std::vector<TraceEvent>& trace,
                      const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::internal(strfmt("cannot open %s for writing", path.c_str()));
  }
  std::fprintf(f, "arrival_ns,op,offset,bytes\n");
  for (const auto& ev : trace) {
    std::fprintf(f, "%" PRIu64 ",%s,%" PRIu64 ",%u\n", ev.arrival,
                 ev.op == IoOp::kWrite ? "W" : "R", ev.offset, ev.bytes);
  }
  std::fclose(f);
  return Status::ok();
}

namespace {

// Strict CSV field parser: a decimal `uint64` followed by `sep` (when
// non-NUL, which is consumed).  Rejects missing digits, overflow (ERANGE),
// and a wrong/absent separator, so truncated or corrupted rows fail loudly
// instead of silently replaying garbage.
bool parse_field_u64(const char** cursor, char sep, std::uint64_t* out) {
  const char* s = *cursor;
  if (*s < '0' || *s > '9') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || errno == ERANGE) return false;
  if (sep != '\0') {
    if (*end != sep) return false;
    ++end;
  }
  *out = v;
  *cursor = end;
  return true;
}

}  // namespace

Result<std::vector<TraceEvent>> load_trace_csv(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    return Status::not_found(strfmt("cannot open %s", path.c_str()));
  }
  std::vector<TraceEvent> trace;
  char line[256];
  bool first = true;
  std::uint64_t lineno = 0;
  const auto bad = [&](const char* what) {
    std::fclose(f);
    return Status::invalid_argument(
        strfmt("%s:%llu: %s", path.c_str(),
               static_cast<unsigned long long>(lineno), what));
  };
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    ++lineno;
    if (first) {  // header
      first = false;
      continue;
    }
    // Trailing blank line ('\n', or "\r\n" from a CRLF-authored file).
    if (line[0] == '\n' || line[0] == '\r' || line[0] == '\0') continue;
    const char* cursor = line;
    std::uint64_t arrival = 0;
    std::uint64_t offset = 0;
    std::uint64_t bytes = 0;
    if (!parse_field_u64(&cursor, ',', &arrival)) {
      return bad("bad or truncated arrival_ns field");
    }
    const char op = *cursor;
    if (op != 'W' && op != 'R') return bad("op must be W or R");
    ++cursor;
    if (*cursor != ',') return bad("truncated row after op");
    ++cursor;
    if (!parse_field_u64(&cursor, ',', &offset)) {
      return bad("bad, truncated, or out-of-range offset field");
    }
    if (!parse_field_u64(&cursor, '\0', &bytes)) {
      return bad("bad or out-of-range bytes field");
    }
    if (*cursor != '\0' && *cursor != '\n' && *cursor != '\r') {
      return bad("trailing garbage after bytes");
    }
    if (bytes == 0 || bytes > 0xffffffffull) {
      return bad("bytes must fit a positive uint32");
    }
    TraceEvent ev;
    ev.arrival = arrival;
    ev.op = op == 'W' ? IoOp::kWrite : IoOp::kRead;
    ev.offset = offset;
    ev.bytes = static_cast<std::uint32_t>(bytes);
    trace.push_back(ev);
  }
  std::fclose(f);
  return trace;
}

TraceReplayer::TraceReplayer(sim::Simulator& sim, BlockDevice& device,
                             std::vector<TraceEvent> trace,
                             const ReplayOptions& opt)
    : sim_(sim), device_(device), trace_(std::move(trace)), opt_(opt) {
  UC_ASSERT(std::is_sorted(trace_.begin(), trace_.end(),
                           [](const TraceEvent& a, const TraceEvent& b) {
                             return a.arrival < b.arrival;
                           }),
            "trace must be arrival-ordered");
  UC_ASSERT(opt_.rate_scale > 0.0, "rate_scale must be positive");
  if (opt_.max_events > 0 && trace_.size() > opt_.max_events) {
    trace_.resize(opt_.max_events);
  }
}

SimTime TraceReplayer::scaled(SimTime arrival) const {
  if (opt_.rate_scale == 1.0) return arrival;
  return static_cast<SimTime>(static_cast<double>(arrival) / opt_.rate_scale);
}

void TraceReplayer::start() {
  UC_ASSERT(!started_, "replay already started");
  started_ = true;
  t0_ = sim_.now();
  stats_.first_submit = sim_.now();
  schedule_next();
}

void TraceReplayer::schedule_next() {
  if (submitted_ >= trace_.size()) return;
  const TraceEvent& ev = trace_[submitted_];
  const SimTime intended = t0_ + scaled(ev.arrival);
  sim_.schedule_at(intended, [this, ev, intended] {
    ++submitted_;
    ++inflight_;
    max_inflight_ = std::max(max_inflight_, inflight_);
    IoRequest req{next_id_++, ev.op, ev.offset, ev.bytes};
    device_.submit(req, [this, intended](const IoResult& r) {
      --inflight_;
      stats_.record(r);
      // Slowdown clock: against the *intended* arrival, so host-side
      // submission delay (a frozen device, a future bounded submitter)
      // counts against the op just like device-side queueing does.
      stats_.slowdown.record(r.complete_time - intended);
    });
    schedule_next();
  });
}

}  // namespace uc::wl
