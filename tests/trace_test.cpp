// Tests for the synthetic cloud-trace generator, CSV round-tripping, and
// the open-loop replayer.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "common/digest.h"
#include "common/rng.h"
#include "common/units.h"
#include "ssd/ssd_device.h"
#include "workload/trace.h"

namespace uc::wl {
namespace {

using namespace units;

DeviceInfo test_device_info() {
  DeviceInfo info;
  info.name = "test";
  info.capacity_bytes = 1 * kGiB;
  return info;
}

TraceGenConfig small_config() {
  TraceGenConfig cfg;
  cfg.duration = 5 * kSec;
  cfg.base_iops = 1000.0;
  cfg.burst_iops = 8000.0;
  cfg.bursts_per_s = 0.5;
  cfg.write_fraction = 0.7;
  cfg.seed = 99;
  return cfg;
}

// The perfbench `essd_read_burst` shape, shortened: 25K base IOPS swinging
// +-50%, and many short 30K-IOPS bursts.
TraceGenConfig read_burst_config() {
  TraceGenConfig cfg;
  cfg.duration = 1 * kSec;
  cfg.base_iops = 25000.0;
  cfg.diurnal_amplitude = 0.5;
  cfg.diurnal_period = 4 * kSec;
  cfg.bursts_per_s = 8.0;
  cfg.burst_iops = 30000.0;
  cfg.burst_duration = 30 * kMs;
  cfg.write_fraction = 0.1;
  cfg.zipf_theta = 0.9;
  cfg.seed = 5;
  return cfg;
}

// One fleet tenant as `fleet::generate_fleet` builds it: a small base rate
// under large bursts on a fleet-wide diurnal clock, joining mid-cycle.
TraceGenConfig fleet_tenant_config() {
  TraceGenConfig cfg;
  cfg.duration = 600 * kMs;
  cfg.start_offset = 130 * kMs;
  cfg.base_iops = 600.0;
  cfg.diurnal_amplitude = 0.4;
  cfg.diurnal_period = 400 * kMs;
  cfg.bursts_per_s = 2.0;
  cfg.burst_iops = 4000.0;
  cfg.burst_duration = 20 * kMs;
  cfg.write_fraction = 0.6;
  cfg.zipf_theta = 0.9;
  cfg.region_bytes = 32 * kMiB;
  cfg.seed = 11;
  return cfg;
}

struct NamedConfig {
  const char* name;
  TraceGenConfig cfg;
};

// The shapes whose traces are pinned: the test default, the two
// production callers (perfbench's read burst, a fleet tenant), an amplitude
// past 1 (the 5% floor clips the trough) and a burst-free process.
std::vector<NamedConfig> pinned_configs() {
  TraceGenConfig deep = small_config();
  deep.diurnal_amplitude = 1.5;
  TraceGenConfig calm = small_config();
  calm.burst_iops = 0.0;
  return {{"small_config", small_config()},
          {"read_burst", read_burst_config()},
          {"fleet_tenant", fleet_tenant_config()},
          {"amplitude_1.5", deep},
          {"no_bursts", calm}};
}

std::uint64_t trace_digest(const std::vector<TraceEvent>& trace) {
  Fnv1a d;
  for (const auto& ev : trace) {
    d.mix(static_cast<std::uint64_t>(ev.arrival))
        .mix(static_cast<std::uint64_t>(ev.op))
        .mix(static_cast<std::uint64_t>(ev.offset))
        .mix(static_cast<std::uint64_t>(ev.bytes));
  }
  return d.value();
}

// The plain thinning walk: one sinusoid per candidate and one `bernoulli`
// per thinning draw, with no rate-bound shortcut.  Kept here, and only here,
// as the oracle `generate_trace` must match event for event.
std::vector<TraceEvent> reference_trace(const TraceGenConfig& cfg,
                                        const DeviceInfo& device) {
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

  std::vector<TraceEvent> trace;
  const double max_rate =
      cfg.base_iops * (1.0 + cfg.diurnal_amplitude) + cfg.burst_iops;
  SimTime burst_until = 0;
  SimTime next_burst_check = 0;
  double t = 0.0;
  const double duration_s = static_cast<double>(cfg.duration) / 1e9;
  while (true) {
    t += rng.exponential(1.0 / max_rate);
    if (t >= duration_s) break;
    const auto now = cfg.start_offset + static_cast<SimTime>(t * 1e9);

    while (next_burst_check <= now) {
      if (rng.bernoulli(cfg.bursts_per_s * 0.01)) {
        burst_until = next_burst_check + cfg.burst_duration;
      }
      next_burst_check += 10 * units::kMs;
    }

    double rate = cfg.base_iops *
                  (1.0 + cfg.diurnal_amplitude *
                             std::sin(2.0 * 3.14159265358979 *
                                      static_cast<double>(now) /
                                      static_cast<double>(cfg.diurnal_period)));
    rate = std::max(rate, cfg.base_iops * 0.05);
    if (now < burst_until) rate += cfg.burst_iops;
    if (!rng.bernoulli(rate / max_rate)) continue;

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
  }
  return trace;
}

TEST(TraceGenerator, PinnedTraceDigests) {
  struct Pin {
    std::uint64_t events;
    std::uint64_t digest;
  };
  // Captured from the sinusoid-per-candidate walk; `generate_trace` must
  // reproduce every trace bit for bit.
  const Pin pins[] = {
      {12042, 0xd0a639d386ef3b68ull},  // small_config
      {39442, 0x5325ef6a9aead9a2ull},  // read_burst
      {498, 0x11416512ab9e4426ull},    // fleet_tenant
      {12481, 0xb61a8ef4de84b250ull},  // amplitude_1.5
      {6317, 0x46eba6ccaa1b96e5ull},   // no_bursts
  };
  const auto configs = pinned_configs();
  ASSERT_EQ(configs.size(), std::size(pins));
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const auto trace = generate_trace(configs[i].cfg, test_device_info());
    EXPECT_EQ(trace.size(), pins[i].events) << configs[i].name;
    EXPECT_EQ(trace_digest(trace), pins[i].digest) << configs[i].name;
  }
}

TEST(TraceGenerator, BoundedThinningMatchesReference) {
  auto configs = pinned_configs();
  TraceGenConfig flat = small_config();
  flat.diurnal_amplitude = 0.0;
  configs.push_back({"amplitude_0", flat});
  for (const NamedConfig& c : configs) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      TraceGenConfig cfg = c.cfg;
      cfg.seed = seed;
      const auto got = generate_trace(cfg, test_device_info());
      const auto want = reference_trace(cfg, test_device_info());
      ASSERT_EQ(got.size(), want.size()) << c.name << " seed " << seed;
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].arrival, want[i].arrival) << c.name << " #" << i;
        ASSERT_EQ(got[i].op, want[i].op) << c.name << " #" << i;
        ASSERT_EQ(got[i].offset, want[i].offset) << c.name << " #" << i;
        ASSERT_EQ(got[i].bytes, want[i].bytes) << c.name << " #" << i;
      }
    }
  }
}

TEST(TraceGenerator, CapKeepsAPrefixOfTheUncappedTrace) {
  // The perfbench `essd_read_burst` shape at full length (about 380K
  // events), capped at the 240K events that workload replays.  A capped
  // walk stops at the cap, so its events are the uncapped trace's first
  // `cap` and its vector never reserves room past them.
  constexpr std::uint64_t kCap = 240000;
  TraceGenConfig cfg = read_burst_config();
  cfg.duration = 12 * kSec;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    cfg.seed = seed;
    const auto full = generate_trace(cfg, test_device_info());
    const auto capped = generate_trace(cfg, test_device_info(), kCap);
    ASSERT_GT(full.size(), kCap) << "seed " << seed;
    ASSERT_EQ(capped.size(), kCap) << "seed " << seed;
    EXPECT_LE(capped.capacity(), kCap) << "seed " << seed;
    for (std::size_t i = 0; i < capped.size(); ++i) {
      const TraceEvent& got = capped[i];
      const TraceEvent& want = full[i];
      ASSERT_EQ(got.arrival, want.arrival) << "seed " << seed << " #" << i;
      ASSERT_EQ(got.op, want.op) << "seed " << seed << " #" << i;
      ASSERT_EQ(got.offset, want.offset) << "seed " << seed << " #" << i;
      ASSERT_EQ(got.bytes, want.bytes) << "seed " << seed << " #" << i;
    }
    // A cap past the trace's length changes nothing.
    const auto loose =
        generate_trace(cfg, test_device_info(), full.size() + 1);
    EXPECT_EQ(trace_digest(loose), trace_digest(full)) << "seed " << seed;
  }
}

TEST(TraceGenerator, EventsAreOrderedAlignedAndBounded) {
  const auto trace = generate_trace(small_config(), test_device_info());
  ASSERT_GT(trace.size(), 2000u);
  SimTime prev = 0;
  for (const auto& ev : trace) {
    ASSERT_GE(ev.arrival, prev);
    prev = ev.arrival;
    ASSERT_LT(ev.arrival, 5 * kSec);
    ASSERT_EQ(ev.offset % kLogicalPageBytes, 0u);
    ASSERT_LE(ev.offset + ev.bytes, 1 * kGiB);
    ASSERT_GT(ev.bytes, 0u);
  }
}

TEST(TraceGenerator, RespectsWriteFraction) {
  const auto trace = generate_trace(small_config(), test_device_info());
  std::uint64_t writes = 0;
  for (const auto& ev : trace) {
    if (ev.op == IoOp::kWrite) ++writes;
  }
  const double ratio =
      static_cast<double>(writes) / static_cast<double>(trace.size());
  EXPECT_NEAR(ratio, 0.7, 0.03);
}

TEST(TraceGenerator, BurstsRaisePeakToMean) {
  auto calm = small_config();
  calm.burst_iops = 0.0;
  calm.diurnal_amplitude = 0.0;
  auto bursty = small_config();
  bursty.burst_iops = 30000.0;
  bursty.bursts_per_s = 0.5;
  const double calm_ptm =
      summarize_trace(generate_trace(calm, test_device_info())).peak_to_mean;
  const double bursty_ptm =
      summarize_trace(generate_trace(bursty, test_device_info()))
          .peak_to_mean;
  EXPECT_LT(calm_ptm, 2.0);
  EXPECT_GT(bursty_ptm, 3.0);
}

TEST(TraceGenerator, DeterministicPerSeed) {
  const auto a = generate_trace(small_config(), test_device_info());
  const auto b = generate_trace(small_config(), test_device_info());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].arrival, b[i].arrival);
    ASSERT_EQ(a[i].offset, b[i].offset);
  }
}

TEST(TraceGenConfig, ValidateRejectsEachBadField) {
  const DeviceInfo dev = test_device_info();
  EXPECT_TRUE(TraceGenConfig{}.validate(dev).is_ok());
  EXPECT_TRUE(fleet_tenant_config().validate(dev).is_ok());

  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  struct Row {
    const char* field;
    void (*spoil)(TraceGenConfig&);
  };
  const Row rows[] = {
      {"base_iops (zero)", [](TraceGenConfig& c) { c.base_iops = 0.0; }},
      {"base_iops (negative)", [](TraceGenConfig& c) { c.base_iops = -1.0; }},
      {"base_iops (non-finite)",
       [](TraceGenConfig& c) { c.base_iops = kInf; }},
      {"burst_iops (negative)",
       [](TraceGenConfig& c) { c.burst_iops = -1.0; }},
      {"burst_iops (non-finite)",
       [](TraceGenConfig& c) { c.burst_iops = kNaN; }},
      {"bursts_per_s (negative)",
       [](TraceGenConfig& c) { c.bursts_per_s = -0.1; }},
      {"bursts_per_s (non-finite)",
       [](TraceGenConfig& c) { c.bursts_per_s = kInf; }},
      {"diurnal_amplitude (negative)",
       [](TraceGenConfig& c) { c.diurnal_amplitude = -0.5; }},
      {"diurnal_amplitude (non-finite)",
       [](TraceGenConfig& c) { c.diurnal_amplitude = kNaN; }},
      {"diurnal_period", [](TraceGenConfig& c) { c.diurnal_period = 0; }},
      {"write_fraction (below 0)",
       [](TraceGenConfig& c) { c.write_fraction = -0.1; }},
      {"write_fraction (above 1)",
       [](TraceGenConfig& c) { c.write_fraction = 1.5; }},
      {"write_fraction (non-finite)",
       [](TraceGenConfig& c) { c.write_fraction = kNaN; }},
      {"size_mix (empty)", [](TraceGenConfig& c) { c.size_mix.clear(); }},
      {"size_mix (zero-byte size)",
       [](TraceGenConfig& c) { c.size_mix[1].first = 0; }},
      {"size_mix (zero weight)",
       [](TraceGenConfig& c) { c.size_mix[2].second = 0.0; }},
      {"size_mix (negative weight)",
       [](TraceGenConfig& c) { c.size_mix[0].second = -1.0; }},
      {"zipf_theta", [](TraceGenConfig& c) { c.zipf_theta = 10.5; }},
      {"region_offset (off the device)",
       [](TraceGenConfig& c) { c.region_offset = 2 * kGiB; }},
      {"region_bytes (past the device end)",
       [](TraceGenConfig& c) {
         c.region_offset = 512 * kMiB;
         c.region_bytes = 768 * kMiB;
       }},
      {"region_bytes (smaller than the largest I/O)",
       [](TraceGenConfig& c) { c.region_bytes = 128 * kKiB; }},
  };
  for (const Row& row : rows) {
    TraceGenConfig cfg;
    row.spoil(cfg);
    EXPECT_EQ(cfg.validate(dev).code(), StatusCode::kInvalidArgument)
        << row.field;
  }
}

TEST(TraceCsv, RoundTrips) {
  const auto trace = generate_trace(small_config(), test_device_info());
  const std::string path = ::testing::TempDir() + "/trace_roundtrip.csv";
  ASSERT_TRUE(save_trace_csv(trace, path).is_ok());
  auto loaded = load_trace_csv(path);
  ASSERT_TRUE(loaded.is_ok());
  const auto& back = loaded.value();
  ASSERT_EQ(back.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); i += 97) {
    EXPECT_EQ(back[i].arrival, trace[i].arrival);
    EXPECT_EQ(back[i].op, trace[i].op);
    EXPECT_EQ(back[i].offset, trace[i].offset);
    EXPECT_EQ(back[i].bytes, trace[i].bytes);
  }
  std::remove(path.c_str());
}

TEST(TraceCsv, LoadMissingFileFails) {
  EXPECT_FALSE(load_trace_csv("/nonexistent/trace.csv").is_ok());
}

// Writes `body` under the CSV header and returns the loader's result.
Result<std::vector<TraceEvent>> load_rows(const std::string& name,
                                          const std::string& body) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::FILE* f = std::fopen(path.c_str(), "w");
  EXPECT_NE(f, nullptr);
  std::fputs("arrival_ns,op,offset,bytes\n", f);
  std::fputs(body.c_str(), f);
  std::fclose(f);
  auto result = load_trace_csv(path);
  std::remove(path.c_str());
  return result;
}

TEST(TraceCsv, TruncatedRowFails) {
  // Missing the bytes field entirely.
  EXPECT_FALSE(load_rows("truncated.csv", "1000,W,4096\n").is_ok());
  // Cut off mid-field (no trailing newline).
  EXPECT_FALSE(load_rows("cut.csv", "1000,W,").is_ok());
  // Missing everything after the op.
  EXPECT_FALSE(load_rows("no_offset.csv", "1000,R\n").is_ok());
}

TEST(TraceCsv, BadOpFails) {
  // Unknown op letters must not silently load as reads.
  EXPECT_FALSE(load_rows("badop.csv", "1000,X,4096,4096\n").is_ok());
  EXPECT_FALSE(load_rows("lowercase.csv", "1000,w,4096,4096\n").is_ok());
}

TEST(TraceCsv, OutOfRangeFieldsFail) {
  // Offset overflowing uint64 must be rejected, not wrapped.
  EXPECT_FALSE(
      load_rows("bigoff.csv", "1000,W,99999999999999999999999999,4096\n")
          .is_ok());
  // Bytes must fit a positive uint32.
  EXPECT_FALSE(load_rows("bigbytes.csv", "1000,W,0,4294967296\n").is_ok());
  EXPECT_FALSE(load_rows("zerobytes.csv", "1000,W,0,0\n").is_ok());
}

TEST(TraceCsv, ErrorNamesTheLine) {
  const auto result = load_rows("lineno.csv", "0,W,0,4096\njunk\n");
  ASSERT_FALSE(result.is_ok());
  // Row 3 of the file (header + one good row before it).
  EXPECT_NE(result.status().message().find(":3:"), std::string::npos)
      << result.status().message();
}

TEST(TraceCsv, NegativeFieldFails) {
  EXPECT_FALSE(load_rows("negative.csv", "-5,W,0,4096\n").is_ok());
}

TEST(TraceCsv, ToleratesCrlfRowsAndTrailingBlankLine) {
  const auto loaded =
      load_rows("crlf.csv", "1000,W,4096,4096\r\n2000,R,8192,4096\r\n\r\n");
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().message();
  ASSERT_EQ(loaded.value().size(), 2u);
  EXPECT_EQ(loaded.value()[1].offset, 8192u);
}

TEST(TraceReplayer, OpenLoopReplaysEverything) {
  sim::Simulator sim;
  ssd::SsdDevice dev(sim, ssd::samsung_970pro_scaled(1 * kGiB));
  auto cfg = small_config();
  cfg.duration = 2 * kSec;
  const auto trace = generate_trace(cfg, dev.info());
  TraceReplayer replayer(sim, dev, trace);
  replayer.start();
  sim.run();
  EXPECT_TRUE(replayer.finished());
  EXPECT_EQ(replayer.stats().total_ops(), trace.size());
  EXPECT_GT(replayer.backlog_peak(), 0u);
  // Submissions were paced by arrival time: the span covers the trace.
  EXPECT_GE(replayer.stats().last_complete, trace.back().arrival);
}

}  // namespace
}  // namespace uc::wl
