// Tests for the unified LoadSource driver: closed-loop factory equivalence,
// open-loop replay determinism (digest-identical completion streams),
// rate-scaling, slowdown accounting under overload, the contract replay
// checker's rules, and replay-driven tenant/placement scenarios end-to-end.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/block_device.h"
#include "common/units.h"
#include "contract/replay.h"
#include "placement/placement.h"
#include "ssd/ssd_device.h"
#include "tenant/scenarios.h"
#include "workload/load_source.h"
#include "workload/runner.h"
#include "workload/trace.h"

namespace uc {
namespace {

using namespace units;

// Forwards to a real device while folding every completion into an FNV-1a
// digest — "digest-identical completion stream" is literal, not a proxy.
class DigestingDevice : public BlockDevice {
 public:
  explicit DigestingDevice(BlockDevice& inner) : inner_(inner) {}

  const DeviceInfo& info() const override { return inner_.info(); }

  void submit(const IoRequest& req, CompletionFn done) override {
    inner_.submit(req, [this, done = std::move(done)](const IoResult& r) {
      fold(r.id);
      fold(static_cast<std::uint64_t>(r.op));
      fold(r.offset);
      fold(r.bytes);
      fold(static_cast<std::uint64_t>(r.submit_time));
      fold(static_cast<std::uint64_t>(r.complete_time));
      done(r);
    });
  }

  std::uint64_t digest() const { return digest_; }

 private:
  void fold(std::uint64_t v) {
    digest_ ^= v;
    digest_ *= 0x100000001b3ull;
  }

  BlockDevice& inner_;
  std::uint64_t digest_ = 0xcbf29ce484222325ull;
};

wl::TraceGenConfig small_gen() {
  wl::TraceGenConfig cfg;
  cfg.duration = 2 * kSec;
  cfg.base_iops = 1500.0;
  cfg.burst_iops = 6000.0;
  cfg.bursts_per_s = 0.3;
  cfg.write_fraction = 0.7;
  cfg.seed = 77;
  return cfg;
}

ssd::SsdDevice make_ssd(sim::Simulator& sim) {
  return ssd::SsdDevice(sim, ssd::samsung_970pro_scaled(1 * kGiB));
}

TEST(MakeLoadSource, ClosedLoopMatchesDirectJobRunner) {
  wl::LoadSpec spec;
  spec.job.pattern = wl::AccessPattern::kRandom;
  spec.job.io_bytes = 16384;
  spec.job.queue_depth = 8;
  spec.job.total_ops = 2000;
  spec.job.seed = 9;

  std::uint64_t digests[2] = {};
  for (int pass = 0; pass < 2; ++pass) {
    sim::Simulator sim;
    auto ssd = make_ssd(sim);
    DigestingDevice dev(ssd);
    wl::JobStats stats;
    if (pass == 0) {
      stats = wl::JobRunner::run_to_completion(sim, dev, spec.job);
    } else {
      auto source = wl::make_load_source(sim, dev, spec);
      ASSERT_TRUE(source.is_ok());
      EXPECT_FALSE(source.value()->open_loop());
      source.value()->start();
      sim.run();
      ASSERT_TRUE(source.value()->finished());
      stats = source.value()->stats();
      EXPECT_LE(source.value()->backlog_peak(), 8u);
      EXPECT_GT(source.value()->backlog_peak(), 0u);
    }
    EXPECT_EQ(stats.total_ops(), 2000u);
    EXPECT_TRUE(stats.slowdown.empty());  // closed loop records no slowdown
    digests[pass] = dev.digest();
  }
  // The factory's closed-loop path IS a JobRunner: same completion stream.
  EXPECT_EQ(digests[0], digests[1]);
}

TEST(TraceReplayer, DeterministicDigestAcrossRuns) {
  std::uint64_t digests[2] = {};
  for (int pass = 0; pass < 2; ++pass) {
    sim::Simulator sim;
    auto ssd = make_ssd(sim);
    DigestingDevice dev(ssd);
    const auto trace = wl::generate_trace(small_gen(), dev.info());
    wl::TraceReplayer replayer(sim, dev, trace);
    replayer.start();
    sim.run();
    ASSERT_TRUE(replayer.finished());
    EXPECT_EQ(replayer.stats().total_ops(), trace.size());
    digests[pass] = dev.digest();
  }
  EXPECT_EQ(digests[0], digests[1]);
}

TEST(TraceReplayer, RateScaleCompressesTheTimeline) {
  const auto run = [](double rate_scale) {
    sim::Simulator sim;
    auto ssd = make_ssd(sim);
    const auto trace = wl::generate_trace(small_gen(), ssd.info());
    wl::ReplayOptions opt;
    opt.rate_scale = rate_scale;
    wl::TraceReplayer replayer(sim, ssd, trace, opt);
    replayer.start();
    sim.run();
    EXPECT_TRUE(replayer.finished());
    return replayer.stats();
  };
  const auto base = run(1.0);
  const auto warped = run(2.0);
  ASSERT_EQ(base.total_ops(), warped.total_ops());
  ASSERT_EQ(base.total_bytes(), warped.total_bytes());
  // Submissions compress 2x; the (underloaded) SSD keeps up, so the whole
  // run finishes in about half the time and throughput doubles.
  const double span_ratio =
      static_cast<double>(base.last_complete - base.first_submit) /
      static_cast<double>(warped.last_complete - warped.first_submit);
  EXPECT_NEAR(span_ratio, 2.0, 0.1);
  EXPECT_NEAR(warped.throughput_gbs() / base.throughput_gbs(), 2.0, 0.1);
}

TEST(TraceReplayer, MaxEventsCapsTheReplay) {
  sim::Simulator sim;
  auto ssd = make_ssd(sim);
  const auto trace = wl::generate_trace(small_gen(), ssd.info());
  ASSERT_GT(trace.size(), 500u);
  wl::ReplayOptions opt;
  opt.max_events = 500;
  wl::TraceReplayer replayer(sim, ssd, trace, opt);
  replayer.start();
  sim.run();
  EXPECT_TRUE(replayer.finished());
  EXPECT_EQ(replayer.stats().total_ops(), 500u);
}

TEST(TraceReplayer, SlowdownDivergesOnAnOverloadedDevice) {
  // The same trace, replayed at 1x (the SSD keeps up easily) and warped far
  // past the device's service rate: slowdown must detach from per-op
  // latency and the backlog must grow well past any closed-loop depth.
  const auto run = [](double rate_scale, std::uint64_t* backlog) {
    sim::Simulator sim;
    auto ssd = make_ssd(sim);
    auto gen = small_gen();
    gen.base_iops = 20000.0;
    gen.burst_iops = 0.0;
    gen.duration = kSec;
    const auto trace = wl::generate_trace(gen, ssd.info());
    wl::ReplayOptions opt;
    opt.rate_scale = rate_scale;
    wl::TraceReplayer replayer(sim, ssd, trace, opt);
    replayer.start();
    sim.run();
    EXPECT_TRUE(replayer.finished());
    *backlog = replayer.backlog_peak();
    return replayer.stats();
  };
  std::uint64_t calm_backlog = 0;
  std::uint64_t hot_backlog = 0;
  const auto calm = run(1.0, &calm_backlog);
  const auto hot = run(50.0, &hot_backlog);
  ASSERT_FALSE(calm.slowdown.empty());
  ASSERT_FALSE(hot.slowdown.empty());
  const auto p99 = [](const wl::JobStats& s) {
    return static_cast<double>(s.slowdown.percentile(99.0));
  };
  EXPECT_GT(p99(hot), 20.0 * p99(calm));
  EXPECT_GT(hot_backlog, 10 * calm_backlog);
  // Slowdown is measured against the intended (scaled) arrival, so for an
  // unfrozen device it coincides with the recorded latency stream.
  EXPECT_EQ(hot.slowdown.percentile(50.0), hot.all_latency.percentile(50.0));
}

TEST(MakeLoadSource, LoadsTheBundledCsvTrace) {
  const std::string path =
      std::string(UC_SOURCE_DIR) + "/tests/data/sample_trace.csv";
  sim::Simulator sim;
  auto ssd = make_ssd(sim);
  wl::LoadSpec spec;
  spec.open_loop = true;
  spec.trace_path = path;
  auto source = wl::make_load_source(sim, ssd, spec);
  ASSERT_TRUE(source.is_ok()) << source.status().message();
  EXPECT_TRUE(source.value()->open_loop());
  source.value()->start();
  sim.run();
  ASSERT_TRUE(source.value()->finished());
  // Header line excluded: every data row replayed.
  EXPECT_EQ(source.value()->stats().total_ops(), 4137u);
  const auto summary = wl::load_source_trace_summary(*source.value());
  EXPECT_EQ(summary.events, 4137u);
  EXPECT_GT(summary.offered_gbs(), 0.0);
}

TEST(MakeLoadSource, BadTracePathFailsCleanly) {
  sim::Simulator sim;
  auto ssd = make_ssd(sim);
  wl::LoadSpec spec;
  spec.open_loop = true;
  spec.trace_path = "/nonexistent/trace.csv";
  EXPECT_FALSE(wl::make_load_source(sim, ssd, spec).is_ok());
}

TEST(MakeLoadSource, InvalidGeneratorConfigFailsCleanly) {
  sim::Simulator sim;
  auto ssd = make_ssd(sim);
  wl::LoadSpec spec;
  spec.open_loop = true;
  spec.gen = small_gen();
  spec.gen.diurnal_period = 0;
  const auto source = wl::make_load_source(sim, ssd, spec);
  ASSERT_FALSE(source.is_ok());
  EXPECT_EQ(source.status().code(), StatusCode::kInvalidArgument);
}

TEST(MakeLoadSource, TraceEventsMustFitTheDevice) {
  // An unconverted production trace whose offsets exceed the replayed
  // volume must fail with a Status naming the event, not assert deep in
  // the data path.
  const std::string path = ::testing::TempDir() + "/oversized_trace.csv";
  {
    std::vector<wl::TraceEvent> trace(2);
    trace[0] = {.arrival = 1000, .offset = 0, .bytes = 4096,
                .op = IoOp::kWrite};
    trace[1] = {.arrival = 2000,
                .offset = 8ull << 30,  // beyond 1 GiB
                .bytes = 4096,
                .op = IoOp::kWrite};
    ASSERT_TRUE(wl::save_trace_csv(trace, path).is_ok());
  }
  sim::Simulator sim;
  auto ssd = make_ssd(sim);
  wl::LoadSpec spec;
  spec.open_loop = true;
  spec.trace_path = path;
  const auto source = wl::make_load_source(sim, ssd, spec);
  ASSERT_FALSE(source.is_ok());
  EXPECT_NE(source.status().message().find("event 1"), std::string::npos)
      << source.status().message();
  std::remove(path.c_str());
}

// ------------------------------------------------ contract replay rules --

wl::TraceSummary summary_of(double gbs, double iops, double peak_to_mean,
                            double small_fraction) {
  wl::TraceSummary s;
  s.span_ns = static_cast<SimTime>(10 * kSec);
  s.total_bytes = static_cast<std::uint64_t>(gbs * 10e9);
  s.events = static_cast<std::uint64_t>(iops * 10.0);
  s.peak_to_mean = peak_to_mean;
  s.byte_peak_to_mean = peak_to_mean;  // rule tests burst bytes and events alike
  s.small_io_byte_fraction = small_fraction;
  return s;
}

TEST(EvaluateReplay, FlagsSustainedOverloadAndBursts) {
  contract::ReplayCheckConfig cfg;
  cfg.budget_gbs = 1.0;
  cfg.budget_iops = 100000.0;
  wl::JobStats stats;

  // Sustained overload: offered 1.5x the budget.
  auto v = contract::evaluate_replay(summary_of(1.5, 1000.0, 1.0, 0.0), stats,
                                     10, cfg);
  ASSERT_EQ(v.violations.size(), 1u);
  EXPECT_EQ(v.violations[0].rule, "offered-load-exceeds-budget");
  EXPECT_NEAR(v.violations[0].severity, 1.5, 0.01);

  // Mean fits, bursts do not.
  v = contract::evaluate_replay(summary_of(0.8, 1000.0, 3.0, 0.0), stats, 10,
                                cfg);
  ASSERT_EQ(v.violations.size(), 1u);
  EXPECT_EQ(v.violations[0].rule, "bursts-exceed-budget");

  // Healthy: under budget, calm, large I/Os.
  v = contract::evaluate_replay(summary_of(0.5, 1000.0, 1.1, 0.1), stats, 10,
                                cfg);
  EXPECT_TRUE(v.clean());
}

TEST(EvaluateReplay, FlagsSmallIosAndDivergence) {
  contract::ReplayCheckConfig cfg;
  cfg.budget_gbs = 0.0;  // unpublished: budget rules skipped
  wl::JobStats stats;
  auto v = contract::evaluate_replay(summary_of(2.0, 1000.0, 1.0, 0.9), stats,
                                     10, cfg);
  ASSERT_EQ(v.violations.size(), 1u);
  EXPECT_EQ(v.violations[0].rule, "small-io-dominated");

  // A detached tail above the absolute floor plus a blown backlog.
  stats.slowdown.record_n(1 * units::kMs, 900);
  stats.slowdown.record_n(500 * units::kMs, 100);
  v = contract::evaluate_replay(summary_of(2.0, 1000.0, 1.0, 0.0), stats,
                                100000, cfg);
  ASSERT_EQ(v.violations.size(), 1u);
  EXPECT_EQ(v.violations[0].rule, "open-loop-divergence");
  EXPECT_GT(v.slowdown_p99_ms, 100.0);
}

TEST(SummarizeTrace, RateScaleCompressesTheOfferedTimeline) {
  sim::Simulator sim;
  auto ssd = make_ssd(sim);
  const auto trace = wl::generate_trace(small_gen(), ssd.info());
  const auto base = wl::summarize_trace(trace);
  const auto warped = wl::summarize_trace(trace, 2.0);
  EXPECT_EQ(warped.events, base.events);
  EXPECT_EQ(warped.total_bytes, base.total_bytes);
  EXPECT_NEAR(warped.offered_gbs(), 2.0 * base.offered_gbs(),
              0.01 * base.offered_gbs());
  EXPECT_NEAR(warped.offered_iops(), 2.0 * base.offered_iops(),
              0.01 * base.offered_iops());
  // Windowed burstiness is re-binned on the warped timeline, not assumed
  // scale-free: a 100 ms window of the warped replay spans 200 ms of the
  // original trace, so bursts average down (never up).
  EXPECT_LE(warped.peak_to_mean, base.peak_to_mean * 1.05);
  EXPECT_GT(warped.byte_peak_to_mean, 0.0);
}

TEST(SummarizeTrace, ByteAndEventBurstinessDiverge) {
  // Steady large writes plus one 100 ms storm of tiny I/Os: the event
  // peak-to-mean spikes while the byte peak-to-mean barely moves — the
  // distinction the bursts-exceed-budget rule judges bytes by.
  std::vector<wl::TraceEvent> trace;
  for (int i = 0; i < 100; ++i) {
    trace.push_back({.arrival = static_cast<SimTime>(i) * 10 * units::kMs,
                     .offset = 0,
                     .bytes = 256 * 1024,
                     .op = IoOp::kWrite});
  }
  for (int i = 0; i < 400; ++i) {
    trace.push_back(
        {.arrival = 500 * units::kMs + static_cast<SimTime>(i) * 100'000,
         .offset = 0,
         .bytes = 4096,
         .op = IoOp::kWrite});
  }
  std::sort(trace.begin(), trace.end(),
            [](const wl::TraceEvent& a, const wl::TraceEvent& b) {
              return a.arrival < b.arrival;
            });
  const auto s = wl::summarize_trace(trace);
  EXPECT_GT(s.peak_to_mean, 2.0 * s.byte_peak_to_mean);
}

// -------------------------------------------- replay-driven scenarios --

TEST(ReplayScenario, NoisyNeighbourRunsEndToEnd) {
  tenant::ScenarioOptions opt;
  opt.quick = true;
  opt.replay = true;
  const auto result = placement::run_placement_scenario(
      tenant::Scenario::kNoisyNeighbor, {opt, {}});
  ASSERT_EQ(result.colocated.size(), 3u);
  ASSERT_EQ(result.traces.size(), 3u);
  ASSERT_EQ(result.backlog_peak.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_GT(result.traces[i].events, 0u);
    EXPECT_EQ(result.colocated[i].total_ops(), result.traces[i].events);
    EXPECT_FALSE(result.colocated[i].slowdown.empty());
    EXPECT_GT(result.report.tenants[i].slowdown_p99_us, 0.0);
  }
  // Open-loop arrivals, same story: colocation inflates the victims' tail.
  for (std::size_t i = 1; i < 3; ++i) {
    EXPECT_GT(result.report.tenants[i].interference, 1.2);
  }
}

TEST(ReplayScenario, PerTenantTraceFileFeedsTenantZero) {
  const std::string path =
      std::string(UC_SOURCE_DIR) + "/tests/data/sample_trace.csv";
  tenant::ScenarioOptions opt;
  opt.quick = true;
  opt.replay = true;
  opt.solo_baselines = false;
  opt.trace_paths = {path};  // hog replays the bundled CSV
  const auto result = placement::run_placement_scenario(
      tenant::Scenario::kNoisyNeighbor, {opt, {}});
  EXPECT_EQ(result.colocated[0].total_ops(), 4137u);
  EXPECT_EQ(result.traces[0].events, 4137u);
  // The other tenants keep their synthetic role traces.
  EXPECT_GT(result.traces[1].events, 0u);
}

TEST(ReplayScenario, RateScaleRaisesOfferedLoad) {
  tenant::ScenarioOptions calm;
  calm.quick = true;
  calm.replay = true;
  calm.solo_baselines = false;
  auto hot = calm;
  hot.rate_scale = 2.0;
  const auto a = placement::run_placement_scenario(
      tenant::Scenario::kFairShare, {calm, {}});
  const auto b = placement::run_placement_scenario(
      tenant::Scenario::kFairShare, {hot, {}});
  // Same events in half the (submission) time.
  EXPECT_EQ(a.colocated[0].total_ops(), b.colocated[0].total_ops());
  EXPECT_LT(b.makespan, a.makespan);
}

TEST(ReplayPlacement, MigrationRunsUnderReplayLoad) {
  essd::EssdConfig base = essd::aws_io2_profile(64 * kMiB);
  base.cluster.spare_pool_bytes = 256 * kMiB;
  std::vector<tenant::TenantSpec> tenants;
  for (int i = 0; i < 3; ++i) {
    tenant::TenantSpec t;
    t.name = std::string("replayer-") + static_cast<char>('a' + i);
    t.capacity_bytes = 64 * kMiB;
    t.qos.bw_bytes_per_s = 1.0e9;
    t.load.job.io_bytes = 16384;
    t.load.job.duration = kSec;
    t.load.job.seed = 31 + static_cast<std::uint64_t>(i);
    t.load.open_loop = true;
    t.load.gen = wl::derive_trace_gen(t.load.job, 3000.0);
    tenants.push_back(std::move(t));
  }
  placement::PlacementConfig cfg;
  cfg.clusters = 2;
  cfg.policy = placement::Policy::kPack;  // unbounded: all on cluster 0
  cfg.rebalance_watermark = 1.2;
  cfg.rebalance_interval = 5 * kMs;

  sim::ParallelExecutor exec(1);
  placement::ShardedHost host(base, tenants, cfg);
  const auto result = host.run(exec);
  ASSERT_GE(result.migrations.size(), 1u);
  EXPECT_EQ(result.final_cluster[result.migrations[0].tenant], 1);
  for (std::size_t i = 0; i < 3; ++i) {
    // Nobody lost I/O across the cutover, open loop included.
    EXPECT_EQ(result.stats[i].total_ops(), result.traces[i].events);
    EXPECT_GT(result.traces[i].events, 0u);
  }
  EXPECT_TRUE(host.cluster(0).check_invariants());
  EXPECT_TRUE(host.cluster(1).check_invariants());
}

}  // namespace
}  // namespace uc
