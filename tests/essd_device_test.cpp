// Device-level ESSD tests: interface behaviour, chunk fragmentation,
// latency anchors, and miniature versions of the paper's four
// observations against the provider profiles.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "common/units.h"
#include "essd/essd_device.h"
#include "workload/runner.h"

namespace uc::essd {
namespace {

using namespace units;

TEST(EssdDevice, InfoReflectsProfile) {
  sim::Simulator sim;
  EssdDevice dev(sim, aws_io2_profile(2 * kGiB));
  EXPECT_EQ(dev.info().capacity_bytes, 2 * kGiB);
  EXPECT_DOUBLE_EQ(dev.info().guaranteed_bw_gbs, 3.0);
  EXPECT_DOUBLE_EQ(dev.info().guaranteed_iops, 25600.0);
}

TEST(EssdDevice, ConfigValidationRejectsZeroNodeCache) {
  for (EssdConfig cfg :
       {aws_io2_profile(2 * kGiB), alibaba_pl3_profile(2 * kGiB)}) {
    EXPECT_TRUE(cfg.validate().is_ok());
    cfg.cluster.node_cache_pages = 0;  // the cache constructor would abort
    EXPECT_EQ(cfg.validate().code(), StatusCode::kInvalidArgument);
  }
}

TEST(EssdDevice, ConfigValidationRejectsBadSegmentGeometry) {
  for (const EssdConfig& base :
       {aws_io2_profile(2 * kGiB), alibaba_pl3_profile(2 * kGiB)}) {
    ASSERT_TRUE(base.validate().is_ok());
    EssdConfig zero = base;
    zero.cluster.segment_bytes = 0;  // the pool sizing would divide by zero
    EXPECT_EQ(zero.validate().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(zero.cluster.validate().code(), StatusCode::kInvalidArgument);
    EssdConfig misaligned = base;
    misaligned.cluster.segment_bytes = kMiB + 512;
    EXPECT_EQ(misaligned.validate().code(), StatusCode::kInvalidArgument);
    EssdConfig uneven = base;  // 4 KiB aligned, but the chunk doesn't split
    uneven.cluster.segment_bytes = 3 * kMiB;
    ASSERT_NE(uneven.cluster.chunk_bytes % uneven.cluster.segment_bytes, 0u);
    EXPECT_EQ(uneven.validate().code(), StatusCode::kInvalidArgument);
    EssdConfig no_chunk = base;  // the capacity check would divide by zero
    no_chunk.cluster.chunk_bytes = 0;
    EXPECT_EQ(no_chunk.validate().code(), StatusCode::kInvalidArgument);
  }
}

TEST(CleanerConfig, ValidateRejectsEachBadField) {
  // Each row would otherwise reach the cleaner (or its pick thresholds)
  // unchecked; a non-positive rate aborts in the `Cleaner` constructor.
  struct Row {
    const char* field;
    void (*spoil)(ebs::CleanerConfig&);
  };
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const Row rows[] = {
      {"default (passes)", [](ebs::CleanerConfig&) {}},
      {"processing_mbps (zero)",
       [](ebs::CleanerConfig& c) { c.processing_mbps = 0.0; }},
      {"processing_mbps (negative)",
       [](ebs::CleanerConfig& c) { c.processing_mbps = -1.0; }},
      {"processing_mbps (NaN)",
       [](ebs::CleanerConfig& c) { c.processing_mbps = kNaN; }},
      {"processing_mbps (infinite)",
       [](ebs::CleanerConfig& c) {
         c.processing_mbps = std::numeric_limits<double>::infinity();
       }},
      {"min_garbage_ratio (negative)",
       [](ebs::CleanerConfig& c) { c.min_garbage_ratio = -0.1; }},
      {"min_garbage_ratio (NaN)",
       [](ebs::CleanerConfig& c) { c.min_garbage_ratio = kNaN; }},
      {"start_free_ratio (above 1)",
       [](ebs::CleanerConfig& c) { c.start_free_ratio = 1.5; }},
      {"start_free_ratio (NaN)",
       [](ebs::CleanerConfig& c) { c.start_free_ratio = kNaN; }},
      {"desperate_free_ratio (negative)",
       [](ebs::CleanerConfig& c) { c.desperate_free_ratio = -0.05; }},
      {"desperate_free_ratio (NaN)",
       [](ebs::CleanerConfig& c) { c.desperate_free_ratio = kNaN; }},
  };
  for (const Row& row : rows) {
    const bool ok = &row == &rows[0];
    ebs::CleanerConfig cleaner;
    row.spoil(cleaner);
    EXPECT_EQ(cleaner.validate().is_ok(), ok) << row.field;
    EssdConfig cfg = aws_io2_profile(2 * kGiB);
    row.spoil(cfg.cluster.cleaner);
    const Status s = cfg.validate();
    EXPECT_EQ(s.is_ok(), ok) << row.field;
    if (!ok) {
      EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << row.field;
    }
  }
}

TEST(ClusterConfig, ValidateRejectsEachBadField) {
  // Every row runs through the cluster's own validator and through the
  // device's, which must agree.  A config the validator accepts must then
  // build a cluster and attach a volume without aborting: an empty fabric
  // used to abort in the `Fabric` constructor and a replication factor
  // above the node count in `ChunkMap`, both after validating.
  struct Row {
    const char* field;
    void (*spoil)(ebs::ClusterConfig&);
    bool ok;
  };
  const Row rows[] = {
      {"default (passes)", [](ebs::ClusterConfig&) {}, true},
      {"replication == nodes (passes)",
       [](ebs::ClusterConfig& c) {
         c.fabric.nodes = 3;
         c.replication = 3;
       },
       true},
      {"one node, one replica (passes)",
       [](ebs::ClusterConfig& c) {
         c.fabric.nodes = 1;
         c.replication = 1;
       },
       true},
      {"fabric.nodes (zero)",
       [](ebs::ClusterConfig& c) { c.fabric.nodes = 0; }, false},
      {"fabric.nodes (negative)",
       [](ebs::ClusterConfig& c) { c.fabric.nodes = -1; }, false},
      {"replication (above nodes)",
       [](ebs::ClusterConfig& c) {
         c.fabric.nodes = 2;
         c.replication = 3;
       },
       false},
      {"replication (zero)", [](ebs::ClusterConfig& c) { c.replication = 0; },
       false},
      {"segment_bytes (zero)",
       [](ebs::ClusterConfig& c) { c.segment_bytes = 0; }, false},
      {"segment_bytes (not 4 KiB aligned)",
       [](ebs::ClusterConfig& c) { c.segment_bytes = kMiB + 512; }, false},
      {"chunk_bytes (zero)", [](ebs::ClusterConfig& c) { c.chunk_bytes = 0; },
       false},
      {"chunk_bytes (not a segment multiple)",
       [](ebs::ClusterConfig& c) { c.segment_bytes = 3 * kMiB; }, false},
      {"node_cache_pages (zero)",
       [](ebs::ClusterConfig& c) { c.node_cache_pages = 0; }, false},
  };
  for (const Row& row : rows) {
    ebs::ClusterConfig cluster;
    row.spoil(cluster);
    const Status s = cluster.validate();
    EXPECT_EQ(s.is_ok(), row.ok) << row.field;
    if (!s.is_ok()) {
      EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << row.field;
    }
    EssdConfig device = aws_io2_profile(2 * kGiB);
    row.spoil(device.cluster);
    EXPECT_EQ(device.validate().is_ok(), row.ok) << row.field;
    if (s.is_ok()) {
      sim::Simulator sim;
      ebs::StorageCluster built(sim, cluster);
      EXPECT_EQ(built.attach_volume(64 * kMiB), 0u) << row.field;
    }
  }
}

TEST(EssdDevice, WriteReadRoundTrip) {
  sim::Simulator sim;
  EssdDevice dev(sim, alibaba_pl3_profile(1 * kGiB));
  bool wrote = false;
  dev.submit(IoRequest{1, IoOp::kWrite, 0, 65536},
             [&](const IoResult& r) {
               wrote = true;
               EXPECT_EQ(r.bytes, 65536u);
             });
  sim.run();
  ASSERT_TRUE(wrote);
  EXPECT_TRUE(dev.cluster().is_written(0, 0));
  EXPECT_TRUE(dev.cluster().is_written(0, 61440));

  bool read_done = false;
  dev.submit(IoRequest{2, IoOp::kRead, 0, 65536},
             [&](const IoResult&) { read_done = true; });
  sim.run();
  EXPECT_TRUE(read_done);
  EXPECT_EQ(dev.io_stats().reads, 1u);
  EXPECT_EQ(dev.io_stats().writes, 1u);
}

TEST(EssdDevice, IoSpanningChunksCompletesOnce) {
  sim::Simulator sim;
  auto cfg = aws_io2_profile(1 * kGiB);
  EssdDevice dev(sim, cfg);
  const ByteOffset boundary = cfg.cluster.chunk_bytes;
  int completions = 0;
  dev.submit(IoRequest{1, IoOp::kWrite, boundary - 131072, 262144},
             [&](const IoResult&) { ++completions; });
  sim.run();
  EXPECT_EQ(completions, 1);
  EXPECT_TRUE(dev.cluster().is_written(0, boundary - 4096));
  EXPECT_TRUE(dev.cluster().is_written(0, boundary));
}

TEST(EssdDevice, TrimAndFlushComplete) {
  sim::Simulator sim;
  EssdDevice dev(sim, alibaba_pl3_profile(1 * kGiB));
  bool wrote = false;
  dev.submit(IoRequest{1, IoOp::kWrite, 0, 8192},
             [&](const IoResult&) { wrote = true; });
  sim.run();
  ASSERT_TRUE(wrote);
  bool trimmed = false;
  dev.submit(IoRequest{2, IoOp::kTrim, 0, 8192},
             [&](const IoResult&) { trimmed = true; });
  sim.run();
  EXPECT_TRUE(trimmed);
  EXPECT_FALSE(dev.cluster().is_written(0, 0));
  bool flushed = false;
  dev.submit(IoRequest{3, IoOp::kFlush, 0, 0},
             [&](const IoResult&) { flushed = true; });
  sim.run();
  EXPECT_TRUE(flushed);
}

TEST(EssdDevice, LatencyAnchorsMatchCalibration) {
  // 4 KiB QD1 random write / random read against the paper's Fig. 2 cells
  // (paper: ESSD-1 333 us / 472 us; ESSD-2 138 us / 239 us) within a
  // generous band.
  struct Anchor {
    EssdConfig cfg;
    double write_lo, write_hi, read_lo, read_hi;
  };
  const Anchor anchors[] = {
      {aws_io2_profile(1 * kGiB), 280.0, 420.0, 400.0, 580.0},
      {alibaba_pl3_profile(1 * kGiB), 110.0, 200.0, 190.0, 300.0},
  };
  for (const auto& anchor : anchors) {
    sim::Simulator sim;
    EssdDevice dev(sim, anchor.cfg);
    wl::JobSpec spec;
    spec.pattern = wl::AccessPattern::kRandom;
    spec.io_bytes = 4096;
    spec.queue_depth = 1;
    spec.total_ops = 2000;
    spec.seed = 5;
    const auto wstats = wl::JobRunner::run_to_completion(sim, dev, spec);
    const double write_us = wstats.all_latency.mean() / 1e3;
    EXPECT_GT(write_us, anchor.write_lo) << anchor.cfg.name;
    EXPECT_LT(write_us, anchor.write_hi) << anchor.cfg.name;

    sim::Simulator sim2;
    EssdDevice dev2(sim2, anchor.cfg);
    wl::JobSpec fill = spec;
    fill.pattern = wl::AccessPattern::kSequential;
    fill.io_bytes = 1 << 20;
    fill.queue_depth = 8;
    fill.total_bytes = 256 * kMiB;
    fill.region_bytes = 256 * kMiB;
    wl::JobRunner::run_to_completion(sim2, dev2, fill);
    sim2.run_until(sim2.now() + 30 * kSec);
    wl::JobSpec rspec = spec;
    rspec.write_ratio = 0.0;
    rspec.region_bytes = 256 * kMiB;
    rspec.seed = 6;
    const auto rstats = wl::JobRunner::run_to_completion(sim2, dev2, rspec);
    const double read_us = rstats.all_latency.mean() / 1e3;
    EXPECT_GT(read_us, anchor.read_lo) << anchor.cfg.name;
    EXPECT_LT(read_us, anchor.read_hi) << anchor.cfg.name;
  }
}

TEST(EssdDevice, Observation3RandomWritesBeatSequential) {
  for (const auto& cfg :
       {aws_io2_profile(1 * kGiB), alibaba_pl3_profile(1 * kGiB)}) {
    double gbs[2] = {0, 0};
    int i = 0;
    for (const auto pattern :
         {wl::AccessPattern::kRandom, wl::AccessPattern::kSequential}) {
      sim::Simulator sim;
      EssdDevice dev(sim, cfg);
      wl::JobSpec spec;
      spec.pattern = pattern;
      spec.io_bytes = 65536;
      spec.queue_depth = 32;
      spec.duration = units::kSec / 2;
      spec.seed = 7;
      gbs[i++] =
          wl::JobRunner::run_to_completion(sim, dev, spec).throughput_gbs();
    }
    EXPECT_GT(gbs[0], gbs[1] * 1.15) << cfg.name << ": random must win";
  }
}

TEST(EssdDevice, Observation4ThroughputPinnedAcrossMixes) {
  const auto cfg = alibaba_pl3_profile(1 * kGiB);
  double min_gbs = 1e9;
  double max_gbs = 0.0;
  for (const double ratio : {0.0, 0.5, 1.0}) {
    sim::Simulator sim;
    EssdDevice dev(sim, cfg);
    // Precondition so reads touch written data.
    wl::JobSpec fill;
    fill.pattern = wl::AccessPattern::kSequential;
    fill.io_bytes = 1 << 20;
    fill.queue_depth = 8;
    fill.region_bytes = 512 * kMiB;
    fill.total_bytes = 512 * kMiB;
    wl::JobRunner::run_to_completion(sim, dev, fill);
    sim.run_until(sim.now() + 30 * kSec);

    wl::JobSpec spec;
    spec.pattern = wl::AccessPattern::kRandom;
    spec.io_bytes = 262144;
    spec.queue_depth = 32;
    spec.write_ratio = ratio;
    spec.region_bytes = 512 * kMiB;
    spec.duration = 2 * kSec;
    spec.seed = 11;
    const double gbs =
        wl::JobRunner::run_to_completion(sim, dev, spec).throughput_gbs();
    min_gbs = std::min(min_gbs, gbs);
    max_gbs = std::max(max_gbs, gbs);
  }
  // Deterministically pinned at ~1.1 GB/s for every mix.
  EXPECT_GT(min_gbs, 0.95);
  EXPECT_LT(max_gbs, 1.30);
}

}  // namespace
}  // namespace uc::essd
