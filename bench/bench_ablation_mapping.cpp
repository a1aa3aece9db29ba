// Design-choice ablation: FTL mapping-policy sweep (ftl::MappingPolicy).
// Runs four multi-tenant workload scenarios — random-write, seq-write,
// mixed, gc-pressure — across all four mapping policies (page, DFTL,
// hashed-group, learned-range) on the local-SSD profile, reporting the
// table-bytes vs translation-miss-latency vs RMW-amplification trade each
// policy makes.  Four concurrent closed-loop tenants on disjoint regions
// cover the whole device, so demand-paged mapping caches thrash the way a
// multi-tenant working set makes them thrash.
//
// --json <path> emits the shared {bench, config, metrics} schema with a
// `metrics.mapping.policies` block, one entry per policy.

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/strfmt.h"
#include "common/table.h"
#include "ftl/mapping.h"
#include "ssd/ssd_device.h"
#include "workload/runner.h"

namespace uc {
namespace {

constexpr int kTenants = 4;

struct ScenarioSpec {
  const char* name;
  wl::AccessPattern pattern;
  double write_ratio;
  double region_multiples;  ///< bytes moved per tenant, in region sizes
};

const ScenarioSpec kScenarios[] = {
    {"random-write", wl::AccessPattern::kRandom, 0.7, 1.0},
    {"seq-write", wl::AccessPattern::kSequential, 1.0, 1.0},
    {"mixed", wl::AccessPattern::kRandom, 0.5, 1.0},
    {"gc-pressure", wl::AccessPattern::kRandom, 0.9, 1.5},
};

struct ScenarioResult {
  double p99_read_us = 0.0;
  double p99_write_us = 0.0;
  double gbs = 0.0;
  double wa = 0.0;
};

struct PolicyTotals {
  std::uint64_t table_bytes = 0;  ///< max across scenarios (same capacity)
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  SimTime miss_penalty_ns = 0;
  std::uint64_t tp_flash_reads = 0;  ///< FTL + GC translation-page reads
  std::uint64_t group_rmw_pages = 0;
  std::uint64_t learned_segments = 0;
};

ftl::MappingConfig bench_mapping(ftl::MappingKind kind) {
  ftl::MappingConfig m;
  m.kind = kind;
  // Small CMT relative to the device's translation pages: a multi-tenant
  // random working set must thrash it (that is the trade under study).
  m.cmt_capacity_pages = 16;
  m.translation_page_bytes = 4096;
  m.group_pages = 16;
  m.min_run_pages = 8;
  return m;
}

ScenarioResult run_one(std::uint64_t capacity, ftl::MappingKind kind,
                       const ScenarioSpec& sc, PolicyTotals& totals) {
  sim::Simulator sim;
  auto cfg = ssd::samsung_970pro_scaled(capacity);
  cfg.ftl.mapping = bench_mapping(kind);
  // Physical contiguity is bounded by the plane-interleaved spa layout: a
  // flushed row's slots are spa-consecutive only within one plane page, so
  // learned runs longer than slots_per_page can never form.  Size the run
  // threshold to what the geometry can actually produce.
  cfg.ftl.mapping.min_run_pages =
      static_cast<std::uint32_t>(cfg.ftl.geometry.slots_per_page());
  ssd::SsdDevice device(sim, cfg);

  // Four tenants on disjoint quarter-device regions, run concurrently so
  // their address streams interleave inside the shared mapping structure.
  const std::uint64_t region = capacity / kTenants;
  std::vector<std::unique_ptr<wl::JobRunner>> tenants;
  for (int t = 0; t < kTenants; ++t) {
    wl::JobSpec spec;
    spec.name = strfmt("%s-t%d", sc.name, t);
    spec.pattern = sc.pattern;
    spec.io_bytes = 65536;
    spec.queue_depth = 16;
    spec.write_ratio = sc.write_ratio;
    spec.region_offset = static_cast<ByteOffset>(t) * region;
    spec.region_bytes = region;
    spec.total_bytes = static_cast<std::uint64_t>(
        sc.region_multiples * static_cast<double>(region));
    spec.seed = 0x3a9ull + static_cast<std::uint64_t>(t) * 131;
    spec.timeline_bin = units::kSec / 4;
    tenants.push_back(std::make_unique<wl::JobRunner>(sim, device, spec));
  }
  for (auto& t : tenants) t->start();
  sim.run();

  LatencyHistogram reads;
  LatencyHistogram writes;
  std::uint64_t bytes = 0;
  SimTime first = ~static_cast<SimTime>(0);
  SimTime last = 0;
  for (const auto& t : tenants) {
    const auto& s = t->stats();
    reads.merge(s.read_latency);
    writes.merge(s.write_latency);
    bytes += s.total_bytes();
    if (s.first_submit < first) first = s.first_submit;
    if (s.last_complete > last) last = s.last_complete;
  }

  ScenarioResult r;
  r.p99_read_us =
      static_cast<double>(reads.percentile(99.0)) / 1e3;
  r.p99_write_us =
      static_cast<double>(writes.percentile(99.0)) / 1e3;
  r.gbs = last > first ? static_cast<double>(bytes) /
                             static_cast<double>(last - first)
                       : 0.0;
  r.wa = device.ftl().write_amplification();

  const auto& ms = device.ftl().mapping_stats();
  if (ms.table_bytes > totals.table_bytes) totals.table_bytes = ms.table_bytes;
  totals.lookups += ms.lookups;
  totals.hits += ms.cache_hits;
  totals.misses += ms.cache_misses;
  totals.miss_penalty_ns += ms.miss_penalty_ns_total;
  totals.tp_flash_reads +=
      device.ftl().stats().mapping_tp_reads + device.ftl().gc_stats().mapping_tp_reads;
  totals.group_rmw_pages += ms.group_rmw_pages;
  if (ms.learned_segments > totals.learned_segments) {
    totals.learned_segments = ms.learned_segments;
  }
  return r;
}

}  // namespace
}  // namespace uc

int main(int argc, char** argv) {
  using namespace uc;
  const auto scale = bench::parse_scale(argc, argv);
  const std::uint64_t capacity = scale.quick ? (1ull << 30) : (4ull << 30);

  bench::print_header(
      "Ablation — FTL mapping policies at multi-tenant scale",
      "page vs DFTL vs hashed-group vs learned-range: table bytes traded "
      "against translation-miss latency and RMW amplification (paper §II-A)");

  const ftl::MappingKind kinds[] = {
      ftl::MappingKind::kPage, ftl::MappingKind::kDftl,
      ftl::MappingKind::kHashedGroup, ftl::MappingKind::kLearnedRange};

  TextTable table({"policy", "scenario", "p99 read us", "p99 write us",
                   "GB/s", "WA"});
  bench::Json policies = bench::Json::array();
  for (const auto kind : kinds) {
    PolicyTotals totals;
    bench::Json scenarios = bench::Json::array();
    for (const auto& sc : kScenarios) {
      const auto r = run_one(capacity, kind, sc, totals);
      table.add_row({ftl::to_string(kind), sc.name,
                     strfmt("%.1f", r.p99_read_us),
                     strfmt("%.1f", r.p99_write_us), strfmt("%.2f", r.gbs),
                     strfmt("%.2f", r.wa)});
      bench::Json row = bench::Json::object();
      row.set("name", sc.name);
      row.set("p99_read_us", r.p99_read_us);
      row.set("p99_write_us", r.p99_write_us);
      row.set("gbs", r.gbs);
      row.set("wa", r.wa);
      scenarios.push(std::move(row));
    }
    bench::Json entry = bench::Json::object();
    entry.set("policy", ftl::to_string(kind));
    entry.set("table_bytes", totals.table_bytes);
    entry.set("lookups", totals.lookups);
    entry.set("hit_ratio",
              totals.lookups == 0
                  ? 0.0
                  : static_cast<double>(totals.hits) /
                        static_cast<double>(totals.lookups));
    entry.set("miss_penalty_ms",
              static_cast<double>(totals.miss_penalty_ns) / 1e6);
    entry.set("tp_flash_reads", totals.tp_flash_reads);
    entry.set("group_rmw_pages", totals.group_rmw_pages);
    entry.set("learned_segments", totals.learned_segments);
    entry.set("scenarios", std::move(scenarios));
    policies.push(std::move(entry));
  }
  std::printf("%s", table.to_string().c_str());

  bench::Json config = bench::Json::object();
  config.set("quick", scale.quick);
  config.set("capacity_bytes", capacity);
  config.set("tenants", kTenants);
  config.set("io_bytes", 65536);
  config.set("queue_depth", 16);
  config.set("cmt_capacity_pages", 16);
  bench::Json mapping = bench::Json::object();
  mapping.set("policies", std::move(policies));
  bench::Json metrics = bench::Json::object();
  metrics.set("mapping", std::move(mapping));
  bench::maybe_write_json(
      scale, bench::bench_report("ablation_mapping", std::move(config),
                                 std::move(metrics)));
  return 0;
}
