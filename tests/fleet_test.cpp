// Fleet subsystem tests: the seeded generator's determinism and population
// shape (lognormal sizes, Zipf heat, churn windows), thread-count-invariant
// execution (identical per-shard digests at 1/2/4 worker threads), the
// interference-aware policy's planning signal, and the migration budget's
// hard bounds on control-plane churn.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/units.h"
#include "fleet/fleet.h"
#include "placement/placement.h"

namespace uc::fleet {
namespace {

using namespace units;

// Small enough to run in seconds, big enough to exercise skew and churn.
FleetSpec small_spec() {
  FleetSpec spec;
  spec.clusters = 4;
  spec.tenants = 16;
  spec.seed = 11;
  spec.duration = 150 * kMs;
  spec.diurnal_period = 80 * kMs;
  spec.mean_iops = 400.0;
  spec.max_tenant_iops = 4000.0;
  spec.burst_iops = 2000.0;
  return spec;
}

TEST(FleetSpec, ValidateRejectsEachBadField) {
  EXPECT_TRUE(FleetSpec{}.validate().is_ok());
  EXPECT_TRUE(small_spec().validate().is_ok());

  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  struct Row {
    const char* field;
    void (*spoil)(FleetSpec&);
  };
  const Row rows[] = {
      {"clusters", [](FleetSpec& s) { s.clusters = 0; }},
      {"tenants", [](FleetSpec& s) { s.tenants = 0; }},
      {"min_capacity_bytes (under one chunk)",
       [](FleetSpec& s) { s.min_capacity_bytes = 2 * kMiB; }},
      {"max_capacity_bytes (not a chunk multiple)",
       [](FleetSpec& s) { s.max_capacity_bytes = 65 * kMiB; }},
      {"capacity range (unordered)",
       [](FleetSpec& s) {
         s.min_capacity_bytes = 64 * kMiB;
         s.max_capacity_bytes = 8 * kMiB;
       }},
      {"duration", [](FleetSpec& s) { s.duration = 5 * kMs; }},
      {"diurnal_period", [](FleetSpec& s) { s.diurnal_period = 0; }},
      {"diurnal_amplitude (negative)",
       [](FleetSpec& s) { s.diurnal_amplitude = -0.1; }},
      {"diurnal_amplitude (non-finite)",
       [](FleetSpec& s) { s.diurnal_amplitude = kNaN; }},
      {"burst_iops (negative)", [](FleetSpec& s) { s.burst_iops = -1.0; }},
      {"burst_iops (non-finite)", [](FleetSpec& s) { s.burst_iops = kInf; }},
      {"bursts_per_s (negative)",
       [](FleetSpec& s) { s.bursts_per_s = -0.2; }},
      {"mean_iops (zero)", [](FleetSpec& s) { s.mean_iops = 0.0; }},
      {"mean_iops (non-finite)", [](FleetSpec& s) { s.mean_iops = kInf; }},
      {"max_tenant_iops (negative)",
       [](FleetSpec& s) { s.max_tenant_iops = -5.0; }},
      {"size_sigma", [](FleetSpec& s) { s.size_sigma = kNaN; }},
      {"heat_theta", [](FleetSpec& s) { s.heat_theta = 200.0; }},
      {"zipf_theta", [](FleetSpec& s) { s.zipf_theta = 11.0; }},
      {"churn_fraction (negative)",
       [](FleetSpec& s) { s.churn_fraction = -0.1; }},
      {"churn_fraction (above 1)",
       [](FleetSpec& s) { s.churn_fraction = 1.5; }},
      {"write_fraction", [](FleetSpec& s) { s.write_fraction = 2.0; }},
  };
  for (const Row& row : rows) {
    FleetSpec spec;
    row.spoil(spec);
    EXPECT_EQ(spec.validate().code(), StatusCode::kInvalidArgument)
        << row.field;
  }
}

TEST(GenerateFleet, SameSeedSameFleet) {
  const FleetSpec spec = small_spec();
  const GeneratedFleet a = generate_fleet(spec);
  const GeneratedFleet b = generate_fleet(spec);

  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  EXPECT_EQ(a.total_capacity_bytes, b.total_capacity_bytes);
  EXPECT_EQ(a.churned_tenants, b.churned_tenants);
  for (std::size_t i = 0; i < a.tenants.size(); ++i) {
    EXPECT_EQ(a.tenants[i].name, b.tenants[i].name);
    EXPECT_EQ(a.tenants[i].capacity_bytes, b.tenants[i].capacity_bytes);
    EXPECT_EQ(a.tenants[i].load.gen.seed, b.tenants[i].load.gen.seed);
    EXPECT_DOUBLE_EQ(a.tenants[i].load.gen.base_iops,
                     b.tenants[i].load.gen.base_iops);
    EXPECT_EQ(a.info[i].heat_rank, b.info[i].heat_rank);
    EXPECT_EQ(a.info[i].arrive, b.info[i].arrive);
    EXPECT_EQ(a.info[i].depart, b.info[i].depart);
  }

  // A different seed draws a different population.
  FleetSpec other = spec;
  other.seed = 12;
  const GeneratedFleet c = generate_fleet(other);
  bool differs = c.total_capacity_bytes != a.total_capacity_bytes;
  for (std::size_t i = 0; !differs && i < a.tenants.size(); ++i) {
    differs = c.tenants[i].capacity_bytes != a.tenants[i].capacity_bytes ||
              c.info[i].heat_rank != a.info[i].heat_rank;
  }
  EXPECT_TRUE(differs);
}

TEST(GenerateFleet, PopulationShape) {
  FleetSpec spec = small_spec();
  spec.tenants = 128;
  const GeneratedFleet fleet = generate_fleet(spec);

  // Capacities: in range, MiB-rounded.
  for (const auto& t : fleet.tenants) {
    EXPECT_GE(t.capacity_bytes, spec.min_capacity_bytes);
    EXPECT_LE(t.capacity_bytes, spec.max_capacity_bytes);
    EXPECT_EQ(t.capacity_bytes % kMiB, 0u);
    EXPECT_EQ(t.precondition_bytes, t.capacity_bytes);
    EXPECT_TRUE(t.load.open_loop);
  }

  // Zipf heat: every rate respects the cap, the hottest rank carries the
  // largest rate, and the hottest 10% of tenants offer well more than an
  // even share of the fleet's IOPS.
  double total = 0.0, rank0 = 0.0;
  std::vector<double> rates;
  for (const auto& info : fleet.info) {
    EXPECT_LE(info.iops, spec.max_tenant_iops + 1e-9);
    EXPECT_GT(info.iops, 0.0);
    total += info.iops;
    if (info.heat_rank == 0) rank0 = info.iops;
    rates.push_back(info.iops);
  }
  std::sort(rates.begin(), rates.end(), std::greater<>());
  EXPECT_DOUBLE_EQ(rates.front(), rank0);
  double top_decile = 0.0;
  for (std::size_t i = 0; i < rates.size() / 10; ++i) top_decile += rates[i];
  EXPECT_GT(top_decile / total, 2.0 * 0.1);

  // Churn: the count matches the flags, windows sit strictly inside the
  // run, and full-run tenants span it exactly.
  int churned = 0;
  for (std::size_t i = 0; i < fleet.info.size(); ++i) {
    const auto& info = fleet.info[i];
    const auto& gen = fleet.tenants[i].load.gen;
    EXPECT_EQ(gen.start_offset, info.arrive);
    EXPECT_EQ(gen.duration, info.depart - info.arrive);
    if (info.churned) {
      ++churned;
      EXPECT_GT(info.arrive, 0);
      EXPECT_LT(info.depart, spec.duration);
      EXPECT_LT(info.arrive, info.depart);
    } else {
      EXPECT_EQ(info.arrive, 0);
      EXPECT_EQ(info.depart, spec.duration);
    }
  }
  EXPECT_EQ(churned, fleet.churned_tenants);
  // ~25% of 128 with generous slack.
  EXPECT_GT(fleet.churned_tenants, 8);
  EXPECT_LT(fleet.churned_tenants, 64);

  FleetSpec no_churn = spec;
  no_churn.churn_fraction = 0.0;
  EXPECT_EQ(generate_fleet(no_churn).churned_tenants, 0);
}

TEST(GenerateFleet, InterferencePolicySeesTheHeat) {
  const GeneratedFleet fleet = generate_fleet(small_spec());
  // The planning signal orders tenants by heat, not bytes: the hottest
  // tenant's expected offered load dominates the coldest's.
  double hottest = 0.0, coldest = 0.0;
  for (std::size_t i = 0; i < fleet.tenants.size(); ++i) {
    const double bps = placement::expected_offered_bps(fleet.tenants[i]);
    EXPECT_GT(bps, 0.0);
    if (fleet.info[i].heat_rank == 0) hottest = bps;
    if (fleet.info[i].heat_rank == fleet.tenants.size() - 1) coldest = bps;
  }
  EXPECT_GT(hottest, 2.0 * coldest);
}

TEST(RunFleet, ThreadCountInvariant) {
  const GeneratedFleet fleet = generate_fleet(small_spec());
  const FleetReport one = run_fleet(fleet, {.threads = 1});
  const FleetReport two = run_fleet(fleet, {.threads = 2});
  const FleetReport four = run_fleet(fleet, {.threads = 4});

  ASSERT_FALSE(one.digests.empty());
  EXPECT_EQ(one.digests, two.digests);
  EXPECT_EQ(one.digests, four.digests);
  EXPECT_EQ(one.sim_events, two.sim_events);
  EXPECT_EQ(one.sim_events, four.sim_events);
  EXPECT_EQ(one.makespan, four.makespan);
  EXPECT_DOUBLE_EQ(one.worst_p999_us, four.worst_p999_us);

  // The run actually measured a fleet.
  EXPECT_EQ(one.active_tenants, 16u);
  EXPECT_GT(one.worst_p999_us, 0.0);
  EXPECT_GE(one.worst_p999_us, one.mean_p999_us);
  EXPECT_GT(one.jain_clusters, 0.0);
  EXPECT_LE(one.jain_clusters, 1.0);

  // Busy accounting: one block per cluster, class slices within the total.
  ASSERT_EQ(one.raw.busy.size(), 4u);
  SimTime busy_total = 0;
  for (const auto& b : one.raw.busy) {
    busy_total += b.busy_ns;
    SimTime classes = 0;
    for (const auto ns : b.class_busy_ns) classes += ns;
    EXPECT_LE(classes, b.busy_ns);
  }
  EXPECT_GT(busy_total, 0);
}

TEST(RunFleet, MigrationBudgetBoundsChurn) {
  FleetSpec spec = small_spec();
  spec.tenants = 12;
  spec.rebalance_watermark = 1.05;
  spec.rebalance_interval = 10 * kMs;
  spec.budget.max_concurrent = 2;
  spec.budget.max_total = 3;
  spec.budget.copy_bandwidth_bps = 200e6;

  const FleetReport rep = run_fleet(spec, {.threads = 1});
  EXPECT_LE(rep.peak_concurrent_migrations, 2);
  EXPECT_LE(rep.migrations, 3);
  for (const auto& m : rep.raw.migrations) {
    EXPECT_NE(m.from_cluster, m.to_cluster);
    EXPECT_EQ(rep.raw.final_cluster[m.tenant], m.to_cluster);
  }
  // A rebalancing fleet runs the epoch-sliced engine at every thread count,
  // so threaded runs digest identically to the one-thread sliced run.
  const FleetReport threaded = run_fleet(spec, {.threads = 4});
  EXPECT_EQ(rep.digests, threaded.digests);
  EXPECT_EQ(rep.raw.sliced.slices, threaded.raw.sliced.slices);
  EXPECT_EQ(rep.raw.sliced.fusions, threaded.raw.sliced.fusions);
  EXPECT_EQ(rep.raw.sliced.splits, threaded.raw.sliced.splits);
  if (rep.migrations > 0) {
    EXPECT_GE(rep.raw.sliced.fusions, 1u);
    EXPECT_GE(rep.raw.sliced.max_group_clusters, 2);
  }
}

}  // namespace
}  // namespace uc::fleet
