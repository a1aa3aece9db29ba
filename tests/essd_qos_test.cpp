// Tests for the QoS gate: byte-budget and IOPS enforcement, I/O-unit
// normalization, FIFO admission, and burst behaviour — the Observation 4
// mechanism.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/units.h"
#include "essd/qos.h"

namespace uc::essd {
namespace {

using namespace units;

QosConfig tight_config() {
  QosConfig cfg;
  cfg.bw_bytes_per_s = 1e9;   // 1 GB/s
  cfg.bw_burst_s = 0.001;     // 1 MB burst
  cfg.iops = 1000.0;
  cfg.iops_burst_s = 0.01;    // 10 ops burst
  cfg.iops_unit_bytes = 256 * 1024;
  return cfg;
}

TEST(QosGate, AdmitsImmediatelyWithinBudget) {
  sim::Simulator sim;
  QosGate gate(sim, tight_config());
  bool admitted = false;
  SimTime admitted_at = kNoTime;
  sim.schedule_at(7, [&] {
    gate.admit(4096, sched::SchedTag{}, [&](SimTime t) {
      admitted = true;
      admitted_at = t;
    });
    EXPECT_TRUE(admitted);  // synchronous when tokens available
  });
  sim.run();
  EXPECT_EQ(admitted_at, 7u);  // the grant carries the admission time
  EXPECT_EQ(gate.stats().admitted, 1u);
  EXPECT_EQ(gate.stats().throttled, 0u);
}

TEST(QosGate, ByteBudgetPacesLargeTransfers) {
  sim::Simulator sim;
  auto cfg = tight_config();
  cfg.iops = 1e6;  // IOPS must not bind in this byte-pacing test
  QosGate gate(sim, cfg);
  std::vector<SimTime> times;
  // 10 x 1 MB = 10 MB against a 1 MB burst + 1 GB/s refill: the tail ops
  // must be paced at ~1 ms per MB.
  for (int i = 0; i < 10; ++i) {
    gate.admit(1000000, sched::SchedTag{},
               [&](SimTime) { times.push_back(sim.now()); });
  }
  sim.run();
  ASSERT_EQ(times.size(), 10u);
  EXPECT_EQ(times.front(), 0u);
  // Total: 10 MB minus the 1 MB burst at 1 GB/s ~= 9 ms.
  EXPECT_NEAR(static_cast<double>(times.back()), 9e6, 1e6);
}

TEST(QosGate, IopsBudgetPacesSmallOps) {
  sim::Simulator sim;
  auto cfg = tight_config();
  cfg.bw_bytes_per_s = 1e12;  // bytes never bind
  cfg.bw_burst_s = 1.0;
  QosGate gate(sim, cfg);
  int completed = 0;
  SimTime last = 0;
  for (int i = 0; i < 110; ++i) {
    gate.admit(4096, sched::SchedTag{}, [&](SimTime) {
      ++completed;
      last = sim.now();
    });
  }
  sim.run();
  EXPECT_EQ(completed, 110);
  // 110 ops against 10 burst + 1000/s: ~100 ms.
  EXPECT_NEAR(static_cast<double>(last), 100e6, 10e6);
  EXPECT_GT(gate.stats().throttled, 0u);
  EXPECT_GT(gate.stats().throttle_ns, 0u);
}

TEST(QosGate, LargeOpsCostMultipleIopsTokens) {
  sim::Simulator sim;
  auto cfg = tight_config();
  cfg.bw_bytes_per_s = 1e12;
  cfg.bw_burst_s = 1.0;
  cfg.iops = 100.0;
  cfg.iops_burst_s = 0.05;  // 5-token burst
  QosGate gate(sim, cfg);
  // A 1 MiB op costs ceil(1 MiB / 256 KiB) = 4 tokens.
  SimTime second_at = 0;
  gate.admit(1 << 20, sched::SchedTag{}, [](SimTime) {});
  gate.admit(1 << 20, sched::SchedTag{},
             [&](SimTime) { second_at = sim.now(); });
  sim.run();
  // First op leaves 1 token; the second needs 3 more at 100/s: ~30 ms.
  EXPECT_GT(second_at, 25 * kMs);
  EXPECT_LT(second_at, 45 * kMs);
}

TEST(QosGate, OpsLargerThanBurstStillMakeProgress) {
  // Regression: a request whose token cost exceeds the bucket capacity
  // must be admitted once the bucket fills, not spin forever.
  sim::Simulator sim;
  auto cfg = tight_config();
  cfg.bw_bytes_per_s = 1e12;
  cfg.bw_burst_s = 1.0;
  cfg.iops = 100.0;
  cfg.iops_burst_s = 0.01;  // capacity 1 token < 4-token ops
  QosGate gate(sim, cfg);
  int completed = 0;
  SimTime last = 0;
  for (int i = 0; i < 5; ++i) {
    gate.admit(1 << 20, sched::SchedTag{}, [&](SimTime) {
      ++completed;
      last = sim.now();
    });
  }
  sim.run();
  EXPECT_EQ(completed, 5);
  // 5 ops x 4 tokens at 100/s ~= 200 ms of pacing (debt accounting).
  EXPECT_GT(last, 120 * kMs);
  EXPECT_LT(last, 300 * kMs);
}

TEST(QosGate, AdmissionIsFifo) {
  sim::Simulator sim;
  QosGate gate(sim, tight_config());
  std::vector<int> order;
  for (int i = 0; i < 6; ++i) {
    gate.admit(1000000, sched::SchedTag{},
               [&order, i](SimTime) { order.push_back(i); });
  }
  sim.run();
  ASSERT_EQ(order.size(), 6u);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(order[i], i);
}

TEST(QosGate, TracksQueueDepthAndAdmissionWait) {
  sim::Simulator sim;
  auto cfg = tight_config();
  cfg.iops = 1e6;  // byte bucket binds
  QosGate gate(sim, cfg);
  int admitted = 0;
  for (int i = 0; i < 8; ++i) {
    gate.admit(1000000, sched::SchedTag{}, [&](SimTime) { ++admitted; });
  }
  // First op passed on burst; the rest are pending right now.
  EXPECT_EQ(gate.queue_depth(), 7u);
  EXPECT_EQ(gate.stats().queue_depth_peak, 7u);
  sim.run();
  EXPECT_EQ(admitted, 8);
  EXPECT_EQ(gate.queue_depth(), 0u);         // drained
  EXPECT_EQ(gate.stats().queue_depth_peak, 7u);  // high-water mark sticks
  // Every admit recorded a wait sample; the tail wait is the pacing cost
  // (~1 ms per queued MB at 1 GB/s), far above the immediate admits.
  EXPECT_EQ(gate.stats().wait.count(), 8u);
  EXPECT_GT(gate.stats().p99_wait_ns(), 1 * kMs);
  EXPECT_EQ(gate.stats().wait.percentile(1.0), 0u);  // first op never waited
}

TEST(QosGate, PriorityPolicyAdmitsReadsBeforeQueuedWrites) {
  sim::Simulator sim;
  auto cfg = tight_config();
  cfg.iops = 1e6;
  sched::SchedulerConfig sched_cfg;
  sched_cfg.policy = sched::Policy::kPrio;
  QosGate gate(sim, cfg, sched_cfg);
  std::vector<int> order;
  // Exhaust the burst, then queue writes before a read.
  gate.admit(1000000, sched::SchedTag{},
             [&](SimTime) { order.push_back(-1); });
  for (int i = 0; i < 3; ++i) {
    gate.admit(1000000,
               sched::SchedTag{0, sched::IoClass::kFgWrite, 0},
               [&order, i](SimTime) { order.push_back(i); });
  }
  gate.admit(1000000, sched::SchedTag{0, sched::IoClass::kFgRead, 0},
             [&order](SimTime) { order.push_back(100); });
  sim.run();
  ASSERT_EQ(order.size(), 5u);
  EXPECT_EQ(order[0], -1);
  // The head-of-line write was already selected (and budget-checked) when
  // the read arrived, but the read jumps every uncommitted write.
  EXPECT_EQ(order[1], 0);
  EXPECT_EQ(order[2], 100);
  EXPECT_EQ(order[3], 1);
  EXPECT_EQ(order[4], 2);
}

TEST(QosGate, SharedBudgetAcrossReadAndWriteStreams) {
  // Observation 4 in miniature: two competing streams drawing from the same
  // byte bucket can jointly never exceed the budget.
  sim::Simulator sim;
  auto cfg = tight_config();
  cfg.iops = 1e9;  // IOPS never binds
  cfg.iops_burst_s = 0.001;
  QosGate gate(sim, cfg);
  std::uint64_t bytes_admitted = 0;
  SimTime last = 0;
  for (int i = 0; i < 200; ++i) {
    gate.admit(262144, sched::SchedTag{}, [&](SimTime) {
      bytes_admitted += 262144;
      last = sim.now();
    });
  }
  sim.run();
  const double gbs = static_cast<double>(bytes_admitted) /
                     static_cast<double>(last);
  EXPECT_NEAR(gbs, 1.0, 0.08);
}

}  // namespace
}  // namespace uc::essd
