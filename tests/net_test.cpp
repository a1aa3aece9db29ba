// Tests for the datacenter fabric: NIC serialization, hop latency, and
// contention between concurrent transfers.

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "net/fabric.h"
#include "sim/simulator.h"

namespace uc::net {
namespace {

// An untagged transfer: tenant 0, foreground write.
const sched::SchedTag kTag{};

FabricConfig deterministic_config() {
  FabricConfig cfg;
  cfg.nodes = 4;
  cfg.vm_nic_mbps = 1000.0;    // 1 ns/byte
  cfg.node_nic_mbps = 1000.0;
  cfg.hop = sim::LatencyModelConfig{.base_us = 20.0};  // no jitter
  return cfg;
}

TEST(Fabric, ToNodeTimesAddUp) {
  Fabric fabric(deterministic_config(), Rng(1));
  // 4096 bytes: vm egress 4096 ns + hop 20000 ns + node ingress 4096 ns.
  EXPECT_EQ(fabric.to_node(0, 2, 4096, kTag), 4096u + 20000u + 4096u);
  EXPECT_EQ(fabric.vm_tx_bytes(), 4096u);
}

TEST(Fabric, ToVmMirrorsPath) {
  Fabric fabric(deterministic_config(), Rng(1));
  EXPECT_EQ(fabric.to_vm(0, 1, 8192, kTag), 8192u + 20000u + 8192u);
  EXPECT_EQ(fabric.vm_rx_bytes(), 8192u);
}

TEST(Fabric, VmEgressSerializesFanOut) {
  Fabric fabric(deterministic_config(), Rng(1));
  // Three replica sends of the same payload: egress serializes them even
  // though destination nodes differ.
  const SimTime t1 = fabric.to_node(0, 0, 10000, kTag);
  const SimTime t2 = fabric.to_node(0, 1, 10000, kTag);
  const SimTime t3 = fabric.to_node(0, 2, 10000, kTag);
  EXPECT_EQ(t1, 10000u + 20000u + 10000u);
  EXPECT_EQ(t2, t1 + 10000u);
  EXPECT_EQ(t3, t2 + 10000u);
}

TEST(Fabric, NodeIngressIsPerNode) {
  Fabric fabric(deterministic_config(), Rng(1));
  fabric.to_node(0, 0, 100000, kTag);
  // A transfer to a different node does not queue behind node 0's ingress,
  // only behind the shared VM egress.
  const SimTime t = fabric.to_node(0, 1, 1000, kTag);
  EXPECT_EQ(t, 100000u + 1000u + 20000u + 1000u);
}

TEST(Fabric, DirectionsAreIndependent) {
  Fabric fabric(deterministic_config(), Rng(1));
  fabric.to_node(0, 0, 1000000, kTag);  // large upstream transfer
  // Downstream is unaffected (full duplex).
  EXPECT_EQ(fabric.to_vm(0, 0, 4096, kTag), 4096u + 20000u + 4096u);
}

TEST(Fabric, JitterIsSeedDeterministic) {
  FabricConfig cfg = deterministic_config();
  cfg.hop.sigma = 0.3;
  Fabric a(cfg, Rng(42));
  Fabric b(cfg, Rng(42));
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(a.hop_latency(), b.hop_latency());
  }
}

TEST(Fabric, PerNodeByteCountersAndUtilization) {
  Fabric fabric(deterministic_config(), Rng(1));
  fabric.to_node(0, 2, 4096, kTag);
  fabric.to_node(0, 2, 4096, kTag);
  fabric.to_vm(0, 1, 8192, kTag);
  EXPECT_EQ(fabric.vm_tx_bytes(), 8192u);
  EXPECT_EQ(fabric.vm_rx_bytes(), 8192u);
  // Occupancy: 1 ns/byte pipes.
  EXPECT_EQ(fabric.vm_tx_busy_ns(), 8192u);
  EXPECT_EQ(fabric.vm_rx_busy_ns(), 8192u);

  const FabricStats s = fabric.stats();
  EXPECT_EQ(s.vm_tx_bytes, 8192u);
  EXPECT_EQ(s.vm_rx_bytes, 8192u);
  EXPECT_EQ(s.node_rx_bytes[2], 8192u);
  EXPECT_EQ(s.node_rx_bytes[1], 0u);
  EXPECT_EQ(s.node_tx_bytes[1], 8192u);
  EXPECT_EQ(s.node_tx_bytes[2], 0u);
  EXPECT_EQ(s.node_rx_busy_ns[2], 8192u);
  EXPECT_EQ(s.node_tx_busy_ns[1], 8192u);
  EXPECT_EQ(s.node_rx_busy_ns[0], 0u);
  const FabricStats d = subtract(fabric.stats(), s);
  EXPECT_EQ(d.vm_tx_bytes, 0u);
  EXPECT_EQ(d.node_rx_bytes[2], 0u);
}

TEST(Fabric, SyncTransferMatchesGrantPath) {
  Fabric a(deterministic_config(), Rng(1));
  Fabric b(deterministic_config(), Rng(1));
  const SimTime direct = a.to_node(0, 2, 4096, kTag);
  SimTime granted = 0;
  b.to_node(0, 2, 4096, kTag, [&](SimTime t) { granted = t; });
  EXPECT_EQ(granted, direct);  // FIFO grants fire inside the call
  EXPECT_EQ(a.class_busy_ns(sched::IoClass::kFgWrite), a.total_busy_ns());
}

TEST(Fabric, QueuedTransfersChainBothPipes) {
  sim::Simulator sim;
  FabricConfig cfg = deterministic_config();
  cfg.sched.policy = sched::Policy::kWfq;
  Fabric fabric(cfg, Rng(1), &sim);
  std::vector<SimTime> delivered;
  for (std::uint32_t tenant = 0; tenant < 3; ++tenant) {
    fabric.to_vm(0, 1, 4096, sched::SchedTag{tenant, sched::IoClass::kFgRead,
                                             4096},
                 [&](SimTime t) { delivered.push_back(t); });
  }
  EXPECT_TRUE(delivered.empty());  // queued: grants fire at dispatch
  sim.run();
  // Node egress serializes the three sends; each then pays the hop and the
  // VM ingress, which is idle by the time each arrives.
  EXPECT_EQ(delivered, (std::vector<SimTime>{4096u + 20000u + 4096u,
                                             8192u + 20000u + 4096u,
                                             12288u + 20000u + 4096u}));
  EXPECT_DEATH(fabric.to_vm(0, 1, 4096, kTag), "FIFO-only transfer");
}

TEST(Fabric, RejectsBadNodeIndex) {
  Fabric fabric(deterministic_config(), Rng(1));
  EXPECT_EQ(fabric.nodes(), 4);
  EXPECT_DEATH(fabric.to_node(0, 4, 100, kTag), "node out of range");
}

}  // namespace
}  // namespace uc::net
