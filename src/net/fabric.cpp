#include "net/fabric.h"

#include <cstddef>
#include <cstdint>
#include <utility>

namespace uc::net {

Fabric::Fabric(const FabricConfig& cfg, Rng rng, sim::Simulator* sim)
    : hop_model_(cfg.hop),
      rng_(rng),
      vm_tx_(cfg.vm_nic_mbps),
      vm_rx_(cfg.vm_nic_mbps) {
  UC_ASSERT(cfg.nodes > 0, "fabric needs at least one storage node");
  UC_ASSERT(cfg.sched.policy == sched::Policy::kFifo || sim != nullptr,
            "non-FIFO fabric scheduling needs a simulator");
  node_tx_.reserve(static_cast<std::size_t>(cfg.nodes));
  node_rx_.reserve(static_cast<std::size_t>(cfg.nodes));
  for (int i = 0; i < cfg.nodes; ++i) {
    node_tx_.emplace_back(cfg.node_nic_mbps);
    node_rx_.emplace_back(cfg.node_nic_mbps);
  }
  node_tx_bytes_.assign(static_cast<std::size_t>(cfg.nodes), 0);
  node_rx_bytes_.assign(static_cast<std::size_t>(cfg.nodes), 0);
  if (sim != nullptr) {
    vm_tx_.configure(*sim, cfg.sched);
    vm_rx_.configure(*sim, cfg.sched);
    for (int i = 0; i < cfg.nodes; ++i) {
      node_tx_[static_cast<std::size_t>(i)].configure(*sim, cfg.sched);
      node_rx_[static_cast<std::size_t>(i)].configure(*sim, cfg.sched);
    }
  }
}

SimTime Fabric::to_node(SimTime now, int node, std::uint64_t bytes,
                        const sched::SchedTag& tag) {
  UC_ASSERT(vm_tx_.policy() == sched::Policy::kFifo, "FIFO-only transfer");
  SimTime delivered = 0;
  to_node(now, node, bytes, tag, [&delivered](SimTime t) { delivered = t; });
  return delivered;
}

SimTime Fabric::to_vm(SimTime now, int node, std::uint64_t bytes,
                      const sched::SchedTag& tag) {
  UC_ASSERT(vm_rx_.policy() == sched::Policy::kFifo, "FIFO-only transfer");
  SimTime delivered = 0;
  to_vm(now, node, bytes, tag, [&delivered](SimTime t) { delivered = t; });
  return delivered;
}

SimTime Fabric::hop_latency(std::uint64_t bytes) {
  return hop_model_.sample(rng_, bytes);
}

void Fabric::set_tenant_weight(std::uint32_t tenant, double weight) {
  vm_tx_.set_tenant_weight(tenant, weight);
  vm_rx_.set_tenant_weight(tenant, weight);
  for (auto& pipe : node_tx_) pipe.set_tenant_weight(tenant, weight);
  for (auto& pipe : node_rx_) pipe.set_tenant_weight(tenant, weight);
}

std::uint64_t Fabric::vm_tx_bytes() const {
  std::uint64_t total = 0;
  for (const std::uint64_t b : node_rx_bytes_) total += b;
  return total;
}

std::uint64_t Fabric::vm_rx_bytes() const {
  std::uint64_t total = 0;
  for (const std::uint64_t b : node_tx_bytes_) total += b;
  return total;
}

FabricStats Fabric::stats() const {
  FabricStats s;
  s.vm_tx_bytes = vm_tx_bytes();
  s.vm_rx_bytes = vm_rx_bytes();
  s.vm_tx_busy_ns = vm_tx_.busy_time();
  s.vm_rx_busy_ns = vm_rx_.busy_time();
  s.node_tx_bytes = node_tx_bytes_;
  s.node_rx_bytes = node_rx_bytes_;
  for (const auto& p : node_tx_) s.node_tx_busy_ns.push_back(p.busy_time());
  for (const auto& p : node_rx_) s.node_rx_busy_ns.push_back(p.busy_time());
  return s;
}

SimTime Fabric::total_busy_ns() const {
  SimTime total = vm_tx_.busy_time() + vm_rx_.busy_time();
  for (const auto& p : node_tx_) total += p.busy_time();
  for (const auto& p : node_rx_) total += p.busy_time();
  return total;
}

SimTime Fabric::class_busy_ns(sched::IoClass c) const {
  SimTime total =
      vm_tx_.sched().class_busy_time(c) + vm_rx_.sched().class_busy_time(c);
  for (const auto& p : node_tx_) total += p.sched().class_busy_time(c);
  for (const auto& p : node_rx_) total += p.sched().class_busy_time(c);
  return total;
}

FabricStats subtract(const FabricStats& a, const FabricStats& b) {
  // `b` may be a smaller (or default-constructed) snapshot; missing
  // entries subtract as zero.
  const auto at = [](const std::vector<std::uint64_t>& v, std::size_t i) {
    return i < v.size() ? v[i] : 0;
  };
  FabricStats d;
  d.vm_tx_bytes = a.vm_tx_bytes - b.vm_tx_bytes;
  d.vm_rx_bytes = a.vm_rx_bytes - b.vm_rx_bytes;
  d.vm_tx_busy_ns = a.vm_tx_busy_ns - b.vm_tx_busy_ns;
  d.vm_rx_busy_ns = a.vm_rx_busy_ns - b.vm_rx_busy_ns;
  d.node_tx_bytes.resize(a.node_tx_bytes.size());
  d.node_rx_bytes.resize(a.node_rx_bytes.size());
  d.node_tx_busy_ns.resize(a.node_tx_busy_ns.size());
  d.node_rx_busy_ns.resize(a.node_rx_busy_ns.size());
  for (std::size_t i = 0; i < a.node_tx_bytes.size(); ++i) {
    d.node_tx_bytes[i] = a.node_tx_bytes[i] - at(b.node_tx_bytes, i);
    d.node_rx_bytes[i] = a.node_rx_bytes[i] - at(b.node_rx_bytes, i);
    d.node_tx_busy_ns[i] = a.node_tx_busy_ns[i] - at(b.node_tx_busy_ns, i);
    d.node_rx_busy_ns[i] = a.node_rx_busy_ns[i] - at(b.node_rx_busy_ns, i);
  }
  return d;
}

}  // namespace uc::net
