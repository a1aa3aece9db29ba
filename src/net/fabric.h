#pragma once

/// \file fabric.h
/// Datacenter network between the compute cluster (user VM + block server)
/// and the storage nodes (paper Figure 1): full-duplex NICs modeled as
/// bandwidth pipes and per-hop latency with lognormal jitter plus a rare
/// spike tail — the "network latency and software processing overhead
/// within the cloud storage" the paper identifies as the primary cause of
/// the ESSD latency floor (Observation 1).
///
/// Every NIC pipe routes through the sched layer: under the default FIFO
/// policy transfers serialize in arrival order exactly as before; under
/// WFQ/priority a tenant's small requests no longer queue behind another
/// tenant's bulk backlog on the shared VM uplink.

#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/types.h"
#include "sched/sched.h"
#include "sched/scheduler.h"
#include "sim/latency_model.h"
#include "sim/resources.h"
#include "sim/simulator.h"

namespace uc::net {

struct FabricConfig {
  int nodes = 16;
  double vm_nic_mbps = 3125.0;    ///< 25 GbE at the user VM / block server
  double node_nic_mbps = 3125.0;  ///< 25 GbE per storage node
  sim::LatencyModelConfig hop;    ///< one-way switch+propagation latency
  sched::SchedulerConfig sched;   ///< queue discipline on every NIC pipe
};

/// Per-direction byte totals and pipe occupancy, VM-side and per node.
/// The fabric stores bytes only per node; the VM-side byte totals are
/// their sums (every transfer has the VM at one end), derived on read.
struct FabricStats {
  std::uint64_t vm_tx_bytes = 0;
  std::uint64_t vm_rx_bytes = 0;
  SimTime vm_tx_busy_ns = 0;
  SimTime vm_rx_busy_ns = 0;
  std::vector<std::uint64_t> node_tx_bytes;
  std::vector<std::uint64_t> node_rx_bytes;
  std::vector<SimTime> node_tx_busy_ns;
  std::vector<SimTime> node_rx_busy_ns;
};

/// A message transfer reserves the sender egress pipe, pays the hop
/// latency, then reserves the receiver ingress pipe (store-and-forward
/// through the ToR switch).
class Fabric {
 public:
  /// `sim` may be null only when the policy is FIFO (the synchronous grant
  /// path needs no dispatch events).
  Fabric(const FabricConfig& cfg, Rng rng, sim::Simulator* sim = nullptr);

  /// VM/block-server -> storage node `node`; `done(delivered)` fires inside
  /// the call under FIFO, at dispatch under WFQ/PRIO.
  template <typename F>
  void to_node(SimTime arrival, int node, std::uint64_t bytes,
               const sched::SchedTag& tag, F&& done) {
    UC_ASSERT(node >= 0 && node < nodes(), "node out of range");
    node_rx_bytes_[static_cast<std::size_t>(node)] += bytes;
    send(vm_tx_, node_rx_[static_cast<std::size_t>(node)], arrival, bytes, tag,
         std::forward<F>(done));
  }
  /// Storage node `node` -> VM/block server; see `to_node`.
  template <typename F>
  void to_vm(SimTime arrival, int node, std::uint64_t bytes,
             const sched::SchedTag& tag, F&& done) {
    UC_ASSERT(node >= 0 && node < nodes(), "node out of range");
    node_tx_bytes_[static_cast<std::size_t>(node)] += bytes;
    send(node_tx_[static_cast<std::size_t>(node)], vm_rx_, arrival, bytes, tag,
         std::forward<F>(done));
  }

  /// The same transfers returning the delivery time directly.  FIFO only:
  /// the grant then fires before the call returns.
  SimTime to_node(SimTime now, int node, std::uint64_t bytes,
                  const sched::SchedTag& tag);
  SimTime to_vm(SimTime now, int node, std::uint64_t bytes,
                const sched::SchedTag& tag);

  /// One-way hop latency sample only (for control messages).
  SimTime hop_latency(std::uint64_t bytes = 0);

  /// Re-registers `tenant`'s fair-share weight on every NIC pipe (a
  /// migrated-in volume carrying its weight to the new cluster's fabric).
  void set_tenant_weight(std::uint32_t tenant, double weight);

  int nodes() const { return static_cast<int>(node_tx_.size()); }

  /// VM-side byte totals: the sums of the per-node receive (transmit)
  /// bytes.
  std::uint64_t vm_tx_bytes() const;
  std::uint64_t vm_rx_bytes() const;
  /// Pipe occupancy so far (divide by elapsed time for utilization).
  SimTime vm_tx_busy_ns() const { return vm_tx_.busy_time(); }
  SimTime vm_rx_busy_ns() const { return vm_rx_.busy_time(); }

  /// Snapshot of all byte/occupancy counters (subtract two snapshots to
  /// scope a measurement window).
  FabricStats stats() const;

  /// Total occupancy across every NIC pipe (VM-side + all nodes, both
  /// directions) — one addend of `ebs::StorageCluster::busy_stats()`.
  SimTime total_busy_ns() const;
  /// The same total sliced by traffic class.  Every reservation accrues to
  /// one class (untagged ones to `kFgWrite`), so the slices sum to
  /// `total_busy_ns()`.
  SimTime class_busy_ns(sched::IoClass c) const;

 private:
  /// Reserves the egress pipe `from`; its grant pays the hop and reserves
  /// the ingress pipe `to`, whose grant is `done`.
  template <typename F>
  void send(sim::BandwidthPipe& from, sim::BandwidthPipe& to, SimTime arrival,
            std::uint64_t bytes, const sched::SchedTag& tag, F&& done) {
    from.submit(arrival, tag, bytes,
                [this, &to, bytes, tag,
                 done = std::forward<F>(done)](SimTime sent) mutable {
                  to.submit(sent + hop_model_.sample(rng_, 0), tag, bytes,
                            std::move(done));
                });
  }

  sim::LatencyModel hop_model_;
  Rng rng_;
  sim::BandwidthPipe vm_tx_;
  sim::BandwidthPipe vm_rx_;
  std::vector<sim::BandwidthPipe> node_tx_;
  std::vector<sim::BandwidthPipe> node_rx_;
  std::vector<std::uint64_t> node_tx_bytes_;
  std::vector<std::uint64_t> node_rx_bytes_;
};

/// Component-wise `a - b` for measurement windows.
FabricStats subtract(const FabricStats& a, const FabricStats& b);

}  // namespace uc::net
