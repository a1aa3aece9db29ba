#pragma once

/// \file essd_config.h
/// ESSD device configuration and the two calibrated provider profiles the
/// paper characterizes (Table I): AWS io2 ("ESSD-1") and Alibaba PL3
/// ("ESSD-2").
///
/// Every profile constant is a *mechanism parameter* (latency floors, NIC
/// and node pipeline rates, spare-pool sizing, cleaner bandwidth, QoS
/// budgets), not a curve fit: the paper's observations emerge from the
/// interaction of these mechanisms.  EXPERIMENTS.md records how well each
/// calibration target is met.

#include <cstdint>
#include <string>

#include "common/status.h"
#include "ebs/cluster.h"
#include "essd/qos.h"
#include "sim/latency_model.h"

namespace uc::essd {

struct EssdConfig {
  std::string name = "sim-essd";
  std::uint64_t capacity_bytes = 0;

  QosConfig qos;

  /// Virtualization frontend + block-server software cost per operation
  /// (the compute-side share of the cloud I/O path).
  sim::LatencyModelConfig frontend_write;
  sim::LatencyModelConfig frontend_read;

  /// Block-server per-operation pipeline occupancy: requests serialize
  /// through the compute-side agent for this long, capping the volume's
  /// operation rate (this, not the rated IOPS, is what the paper's Figure 2
  /// QD sweeps saturate: latency stays ~flat while IOPS ~ QD / this cost).
  double frontend_op_us = 15.0;

  /// The storage cluster behind the volume.  `cluster.sched` also sets the
  /// device-local queue discipline (QoS-gate admission order and the
  /// block-server frontend pipe), minus its per-volume weights: a device's
  /// queues only ever carry its own volume's traffic.
  ebs::ClusterConfig cluster;

  /// Published ceilings for DeviceInfo / Table I.
  double guaranteed_bw_gbs = 0.0;
  double guaranteed_iops = 0.0;

  std::uint64_t seed = 0xe55d;

  Status validate() const;
};

/// ESSD-1: AWS io2-class profile.  3.0 GB/s budget, 25.6K provisioned IOPS,
/// tight latency tails, high per-chunk stripe bandwidth (modest
/// random-over-sequential write gain, ~1.5x), finite spare pool (~2.3x
/// capacity) with a moderate cleaner — the Figure 3 cliff at ~2.55x
/// capacity followed by ~305 MB/s sustained.
EssdConfig aws_io2_profile(std::uint64_t capacity_bytes);

/// ESSD-2: Alibaba PL3-class profile.  1.1 GB/s budget, 100K IOPS, lower
/// latency floors but heavy tails (~10x P99.9 inflation), node read-ahead
/// (fast sequential reads), small per-chunk append bandwidth (up to ~2.8x
/// random-write gain), cleaner provisioned above the budget — no GC cliff
/// within 3x capacity writes.
EssdConfig alibaba_pl3_profile(std::uint64_t capacity_bytes);

}  // namespace uc::essd
