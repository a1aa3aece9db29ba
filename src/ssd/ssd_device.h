#pragma once

/// \file ssd_device.h
/// The local NVMe SSD: host interface (firmware command overhead plus a
/// full-duplex host link) in front of the FTL.  This is the reproduction's
/// stand-in for the paper's Samsung 970 Pro reference device.

#include <cstdint>
#include <memory>

#include "common/block_device.h"
#include "common/rng.h"
#include "common/slot_pool.h"
#include "ftl/ftl.h"
#include "sim/latency_model.h"
#include "sim/resources.h"
#include "sim/simulator.h"
#include "ssd/ssd_config.h"

namespace uc::ssd {

class SsdDevice : public BlockDevice {
 public:
  SsdDevice(sim::Simulator& sim, const SsdConfig& cfg);

  const DeviceInfo& info() const override { return info_; }
  void submit(const IoRequest& req, CompletionFn done) override;

  const ftl::Ftl& ftl() const { return *ftl_; }
  ftl::Ftl& ftl() { return *ftl_; }

 private:
  /// Per-I/O state, pooled: every continuation captures `{this, slot}`.
  struct Op {
    IoRequest req;
    SimTime submit_time = 0;
    CompletionFn done;
  };

  void on_read_ready(std::uint32_t slot);
  void complete(std::uint32_t slot);

  sim::Simulator& sim_;
  SsdConfig cfg_;
  DeviceInfo info_;
  Rng rng_;
  sim::LatencyModel firmware_read_;
  sim::LatencyModel firmware_write_;
  sim::BandwidthPipe host_to_device_;
  sim::BandwidthPipe device_to_host_;
  std::unique_ptr<ftl::Ftl> ftl_;
  SlotPool<Op> ops_;
};

}  // namespace uc::ssd
