#pragma once

/// \file essd_device.h
/// The elastic SSD: a virtualized block device whose data path is
/// QoS gate → virtualization/block-server frontend → storage cluster
/// (replicated chunk appends / replica reads) — paper §II-C.
///
/// From the user's perspective it is interchangeable with `ssd::SsdDevice`
/// (same `BlockDevice` interface); the unwritten contract is about how
/// differently it behaves.

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>

#include "common/block_device.h"
#include "common/rng.h"
#include "common/slot_pool.h"
#include "ebs/cluster.h"
#include "essd/essd_config.h"
#include "essd/qos.h"
#include "sched/queued_resource.h"
#include "sim/latency_model.h"
#include "sim/simulator.h"

namespace uc::essd {

struct EssdIoStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t flushes = 0;
  std::uint64_t trims = 0;
  std::uint64_t read_bytes = 0;
  std::uint64_t written_bytes = 0;
};

class EssdDevice : public BlockDevice {
 public:
  /// Owns a private single-volume cluster (the original construction path).
  EssdDevice(sim::Simulator& sim, const EssdConfig& cfg);

  /// Multi-tenant path: borrows `shared` (which outlives the device) and
  /// serves `cfg.capacity_bytes` from the already-attached `volume`.  The
  /// QoS gate and frontend stay per-device — per-tenant budgets over shared
  /// cluster resources.  `cfg.cluster` must match the shared cluster's
  /// chunk geometry; the rest of `cfg.cluster` is ignored.
  EssdDevice(sim::Simulator& sim, const EssdConfig& cfg,
             ebs::StorageCluster& shared, ebs::VolumeId volume);

  const DeviceInfo& info() const override { return info_; }
  void submit(const IoRequest& req, CompletionFn done) override;

  const EssdIoStats& io_stats() const { return io_stats_; }
  const QosGate& qos() const { return *qos_; }
  const ebs::StorageCluster& cluster() const { return *cluster_; }
  ebs::StorageCluster& cluster() { return *cluster_; }
  ebs::VolumeId volume() const { return volume_; }

  // --- live-migration hooks (`uc::placement`) ---
  /// Freezes the device: new submissions park inside the device instead of
  /// entering the QoS gate.  This is the stop-and-copy window of a live
  /// migration — I/O already admitted keeps flowing to the old backend and
  /// completes there.
  void freeze();
  /// Replays parked submissions in arrival order and resumes service.
  void thaw();
  bool frozen() const { return frozen_; }
  /// Atomic cutover: serve `volume` (already attached, same capacity, fully
  /// copied) on `cluster` from now on.  Only legal while frozen, so no
  /// submission can straddle the switch.
  void retarget(ebs::StorageCluster& cluster, ebs::VolumeId volume);
  /// Fires `cb` once no I/O is in flight past `submit()` (immediately if
  /// already drained).  With `freeze()` this bounds the stop-and-copy
  /// window: freeze, wait out the in-flight tail, copy the last dirty
  /// pages, cut over.
  void on_drained(std::function<void()> cb);
  int inflight() const { return inflight_; }

 private:
  /// One operation from `submit_at` to its completion (see `SlotPool`).
  struct Op {
    IoRequest req;
    SimTime submit_time = 0;
    sched::SchedTag tag;
    int remaining = 0;  ///< cluster fragments not yet completed
    CompletionFn done;
  };

  /// Splits [offset, offset+bytes) into chunk-aligned fragments and invokes
  /// `fn(frag_offset, frag_bytes)` for each; returns the fragment count.
  template <typename Fn>
  int for_each_fragment(ByteOffset offset, std::uint32_t bytes, Fn&& fn);
  /// The real data path; `submit()` forwards here (or parks while frozen,
  /// preserving the original submit time for the latency clock).
  void submit_at(const IoRequest& req, SimTime submit_time, CompletionFn done);
  // The read/write service chain, one hop per step:
  // QoS gate -> frontend pipe -> frontend latency -> cluster fragments.
  void enter_frontend(std::uint32_t slot);
  void leave_frontend(std::uint32_t slot, SimTime piped);
  void issue_fragments(std::uint32_t slot);
  void complete(std::uint32_t slot);

  EssdDevice(sim::Simulator& sim, const EssdConfig& cfg,
             ebs::StorageCluster* shared, ebs::VolumeId volume);

  sim::Simulator& sim_;
  EssdConfig cfg_;
  DeviceInfo info_;
  Rng rng_;
  sim::LatencyModel frontend_write_;
  sim::LatencyModel frontend_read_;
  sched::QueuedResource frontend_pipe_;
  std::unique_ptr<QosGate> qos_;
  std::unique_ptr<ebs::StorageCluster> owned_cluster_;  ///< null when shared
  ebs::StorageCluster* cluster_ = nullptr;
  ebs::VolumeId volume_ = 0;
  EssdIoStats io_stats_;
  WriteStamp stamp_counter_ = 0;
  SlotPool<Op> ops_;
  struct Parked {
    IoRequest req;
    SimTime submit_time = 0;
    CompletionFn done;
  };
  bool frozen_ = false;
  int inflight_ = 0;
  std::deque<Parked> parked_;
  std::function<void()> drained_cb_;
};

}  // namespace uc::essd
