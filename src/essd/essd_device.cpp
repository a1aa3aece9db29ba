#include "essd/essd_device.h"

#include <cstdint>
#include <memory>
#include <utility>

#include "sched/sched.h"

namespace uc::essd {

EssdDevice::EssdDevice(sim::Simulator& sim, const EssdConfig& cfg)
    : EssdDevice(sim, cfg, nullptr, 0) {}

EssdDevice::EssdDevice(sim::Simulator& sim, const EssdConfig& cfg,
                       ebs::StorageCluster& shared, ebs::VolumeId volume)
    : EssdDevice(sim, cfg, &shared, volume) {}

EssdDevice::EssdDevice(sim::Simulator& sim, const EssdConfig& cfg,
                       ebs::StorageCluster* shared, ebs::VolumeId volume)
    : sim_(sim),
      cfg_(cfg),
      rng_(cfg.seed),
      frontend_write_(cfg.frontend_write),
      frontend_read_(cfg.frontend_read),
      volume_(volume) {
  UC_ASSERT(cfg_.validate().is_ok(), "invalid ESSD configuration");
  info_.name = cfg_.name;
  info_.capacity_bytes = cfg_.capacity_bytes;
  info_.logical_block_bytes = kLogicalPageBytes;
  info_.guaranteed_bw_gbs = cfg_.guaranteed_bw_gbs;
  info_.guaranteed_iops = cfg_.guaranteed_iops;
  // The device-local queues follow the cluster's policy.  They only ever
  // carry this volume's tags, so the cluster's per-volume weights are moot.
  sched::SchedulerConfig local_sched = cfg_.cluster.sched;
  local_sched.weights.clear();
  qos_ = std::make_unique<QosGate>(sim_, cfg_.qos, local_sched);
  frontend_pipe_.configure(sim_, local_sched);
  if (shared == nullptr) {
    owned_cluster_ = std::make_unique<ebs::StorageCluster>(sim_, cfg_.cluster,
                                                           cfg_.capacity_bytes);
    cluster_ = owned_cluster_.get();
  } else {
    // Fragmentation (for_each_fragment) follows cfg_.cluster.chunk_bytes,
    // so it must agree with the cluster actually serving the volume.
    UC_ASSERT(cfg_.cluster.chunk_bytes == shared->chunk_bytes(),
              "shared-cluster chunk size differs from the device config");
    UC_ASSERT(volume < shared->volume_count() &&
                  shared->volume_bytes(volume) == cfg_.capacity_bytes,
              "volume not attached with this device's capacity");
    cluster_ = shared;
  }
}

template <typename Fn>
int EssdDevice::for_each_fragment(ByteOffset offset, std::uint32_t bytes,
                                  Fn&& fn) {
  const std::uint64_t chunk_bytes = cfg_.cluster.chunk_bytes;
  int fragments = 0;
  ByteOffset at = offset;
  std::uint64_t remaining = bytes;
  while (remaining > 0) {
    const std::uint64_t room = chunk_bytes - (at % chunk_bytes);
    const auto take =
        static_cast<std::uint32_t>(remaining < room ? remaining : room);
    fn(at, take);
    at += take;
    remaining -= take;
    ++fragments;
  }
  return fragments;
}

void EssdDevice::complete(std::uint32_t slot) {
  Op& op = ops_[slot];
  IoResult result;
  result.id = op.req.id;
  result.op = op.req.op;
  result.offset = op.req.offset;
  result.bytes = op.req.bytes;
  result.submit_time = op.submit_time;
  result.complete_time = sim_.now();
  // `done` may submit again, which claims a slot: release this one first.
  CompletionFn done = std::move(op.done);
  ops_.release(slot);
  --inflight_;
  done(result);
  // After `done`: a completion handler may submit again, but while frozen
  // those park, so reaching zero here really is the drain point.
  if (inflight_ == 0 && drained_cb_) {
    auto cb = std::move(drained_cb_);
    drained_cb_ = nullptr;
    cb();
  }
}

void EssdDevice::on_drained(std::function<void()> cb) {
  UC_ASSERT(!drained_cb_, "a drain callback is already pending");
  if (inflight_ == 0) {
    cb();
    return;
  }
  drained_cb_ = std::move(cb);
}

void EssdDevice::freeze() {
  UC_ASSERT(!frozen_, "device already frozen");
  frozen_ = true;
}

void EssdDevice::thaw() {
  UC_ASSERT(frozen_, "device not frozen");
  frozen_ = false;
  // Replay in arrival order.  Each request keeps its original submit time,
  // so the freeze window is real stop-and-copy cost that shows up in the
  // tenant's latency tail.
  while (!parked_.empty() && !frozen_) {
    Parked p = std::move(parked_.front());
    parked_.pop_front();
    submit_at(p.req, p.submit_time, std::move(p.done));
  }
}

void EssdDevice::retarget(ebs::StorageCluster& cluster, ebs::VolumeId volume) {
  UC_ASSERT(frozen_, "cutover requires a frozen device");
  UC_ASSERT(cfg_.cluster.chunk_bytes == cluster.chunk_bytes(),
            "target cluster chunk size differs from the device config");
  UC_ASSERT(volume < cluster.volume_count() &&
                cluster.volume_bytes(volume) == cfg_.capacity_bytes,
            "target volume not attached with this device's capacity");
  cluster_ = &cluster;
  volume_ = volume;
}

void EssdDevice::submit(const IoRequest& req, CompletionFn done) {
  UC_ASSERT(validate_request(info_, req).is_ok(), "invalid I/O request");
  if (frozen_) {
    parked_.push_back(Parked{req, sim_.now(), std::move(done)});
    return;
  }
  submit_at(req, sim_.now(), std::move(done));
}

void EssdDevice::submit_at(const IoRequest& req, SimTime submit_time,
                           CompletionFn done) {
  ++inflight_;
  const bool is_write = req.op == IoOp::kWrite;
  const sched::SchedTag tag{
      volume_, is_write ? sched::IoClass::kFgWrite : sched::IoClass::kFgRead,
      req.bytes};
  const std::uint32_t slot = ops_.claim();
  ops_[slot] = Op{req, submit_time, tag, 0, std::move(done)};

  switch (req.op) {
    case IoOp::kRead:
    case IoOp::kWrite: {
      if (is_write) {
        ++io_stats_.writes;
        io_stats_.written_bytes += req.bytes;
      } else {
        ++io_stats_.reads;
        io_stats_.read_bytes += req.bytes;
      }
      // The QoS gate admits the whole operation, then the frontend
      // (virtualization + block server) processes it, then the cluster.
      qos_->admit(req.bytes, tag,
                  [this, slot](SimTime) { enter_frontend(slot); });
      break;
    }
    case IoOp::kFlush: {
      // Writes commit to replicated journals before acknowledging, so a
      // flush barrier has nothing left to wait for beyond the frontend.
      ++io_stats_.flushes;
      sim_.schedule_after(frontend_write_.sample(rng_, 0),
                          [this, slot] { complete(slot); });
      break;
    }
    case IoOp::kTrim: {
      ++io_stats_.trims;
      for_each_fragment(req.offset, req.bytes,
                        [&](ByteOffset at, std::uint32_t len) {
                          cluster_->trim(volume_, at, len);
                        });
      sim_.schedule_after(frontend_write_.sample(rng_, 0),
                          [this, slot] { complete(slot); });
      break;
    }
  }
}

void EssdDevice::enter_frontend(std::uint32_t slot) {
  // The block-server pipeline serializes per-op processing, then the
  // sampled software latency elapses before the cluster sees the op.
  const auto op_cost = static_cast<SimTime>(cfg_.frontend_op_us * 1e3);
  const sched::SchedTag tag = ops_[slot].tag;
  frontend_pipe_.submit(
      sim_.now(), tag, op_cost,
      [this, slot](SimTime piped) { leave_frontend(slot, piped); });
}

void EssdDevice::leave_frontend(std::uint32_t slot, SimTime piped) {
  const IoRequest& req = ops_[slot].req;
  const SimTime fw = req.op == IoOp::kWrite
                         ? frontend_write_.sample(rng_, req.bytes)
                         : frontend_read_.sample(rng_, req.bytes);
  sim_.schedule_at(piped + fw, [this, slot] { issue_fragments(slot); });
}

void EssdDevice::issue_fragments(std::uint32_t slot) {
  const IoRequest req = ops_[slot].req;
  const int fragments = for_each_fragment(
      req.offset, req.bytes, [&](ByteOffset at, std::uint32_t len) {
        auto on_frag = [this, slot] {
          if (--ops_[slot].remaining == 0) complete(slot);
        };
        if (req.op == IoOp::kWrite) {
          const WriteStamp first = stamp_counter_ + 1;
          stamp_counter_ += len / kLogicalPageBytes;
          cluster_->write(volume_, at, len, first, on_frag);
        } else {
          cluster_->read(volume_, at, len, on_frag);
        }
      });
  ops_[slot].remaining = fragments;
}

}  // namespace uc::essd
