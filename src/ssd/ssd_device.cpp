#include "ssd/ssd_device.h"

#include <cstdint>
#include <memory>
#include <utility>

namespace uc::ssd {

namespace {

Lpn first_page(const IoRequest& req) { return req.offset / kLogicalPageBytes; }

std::uint32_t page_count(const IoRequest& req) {
  return static_cast<std::uint32_t>(req.bytes / kLogicalPageBytes);
}

}  // namespace

SsdDevice::SsdDevice(sim::Simulator& sim, const SsdConfig& cfg)
    : sim_(sim),
      cfg_(cfg),
      rng_(cfg.seed),
      firmware_read_(cfg.firmware_read),
      firmware_write_(cfg.firmware_write),
      host_to_device_(cfg.host_link_mbps),
      device_to_host_(cfg.host_link_mbps) {
  UC_ASSERT(cfg_.validate().is_ok(), "invalid SSD configuration");
  info_.name = cfg_.name;
  info_.capacity_bytes = cfg_.ftl.user_capacity_bytes;
  info_.logical_block_bytes = kLogicalPageBytes;
  ftl_ = std::make_unique<ftl::Ftl>(sim_, cfg_.ftl, rng_.fork());
}

void SsdDevice::on_read_ready(std::uint32_t slot) {
  // Data moves device -> host once the FTL has it in hand.
  const SimTime tx = device_to_host_.transfer(sim_.now(), ops_[slot].req.bytes);
  sim_.schedule_at(tx, [this, slot] { complete(slot); });
}

void SsdDevice::complete(std::uint32_t slot) {
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
  done(result);
}

void SsdDevice::submit(const IoRequest& req, CompletionFn done) {
  UC_ASSERT(validate_request(info_, req).is_ok(), "invalid I/O request");
  const std::uint32_t slot = ops_.claim();
  ops_[slot] = Op{req, sim_.now(), std::move(done)};

  switch (req.op) {
    case IoOp::kRead: {
      const SimTime fw = firmware_read_.sample(rng_, req.bytes);
      sim_.schedule_after(fw, [this, slot] {
        const IoRequest& r = ops_[slot].req;
        ftl_->read(first_page(r), page_count(r),
                   [this, slot] { on_read_ready(slot); });
      });
      break;
    }
    case IoOp::kWrite: {
      const SimTime fw = firmware_write_.sample(rng_, req.bytes);
      // Command processed, then payload crosses the host link, then the FTL
      // acknowledges once all slots are buffered (or backpressure clears).
      const SimTime fw_done = sim_.now() + fw;
      const SimTime tx = host_to_device_.transfer(fw_done, req.bytes);
      sim_.schedule_at(tx, [this, slot] {
        const IoRequest& r = ops_[slot].req;
        ftl_->write(first_page(r), page_count(r),
                    [this, slot] { complete(slot); });
      });
      break;
    }
    case IoOp::kFlush: {
      ftl_->flush([this, slot] { complete(slot); });
      break;
    }
    case IoOp::kTrim: {
      ftl_->trim(first_page(req), page_count(req));
      const SimTime fw = firmware_write_.sample(rng_, 0);
      sim_.schedule_after(fw, [this, slot] { complete(slot); });
      break;
    }
  }
}

}  // namespace uc::ssd
