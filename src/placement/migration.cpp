#include "placement/migration.h"

#include <algorithm>
#include <cstdint>

namespace uc::placement {

VolumeMigrator::VolumeMigrator(sim::Simulator& sim, essd::EssdDevice& device,
                               ebs::StorageCluster& src, ebs::VolumeId src_vol,
                               ebs::StorageCluster& dst, ebs::VolumeId dst_vol,
                               const MigrationConfig& cfg,
                               MigrationPacer* pacer)
    : sim_(sim),
      device_(device),
      src_(src),
      src_vol_(src_vol),
      dst_(dst),
      dst_vol_(dst_vol),
      cfg_(cfg),
      pacer_(pacer),
      capacity_bytes_(src.volume_bytes(src_vol)) {
  UC_ASSERT(&src_ != &dst_, "migration needs two distinct clusters");
  UC_ASSERT(dst_.volume_bytes(dst_vol_) == capacity_bytes_,
            "target volume capacity differs from the source");
  UC_ASSERT(src_.chunk_bytes() == dst_.chunk_bytes(),
            "clusters disagree on chunk geometry");
}

void VolumeMigrator::start() {
  UC_ASSERT(!started_, "migrator already started");
  started_ = true;
  stats_.started = sim_.now();
  stats_.passes = 1;
  scan_from(0, /*frozen_pass=*/false);
}

void VolumeMigrator::scan_from(ByteOffset offset, bool frozen_pass) {
  const std::uint64_t chunk_bytes = src_.chunk_bytes();
  while (offset < capacity_bytes_) {
    const bool src_written = src_.is_written(src_vol_, offset);
    const bool dst_written = dst_.is_written(dst_vol_, offset);
    if (!src_written) {
      if (dst_written) {
        // Trimmed (or never-written) at the source since the copy: mirror
        // the trim so the target does not resurrect dead data.
        dst_.trim(dst_vol_, offset, kLogicalPageBytes);
        ++stats_.pages_trimmed;
      }
      offset += kLogicalPageBytes;
      continue;
    }
    const WriteStamp stamp = src_.page_stamp(src_vol_, offset);
    if (dst_written && dst_.page_stamp(dst_vol_, offset) == stamp) {
      offset += kLogicalPageBytes;
      continue;
    }
    // Dirty page: grow a contiguous run of dirty pages with consecutive
    // stamps (the write API assigns `first_stamp + i` per page) within one
    // chunk and the copy-fragment bound.
    std::uint32_t bytes = kLogicalPageBytes;
    while (bytes < kMigrationCopyBytes) {
      const ByteOffset next = offset + bytes;
      if (next >= capacity_bytes_) break;
      if (next / chunk_bytes != offset / chunk_bytes) break;
      if (!src_.is_written(src_vol_, next)) break;
      if (src_.page_stamp(src_vol_, next) !=
          stamp + bytes / kLogicalPageBytes) {
        break;
      }
      if (dst_.is_written(dst_vol_, next) &&
          dst_.page_stamp(dst_vol_, next) ==
              src_.page_stamp(src_vol_, next)) {
        break;  // already clean; end the run here
      }
      bytes += kLogicalPageBytes;
    }
    const std::uint32_t pages = bytes / kLogicalPageBytes;
    stats_.pages_copied += pages;
    stats_.bytes_copied += bytes;
    pass_copied_pages_ += pages;
    // Copy: read the fragment off the source cluster, then append it to the
    // target with the source stamps.  Both legs are `kMigration`-tagged, so
    // they queue like any other traffic on the shared pipes.  A configured
    // pacer first reserves the fragment on the host-wide copy budget, which
    // is what keeps N concurrent migrations from stampeding the fleet.
    const auto issue = [this, offset, bytes, stamp, frozen_pass] {
      src_.read(
          src_vol_, offset, bytes,
          [this, offset, bytes, stamp, frozen_pass] {
            dst_.write(
                dst_vol_, offset, bytes, stamp,
                [this, offset, bytes, frozen_pass] {
                  scan_from(offset + bytes, frozen_pass);
                },
                sched::IoClass::kMigration);
          },
          sched::IoClass::kMigration);
    };
    if (pacer_ != nullptr) {
      const SimTime at = pacer_->reserve(sim_.now(), bytes);
      if (at > sim_.now()) {
        sim_.schedule_at(at, issue);
        return;
      }
    }
    issue();
    return;  // resume from the copy's completion
  }
  finish_pass(frozen_pass);
}

void VolumeMigrator::finish_pass(bool frozen_pass) {
  if (frozen_pass) {
    cutover();
    return;
  }
  if (pass_copied_pages_ <= cfg_.freeze_threshold_pages ||
      stats_.passes >= kMaxPrecopyPasses) {
    enter_stop_and_copy();
    return;
  }
  ++stats_.passes;
  pass_copied_pages_ = 0;
  scan_from(0, /*frozen_pass=*/false);
}

void VolumeMigrator::enter_stop_and_copy() {
  device_.freeze();
  freeze_at_ = sim_.now();
  // In-flight operations keep draining against the source; once the last
  // completes, nothing can dirty the source any more and the final diff is
  // exact.
  device_.on_drained([this] {
    ++stats_.passes;
    pass_copied_pages_ = 0;
    scan_from(0, /*frozen_pass=*/true);
  });
}

void VolumeMigrator::cutover() {
  release_source();
  device_.retarget(dst_, dst_vol_);
  stats_.cutover = sim_.now();
  stats_.frozen_ns = sim_.now() - freeze_at_;
  device_.thaw();
  finished_ = true;
}

void VolumeMigrator::release_source() {
  // Drop the stale source copy chunk by chunk; only written pages turn into
  // garbage, so this is exactly the segment load the cleaner gets back.
  const std::uint64_t chunk_bytes = src_.chunk_bytes();
  for (ByteOffset at = 0; at < capacity_bytes_; at += chunk_bytes) {
    const auto len = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(chunk_bytes, capacity_bytes_ - at));
    src_.trim(src_vol_, at, len);
  }
}

}  // namespace uc::placement
