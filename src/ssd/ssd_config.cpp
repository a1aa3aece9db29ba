#include "ssd/ssd_config.h"

#include <algorithm>
#include <cstdint>

#include "common/units.h"

namespace uc::ssd {

Status SsdConfig::validate() const {
  if (Status s = ftl.validate(); !s.is_ok()) return s;
  if (host_link_mbps <= 0.0) {
    return Status::invalid_argument("host link bandwidth must be positive");
  }
  return Status::ok();
}

SsdConfig samsung_970pro_scaled(std::uint64_t user_capacity_bytes) {
  using namespace units;
  SsdConfig cfg;
  cfg.name = "Samsung-970Pro-sim";

  flash::FlashGeometry g;
  g.channels = 8;
  g.dies_per_channel = 4;
  g.planes_per_die = 4;
  g.pages_per_block = 96;
  g.page_bytes = 16384;
  // Superblock = dies * planes * page * pages_per_block = 192 MiB; size the
  // pool to the requested user capacity plus spare for GC.  ~9% effective
  // over-provisioning matches a consumer NVMe drive and, with the GC
  // watermarks below, lands the steady-state random-write throughput in the
  // paper's "long-term low performance" regime (Figure 3).
  g.blocks_per_plane = 1;  // placeholder, fixed next
  const std::uint64_t sb_bytes = g.superblock_bytes();
  const std::uint64_t user_sbs = (user_capacity_bytes + sb_bytes - 1) / sb_bytes;
  // Tight spare (~5-9%) like a consumer drive: the GC cliff lands around
  // 1.0-1.3x capacity of random writes and the steady state sinks to a
  // small fraction of the fresh-device throughput (Figure 3).
  const std::uint64_t spare_sbs =
      std::max<std::uint64_t>(8, user_sbs * 5 / 100);
  g.blocks_per_plane = static_cast<int>(user_sbs + spare_sbs);

  flash::FlashTiming t;
  t.read_us = 48.0;
  t.program_us = 620.0;
  t.erase_us = 3500.0;
  t.channel_mbps = 600.0;
  t.suspend_penalty_us = 12.0;

  cfg.ftl.geometry = g;
  cfg.ftl.timing = t;
  cfg.ftl.user_capacity_bytes = user_capacity_bytes;
  cfg.ftl.write_buffer_slots = 16384;  // 64 MiB
  cfg.ftl.read_cache_slots = 8192;     // 32 MiB
  cfg.ftl.prefetch.read_ahead_pages = 64;
  cfg.ftl.gc.trigger_free_sbs = 3;
  cfg.ftl.gc.stop_free_sbs = 5;
  cfg.ftl.gc.user_reserve_sbs = 2;

  cfg.host_link_mbps = 3500.0;
  return cfg;
}

}  // namespace uc::ssd
