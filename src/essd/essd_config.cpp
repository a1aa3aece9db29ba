#include "essd/essd_config.h"

#include <cstdint>

#include "common/units.h"

namespace uc::essd {

using namespace units;

Status EssdConfig::validate() const {
  if (capacity_bytes == 0 || capacity_bytes % kLogicalPageBytes != 0) {
    return Status::invalid_argument("capacity must be a 4 KiB multiple");
  }
  if (qos.bw_bytes_per_s <= 0.0 || qos.iops <= 0.0) {
    return Status::invalid_argument("QoS budgets must be positive");
  }
  if (cluster.replication < 1 || cluster.replication > cluster.fabric.nodes) {
    return Status::invalid_argument("replication must fit the node count");
  }
  if (const Status s = cluster.validate(); !s.is_ok()) {
    return s;
  }
  if (capacity_bytes % cluster.chunk_bytes != 0) {
    return Status::invalid_argument("capacity must be a chunk multiple");
  }
  if (cluster.model_node_index) {
    if (const Status s = cluster.node_mapping.validate(); !s.is_ok()) {
      return s;
    }
    if (cluster.node_index_window_pages == 0) {
      return Status::invalid_argument("node index window must be positive");
    }
  }
  return Status::ok();
}

EssdConfig aws_io2_profile(std::uint64_t capacity_bytes) {
  EssdConfig cfg;
  cfg.name = "AWS-io2-sim";
  cfg.capacity_bytes = capacity_bytes;
  cfg.guaranteed_bw_gbs = 3.0;
  cfg.guaranteed_iops = 25600.0;
  cfg.seed = 0xa55001;

  cfg.qos.bw_bytes_per_s = 3.0e9;
  cfg.qos.bw_burst_s = 0.05;
  cfg.qos.iops = 25600.0;
  // io2's rated IOPS is a floor, not a hard cap: measured sustained rates
  // exceed it (the paper's own Fig. 2 QD sweeps imply ~50K at 4 KiB); the
  // deep burst keeps the rated bucket from binding, so the block-server
  // pipeline (frontend_op_us) is what saturates small-I/O rates.
  cfg.qos.iops_burst_s = 30.0;
  cfg.qos.iops_unit_bytes = 256 * 1024;

  // 4 KiB QD1 anchors (Fig. 2a): write ~333 us, read ~472 us; write slope
  // ~2.5 ns/B, read slope ~4 ns/B; tight tails (P99.9 ~ 1.3x average).
  cfg.frontend_op_us = 19.0;  // => ~52K IOPS at QD16, 4 KiB (paper: 303 us)
  cfg.frontend_write = {.base_us = 176.0,
                        .per_byte_ns = 1.85,
                        .sigma = 0.06,
                        .spike_prob = 0.0004,
                        .spike_mean_us = 250.0};
  cfg.frontend_read = {.base_us = 241.0,
                       .per_byte_ns = 2.1,
                       .sigma = 0.06,
                       .spike_prob = 0.0004,
                       .spike_mean_us = 250.0};

  ebs::ClusterConfig& cl = cfg.cluster;
  cl.fabric.nodes = 16;
  // The block-server's aggregated uplink: replication fans every write out
  // three ways, so the compute-side egress must exceed 3x the budget.
  cl.fabric.vm_nic_mbps = 12000.0;
  cl.fabric.node_nic_mbps = 3125.0;  // 25 GbE per storage node
  cl.fabric.hop = {.base_us = 22.0, .sigma = 0.10};
  cl.chunk_bytes = 64 * kMiB;
  cl.segment_bytes = 8 * kMiB;
  cl.replication = 3;
  // Spare pool ~1.3x capacity with a ~600 MB/s cleaner: at a 3 GB/s write
  // load the pool (plus what the cleaner reclaims along the way) absorbs
  // ~2.55x capacity of writes before exhausting, after which sustained
  // throughput converges to the cleaner's net reclaim (~300 MB/s) — the
  // paper's ESSD-1 Figure 3 curve.
  cl.spare_pool_bytes = capacity_bytes * 13 / 10;
  // Per-chunk pipeline: a high byte rate with a ~27 us per-append cost.
  // Large sequential I/O then rides up to the replica NICs / byte budget
  // (gain -> ~1x at 256 KiB) while small-I/O streams cap near 37K
  // appends/s per chunk (gain ~1.4-1.6x at 4-64 KiB, QD32) — the paper's
  // "gain concentrated on higher queue depths and small-to-medium sizes".
  cl.node_append_mbps = 8000.0;
  cl.node_append_op_us = 27.0;
  cl.node_read_mbps = 2400.0;
  cl.node_read_op_us = 15.0;
  cl.replica_write = {.base_us = 58.0, .per_byte_ns = 0.0, .sigma = 0.15};
  cl.replica_read = {.base_us = 150.0, .per_byte_ns = 1.0, .sigma = 0.15};
  cl.node_cache_pages = 16384;
  cl.readahead = false;
  cl.cleaner.processing_mbps = 420.0;
  cl.cleaner.min_garbage_ratio = 0.02;
  cl.cleaner.start_free_ratio = 0.75;
  cl.seed = cfg.seed ^ 0xc1u;
  return cfg;
}

EssdConfig alibaba_pl3_profile(std::uint64_t capacity_bytes) {
  EssdConfig cfg;
  cfg.name = "Alibaba-PL3-sim";
  cfg.capacity_bytes = capacity_bytes;
  cfg.guaranteed_bw_gbs = 1.1;
  cfg.guaranteed_iops = 100000.0;
  cfg.seed = 0xa11b4b4;

  cfg.qos.bw_bytes_per_s = 1.1e9;
  cfg.qos.bw_burst_s = 0.05;
  cfg.qos.iops = 100000.0;
  cfg.qos.iops_burst_s = 30.0;
  cfg.qos.iops_unit_bytes = 256 * 1024;

  // 4 KiB QD1 anchors (Fig. 2c): write ~138 us, read ~239 us, sequential
  // read ~158 us (read-ahead); heavy tails: P99.9 ~ 1.3 ms on a ~138 us
  // average (Fig. 2d) via a fatter spike term.
  cfg.frontend_op_us = 12.3;  // => ~81K IOPS at QD16, 4 KiB (paper: 197 us)
  cfg.frontend_write = {.base_us = 40.0,
                        .per_byte_ns = 0.1,
                        .sigma = 0.18,
                        .spike_prob = 0.0035,
                        .spike_mean_us = 900.0};
  cfg.frontend_read = {.base_us = 66.0,
                       .per_byte_ns = 0.8,
                       .sigma = 0.18,
                       .spike_prob = 0.0035,
                       .spike_mean_us = 900.0};

  ebs::ClusterConfig& cl = cfg.cluster;
  cl.fabric.nodes = 16;
  cl.fabric.vm_nic_mbps = 12000.0;  // block-server uplink (3x fan-out)
  cl.fabric.node_nic_mbps = 3125.0;
  cl.fabric.hop = {.base_us = 14.0, .sigma = 0.12};
  cl.chunk_bytes = 64 * kMiB;
  cl.segment_bytes = 8 * kMiB;
  cl.replication = 3;
  // Cleaner provisioned above the 1.1 GB/s budget: the pool never runs dry,
  // so the GC impact "disappears" (Figure 3, ESSD-2).
  cl.spare_pool_bytes = capacity_bytes * 12 / 10;
  cl.node_append_mbps = 470.0;       // small per-chunk ceiling -> big rand gain
  cl.node_append_op_us = 26.0;
  cl.node_read_mbps = 2000.0;
  cl.node_read_op_us = 12.0;
  cl.replica_write = {.base_us = 26.0, .per_byte_ns = 0.0, .sigma = 0.20};
  cl.replica_read = {.base_us = 105.0, .per_byte_ns = 0.9, .sigma = 0.20};
  cl.node_cache_pages = 16384;
  cl.readahead = true;
  cl.readahead_pages = 64;
  cl.cleaner.processing_mbps = 2600.0;
  cl.cleaner.min_garbage_ratio = 0.02;
  cl.cleaner.start_free_ratio = 0.75;
  cl.seed = cfg.seed ^ 0xc1u;
  return cfg;
}

}  // namespace uc::essd
