#include "ladder.h"

#include <algorithm>
#include <memory>

#include "common/histogram.h"
#include "common/rng.h"
#include "ebs/cluster.h"
#include "flash/nand_array.h"
#include "ftl/ftl.h"
#include "net/fabric.h"
#include "sched/queued_resource.h"
#include "sim/simulator.h"
#include "tracer.h"

namespace perfbench {

using namespace uc;

namespace {

struct Pass {
  std::uint64_t units = 0;
  std::uint64_t ops = 0;
  std::uint64_t events = 0;
  std::int64_t ns = 0;
};

/// Runs `pass` (which times itself) until `min_ns` of host time is measured.
template <typename Fn>
RungResult repeat(std::int64_t min_ns, Fn&& pass) {
  RungResult r;
  do {
    const Pass p = pass();
    r.units += p.units;
    r.ns += p.ns;
    r.ops += p.ops;
    r.events += p.events;
    ++r.passes;
  } while (r.ns < min_ns && r.units > 0);
  return r;
}

/// Keeps a computed value alive so the optimizer cannot drop the work.
void sink(std::uint64_t v) {
  static volatile std::uint64_t keep = 0;
  keep = keep + v;
}

/// Splits [offset, offset+bytes) at `chunk` boundaries.
template <typename Fn>
void for_each_fragment(std::uint64_t offset, std::uint32_t bytes,
                       std::uint64_t chunk, Fn&& fn) {
  while (bytes > 0) {
    const std::uint64_t room = chunk - offset % chunk;
    const auto len = static_cast<std::uint32_t>(std::min<std::uint64_t>(room, bytes));
    fn(offset, len);
    offset += len;
    bytes -= len;
  }
}

/// Offset that moves a stream's timeline to start no earlier than `now`
/// (a rung's untimed fill leaves the clock past the stream's first submit).
SimTime shift_to(const std::vector<OpRecord>& ops, SimTime now) {
  return ops.empty() || ops.front().submit >= now ? 0
                                                  : now - ops.front().submit;
}

/// Deterministic replica placement of one fragment's chunk for the rungs
/// that model per-node resources without a `ChunkMap`.
int replica_node(const OpRecord& op, std::uint64_t offset, std::uint64_t chunk,
                 int replica, int nodes) {
  const std::uint64_t base = op.volume * 131 + offset / chunk * 7;
  return static_cast<int>((base + static_cast<std::uint64_t>(replica)) %
                          static_cast<std::uint64_t>(nodes));
}

sched::IoClass io_class(IoOp op) {
  return op == IoOp::kRead ? sched::IoClass::kFgRead : sched::IoClass::kFgWrite;
}

}  // namespace

double self_ns_per_io(
    const RungResult& layer,
    const std::vector<std::pair<const RungResult*, double>>& below) {
  double ns = layer.ns_per_unit();
  for (const auto& [rung, units_per_io] : below) {
    ns -= units_per_io * rung->ns_per_unit();
  }
  return ns;
}

// ---------------------------------------------------------------------------
// sim: the bare kernel
// ---------------------------------------------------------------------------

RungResult kernel_rung(const std::vector<Stream>& streams, std::int64_t min_ns) {
  struct Replay {
    sim::Simulator& sim;
    const std::vector<OpRecord>& ops;
    std::size_t next = 0;
    std::uint64_t acc = 0;

    void arm() {
      if (next >= ops.size()) return;
      const std::uint64_t idx = next++;
      const SimTime issued = std::max(ops[idx].submit, sim.now());
      const std::uint64_t bytes = ops[idx].bytes;
      // 32-byte captures: owner, op index, issue time, transfer size.
      sim.schedule_at(issued, [this, idx, issued, bytes] {
        acc += idx + bytes;
        const SimTime done = std::max(ops[idx].complete, sim.now());
        sim.schedule_at(done, [this, idx, issued, bytes] {
          acc += bytes + (sim.now() - issued) + idx;
        });
        arm();
      });
    }
  };
  return repeat(min_ns, [&] {
    Pass p;
    for (const Stream& s : streams) {
      sim::Simulator sim;
      Replay replay{sim, s.ops};
      const std::int64_t t0 = host_ns();
      replay.arm();
      sim.run();
      p.ns += host_ns() - t0;
      p.units += sim.events_processed();
      sink(replay.acc);
    }
    return p;
  });
}

// ---------------------------------------------------------------------------
// sched: per-node queued resources
// ---------------------------------------------------------------------------

RungResult sched_rung(const std::vector<Stream>& streams, std::int64_t min_ns) {
  return repeat(min_ns, [&] {
    Pass p;
    for (const Stream& s : streams) {
      if (!s.essd) continue;
      const ebs::ClusterConfig& cfg = s.cluster;
      const int nodes = cfg.fabric.nodes;
      std::vector<sched::QueuedResource> node_pipe;
      node_pipe.reserve(static_cast<std::size_t>(nodes));
      for (int n = 0; n < nodes; ++n) node_pipe.emplace_back(1);
      std::uint64_t acc = 0;
      const std::int64_t t0 = host_ns();
      for (const OpRecord& op : s.ops) {
        if (!is_data_op(op.op)) continue;
        const bool write = op.op == IoOp::kWrite;
        const double op_ns =
            (write ? cfg.node_append_op_us : cfg.node_read_op_us) * 1e3;
        const double ns_per_byte =
            1e3 / (write ? cfg.node_append_mbps : cfg.node_read_mbps);
        const int replicas = write ? cfg.replication : 1;
        for_each_fragment(op.offset, op.bytes, cfg.chunk_bytes,
                          [&](std::uint64_t off, std::uint32_t len) {
          const sched::SchedTag tag{op.volume, io_class(op.op), len};
          const auto duration =
              static_cast<SimTime>(op_ns + ns_per_byte * len);
          for (int r = 0; r < replicas; ++r) {
            const int node = replica_node(op, off, cfg.chunk_bytes, r, nodes);
            acc += node_pipe[static_cast<std::size_t>(node)].acquire(
                op.submit, duration, tag);
            ++p.units;
          }
        });
      }
      p.ns += host_ns() - t0;
      p.ops += s.ops.size();
      sink(acc);
    }
    return p;
  });
}

// ---------------------------------------------------------------------------
// net: fabric hops
// ---------------------------------------------------------------------------

RungResult net_rung(const std::vector<Stream>& streams, std::int64_t min_ns) {
  return repeat(min_ns, [&] {
    Pass p;
    for (const Stream& s : streams) {
      if (!s.essd) continue;
      const ebs::ClusterConfig& cfg = s.cluster;
      net::Fabric fabric(cfg.fabric, Rng(cfg.seed));
      std::uint64_t acc = 0;
      const std::int64_t t0 = host_ns();
      for (const OpRecord& op : s.ops) {
        if (!is_data_op(op.op)) continue;
        const bool write = op.op == IoOp::kWrite;
        for_each_fragment(op.offset, op.bytes, cfg.chunk_bytes,
                          [&](std::uint64_t off, std::uint32_t len) {
          const sched::SchedTag tag{op.volume, io_class(op.op), len};
          if (write) {
            for (int r = 0; r < cfg.replication; ++r) {
              const int node =
                  replica_node(op, off, cfg.chunk_bytes, r, cfg.fabric.nodes);
              acc += fabric.to_node(op.submit, node, len, tag);
              ++p.units;
            }
          } else {
            const int node =
                replica_node(op, off, cfg.chunk_bytes, 0, cfg.fabric.nodes);
            acc += fabric.to_vm(op.submit, node, len, tag);
            ++p.units;
          }
        });
      }
      p.ns += host_ns() - t0;
      p.ops += s.ops.size();
      sink(acc);
    }
    return p;
  });
}

// ---------------------------------------------------------------------------
// ebs: the storage cluster
// ---------------------------------------------------------------------------

RungResult ebs_rung(std::vector<Stream>& streams, std::int64_t min_ns) {
  struct Replay {
    sim::Simulator& sim;
    ebs::StorageCluster& cluster;
    Stream& s;
    bool fill_completions;
    std::vector<std::uint32_t> pending;  ///< fragments in flight per op
    SimTime shift = 0;
    std::size_t next = 0;
    std::uint64_t completed = 0;
    WriteStamp stamp = 1;

    void arm() {
      if (next >= s.ops.size()) return;
      sim.schedule_at(s.ops[next].submit + shift, [this] {
        issue(next++);
        arm();
      });
    }
    void done(std::size_t i) {
      if (--pending[i] > 0) return;
      ++completed;
      if (fill_completions && s.ops[i].complete == 0) {
        s.ops[i].complete = sim.now() - shift;
      }
    }
    void issue(std::size_t i) {
      const OpRecord& op = s.ops[i];
      const std::uint64_t chunk = cluster.chunk_bytes();
      if (op.op == IoOp::kTrim) {
        for_each_fragment(op.offset, op.bytes, chunk,
                          [&](std::uint64_t off, std::uint32_t len) {
                            cluster.trim(op.volume, off, len);
                          });
        ++completed;
        return;
      }
      if (!is_data_op(op.op)) {
        ++completed;
        return;
      }
      pending[i] = 1;  // guards against completing before the last issue
      for_each_fragment(op.offset, op.bytes, chunk,
                        [&](std::uint64_t off, std::uint32_t len) {
        ++pending[i];
        if (op.op == IoOp::kWrite) {
          cluster.write(op.volume, off, len, stamp, [this, i] { done(i); });
          stamp += len / kLogicalPageBytes;
        } else {
          cluster.read(op.volume, off, len, [this, i] { done(i); });
        }
      });
      done(i);
    }
  };

  bool first = true;
  RungResult r = repeat(min_ns, [&] {
    Pass p;
    for (Stream& s : streams) {
      if (!s.essd) continue;
      sim::Simulator sim;
      std::unique_ptr<ebs::StorageCluster> cluster;
      if (s.volume_bytes.size() == 1) {
        cluster = std::make_unique<ebs::StorageCluster>(sim, s.cluster,
                                                        s.volume_bytes[0]);
      } else {
        cluster = std::make_unique<ebs::StorageCluster>(sim, s.cluster);
        for (const std::uint64_t bytes : s.volume_bytes) {
          cluster->attach_volume(bytes);
        }
      }
      // Untimed precondition fill, so reads hit written pages.
      WriteStamp stamp = 1;
      for (std::uint32_t v = 0; v < s.volume_bytes.size(); ++v) {
        const std::uint64_t fill_unit = std::min<std::uint64_t>(
            cluster->chunk_bytes(), std::uint64_t{1} << 20);
        for (std::uint64_t off = 0; off < s.volume_bytes[v]; off += fill_unit) {
          const auto len = static_cast<std::uint32_t>(
              std::min(fill_unit, s.volume_bytes[v] - off));
          cluster->write(v, off, len, stamp, [] {});
          stamp += len / kLogicalPageBytes;
        }
      }
      sim.run();

      Replay replay{sim, *cluster, s, first, std::vector<std::uint32_t>(s.ops.size(), 0)};
      replay.stamp = stamp;
      replay.shift = shift_to(s.ops, sim.now());
      const std::uint64_t events_before = sim.events_processed();
      const std::int64_t t0 = host_ns();
      replay.arm();
      sim.run();
      p.ns += host_ns() - t0;
      p.units += s.ops.size();
      p.events += sim.events_processed() - events_before;
      UC_ASSERT(replay.completed == s.ops.size(),
                "ebs rung: an op did not complete");
    }
    first = false;
    return p;
  });
  return r;
}

// ---------------------------------------------------------------------------
// ftl: the flash translation layer
// ---------------------------------------------------------------------------

RungResult ftl_rung(const std::vector<Stream>& streams, std::int64_t min_ns) {
  struct Replay {
    sim::Simulator& sim;
    ftl::Ftl& ftl;
    const std::vector<OpRecord>& ops;
    SimTime shift = 0;
    std::size_t next = 0;
    std::uint64_t completed = 0;

    void arm() {
      if (next >= ops.size()) return;
      sim.schedule_at(ops[next].submit + shift, [this] {
        issue(ops[next++]);
        arm();
      });
    }
    void issue(const OpRecord& op) {
      const Lpn start = op.offset / kLogicalPageBytes;
      const auto pages = std::max<std::uint32_t>(op.bytes / kLogicalPageBytes, 1);
      switch (op.op) {
        case IoOp::kRead:
          ftl.read(start, pages, [this] { ++completed; });
          break;
        case IoOp::kWrite:
          ftl.write(start, pages, [this] { ++completed; });
          break;
        case IoOp::kTrim:
          ftl.trim(start, pages);
          ++completed;
          break;
        case IoOp::kFlush:
          ftl.flush([this] { ++completed; });
          break;
      }
    }
  };
  return repeat(min_ns, [&] {
    Pass p;
    for (const Stream& s : streams) {
      if (!s.ssd) continue;
      sim::Simulator sim;
      ftl::Ftl ftl(sim, s.ftl, Rng(0xf71));
      // Untimed sequential fill of every user page.
      constexpr std::uint32_t kRun = 256;
      for (Lpn lpn = 0; lpn < ftl.user_pages(); lpn += kRun) {
        const auto pages = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(kRun, ftl.user_pages() - lpn));
        ftl.write(lpn, pages, [] {});
      }
      sim.run();
      Replay replay{sim, ftl, s.ops, shift_to(s.ops, sim.now())};
      const std::uint64_t events_before = sim.events_processed();
      const std::int64_t t0 = host_ns();
      replay.arm();
      sim.run();
      p.ns += host_ns() - t0;
      p.units += s.ops.size();
      p.events += sim.events_processed() - events_before;
      UC_ASSERT(replay.completed == s.ops.size(),
                "ftl rung: an op did not complete");
    }
    return p;
  });
}

// ---------------------------------------------------------------------------
// flash: the NAND array
// ---------------------------------------------------------------------------

RungResult flash_rung(const std::vector<Stream>& streams, std::int64_t min_ns) {
  return repeat(min_ns, [&] {
    Pass p;
    for (const Stream& s : streams) {
      if (!s.ssd) continue;
      const flash::FlashGeometry& g = s.ftl.geometry;
      flash::NandArray nand(g, s.ftl.timing, Rng(0xf1a5));
      const int dies = g.total_dies();
      const auto slots_per_row = static_cast<std::uint64_t>(g.slots_per_row());
      std::vector<int> rows_on_die(static_cast<std::size_t>(dies), 0);
      std::uint64_t buffered = 0;
      int die_cursor = 0;
      std::uint64_t acc = 0;
      const std::int64_t t0 = host_ns();
      for (const OpRecord& op : s.ops) {
        const std::uint64_t pages = std::max<std::uint32_t>(op.bytes / kLogicalPageBytes, 1);
        if (op.op == IoOp::kRead) {
          for (std::uint64_t i = 0; i < pages; ++i) {
            const std::uint64_t lpn = op.offset / kLogicalPageBytes + i;
            const int die = static_cast<int>((lpn * 2654435761u >> 7) %
                                             static_cast<std::uint64_t>(dies));
            acc += nand.read_page(op.submit, die, kLogicalPageBytes).done;
            ++p.units;
          }
        } else if (op.op == IoOp::kWrite) {
          buffered += pages;
          while (buffered >= slots_per_row) {
            buffered -= slots_per_row;
            acc += nand.program_row(op.submit, die_cursor, g.planes_per_die).done;
            ++p.units;
            int& rows = rows_on_die[static_cast<std::size_t>(die_cursor)];
            if (++rows % g.pages_per_block == 0) {
              acc += nand.erase_on_die(op.submit, die_cursor).done;
              ++p.units;
            }
            die_cursor = (die_cursor + 1) % dies;
          }
        }
      }
      p.ns += host_ns() - t0;
      p.ops += s.ops.size();
      sink(acc);
    }
    return p;
  });
}

// ---------------------------------------------------------------------------
// common: latency histograms
// ---------------------------------------------------------------------------

RungResult histogram_rung(const std::vector<Stream>& streams,
                          std::int64_t min_ns) {
  std::vector<SimTime> latencies;
  for (const Stream& s : streams) {
    for (const OpRecord& op : s.ops) {
      if (op.complete >= op.submit) latencies.push_back(op.complete - op.submit);
    }
  }
  return repeat(min_ns, [&] {
    Pass p;
    LatencyHistogram h;
    const std::int64_t t0 = host_ns();
    for (const SimTime v : latencies) h.record(v);
    p.ns = host_ns() - t0;
    p.units = latencies.size();
    sink(h.count() + h.max());
    return p;
  });
}

}  // namespace perfbench
