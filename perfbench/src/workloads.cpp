#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <memory>

#include "common/digest.h"
#include "common/units.h"
#include "contract/suite.h"
#include "essd/essd_device.h"
#include "fleet/fleet.h"
#include "placement/placement.h"
#include "sched/sched.h"
#include "sim/parallel.h"
#include "sim/simulator.h"
#include "ssd/ssd_device.h"
#include "tracer.h"
#include "workload/runner.h"
#include "workload/trace.h"

namespace perfbench {

using namespace uc;
using namespace uc::units;

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// TracedDevice
// ---------------------------------------------------------------------------

namespace {

std::uint64_t next_request_id() {
  static std::uint64_t next = 0;
  return ++next;
}

}  // namespace

TracedDevice::TracedDevice(BlockDevice& inner, const char* submit_span,
                           std::vector<OpRecord>* log, std::size_t log_cap)
    : inner_(inner), submit_span_(submit_span), log_(log), log_cap_(log_cap) {}

void TracedDevice::submit(const IoRequest& req, CompletionFn done) {
  std::uint32_t slot = 0;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(pending_.size());
    pending_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  Pending& p = pending_[slot];
  p.done = std::move(done);
  p.index = completions_.size();
  completions_.push_back(0);
  p.request = active_tracer() != nullptr ? next_request_id() : 0;
  p.log_index = kNotLogged;
  if (log_ != nullptr && log_->size() < log_cap_) {
    p.log_index = log_->size();
    log_->push_back(OpRecord{0, 0, req.offset, req.bytes, 0, req.op});
  }
  // `p` may move if the inner device completes synchronously and the
  // callback submits again, so nothing below touches it.
  Span span(submit_span_, p.request);
  inner_.submit(req, [this, slot](const IoResult& r) { complete(slot, r); });
}

void TracedDevice::complete(std::uint32_t slot, const IoResult& r) {
  Pending& p = pending_[slot];
  if (completions_[p.index] < 255) ++completions_[p.index];
  if (!p.done) return;  // a repeated completion: counted, nothing to call
  if (p.log_index != kNotLogged) {
    (*log_)[p.log_index].submit = r.submit_time;
    (*log_)[p.log_index].complete = r.complete_time;
  }
  const CompletionFn done = std::move(p.done);
  p.done = nullptr;
  free_.push_back(slot);
  Span completion("workload.completion", p.request);
  done(r);
}

std::uint64_t TracedDevice::failed() const {
  return static_cast<std::uint64_t>(
      std::count_if(completions_.begin(), completions_.end(),
                    [](std::uint8_t c) { return c != 1; }));
}

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

namespace {

/// Wall and CPU clocks of one rep, split at the start of the measured phase.
class RepClock {
 public:
  RepClock() : start_ns_(host_ns()), cpu_start_(process_cpu_s()) {}
  /// Moves the set-up/measure split forward by `ns` of set-up time.
  void add_setup(std::int64_t ns) { setup_ns_ += ns; }
  void finish(RepResult& r) const {
    const std::int64_t total = host_ns() - start_ns_;
    r.wall_s = static_cast<double>(total) / 1e9;
    r.setup_s = static_cast<double>(setup_ns_) / 1e9;
    r.measure_s = static_cast<double>(total - setup_ns_) / 1e9;
    r.cpu_s = process_cpu_s() - cpu_start_;
  }

 private:
  std::int64_t start_ns_;
  double cpu_start_;
  std::int64_t setup_ns_ = 0;
};

/// Times `fn` as set-up.
template <typename Fn>
void setup_phase(RepClock& clock, Fn&& fn) {
  const std::int64_t t0 = host_ns();
  fn();
  clock.add_setup(host_ns() - t0);
}

/// Ops of each stream kept for the ladder.
constexpr std::size_t kRecordCap = 100000;

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  return (seed + 1) * 0x9e3779b97f4a7c15ull ^ (salt * 0xbf58476d1ce4e5b9ull);
}

void add(Counters& c, const std::string& name, double v) { c[name] += v; }

/// Every simulated counter a workload reports, zero where the workload does
/// not reach the layer (so each rep reports the same names).
Counters zero_counters() {
  Counters c;
  for (const char* name :
       {"sim.events", "sim.epochs", "workload.backlog_peak",
        "essd.qos_admitted", "essd.qos_throttled", "essd.qos_wait_p99_us",
        "essd.qos_queue_peak", "ebs.cleaner_segments",
        "ebs.cleaner_relocated_pages", "ebs.cleaner_processed_pages",
        "ebs.append_stall_ms", "ebs.stalled_writes", "ebs.read_pages",
        "ebs.cache_hit_pages", "ebs.media_read_pages", "net.bytes",
        "net.busy_ms", "ftl.host_write_bytes",
        "ftl.nand_programmed_bytes", "ftl.gc_relocated_slots",
        "ftl.mapping_lookups", "ftl.mapping_hits", "ftl.user_stall_ms",
        "flash.page_reads", "flash.row_programs", "flash.erases",
        "placement.migrations", "placement.migration_bytes",
        "placement.slices", "placement.fusions",
        "placement.max_group_clusters"}) {
    c[name] = 0.0;
  }
  for (int k = 0; k < sched::kIoClassCount; ++k) {
    c[std::string("ebs.busy_ms.") +
      sched::io_class_name(static_cast<sched::IoClass>(k))] = 0.0;
  }
  return c;
}

void add_cluster(Counters& c, const ebs::ClusterStats& s,
                 const ebs::CleanerStats& cl, const ebs::ClusterBusyStats& b) {
  add(c, "ebs.cleaner_segments", static_cast<double>(cl.segments_cleaned));
  add(c, "ebs.cleaner_relocated_pages", static_cast<double>(cl.pages_relocated));
  add(c, "ebs.cleaner_processed_pages",
      static_cast<double>(cl.bytes_processed / kLogicalPageBytes));
  add(c, "ebs.append_stall_ms", static_cast<double>(s.append_stall_ns) / 1e6);
  add(c, "ebs.stalled_writes", static_cast<double>(s.stalled_writes));
  add(c, "ebs.read_pages", static_cast<double>(s.read_pages));
  add(c, "ebs.cache_hit_pages", static_cast<double>(s.cache_hit_pages));
  add(c, "ebs.media_read_pages", static_cast<double>(s.media_read_pages));
  for (int k = 0; k < sched::kIoClassCount; ++k) {
    add(c,
        std::string("ebs.busy_ms.") +
            sched::io_class_name(static_cast<sched::IoClass>(k)),
        static_cast<double>(b.class_busy_ns[static_cast<std::size_t>(k)]) /
            1e6);
  }
}

/// Ratios derived from summed counts (summing ratios across legs would be
/// meaningless).
void finish_ratios(Counters& c, const RepResult& r) {
  const double processed = c["ebs.cleaner_processed_pages"];
  c["ebs.cleaner_reclaim_ratio"] =
      processed > 0 ? (processed - c["ebs.cleaner_relocated_pages"]) / processed
                    : 0.0;
  const double reads = c["ebs.read_pages"];
  c["ebs.cache_hit_ratio"] = reads > 0 ? c["ebs.cache_hit_pages"] / reads : 0.0;
  const double admitted = c["essd.qos_admitted"];
  c["essd.qos_throttled_ratio"] =
      admitted > 0 ? c["essd.qos_throttled"] / admitted : 0.0;
  const double host_bytes = c["ftl.host_write_bytes"];
  c["ftl.write_amplification"] =
      host_bytes > 0 ? c["ftl.nand_programmed_bytes"] / host_bytes : 0.0;
  const double lookups = c["ftl.mapping_lookups"];
  c["ftl.mapping_hit_ratio"] =
      lookups > 0 ? c["ftl.mapping_hits"] / lookups : 0.0;
  c["sim.events_per_io"] =
      r.sim_ios > 0 ? c["sim.events"] / static_cast<double>(r.sim_ios) : 0.0;
}

void digest_latency(Fnv1a& h, const wl::JobStats& s) {
  h.mix(s.total_ops()).mix(s.total_bytes()).mix(s.last_complete);
  for (const double p : {50.0, 99.0, 99.9}) {
    h.mix(s.all_latency.percentile(p)).mix(s.slowdown.percentile(p));
  }
  h.mix(s.all_latency.max()).mix(s.all_latency.mean());
}

std::uint64_t digest_counters(Fnv1a h, const Counters& c) {
  for (const auto& [name, v] : c) h.mix(std::string_view(name)).mix(v);
  return h.value();
}

/// The ESSD-side counters of one device over a measured window.
struct EssdSnapshot {
  ebs::ClusterStats cluster;
  ebs::CleanerStats cleaner;
  ebs::ClusterBusyStats busy;
  std::uint64_t net_bytes = 0;
  SimTime net_busy = 0;
  std::uint64_t admitted = 0;
  std::uint64_t throttled = 0;

  explicit EssdSnapshot(const essd::EssdDevice& d)
      : cluster(d.cluster().stats()),
        cleaner(d.cluster().cleaner().stats()),
        busy(d.cluster().busy_stats()),
        net_bytes(d.cluster().fabric().vm_tx_bytes() +
                  d.cluster().fabric().vm_rx_bytes()),
        net_busy(d.cluster().fabric().total_busy_ns()),
        admitted(d.qos().stats().admitted),
        throttled(d.qos().stats().throttled) {}
};

void add_essd(Counters& c, const essd::EssdDevice& d, const EssdSnapshot& b) {
  const EssdSnapshot a(d);
  add_cluster(c, ebs::subtract(a.cluster, b.cluster),
              ebs::subtract(a.cleaner, b.cleaner),
              ebs::subtract(a.busy, b.busy));
  add(c, "net.bytes", static_cast<double>(a.net_bytes - b.net_bytes));
  add(c, "net.busy_ms", static_cast<double>(a.net_busy - b.net_busy) / 1e6);
  add(c, "essd.qos_admitted", static_cast<double>(a.admitted - b.admitted));
  add(c, "essd.qos_throttled", static_cast<double>(a.throttled - b.throttled));
  const essd::QosStats& q = d.qos().stats();
  c["essd.qos_wait_p99_us"] =
      std::max(c["essd.qos_wait_p99_us"],
               static_cast<double>(q.p99_wait_ns()) / 1e3);
  c["essd.qos_queue_peak"] = std::max(
      c["essd.qos_queue_peak"], static_cast<double>(q.queue_depth_peak));
}

Stream essd_stream(const essd::EssdConfig& cfg) {
  Stream s;
  s.essd = true;
  s.cluster = cfg.cluster;
  s.volume_bytes = {cfg.capacity_bytes};
  return s;
}

// ---------------------------------------------------------------------------
// device_write: ESSD-1, ESSD-2 and the local SSD in turn, closed loop.
// ---------------------------------------------------------------------------

enum class Leg { kEssd1, kEssd2, kSsd };

RepResult run_device_write(const RepOptions& opt) {
  RepResult r;
  r.counters = zero_counters();
  RepClock clock;
  Fnv1a h;
  std::uint64_t salt = 0;
  for (const Leg leg : {Leg::kEssd1, Leg::kEssd2, Leg::kSsd}) {
    ++salt;
    // The scaled SSD keeps at least 8 spare superblocks (1.5 GiB), so it
    // needs a larger volume than the ESSDs for 1.5x capacity to reach GC.
    const std::uint64_t capacity =
        (opt.tiny ? 128 : leg == Leg::kSsd ? 2048 : 512) * kMiB;
    // 1.5x capacity of 4 KiB writes at a 70% write mix.
    const std::uint64_t ops =
        capacity / kLogicalPageBytes * 3 / 2 * 10 / 7 + 1;
    sim::Simulator sim;
    std::unique_ptr<essd::EssdDevice> essd_dev;
    std::unique_ptr<ssd::SsdDevice> ssd_dev;
    BlockDevice* dev = nullptr;
    Stream stream;
    wl::JobSpec spec;
    std::unique_ptr<EssdSnapshot> before;
    ftl::FtlStats ftl_before;
    ftl::GcStats gc_before;
    ftl::MappingStats map_before;
    flash::NandCounters nand_before;
    std::uint64_t events_before = 0;
    setup_phase(clock, [&] {
      {
        Span s("workload.generate");
        spec.name = "device_write";
        spec.pattern = wl::AccessPattern::kRandom;
        spec.io_bytes = kLogicalPageBytes;
        spec.queue_depth = 32;
        spec.write_ratio = 0.7;
        spec.total_ops = ops;
        spec.seed = mix_seed(opt.seed, salt);
      }
      if (leg == Leg::kSsd) {
        Span s("ssd.construct");
        ssd::SsdConfig cfg = ssd::samsung_970pro_scaled(capacity);
        // Random 4 KiB reads form no sequential stream, so read-ahead only
        // fires on chance address matches.  Those matches can group more
        // pages into one row read than a die has planes, which trips
        // NandArray::read_row's bound on some seeds; off, the leg is safe.
        cfg.ftl.prefetch.read_ahead_pages = 0;
        ssd_dev = std::make_unique<ssd::SsdDevice>(sim, cfg);
        dev = ssd_dev.get();
        stream.ssd = true;
        stream.ftl = cfg.ftl;
        stream.volume_bytes = {capacity};
      } else {
        Span s("essd.construct");
        const essd::EssdConfig cfg = leg == Leg::kEssd1
                                         ? essd::aws_io2_profile(capacity)
                                         : essd::alibaba_pl3_profile(capacity);
        essd_dev = std::make_unique<essd::EssdDevice>(sim, cfg);
        dev = essd_dev.get();
        stream = essd_stream(cfg);
      }
      {
        Span s("contract.precondition");
        contract::CharacterizationSuite::precondition(
            sim, *dev, capacity, 10 * kMs, mix_seed(opt.seed, salt + 16));
      }
      if (essd_dev) before = std::make_unique<EssdSnapshot>(*essd_dev);
      if (ssd_dev) {
        ftl_before = ssd_dev->ftl().stats();
        gc_before = ssd_dev->ftl().gc_stats();
        map_before = ssd_dev->ftl().mapping_stats();
        nand_before = ssd_dev->ftl().nand().counters();
      }
      events_before = sim.events_processed();
    });

    TracedDevice traced(*dev, ssd_dev ? "ssd.submit" : "essd.submit",
                        opt.record ? &stream.ops : nullptr, kRecordCap);
    wl::JobRunner job(sim, traced, spec);
    {
      Span s("workload.start");
      job.start();
    }
    {
      Span s("sim.run");
      sim.run();
    }

    const wl::JobStats& js = job.stats();
    r.sim_ios += js.total_ops();
    r.attempted += traced.submitted();
    r.failed += traced.failed();
    digest_latency(h, js);
    Counters& c = r.counters;
    add(c, "sim.events",
        static_cast<double>(sim.events_processed() - events_before));
    c["workload.backlog_peak"] =
        std::max(c["workload.backlog_peak"],
                 static_cast<double>(job.backlog_peak()));
    if (essd_dev) add_essd(c, *essd_dev, *before);
    if (ssd_dev) {
      const ftl::Ftl& f = ssd_dev->ftl();
      const flash::NandCounters& n = f.nand().counters();
      add(c, "ftl.host_write_bytes",
          static_cast<double>(f.stats().host_write_pages -
                              ftl_before.host_write_pages) *
              kLogicalPageBytes);
      add(c, "ftl.nand_programmed_bytes",
          static_cast<double>(n.programmed_bytes - nand_before.programmed_bytes));
      add(c, "ftl.gc_relocated_slots",
          static_cast<double>(f.gc_stats().relocated_slots -
                              gc_before.relocated_slots));
      add(c, "ftl.mapping_lookups",
          static_cast<double>(f.mapping_stats().lookups - map_before.lookups));
      add(c, "ftl.mapping_hits",
          static_cast<double>(f.mapping_stats().cache_hits -
                              map_before.cache_hits));
      add(c, "ftl.user_stall_ms",
          static_cast<double>(f.stats().user_stall_ns -
                              ftl_before.user_stall_ns) /
              1e6);
      add(c, "flash.page_reads",
          static_cast<double>(n.page_reads - nand_before.page_reads));
      add(c, "flash.row_programs",
          static_cast<double>(n.row_programs - nand_before.row_programs));
      add(c, "flash.erases",
          static_cast<double>(n.superblock_die_erases -
                              nand_before.superblock_die_erases));
    }
    if (opt.record) r.streams.push_back(std::move(stream));
  }
  clock.finish(r);
  finish_ratios(r.counters, r);
  r.digest = digest_counters(h, r.counters);
  return r;
}

// ---------------------------------------------------------------------------
// essd_read_burst: one ESSD-2 volume replays a bursty, read-mostly trace.
// ---------------------------------------------------------------------------

RepResult run_essd_read_burst(const RepOptions& opt) {
  RepResult r;
  r.counters = zero_counters();
  RepClock clock;
  const std::uint64_t capacity = (opt.tiny ? 128 : 1024) * kMiB;
  const essd::EssdConfig cfg = essd::alibaba_pl3_profile(capacity);

  sim::Simulator sim;
  std::vector<wl::TraceEvent> trace;
  std::unique_ptr<essd::EssdDevice> dev;
  std::unique_ptr<EssdSnapshot> before;
  std::uint64_t events_before = 0;
  setup_phase(clock, [&] {
    {
      Span s("workload.generate");
      wl::TraceGenConfig gen;
      // Mean offered load ~1 GB/s (default size mix, ~30 KB mean) sits
      // below the 1.1 GB/s budget; the diurnal crest and 30K-IOPS bursts
      // rise above it, so the QoS gate queues and drains repeatedly.  Many
      // short bursts (8/s of 30 ms) rather than a few long ones keep the
      // time spent bursting, and so the work of a rep, nearly the same for
      // every seed.
      gen.duration = (opt.tiny ? 1 : 12) * kSec;
      gen.base_iops = 25000.0;
      gen.diurnal_amplitude = 0.5;
      gen.diurnal_period = 4 * kSec;
      gen.bursts_per_s = 8.0;
      gen.burst_iops = 30000.0;
      gen.burst_duration = 30 * kMs;
      gen.write_fraction = 0.1;
      gen.zipf_theta = 0.9;
      gen.seed = mix_seed(opt.seed, 1);
      DeviceInfo info;
      info.capacity_bytes = capacity;
      trace = wl::generate_trace(gen, info);
      // A fixed op count keeps the measured work independent of the seed.
      const std::size_t keep = opt.tiny ? 5000 : 240000;
      if (trace.size() > keep) trace.resize(keep);
    }
    {
      Span s("essd.construct");
      dev = std::make_unique<essd::EssdDevice>(sim, cfg);
    }
    {
      Span s("contract.precondition");
      contract::CharacterizationSuite::precondition(sim, *dev, capacity,
                                                    10 * kMs,
                                                    mix_seed(opt.seed, 2));
    }
    before = std::make_unique<EssdSnapshot>(*dev);
    events_before = sim.events_processed();
  });

  Stream stream = essd_stream(cfg);
  TracedDevice traced(*dev, "essd.submit",
                      opt.record ? &stream.ops : nullptr, kRecordCap);
  wl::TraceReplayer replay(sim, traced, std::move(trace));
  {
    Span s("workload.start");
    replay.start();
  }
  {
    Span s("sim.run");
    sim.run();
  }

  const wl::JobStats& js = replay.stats();
  r.sim_ios = js.total_ops();
  r.attempted = traced.submitted();
  r.failed = traced.failed() + (replay.finished() ? 0 : 1);
  Counters& c = r.counters;
  add(c, "sim.events", static_cast<double>(sim.events_processed() - events_before));
  c["workload.backlog_peak"] = static_cast<double>(replay.backlog_peak());
  add_essd(c, *dev, *before);
  clock.finish(r);
  finish_ratios(c, r);
  Fnv1a h;
  digest_latency(h, js);
  r.digest = digest_counters(h, c);
  if (opt.record) r.streams.push_back(std::move(stream));
  return r;
}

// ---------------------------------------------------------------------------
// fleet_rebalance: bench_fleet's budgeted rebalance leg on the sliced engine.
// ---------------------------------------------------------------------------

fleet::FleetSpec fleet_spec(const RepOptions& opt) {
  fleet::FleetSpec spec;
  spec.clusters = opt.tiny ? 4 : 64;
  spec.tenants = opt.tiny ? 24 : 1000;
  spec.duration = (opt.tiny ? 200 : 800) * kMs;
  spec.diurnal_period = spec.duration / 2;
  spec.seed = mix_seed(opt.seed, 3);
  spec.policy = placement::Policy::kLeastInterference;
  spec.rebalance_watermark = 1.1;
  spec.rebalance_interval = spec.duration / 16;
  spec.budget.max_concurrent = 4;
  spec.budget.copy_bandwidth_bps = 400e6;
  spec.budget.max_total = spec.clusters;
  return spec;
}

/// Cluster 0's tenants' generated traces, attached as volumes in placement
/// order: the op stream the ladder replays for the fleet.
Stream fleet_stream(const fleet::GeneratedFleet& f) {
  Stream s;
  s.essd = true;
  s.cluster = f.base.cluster;
  const std::vector<int> plan = placement::plan_placement(f.placement, f.tenants);
  for (std::size_t i = 0; i < f.tenants.size(); ++i) {
    if (plan[i] != 0) continue;
    const tenant::TenantSpec& t = f.tenants[i];
    DeviceInfo info;
    info.capacity_bytes = t.capacity_bytes;
    const auto volume = static_cast<std::uint32_t>(s.volume_bytes.size());
    s.volume_bytes.push_back(t.capacity_bytes);
    for (const wl::TraceEvent& e : wl::generate_trace(t.load.gen, info)) {
      const auto at = static_cast<SimTime>(static_cast<double>(e.arrival) /
                                           t.load.rate_scale);
      s.ops.push_back(OpRecord{at, 0, e.offset, e.bytes, volume, e.op});
    }
  }
  std::stable_sort(s.ops.begin(), s.ops.end(),
                   [](const OpRecord& a, const OpRecord& b) {
                     return a.submit < b.submit;
                   });
  if (s.ops.size() > kRecordCap) s.ops.resize(kRecordCap);
  return s;
}

RepResult run_fleet_rebalance(const RepOptions& opt) {
  RepResult r;
  r.counters = zero_counters();
  RepClock clock;
  r.threads = opt.threads;
  fleet::GeneratedFleet f;
  std::unique_ptr<sim::ParallelExecutor> exec;
  std::unique_ptr<placement::ShardedHost> host;
  setup_phase(clock, [&] {
    {
      Span s("fleet.generate");
      f = fleet::generate_fleet(fleet_spec(opt));
    }
    Span s("placement.construct");
    exec = std::make_unique<sim::ParallelExecutor>(opt.threads);
    host = std::make_unique<placement::ShardedHost>(f.base, f.tenants,
                                                    f.placement);
  });
  // The precondition fill runs inside ShardedHost::run, so the measured
  // phase is fill + window here.
  placement::PlacementResult run;
  {
    Span s("placement.run");
    run = host->run(*exec);
  }
  host->check_invariants();
  host.reset();
  clock.finish(r);

  r.shard_digests = placement::shard_digests(
      placement::compute_shard_plan(f.placement), run);
  Counters& c = r.counters;
  double backlog = 0.0;
  for (std::size_t i = 0; i < run.stats.size(); ++i) {
    const std::uint64_t done = run.stats[i].total_ops();
    const std::uint64_t offered = run.traces[i].events;
    r.sim_ios += done;
    r.attempted += offered;
    r.failed += done > offered ? done - offered : offered - done;
    backlog = std::max(backlog, static_cast<double>(run.backlog_peak[i]));
  }
  c["workload.backlog_peak"] = backlog;
  for (std::size_t k = 0; k < run.cluster.size(); ++k) {
    add_cluster(c, run.cluster[k], run.cleaner[k], run.busy[k]);
  }
  c["sim.events"] = static_cast<double>(run.sim_events);
  c["sim.epochs"] = static_cast<double>(exec->epochs());
  std::uint64_t copied = 0;
  for (const auto& m : run.migrations) copied += m.stats.bytes_copied;
  c["placement.migrations"] = static_cast<double>(run.migrations.size());
  c["placement.migration_bytes"] = static_cast<double>(copied);
  c["placement.slices"] = static_cast<double>(run.sliced.slices);
  c["placement.fusions"] = static_cast<double>(run.sliced.fusions);
  c["placement.max_group_clusters"] =
      static_cast<double>(run.sliced.max_group_clusters);
  finish_ratios(c, r);
  Fnv1a h;
  for (const std::uint64_t d : r.shard_digests) h.mix(d);
  r.digest = digest_counters(h, c);
  if (opt.record) r.streams.push_back(fleet_stream(f));
  return r;
}

}  // namespace

const Workload* find_workload(const std::string& name) {
  static const Workload all[] = {
      {"device_write", run_device_write},
      {"essd_read_burst", run_essd_read_burst},
      {"fleet_rebalance", run_fleet_rebalance},
  };
  for (const Workload& w : all) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

}  // namespace perfbench
