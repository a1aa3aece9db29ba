#include "tenant/tenant.h"

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

namespace uc::tenant {

essd::EssdConfig SharedClusterHost::tenant_config(const essd::EssdConfig& base,
                                                  const TenantSpec& spec,
                                                  std::size_t index) {
  essd::EssdConfig cfg = base;
  cfg.name = spec.name;
  cfg.capacity_bytes = spec.capacity_bytes;
  cfg.qos = spec.qos;
  cfg.guaranteed_bw_gbs = spec.qos.bw_bytes_per_s / 1e9;
  cfg.guaranteed_iops = spec.qos.iops;
  // Distinct frontend jitter stream per tenant; tenant 0 keeps the base
  // seed so a one-tenant host reproduces the solo device exactly.  Using
  // ebs::kVolumeSeedStride keeps a solo baseline's chunk placement (volume
  // 0 of a cluster seeded base + stride*i) identical to the placement the
  // tenant had as volume i of the shared cluster.
  cfg.seed = base.seed + ebs::kVolumeSeedStride * index;
  cfg.cluster.seed = base.cluster.seed + ebs::kVolumeSeedStride * index;
  return cfg;
}

SharedClusterHost::SharedClusterHost(sim::Simulator& sim,
                                     const essd::EssdConfig& base,
                                     std::vector<TenantSpec> tenants)
    : sim_(sim), base_(base), tenants_(std::move(tenants)) {
  // Tenant i attaches as VolumeId i, so the per-tenant WFQ weights are the
  // spec weights in attach order.
  base_.cluster.sched.weights.clear();
  for (const TenantSpec& t : tenants_) {
    base_.cluster.sched.weights.push_back(t.weight);
  }
  cluster_ = std::make_unique<ebs::StorageCluster>(sim_, base_.cluster);
  devices_.reserve(tenants_.size());
  sources_.reserve(tenants_.size());
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    const TenantSpec& t = tenants_[i];
    const ebs::VolumeId vol = cluster_->attach_volume(t.capacity_bytes);
    devices_.push_back(std::make_unique<essd::EssdDevice>(
        sim_, tenant_config(base_, t, i), *cluster_, vol));
    sources_.push_back(wl::make_load_source_or_die(sim_, *devices_.back(),
                                                   t.load, "tenant " + t.name));
  }
}

namespace {

// Sequential fill covering the measured load's region, capped by the spec's
// `precondition_bytes`.
wl::JobSpec precondition_spec(const TenantSpec& t) {
  wl::JobSpec spec;
  spec.name = t.name + "-precondition";
  spec.pattern = wl::AccessPattern::kSequential;
  spec.io_bytes = 256 * 1024;
  spec.queue_depth = 16;
  spec.write_ratio = 1.0;
  spec.region_offset = t.load.precondition_offset();
  spec.region_bytes = t.load.precondition_region_bytes();
  spec.total_bytes = t.precondition_bytes;
  spec.seed = t.load.job.seed ^ 0x9c0d171051ull;
  return spec;
}

// Runs every tenant's precondition fill concurrently (tenant `i`'s device
// is resolved via `device(i)`) and drains the simulator, so colocated runs
// and solo baselines precondition identically.
void run_preconditions(sim::Simulator& sim,
                       const std::vector<TenantSpec>& tenants,
                       const std::function<BlockDevice&(std::size_t)>& device) {
  std::vector<std::unique_ptr<wl::JobRunner>> fills;
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    if (tenants[i].precondition_bytes == 0) continue;
    fills.push_back(std::make_unique<wl::JobRunner>(
        sim, device(i), precondition_spec(tenants[i])));
    fills.back()->start();
  }
  if (!fills.empty()) sim.run();
}

}  // namespace

HostResult SharedClusterHost::run() {
  run_fill();
  begin_measure(sim_.now());
  sim_.run();
  return collect();
}

void SharedClusterHost::run_fill() {
  UC_ASSERT(!filled_, "host already preconditioned");
  filled_ = true;
  run_preconditions(sim_, tenants_,
                    [this](std::size_t i) -> BlockDevice& {
                      return *devices_[i];
                    });
}

void SharedClusterHost::begin_measure(SimTime measure_start) {
  UC_ASSERT(filled_, "begin_measure before run_fill");
  UC_ASSERT(!ran_, "host already ran");
  ran_ = true;
  measuring_ = true;
  // The queue is already drained, so this only advances the clock (a no-op
  // when `measure_start` is this simulator's own drain time).
  sim_.run_until(measure_start);
  measure_start_ = sim_.now();
  cluster_before_ = cluster_->stats();
  cleaner_before_ = cluster_->cleaner().stats();
  fabric_before_ = cluster_->fabric().stats();
  busy_before_ = cluster_->busy_stats();
  for (auto& source : sources_) source->start();
}

HostResult SharedClusterHost::collect() {
  UC_ASSERT(measuring_, "collect before begin_measure");
  measuring_ = false;
  HostResult result;
  result.measure_start = measure_start_;
  result.stats.reserve(sources_.size());
  for (auto& source : sources_) {
    UC_ASSERT(source->finished(), "simulator drained but a tenant load hung");
    result.stats.push_back(source->stats());
    result.backlog_peak.push_back(source->backlog_peak());
    result.traces.push_back(wl::load_source_trace_summary(*source));
    if (source->stats().last_complete > result.makespan) {
      result.makespan = source->stats().last_complete;
    }
  }
  result.cluster = subtract(cluster_->stats(), cluster_before_);
  result.cleaner = subtract(cluster_->cleaner().stats(), cleaner_before_);
  result.fabric = net::subtract(cluster_->fabric().stats(), fabric_before_);
  result.busy = subtract(cluster_->busy_stats(), busy_before_);
  return result;
}

wl::JobStats SharedClusterHost::run_solo(const essd::EssdConfig& base,
                                         const TenantSpec& spec,
                                         std::size_t index) {
  sim::Simulator sim;
  essd::EssdDevice device(sim, tenant_config(base, spec, index));
  const std::vector<TenantSpec> one = {spec};
  run_preconditions(sim, one,
                    [&device](std::size_t) -> BlockDevice& { return device; });
  return wl::run_load_to_completion(sim, device, spec.load);
}

}  // namespace uc::tenant
