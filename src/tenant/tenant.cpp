#include "tenant/tenant.h"

#include <cstddef>
#include <memory>

#include "ebs/cluster.h"
#include "essd/essd_device.h"

namespace uc::tenant {

essd::EssdConfig tenant_config(const essd::EssdConfig& base,
                               const TenantSpec& spec, std::size_t index) {
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

std::unique_ptr<wl::JobRunner> start_precondition(sim::Simulator& sim,
                                                  BlockDevice& device,
                                                  const TenantSpec& spec) {
  if (spec.precondition_bytes == 0) return nullptr;
  // Sequential fill covering the measured load's region, capped by the
  // spec's `precondition_bytes`.
  wl::JobSpec fill;
  fill.name = spec.name + "-precondition";
  fill.pattern = wl::AccessPattern::kSequential;
  fill.io_bytes = 256 * 1024;
  fill.queue_depth = 16;
  fill.write_ratio = 1.0;
  fill.region_offset = spec.load.precondition_offset();
  fill.region_bytes = spec.load.precondition_region_bytes();
  fill.total_bytes = spec.precondition_bytes;
  fill.seed = spec.load.job.seed ^ 0x9c0d171051ull;
  auto runner = std::make_unique<wl::JobRunner>(sim, device, fill);
  runner->start();
  return runner;
}

wl::JobStats run_solo(const essd::EssdConfig& base, const TenantSpec& spec,
                      std::size_t index) {
  sim::Simulator sim;
  essd::EssdDevice device(sim, tenant_config(base, spec, index));
  // Named, so the runner lives through the drain.
  const std::unique_ptr<wl::JobRunner> fill =
      start_precondition(sim, device, spec);
  if (fill) sim.run();
  return wl::run_load_to_completion(sim, device, spec.load);
}

}  // namespace uc::tenant
