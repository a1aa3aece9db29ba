// Noisy neighbour in 60 seconds: two latency-sensitive QD1 readers share a
// storage cluster with one random-write hog.  Each tenant keeps its own
// QoS gate (nobody exceeds their provisioned budget!) yet the victims' tail
// latency inflates, because the *unwritten* part of the contract — shared
// block-server uplink, node pipelines, caches, and spare capacity — is not
// in any tenant's SLA.
//
// Build & run:  ./noisy_neighbor

#include <cstdio>

#include "placement/placement.h"
#include "tenant/scenarios.h"

int main() {
  using namespace uc;

  std::printf("Colocating 1 write hog with 2 QD1 readers on one cluster...\n");
  tenant::ScenarioOptions opt;
  opt.quick = true;  // example-sized run (~100 ms of wall time)
  const auto result = placement::run_placement_scenario(
      tenant::Scenario::kNoisyNeighbor, {opt, {}});

  std::printf("\n%s\n", tenant::scenario_blurb(result.scenario));
  std::printf("%s\n", result.report.to_table().c_str());

  for (const auto& m : result.report.tenants) {
    if (m.name.rfind("victim", 0) != 0) continue;
    std::printf(
        "%s: p99 %.0f us colocated vs %.0f us solo -> %.2fx inflation, while "
        "its own QoS budget never throttled it\n",
        m.name.c_str(), m.p99_us, m.solo_p99_us, m.interference);
  }
  std::printf(
      "\nThe hog stayed inside its budget too: interference flows through\n"
      "the shared fabric and node pipelines, not through anyone's QoS gate.\n"
      "Takeaway: on elastic block storage, provisioned IOPS/bandwidth bound\n"
      "*your* admission, not your neighbours' contention.\n");
  return 0;
}
