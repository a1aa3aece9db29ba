#pragma once

/// \file workloads.h
/// The benchmark's three workloads, the device decorator that checks and
/// traces them, and the op streams they hand to the ladder.
///
/// A workload run is one *rep*: set-up (input generation, construction,
/// precondition fill), then the measured phase, on fresh objects, so every
/// rep of one seed simulates exactly the same thing and must reproduce the
/// same digest.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/block_device.h"
#include "ebs/cluster.h"
#include "ftl/ftl.h"

namespace perfbench {

/// One device-level I/O as a workload produced it.  `complete` is zero until
/// a layer has served the op (fleet streams get theirs from the ebs rung).
struct OpRecord {
  uc::SimTime submit = 0;
  uc::SimTime complete = 0;
  std::uint64_t offset = 0;
  std::uint32_t bytes = 0;
  std::uint32_t volume = 0;
  uc::IoOp op = uc::IoOp::kRead;
};

/// A recorded op stream plus the configuration of the layers below the
/// device that served it; the ladder rungs replay it.
struct Stream {
  std::vector<OpRecord> ops;
  std::vector<std::uint64_t> volume_bytes;
  bool essd = false;  ///< `cluster` describes the storage cluster behind it
  uc::ebs::ClusterConfig cluster;
  bool ssd = false;  ///< `ftl` describes the FTL behind it
  uc::ftl::FtlConfig ftl;
};

/// `BlockDevice` decorator around a device under test.  It counts each
/// submitted I/O's completions (an I/O must complete exactly once), opens a
/// `<submit_span>` span around every submit and a `workload.completion`
/// span around every completion callback (both carrying the I/O's request
/// id) while a tracer is active, and optionally records the op stream.
///
/// The caller's callback waits in a reused slot, so the callback handed to
/// the inner device captures only `this` and the slot index and fits in
/// `std::function`'s inline storage: untraced reps allocate nothing per I/O
/// in the decorator.
class TracedDevice : public uc::BlockDevice {
 public:
  TracedDevice(uc::BlockDevice& inner, const char* submit_span,
               std::vector<OpRecord>* log, std::size_t log_cap);

  const uc::DeviceInfo& info() const override { return inner_.info(); }
  void submit(const uc::IoRequest& req, uc::CompletionFn done) override;

  std::uint64_t submitted() const { return completions_.size(); }
  /// I/Os whose completion count is not exactly one.
  std::uint64_t failed() const;

 private:
  static constexpr std::size_t kNotLogged = ~std::size_t{0};

  /// One in-flight I/O.  A completion that arrives after its slot was freed
  /// is still counted against `index`, so the exactly-once check sees it.
  struct Pending {
    uc::CompletionFn done;
    std::size_t index = 0;      ///< into `completions_`
    std::uint64_t request = 0;  ///< span request id; 0 when untraced
    std::size_t log_index = kNotLogged;
  };

  void complete(std::uint32_t slot, const uc::IoResult& r);

  uc::BlockDevice& inner_;
  const char* submit_span_;
  std::vector<OpRecord>* log_;
  std::size_t log_cap_;
  std::vector<std::uint8_t> completions_;  ///< per submitted I/O
  std::vector<Pending> pending_;
  std::vector<std::uint32_t> free_;  ///< free slots of `pending_`
};

/// Simulated outcomes by metric name: deterministic for a seed, so they
/// enter the digest.
using Counters = std::map<std::string, double>;

struct RepResult {
  double setup_s = 0.0;    ///< host time before the measured phase
  double measure_s = 0.0;  ///< host time of the measured phase
  double wall_s = 0.0;     ///< setup_s + measure_s
  double cpu_s = 0.0;      ///< process user+sys CPU over the rep
  int threads = 1;
  std::uint64_t sim_ios = 0;    ///< simulated I/Os completed while measured
  std::uint64_t attempted = 0;  ///< simulated I/Os submitted while measured
  std::uint64_t failed = 0;     ///< ... that did not complete exactly once
  std::uint64_t digest = 0;
  std::vector<std::uint64_t> shard_digests;  ///< fleet only
  Counters counters;
  std::vector<Stream> streams;  ///< filled when `RepOptions::record`
};

struct RepOptions {
  std::uint64_t seed = 1;
  bool record = false;  ///< keep op streams (first 100k ops each) for the ladder
  bool tiny = false;    ///< test-sized inputs
  int threads = 1;      ///< fleet worker threads
};

using WorkloadFn = RepResult (*)(const RepOptions&);

struct Workload {
  const char* name;
  WorkloadFn run;
};

/// The workload named `name`, or null.
const Workload* find_workload(const std::string& name);

/// Process user+sys CPU seconds so far.
double process_cpu_s();
/// Peak resident set of the process, MiB.
double peak_rss_mib();

}  // namespace perfbench
