// perfbench: the repository benchmark's measuring program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>]
//
// --trace 0 repeats fresh reps of the workload (set-up + measured phase)
// until --seconds have passed (at least three), checks that every rep
// completed each simulated I/O exactly once and reproduced the same digest,
// and reports medians of the end-to-end metrics, corrected for host speed.
//
// --trace 1 runs two untraced reps and one traced rep of the same seed
// (their digests must match: tracing must not change the simulation), then
// climbs the layer ladder over the traced rep's op streams, and reports the
// per-layer metrics.  The span totals and a bounded sample of full spans
// are written to <out>/trace-<workload>-<seed>.json.
//
// The last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics": {name: value}}; perfbench/run.py attaches units.

#include <sched.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "ladder.h"
#include "tracer.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string out = ".";
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void print_digest(const char* label, const std::string& workload,
                  std::uint64_t seed, const RepResult& r) {
  std::printf("%s %s seed %llu: digest %s", label, workload.c_str(),
              static_cast<unsigned long long>(seed), hex(r.digest).c_str());
  if (!r.shard_digests.empty()) {
    std::printf(" | shard digests");
    for (const std::uint64_t d : r.shard_digests) {
      std::printf(" %s", hex(d).c_str());
    }
  }
  std::printf("\n");
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::map<std::string, double>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  for (const auto& [name, v] : metrics) {
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", name.c_str(), v);
    first = false;
  }
  std::printf("}}\n");
}

// ---------------------------------------------------------------------------
// Host speed.  On a shared machine the same rep runs up to ~1.5x slower for
// minutes at a time while neighbours load the shared cache and memory, and
// the simulator's speed follows the memory system's.  A fixed reference walk
// that never changes with the simulator, timed between reps, measures how
// slow the machine is right now; the end-to-end times are divided by
// (walk time / kReferenceWalkS), i.e. reported in seconds of a machine that
// runs the walk in kReferenceWalkS.
// ---------------------------------------------------------------------------

/// The walk's time on an uncontended 4-vCPU Xeon (Sapphire Rapids) VM.
constexpr double kReferenceWalkS = 0.04;

/// Seconds for 3M increments at random addresses of a 64 MiB buffer, or a
/// negative value if the walk could not run.  It runs in a child process so
/// that its buffer counts toward neither the benchmark's peak resident set
/// nor its CPU time; the child uses no allocator because the parent may have
/// threads.
double reference_walk_s() {
  int fds[2];
  if (pipe(fds) != 0) return -1.0;
  const int cpu = sched_getcpu();
  const pid_t pid = fork();
  if (pid == 0) {
    close(fds[0]);
    if (cpu >= 0) {  // measure the CPU the workload runs on
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(cpu, &set);
      sched_setaffinity(0, sizeof set, &set);
    }
    constexpr std::size_t kWords = std::size_t{8} << 20;
    void* mem = mmap(nullptr, kWords * sizeof(std::uint64_t),
                     PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    double s = -1.0;
    if (mem != MAP_FAILED) {
      auto* buf = static_cast<std::uint64_t*>(mem);
      for (std::size_t i = 0; i < kWords; ++i) buf[i] = i;  // fault in, untimed
      std::uint64_t x = 1;
      const std::int64_t t0 = host_ns();
      for (int i = 0; i < 3'000'000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        ++buf[x & (kWords - 1)];
      }
      s = static_cast<double>(host_ns() - t0) / 1e9;
    }
    const ssize_t n = write(fds[1], &s, sizeof s);
    _exit(n == sizeof s ? 0 : 1);
  }
  close(fds[1]);
  double s = -1.0;
  if (pid < 0 || read(fds[0], &s, sizeof s) != sizeof s) s = -1.0;
  close(fds[0]);
  if (pid > 0) waitpid(pid, nullptr, 0);
  return s;
}

int run_untraced(const Workload& w, const Args& a) {
  RepOptions opt;
  opt.seed = a.seed;
  const std::int64_t deadline =
      host_ns() + static_cast<std::int64_t>(a.seconds * 1e9);
  std::vector<RepResult> reps;
  std::vector<double> walk;
  do {
    walk.push_back(reference_walk_s());
    reps.push_back(w.run(opt));
    const RepResult& r = reps.back();
    std::printf("rep %zu: setup %.3f s, measured %.3f s, cpu %.3f s, %llu "
                "simulated I/Os; reference walk %.4f s\n",
                reps.size(), r.setup_s, r.measure_s, r.cpu_s,
                static_cast<unsigned long long>(r.sim_ios), walk.back());
  } while (reps.size() < 3 || host_ns() < deadline);
  walk.push_back(reference_walk_s());
  if (*std::min_element(walk.begin(), walk.end()) <= 0.0) {
    std::fprintf(stderr, "error: the reference walk could not run\n");
    return 1;
  }
  const double slowdown = median(walk) / kReferenceWalkS;

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> rate, wall, setup, cpu;
  for (const RepResult& r : reps) {
    attempted += r.attempted;
    failed += r.failed;
    if (r.digest != reps[0].digest || r.shard_digests != reps[0].shard_digests) {
      std::printf("error: rep digests differ within one seed\n");
      correct = false;
    }
    if (r.sim_ios == 0) correct = false;
    rate.push_back(static_cast<double>(r.sim_ios) / r.measure_s);
    wall.push_back(r.wall_s);
    setup.push_back(r.setup_s);
    cpu.push_back(r.cpu_s);
  }
  if (failed > 0) correct = false;
  print_digest("digest", w.name, a.seed, reps[0]);
  std::printf("%zu reps; fleet reps count fill + window as measured\n",
              reps.size());
  std::printf("medians as measured: %.0f I/O/s, wall %.4f s, setup %.4f s, "
              "cpu %.4f s; host slowdown %.4f (reference walk %.4f s); the "
              "metrics below are divided by the slowdown\n",
              median(rate), median(wall), median(setup), median(cpu),
              slowdown, median(walk));
  print_result(correct, attempted, failed,
               {{"sim_io_per_s", median(rate) * slowdown},
                {"wall_s", median(wall) / slowdown},
                {"setup_s", median(setup) / slowdown},
                {"cpu_s", median(cpu) / slowdown},
                {"peak_rss_mb", peak_rss_mib()}});
  return 0;
}

double self_ns_per_call(const SpanTotals& t) {
  return t.count == 0 ? 0.0
                      : static_cast<double>(t.self_ns) /
                            static_cast<double>(t.count);
}

int run_traced(const Workload& w, const Args& a) {
  RepOptions opt;
  opt.seed = a.seed;
  // The first rep pays one-off costs (heap growth, cold caches), so the
  // untraced baseline for the tracing overhead is a second rep.
  const RepResult warm = w.run(opt);
  const RepResult plain = w.run(opt);
  print_digest("untraced", w.name, a.seed, plain);

  Tracer tracer;
  opt.record = true;
  RepResult traced;
  {
    TracerScope scope(&tracer);
    Span root("bench.rep");
    traced = w.run(opt);
  }
  print_digest("traced  ", w.name, a.seed, traced);

  bool correct = plain.failed == 0 && traced.failed == 0 &&
                 plain.sim_ios > 0 && warm.digest == plain.digest;
  if (traced.digest != plain.digest ||
      traced.shard_digests != plain.shard_digests) {
    std::printf("error: tracing changed the simulation (digests differ)\n");
    correct = false;
  }

  const std::map<std::string, SpanTotals> totals = tracer.totals();
  const auto span = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? SpanTotals{} : it->second;
  };
  // Every I/O the decorator passed on must have opened exactly one submit
  // span and one completion span.  The fleet has no decorator: its I/Os are
  // checked against the replayed traces instead.
  if (traced.shard_digests.empty()) {
    const std::uint64_t submits =
        span("essd.submit").count + span("ssd.submit").count;
    const std::uint64_t completions = span("workload.completion").count;
    if (submits != traced.attempted || completions != traced.attempted) {
      std::printf("error: %llu I/Os submitted but %llu submit and %llu "
                  "completion spans recorded\n",
                  static_cast<unsigned long long>(traced.attempted),
                  static_cast<unsigned long long>(submits),
                  static_cast<unsigned long long>(completions));
      correct = false;
    }
  }
  std::printf("\n%-24s %10s %12s %12s %7s\n", "span", "count", "total ms",
              "self ms", "self %");
  for (const auto& [name, t] : totals) {
    std::printf("%-24s %10llu %12.3f %12.3f %6.1f%%\n", name.c_str(),
                static_cast<unsigned long long>(t.count),
                static_cast<double>(t.total_ns) / 1e6,
                static_cast<double>(t.self_ns) / 1e6,
                100.0 * static_cast<double>(t.self_ns) /
                    static_cast<double>(std::max<std::int64_t>(tracer.root_ns(), 1)));
  }
  const std::string trace_path =
      a.out + "/trace-" + w.name + "-" + std::to_string(a.seed) + ".json";
  if (!tracer.write_json(trace_path)) {
    std::printf("error: cannot write %s\n", trace_path.c_str());
    correct = false;
  }

  // The ladder, top down: the ebs rung also supplies completion times to
  // streams that lack them (the fleet's generated traces).
  constexpr std::int64_t kRungNs = 100'000'000;
  std::vector<Stream>& streams = traced.streams;
  const RungResult ebs = ebs_rung(streams, kRungNs);
  const RungResult net = net_rung(streams, kRungNs);
  const RungResult sched = sched_rung(streams, kRungNs);
  const RungResult kernel = kernel_rung(streams, kRungNs);
  const RungResult ftl = ftl_rung(streams, kRungNs);
  const RungResult flash = flash_rung(streams, kRungNs);
  const RungResult hist = histogram_rung(streams, kRungNs);
  std::printf("\n%-8s %12s %10s %12s\n", "rung", "units", "passes", "ns/unit");
  for (const auto& [name, rung] :
       std::vector<std::pair<const char*, const RungResult*>>{
           {"ebs", &ebs}, {"net", &net}, {"sched", &sched}, {"sim", &kernel},
           {"ftl", &ftl}, {"flash", &flash}, {"common", &hist}}) {
    std::printf("%-8s %12llu %10llu %12.1f\n", name,
                static_cast<unsigned long long>(rung->units),
                static_cast<unsigned long long>(rung->passes),
                rung->ns_per_unit());
  }

  std::map<std::string, double> m(traced.counters.begin(),
                                   traced.counters.end());
  const double events = m["sim.events"];
  const SpanTotals run_span =
      span("sim.run").count > 0 ? span("sim.run") : span("placement.run");
  m["sim.run_ns_per_event"] =
      events > 0 ? static_cast<double>(run_span.total_ns) / events : 0.0;
  m["sim.kernel_ns_per_event"] = kernel.ns_per_unit();
  m["sim.thread_util"] =
      plain.cpu_s / (plain.wall_s * static_cast<double>(plain.threads));
  m["workload.gen_s"] = static_cast<double>(span("workload.generate").total_ns +
                                            span("fleet.generate").total_ns) /
                        1e9;
  m["workload.completion_ns"] = self_ns_per_call(span("workload.completion"));
  m["essd.submit_ns"] = self_ns_per_call(span("essd.submit"));
  m["ssd.submit_ns"] = self_ns_per_call(span("ssd.submit"));
  m["ebs.ns_per_io"] = ebs.ns_per_unit();
  m["ebs.self_ns_per_io"] =
      self_ns_per_io(ebs, {{&net, net.units_per_op()},
                           {&sched, sched.units_per_op()},
                           {&kernel, ebs.events_per_unit()}});
  m["ftl.self_ns_per_io"] =
      ftl.units == 0 ? 0.0
                     : self_ns_per_io(ftl, {{&flash, flash.units_per_op()},
                                            {&kernel, ftl.events_per_unit()}});
  m["net.ns_per_hop"] = net.ns_per_unit();
  m["sched.ns_per_acquire"] = sched.ns_per_unit();
  m["ftl.ns_per_io"] = ftl.ns_per_unit();
  m["flash.ns_per_op"] = flash.ns_per_unit();
  m["common.histogram_ns_per_record"] = hist.ns_per_unit();
  m["contract.precondition_s"] =
      static_cast<double>(span("contract.precondition").total_ns) / 1e9;
  m["fleet.generate_s"] =
      static_cast<double>(span("fleet.generate").total_ns) / 1e9;
  m["placement.run_s"] =
      static_cast<double>(span("placement.run").total_ns) / 1e9;
  m["trace.overhead_s"] = traced.wall_s - plain.wall_s;
  std::printf("\ntracing overhead: %.3f s (traced %.3f s - untraced %.3f s)\n",
              traced.wall_s - plain.wall_s, traced.wall_s, plain.wall_s);
  print_result(correct, traced.attempted, traced.failed, m);
  return 0;
}

bool parse(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      a->trace = std::atoi(v);
    } else if (flag == "--out") {
      a->out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0 &&
         (a->trace == 0 || a->trace == 1);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  if (!parse(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out <dir>]\n");
    return 2;
  }
  const Workload* w = find_workload(a.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "error: unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  return a.trace == 1 ? run_traced(*w, a) : run_untraced(*w, a);
}
