#pragma once

/// \file tracer.h
/// Outside-in span tracer for the benchmark.
///
/// Spans are opened and closed by the benchmark's own code around each call
/// it makes into a layer's public functions (and by the `TracedDevice`
/// decorator around a device under test), never from inside `src/`.  One
/// thread records: spans nest strictly, so a span's self time is its
/// duration minus the durations of its direct children, and the self times
/// of every span sum to the root's duration.
///
/// Every closed span adds to its name's count / total / self totals.  Only
/// the first `sample_cap` closed spans are kept in full (name, request id,
/// start, end, parent) so a multi-million-I/O run stays bounded in memory.
/// With no tracer installed, `Span` costs one branch.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline std::int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  std::int32_t id = 0;
  std::int32_t parent = -1;  ///< -1 for a root span
  std::uint64_t request = 0;  ///< shared by every span of one simulated I/O
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::string name;
};

struct SpanTotals {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(std::size_t sample_cap = 1 << 14) : sample_cap_(sample_cap) {}

  void begin(const char* name, std::uint64_t request);
  void end();

  /// Totals per span name (`<module>.<function>`).
  std::map<std::string, SpanTotals> totals() const;
  const std::vector<SpanRecord>& sample() const { return sample_; }
  /// Duration of every root span, summed.
  std::int64_t root_ns() const { return root_ns_; }
  bool open() const { return !stack_.empty(); }

  /// Writes the totals and the sampled spans as one JSON document.
  bool write_json(const std::string& path) const;

 private:
  struct Open {
    const char* name;
    std::uint64_t request;
    std::int64_t start_ns;
    std::int64_t child_ns;
    std::int32_t id;
    std::int32_t parent;
  };

  std::size_t sample_cap_;
  std::vector<Open> stack_;
  /// Keyed by the span name's literal: a handful of names, so a linear scan
  /// beats hashing and never allocates on the per-span path.
  std::vector<std::pair<const char*, SpanTotals>> totals_;
  std::vector<SpanRecord> sample_;
  std::int64_t root_ns_ = 0;
  std::int32_t next_id_ = 0;
};

/// The tracer the benchmark's spans report to; null while tracing is off.
Tracer*& active_tracer();

/// RAII span on the active tracer (no-op when tracing is off).
class Span {
 public:
  explicit Span(const char* name, std::uint64_t request = 0)
      : tracer_(active_tracer()) {
    if (tracer_ != nullptr) tracer_->begin(name, request);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

/// Installs `t` as the active tracer for the scope's lifetime.
class TracerScope {
 public:
  explicit TracerScope(Tracer* t) : prev_(active_tracer()) {
    active_tracer() = t;
  }
  ~TracerScope() { active_tracer() = prev_; }
  TracerScope(const TracerScope&) = delete;
  TracerScope& operator=(const TracerScope&) = delete;

 private:
  Tracer* prev_;
};

}  // namespace perfbench
