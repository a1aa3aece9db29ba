#include "tracer.h"

#include <cstdio>

namespace perfbench {

Tracer*& active_tracer() {
  static Tracer* tracer = nullptr;
  return tracer;
}

void Tracer::begin(const char* name, std::uint64_t request) {
  const std::int32_t parent = stack_.empty() ? -1 : stack_.back().id;
  stack_.push_back(Open{name, request, host_ns(), 0, next_id_++, parent});
}

void Tracer::end() {
  const std::int64_t now = host_ns();
  const Open span = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = now - span.start_ns;
  SpanTotals* slot = nullptr;
  for (auto& [name, totals] : totals_) {
    if (name == span.name) slot = &totals;
  }
  if (slot == nullptr) slot = &totals_.emplace_back(span.name, SpanTotals{}).second;
  SpanTotals& t = *slot;
  ++t.count;
  t.total_ns += dur;
  t.self_ns += dur - span.child_ns;
  if (stack_.empty()) {
    root_ns_ += dur;
  } else {
    stack_.back().child_ns += dur;
  }
  if (sample_.size() < sample_cap_) {
    sample_.push_back(SpanRecord{span.id, span.parent, span.request,
                                 span.start_ns, now, span.name});
  }
}

std::map<std::string, SpanTotals> Tracer::totals() const {
  std::map<std::string, SpanTotals> out;
  for (const auto& [name, t] : totals_) {
    SpanTotals& sum = out[name];
    sum.count += t.count;
    sum.total_ns += t.total_ns;
    sum.self_ns += t.self_ns;
  }
  return out;
}

bool Tracer::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"totals\": {");
  bool first = true;
  for (const auto& [name, t] : totals()) {
    std::fprintf(f,
                 "%s\n  \"%s\": {\"count\": %llu, \"total_ns\": %lld, "
                 "\"self_ns\": %lld}",
                 first ? "" : ",", name.c_str(),
                 static_cast<unsigned long long>(t.count),
                 static_cast<long long>(t.total_ns),
                 static_cast<long long>(t.self_ns));
    first = false;
  }
  std::fprintf(f, "},\n\"root_ns\": %lld,\n\"spans\": [",
               static_cast<long long>(root_ns_));
  first = true;
  for (const SpanRecord& s : sample_) {
    std::fprintf(f,
                 "%s\n  {\"id\": %d, \"parent\": %d, \"request\": %llu, "
                 "\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld}",
                 first ? "" : ",", s.id, s.parent,
                 static_cast<unsigned long long>(s.request), s.name.c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
