#pragma once

/// \file bench_util.h
/// Shared helpers for the benchmark harness: device factories at bench
/// scale, strict --quick / --full / --json parsing, paper-reference printing, and the
/// machine-readable result schema.
///
/// Every bench that supports `--json <path>` writes one document with the
/// same envelope — `{"bench": <name>, "config": {...}, "metrics": {...}}` —
/// so results can be diffed and regressed across PRs with generic tooling.
///
/// Scaling note (DESIGN.md §2): capacities are scaled down (the paper used
/// 1-2 TB volumes); bandwidths, latencies, and budgets are NOT scaled, and
/// GC/cleaning cliffs are reported in multiples of capacity, which is
/// scale-free.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/strfmt.h"
#include "common/units.h"
#include "contract/suite.h"
#include "essd/essd_device.h"
#include "sim/parallel.h"
#include "ssd/ssd_device.h"

namespace uc::bench {

struct Scale {
  std::uint64_t ssd_capacity = 16ull << 30;   // paper: 1 TB
  std::uint64_t essd_capacity = 32ull << 30;  // paper: 2 TB (2x the SSD)
  bool quick = false;
  std::string json_path;  ///< empty = no JSON output
};

/// The value of the flag at `argv[i]`, advancing `i` past it; exits 2
/// naming the flag when the value is missing.
inline const char* flag_value(int argc, char** argv, int& i) {
  if (i + 1 >= argc) {
    std::fprintf(stderr, "error: %s requires a value\n", argv[i]);
    std::exit(2);
  }
  return argv[++i];
}

/// Reads `--quick`, `--full` and `--json <path>` and exits 2 naming any
/// other argument, so a typo cannot silently run the default study.  A
/// bench with flags of its own names them here — `value_flags` take the
/// next argument as their value, `switch_flags` stand alone — and reads
/// them in its own loop (values through `flag_value`).
inline Scale parse_scale(int argc, char** argv,
                         std::initializer_list<const char*> value_flags = {},
                         std::initializer_list<const char*> switch_flags = {}) {
  const auto listed = [](std::initializer_list<const char*> flags,
                         const char* arg) {
    for (const char* flag : flags) {
      if (std::strcmp(flag, arg) == 0) return true;
    }
    return false;
  };
  Scale s;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--full") == 0) {
      quick = false;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      s.json_path = flag_value(argc, argv, i);
    } else if (listed(value_flags, argv[i])) {
      flag_value(argc, argv, i);
    } else if (!listed(switch_flags, argv[i])) {
      std::fprintf(stderr, "error: unknown flag '%s'\n", argv[i]);
      std::exit(2);
    }
  }
  if (quick) {
    s.quick = true;
    s.ssd_capacity = 8ull << 30;
    s.essd_capacity = 16ull << 30;
  }
  return s;
}

/// The `--threads` value at `argv[i]` (see `flag_value`); exits 2 unless
/// it lies in [1, sim::ParallelExecutor::kMaxThreads].
inline int threads_value(int argc, char** argv, int& i) {
  const int threads = std::atoi(flag_value(argc, argv, i));
  if (threads < 1 || threads > sim::ParallelExecutor::kMaxThreads) {
    std::fprintf(stderr, "error: --threads wants a count in [1, %d]\n",
                 sim::ParallelExecutor::kMaxThreads);
    std::exit(2);
  }
  return threads;
}

// ---------------------------------------------------------------- JSON --

/// Minimal ordered JSON document builder: enough for the bench result
/// schema (objects keep insertion order, arrays, strings, numbers, bools).
class Json {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : kind_(Kind::kNull) {}
  Json(bool v) : kind_(Kind::kBool), bool_(v) {}                  // NOLINT
  Json(double v) : kind_(Kind::kNumber), num_(v) {}               // NOLINT
  Json(int v) : Json(static_cast<double>(v)) {}                   // NOLINT
  Json(std::uint64_t v) : Json(static_cast<double>(v)) {}         // NOLINT
  Json(const char* v) : kind_(Kind::kString), str_(v) {}          // NOLINT
  Json(std::string v) : kind_(Kind::kString), str_(std::move(v)) {}  // NOLINT

  static Json object() {
    Json j;
    j.kind_ = Kind::kObject;
    return j;
  }
  static Json array() {
    Json j;
    j.kind_ = Kind::kArray;
    return j;
  }

  Json& set(std::string key, Json value) {
    members_.emplace_back(std::move(key), std::move(value));
    return *this;
  }
  Json& push(Json value) {
    items_.push_back(std::move(value));
    return *this;
  }

  std::string dump(int indent = 0) const {
    std::string out;
    write(out, indent);
    out += "\n";
    return out;
  }

 private:
  static void write_escaped(std::string& out, const std::string& s) {
    out += '"';
    for (const char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            out += strfmt("\\u%04x", c);
          } else {
            out += c;
          }
      }
    }
    out += '"';
  }

  void write(std::string& out, int indent) const {
    const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
    const std::string pad_in(static_cast<std::size_t>(indent + 1) * 2, ' ');
    switch (kind_) {
      case Kind::kNull:
        out += "null";
        break;
      case Kind::kBool:
        out += bool_ ? "true" : "false";
        break;
      case Kind::kNumber: {
        if (!std::isfinite(num_)) {
          out += "null";  // JSON has no NaN/inf
        } else if (num_ >= -9.0e18 && num_ <= 9.0e18 &&
                   num_ == static_cast<double>(static_cast<long long>(num_))) {
          // In-range integral values print without an exponent/fraction.
          out += strfmt("%lld", static_cast<long long>(num_));
        } else {
          out += strfmt("%.6g", num_);
        }
        break;
      }
      case Kind::kString:
        write_escaped(out, str_);
        break;
      case Kind::kArray: {
        if (items_.empty()) {
          out += "[]";
          break;
        }
        out += "[\n";
        for (std::size_t i = 0; i < items_.size(); ++i) {
          out += pad_in;
          items_[i].write(out, indent + 1);
          if (i + 1 < items_.size()) out += ",";
          out += "\n";
        }
        out += pad + "]";
        break;
      }
      case Kind::kObject: {
        if (members_.empty()) {
          out += "{}";
          break;
        }
        out += "{\n";
        for (std::size_t i = 0; i < members_.size(); ++i) {
          out += pad_in;
          write_escaped(out, members_[i].first);
          out += ": ";
          members_[i].second.write(out, indent + 1);
          if (i + 1 < members_.size()) out += ",";
          out += "\n";
        }
        out += pad + "}";
        break;
      }
    }
  }

  Kind kind_;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<Json> items_;
  std::vector<std::pair<std::string, Json>> members_;
};

/// The shared result envelope every JSON-emitting bench uses.
inline Json bench_report(const char* bench, Json config, Json metrics) {
  Json doc = Json::object();
  doc.set("bench", bench);
  doc.set("config", std::move(config));
  doc.set("metrics", std::move(metrics));
  return doc;
}

/// Writes `doc` to `scale.json_path` if --json was given; returns whether a
/// file was written.
inline bool maybe_write_json(const Scale& scale, const Json& doc) {
  if (scale.json_path.empty()) return false;
  std::FILE* f = std::fopen(scale.json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", scale.json_path.c_str());
    std::exit(1);
  }
  const std::string text = doc.dump();
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  std::printf("json: wrote %s\n", scale.json_path.c_str());
  return true;
}

inline contract::DeviceFactory ssd_factory(std::uint64_t capacity) {
  return [capacity](sim::Simulator& sim) -> std::unique_ptr<BlockDevice> {
    return std::make_unique<ssd::SsdDevice>(
        sim, ssd::samsung_970pro_scaled(capacity));
  };
}

inline contract::DeviceFactory essd1_factory(std::uint64_t capacity) {
  return [capacity](sim::Simulator& sim) -> std::unique_ptr<BlockDevice> {
    return std::make_unique<essd::EssdDevice>(sim,
                                              essd::aws_io2_profile(capacity));
  };
}

inline contract::DeviceFactory essd2_factory(std::uint64_t capacity) {
  return [capacity](sim::Simulator& sim) -> std::unique_ptr<BlockDevice> {
    return std::make_unique<essd::EssdDevice>(
        sim, essd::alibaba_pl3_profile(capacity));
  };
}

struct NamedDevice {
  std::string name;
  contract::DeviceFactory factory;
  double guaranteed_gbs = 0.0;
  double guaranteed_iops = 0.0;
};

/// ESSD-1, ESSD-2, SSD — the paper's Table I lineup.
inline std::vector<NamedDevice> paper_devices(const Scale& s) {
  return {
      {"ESSD-1 (AWS io2 sim)", essd1_factory(s.essd_capacity), 3.0, 25600},
      {"ESSD-2 (Alibaba PL3 sim)", essd2_factory(s.essd_capacity), 1.1,
       100000},
      {"SSD (970 Pro sim)", ssd_factory(s.ssd_capacity), 0.0, 0.0},
  };
}

inline void print_header(const char* experiment, const char* paper_ref) {
  std::printf("=====================================================\n");
  std::printf("%s\n", experiment);
  std::printf("paper reference: %s\n", paper_ref);
  std::printf("=====================================================\n");
}

}  // namespace uc::bench
