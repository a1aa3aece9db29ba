#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/block_device.h"
#include "common/status.h"
#include "common/strfmt.h"
#include "common/units.h"

namespace uc {

const char* status_code_name(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case StatusCode::kOutOfRange:
      return "OUT_OF_RANGE";
    case StatusCode::kFailedPrecondition:
      return "FAILED_PRECONDITION";
    case StatusCode::kNotFound:
      return "NOT_FOUND";
    case StatusCode::kInternal:
      return "INTERNAL";
    case StatusCode::kUnimplemented:
      return "UNIMPLEMENTED";
  }
  return "UNKNOWN";
}

std::string Status::to_string() const {
  if (is_ok()) return "OK";
  return strfmt("%s: %s", status_code_name(code_), message_.c_str());
}

namespace detail {
void assert_fail(const char* expr, const char* file, int line, const char* msg) {
  std::fprintf(stderr, "UC_ASSERT failed at %s:%d: (%s) — %s\n", file, line,
               expr, msg);
  std::abort();
}
}  // namespace detail

const char* io_op_name(IoOp op) {
  switch (op) {
    case IoOp::kRead:
      return "read";
    case IoOp::kWrite:
      return "write";
    case IoOp::kFlush:
      return "flush";
    case IoOp::kTrim:
      return "trim";
  }
  return "unknown";
}

Status BlockDevice::validate_request(const DeviceInfo& info,
                                     const IoRequest& req) {
  if (req.op == IoOp::kFlush) return Status::ok();
  if (req.bytes == 0 || req.bytes % info.logical_block_bytes != 0) {
    return Status::invalid_argument(
        strfmt("request bytes %u not a positive multiple of block size %u",
               req.bytes, info.logical_block_bytes));
  }
  if (req.offset % info.logical_block_bytes != 0) {
    return Status::invalid_argument(
        strfmt("offset %" PRIu64 " not aligned to block size %u", req.offset,
               info.logical_block_bytes));
  }
  if (req.offset + req.bytes > info.capacity_bytes) {
    return Status::out_of_range(
        strfmt("I/O [%" PRIu64 ", +%u) beyond capacity %" PRIu64, req.offset,
               req.bytes, info.capacity_bytes));
  }
  return Status::ok();
}

std::string format_bytes(std::uint64_t bytes) {
  const char* suffix[] = {"B", "KiB", "MiB", "GiB", "TiB", "PiB"};
  double v = static_cast<double>(bytes);
  int s = 0;
  while (v >= 1024.0 && s < 5) {
    v /= 1024.0;
    ++s;
  }
  return strfmt(v < 10 ? "%.2f%s" : "%.1f%s", v, suffix[s]);
}

std::string format_duration(SimTime ns) {
  if (ns < 1000) return strfmt("%" PRIu64 "ns", ns);
  const double v = static_cast<double>(ns);
  if (ns < 1000ull * 1000) return strfmt("%.1fus", v / 1e3);
  if (ns < 1000ull * 1000 * 1000) return strfmt("%.2fms", v / 1e6);
  return strfmt("%.2fs", v / 1e9);
}

std::string format_bandwidth_gbs(double gb_per_s) {
  if (gb_per_s < 1.0) return strfmt("%.0f MB/s", gb_per_s * 1e3);
  return strfmt("%.2f GB/s", gb_per_s);
}

}  // namespace uc
