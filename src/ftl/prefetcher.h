#pragma once

/// \file prefetcher.h
/// Sequential-stream detection, read-ahead issue planning, and the DRAM
/// read cache that prefetched pages land in.
///
/// Prefetching is why local-SSD sequential reads complete in ~10 µs while
/// random reads pay the full flash sense (~60 µs) — and, per the paper
/// (§III-B), why the ESSD/SSD latency gap is largest for sequential reads
/// and smallest for random reads.

#include <cstdint>
#include <vector>

#include "common/lru_cache.h"
#include "common/types.h"

namespace uc::ftl {

/// LRU cache of logical pages resident in device DRAM.  Entries carry the
/// simulated time their data finishes arriving from flash, so a read that
/// races its own prefetch waits for the in-flight transfer instead of
/// re-reading flash.
using ReadCache = LruReadyCache<Lpn>;

/// Detects sequential read streams over a small table of recent stream
/// heads (FIO-style multi-stream detection) and suggests read-ahead ranges.
class SequentialPrefetcher {
 public:
  struct Config {
    int read_ahead_pages = 64;   ///< how far past the head to prefetch
  };

  explicit SequentialPrefetcher(const Config& cfg);

  struct Suggestion {
    Lpn start = 0;
    std::uint32_t pages = 0;
    bool active() const { return pages > 0; }
  };

  /// Observes a host read [lpn, lpn+pages); returns the range to prefetch
  /// (possibly empty).  `device_pages` bounds the suggestion.
  Suggestion on_read(Lpn lpn, std::uint32_t pages, std::uint64_t device_pages);

 private:
  struct StreamEntry {
    Lpn next_lpn = 0;
    Lpn prefetched_until = 0;  ///< exclusive high-water mark of issued read-ahead
    int hits = 0;
    std::uint64_t last_use = 0;
  };

  Config cfg_;
  std::vector<StreamEntry> streams_;
  std::uint64_t use_counter_ = 0;
};

}  // namespace uc::ftl
