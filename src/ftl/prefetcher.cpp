#include "ftl/prefetcher.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace uc::ftl {

namespace {

/// Streams tracked at once.
constexpr int kStreamTableSize = 8;
/// Consecutive hits before a stream prefetches.
constexpr int kTriggerHits = 2;

}  // namespace

SequentialPrefetcher::SequentialPrefetcher(const Config& cfg)
    : cfg_(cfg), streams_(static_cast<std::size_t>(kStreamTableSize)) {}

SequentialPrefetcher::Suggestion SequentialPrefetcher::on_read(
    Lpn lpn, std::uint32_t pages, std::uint64_t device_pages) {
  ++use_counter_;
  // Find a stream whose predicted head matches this read.
  StreamEntry* match = nullptr;
  for (auto& s : streams_) {
    if (s.hits > 0 && s.next_lpn == lpn) {
      match = &s;
      break;
    }
  }
  if (match == nullptr) {
    // Start/replace the least-recently-used stream entry.
    StreamEntry* lru = &streams_[0];
    for (auto& s : streams_) {
      if (s.last_use < lru->last_use) lru = &s;
    }
    lru->next_lpn = lpn + pages;
    lru->prefetched_until = lpn + pages;
    lru->hits = 1;
    lru->last_use = use_counter_;
    return {};
  }
  match->hits += 1;
  match->next_lpn = lpn + pages;
  match->last_use = use_counter_;
  if (match->hits < kTriggerHits) return {};

  // Hysteresis: top the window back up to read_ahead_pages only once it has
  // drained below half, so read-ahead issues in page-row-sized batches
  // instead of one page per demand read.
  const Lpn head = lpn + pages;
  const std::uint64_t window =
      match->prefetched_until > head ? match->prefetched_until - head : 0;
  if (window > static_cast<std::uint64_t>(cfg_.read_ahead_pages) / 2) {
    return {};
  }
  const Lpn target = std::min<std::uint64_t>(
      head + static_cast<std::uint64_t>(cfg_.read_ahead_pages), device_pages);
  Lpn start = std::max<std::uint64_t>(match->prefetched_until, head);
  if (start >= target) return {};
  Suggestion s;
  s.start = start;
  s.pages = static_cast<std::uint32_t>(target - start);
  match->prefetched_until = target;
  return s;
}

}  // namespace uc::ftl
