// Reference-model property harness for the page map: it must return
// bit-identical translations to a naive exact map under a seeded
// randomized operation stream (~100k ops) mixing random updates,
// sequential runs, stale writers, trims, and GC relocations.  The lookup
// counters are asserted throughout: every translate, update, invalidate
// and relocation is one lookup and one hit.

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "ftl/mapping.h"

namespace uc::ftl {
namespace {

// The specification the page map must match: a flat exact map applying
// the stamp rule (update iff stamp >= current; trims record their own
// stamp so older in-flight programs cannot resurrect the page).
class ReferenceModel {
 public:
  struct Result {
    bool applied = false;
    flash::Spa previous = flash::kInvalidSpa;
  };

  Result update(Lpn lpn, flash::Spa spa, WriteStamp stamp) {
    Entry& e = map_[lpn];
    if (e.stamp > stamp) return {false, flash::kInvalidSpa};
    Result r{true, e.spa};
    if (e.spa == flash::kInvalidSpa) ++mapped_;
    e.spa = spa;
    e.stamp = stamp;
    return r;
  }

  Result invalidate(Lpn lpn, WriteStamp trim_stamp) {
    Entry& e = map_[lpn];
    Result r{true, e.spa};
    if (e.spa != flash::kInvalidSpa) {
      --mapped_;
      e.spa = flash::kInvalidSpa;
    }
    e.stamp = trim_stamp;
    return r;
  }

  flash::Spa peek(Lpn lpn) const {
    const auto it = map_.find(lpn);
    return it == map_.end() ? flash::kInvalidSpa : it->second.spa;
  }

  WriteStamp stamp_of(Lpn lpn) const {
    const auto it = map_.find(lpn);
    return it == map_.end() ? 0 : it->second.stamp;
  }

  std::uint64_t mapped_count() const { return mapped_; }

 private:
  struct Entry {
    flash::Spa spa = flash::kInvalidSpa;
    WriteStamp stamp = 0;
  };
  std::unordered_map<Lpn, Entry> map_;
  std::uint64_t mapped_ = 0;
};

struct StreamParams {
  std::uint64_t seed = 1;
  std::uint64_t ops = 100000;
  std::uint64_t pages = 4096;
};

void check_stats_invariants(const PageMapping& m, std::uint64_t calls) {
  ASSERT_EQ(m.stats().lookups, calls);
  ASSERT_EQ(m.stats().cache_hits, calls);
}

// Drives the page map and the reference through the same op stream,
// asserting equivalence on every operation's outcome and, periodically
// and at the end, over the whole table.
void run_stream(const StreamParams& p) {
  PageMapping m(p.pages);
  ReferenceModel ref;
  Rng rng(p.seed);

  const std::uint64_t pages = p.pages;
  std::uint64_t calls = 0;  // counted page-map calls made so far
  WriteStamp stamp = 0;
  flash::Spa spa_cursor = 0;
  // Stale writers replay (lpn, spa, stamp) triples captured earlier, the
  // way a slow flash program or a GC read-side snapshot would.
  std::vector<std::uint64_t> old_lpns;
  std::vector<flash::Spa> old_spas;
  std::vector<WriteStamp> old_stamps;

  const auto remember = [&](Lpn lpn, flash::Spa spa, WriteStamp s) {
    if (old_lpns.size() < 512) {
      old_lpns.push_back(lpn);
      old_spas.push_back(spa);
      old_stamps.push_back(s);
    } else {
      const std::uint64_t at = rng.uniform_u64(old_lpns.size());
      old_lpns[at] = lpn;
      old_spas[at] = spa;
      old_stamps[at] = s;
    }
  };

  for (std::uint64_t op = 0; op < p.ops; ++op) {
    const std::uint64_t kindp = rng.uniform_u64(100);
    if (kindp < 40) {
      // Random single-page write with a fresh stamp.
      const Lpn lpn = rng.uniform_u64(pages);
      const flash::Spa spa = spa_cursor++;
      const WriteStamp s = ++stamp;
      const auto got = m.update(lpn, spa, s);
      ++calls;
      const auto want = ref.update(lpn, spa, s);
      ASSERT_TRUE(got.applied == want.applied);
      ASSERT_EQ(got.previous, want.previous);
      remember(lpn, spa, s);
    } else if (kindp < 55) {
      // Sequential burst with consecutive stamps and slots — the flush
      // path's signature.
      const std::uint64_t len = rng.uniform_range(4, 32);
      const Lpn base = rng.uniform_u64(pages > len ? pages - len : 1);
      for (std::uint64_t i = 0; i < len; ++i) {
        const flash::Spa spa = spa_cursor++;
        const WriteStamp s = ++stamp;
        const auto got = m.update(base + i, spa, s);
        ++calls;
        const auto want = ref.update(base + i, spa, s);
        ASSERT_TRUE(got.applied && want.applied);
        ASSERT_EQ(got.previous, want.previous);
        // Remember one page per burst so GC relocations also hit
        // burst-written entries.
        if (i == len / 2) remember(base + i, spa, s);
      }
    } else if (kindp < 75) {
      // Translate (the hot read path); must match the reference exactly.
      const Lpn lpn = rng.uniform_u64(pages);
      ASSERT_EQ(m.translate(lpn), ref.peek(lpn)) << "lpn " << lpn;
      ++calls;
    } else if (kindp < 83) {
      // Trim with a globally fresh stamp.
      const Lpn lpn = rng.uniform_u64(pages);
      const WriteStamp s = ++stamp;
      const auto got = m.invalidate(lpn, s);
      ++calls;
      const auto want = ref.invalidate(lpn, s);
      ASSERT_EQ(got.previous, want.previous);
      ASSERT_EQ(m.stamp_of(lpn), s);
    } else if (kindp < 93 && !old_lpns.empty()) {
      // GC relocation: re-home a previously written page at its original
      // stamp.  If the host overwrote or trimmed it since, the stamp rule
      // must reject the move (equal wins, older loses).
      const std::uint64_t at = rng.uniform_u64(old_lpns.size());
      const Lpn lpn = old_lpns[at];
      const flash::Spa dst = spa_cursor++;
      const WriteStamp s = old_stamps[at];
      const auto got = m.on_gc_relocate(lpn, dst, s);
      ++calls;
      const auto want = ref.update(lpn, dst, s);
      ASSERT_TRUE(got.applied == want.applied);
      ASSERT_EQ(got.previous, want.previous);
    } else if (!old_lpns.empty()) {
      // Stale program completion: an old (lpn, spa, stamp) lands late.
      // Replayed verbatim it is an equal-stamp win; after an overwrite it
      // must lose.
      const std::uint64_t at = rng.uniform_u64(old_lpns.size());
      const auto got = m.update(old_lpns[at], old_spas[at], old_stamps[at]);
      ++calls;
      const auto want = ref.update(old_lpns[at], old_spas[at], old_stamps[at]);
      ASSERT_TRUE(got.applied == want.applied);
      ASSERT_EQ(got.previous, want.previous);
    }

    if ((op & 0x3fff) == 0x3fff) {
      check_stats_invariants(m, calls);
      ASSERT_EQ(m.mapped_count(), ref.mapped_count());
      // Spot-check a stripe of the address space.
      const Lpn base = rng.uniform_u64(pages);
      for (Lpn lpn = base; lpn < base + 64 && lpn < pages; ++lpn) {
        ASSERT_EQ(m.peek(lpn), ref.peek(lpn)) << "lpn " << lpn;
        ASSERT_EQ(m.stamp_of(lpn), ref.stamp_of(lpn)) << "lpn " << lpn;
      }
    }
  }

  // Final full-table sweep: every translation and stamp must be
  // bit-identical to the reference.
  for (Lpn lpn = 0; lpn < pages; ++lpn) {
    ASSERT_EQ(m.peek(lpn), ref.peek(lpn)) << "lpn " << lpn;
    ASSERT_EQ(m.stamp_of(lpn), ref.stamp_of(lpn)) << "lpn " << lpn;
  }
  ASSERT_EQ(m.mapped_count(), ref.mapped_count());
  check_stats_invariants(m, calls);
}

TEST(MappingPolicyProperty, PageMatchesReference) {
  run_stream({42});
}

}  // namespace
}  // namespace uc::ftl
