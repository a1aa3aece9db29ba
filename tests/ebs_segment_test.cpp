// Tests for the chunk map, the cluster segment pool, and the per-chunk
// append log with its live/garbage accounting and cleaning.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <set>
#include <vector>

#include "ebs/chunk_map.h"
#include "ebs/segment_store.h"

namespace uc::ebs {
namespace {

TEST(ChunkMap, SplitsVolumeAndPlacesDistinctReplicas) {
  ChunkMapConfig cfg;
  cfg.chunk_bytes = 1 << 20;
  cfg.replication = 3;
  cfg.nodes = 8;
  cfg.seed = 5;
  ChunkMap map(16ull << 20, cfg);
  EXPECT_EQ(map.chunk_count(), 16u);
  EXPECT_EQ(map.pages_per_chunk(), 256u);
  for (ChunkId c = 0; c < map.chunk_count(); ++c) {
    const auto& reps = map.replicas(c);
    ASSERT_EQ(reps.size(), 3u);
    std::set<int> unique(reps.begin(), reps.end());
    EXPECT_EQ(unique.size(), 3u) << "replicas must be distinct nodes";
    for (const int n : reps) {
      EXPECT_GE(n, 0);
      EXPECT_LT(n, 8);
    }
  }
  EXPECT_EQ(map.chunk_of(0), 0u);
  EXPECT_EQ(map.chunk_of((1 << 20) - 1), 0u);
  EXPECT_EQ(map.chunk_of(1 << 20), 1u);
  EXPECT_EQ(map.offset_in_chunk((1 << 20) + 4096), 4096u);
}

TEST(ChunkMap, PlacementUsesAllNodes) {
  ChunkMapConfig cfg;
  cfg.chunk_bytes = 1 << 20;
  cfg.nodes = 8;
  ChunkMap map(256ull << 20, cfg);  // 256 chunks
  std::set<int> used;
  for (ChunkId c = 0; c < map.chunk_count(); ++c) {
    for (const int n : map.replicas(c)) used.insert(n);
  }
  EXPECT_EQ(used.size(), 8u);
}

TEST(SegmentPool, AllocateReleaseWithReserve) {
  SegmentPool pool(10, 2);
  EXPECT_EQ(pool.free_groups(), 10u);
  // Normal allocations stop at the reserve.
  int taken = 0;
  while (pool.try_allocate(false)) ++taken;
  EXPECT_EQ(taken, 8);
  EXPECT_EQ(pool.free_groups(), 2u);
  // Privileged (cleaner) allocations may dig in.
  EXPECT_TRUE(pool.try_allocate(true));
  EXPECT_TRUE(pool.try_allocate(true));
  EXPECT_FALSE(pool.try_allocate(true));
  pool.release(3);
  EXPECT_EQ(pool.free_groups(), 3u);
  EXPECT_NEAR(pool.free_ratio(), 0.3, 1e-12);
}

TEST(SegmentPool, ReleaseCallbackFires) {
  SegmentPool pool(4, 1);
  int calls = 0;
  pool.set_release_callback([&] { ++calls; });
  ASSERT_TRUE(pool.try_allocate(false));
  pool.release(1);
  EXPECT_EQ(calls, 1);
}

TEST(ChunkLog, AppendTracksLiveAndStamps) {
  SegmentPool pool(16, 1);
  ChunkLog log(/*pages=*/64, /*pages_per_segment=*/8);
  EXPECT_FALSE(log.is_written(3));
  ASSERT_TRUE(log.append_page(3, 100, pool));
  EXPECT_TRUE(log.is_written(3));
  EXPECT_EQ(log.page_stamp(3), 100u);
  EXPECT_EQ(log.live_pages(), 1u);
  EXPECT_EQ(log.garbage_pages(), 0u);
  EXPECT_EQ(pool.free_groups(), 15u);  // one segment opened
}

TEST(ChunkLog, OverwriteCreatesGarbage) {
  SegmentPool pool(16, 1);
  ChunkLog log(64, 8);
  ASSERT_TRUE(log.append_page(3, 1, pool));
  ASSERT_TRUE(log.append_page(3, 2, pool));
  EXPECT_EQ(log.live_pages(), 1u);
  EXPECT_EQ(log.garbage_pages(), 1u);
  EXPECT_EQ(log.page_stamp(3), 2u);
}

TEST(ChunkLog, TrimDropsPage) {
  SegmentPool pool(16, 1);
  ChunkLog log(64, 8);
  ASSERT_TRUE(log.append_page(5, 1, pool));
  log.trim_page(5);
  EXPECT_FALSE(log.is_written(5));
  EXPECT_EQ(log.live_pages(), 0u);
  EXPECT_EQ(log.garbage_pages(), 1u);
}

TEST(ChunkLog, AppendStallsWhenPoolEmpty) {
  SegmentPool pool(2, 1);  // one usable group
  ChunkLog log(64, 8);
  for (std::uint32_t p = 0; p < 8; ++p) {
    ASSERT_TRUE(log.append_page(p, p + 1, pool));
  }
  // Next append needs a new segment; only the reserve remains.
  EXPECT_FALSE(log.append_page(8, 9, pool));
  pool.release(1);
  EXPECT_TRUE(log.append_page(8, 9, pool));
}

TEST(ChunkLog, VictimSelectionPrefersGarbage) {
  SegmentPool pool(16, 1);
  ChunkLog log(64, 4);
  // Fill segment 0 with pages 0-3, segment 1 with pages 4-7.
  for (std::uint32_t p = 0; p < 8; ++p) {
    ASSERT_TRUE(log.append_page(p, p + 1, pool));
  }
  // Overwrite pages 0-2 (lands in segment 2): segment 0 is 75% garbage.
  for (std::uint32_t p = 0; p < 3; ++p) {
    ASSERT_TRUE(log.append_page(p, 10 + p, pool));
  }
  const auto victim = log.pick_victim();
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->seq, 0u);
  EXPECT_EQ(victim->live_pages, 1u);
  EXPECT_NEAR(victim->garbage_ratio(), 0.75, 1e-12);
}

TEST(ChunkLog, CleanRelocatesLiveAndFrees) {
  SegmentPool pool(16, 1);
  ChunkLog log(64, 4);
  for (std::uint32_t p = 0; p < 8; ++p) {
    ASSERT_TRUE(log.append_page(p, p + 1, pool));
  }
  for (std::uint32_t p = 0; p < 3; ++p) {
    ASSERT_TRUE(log.append_page(p, 10 + p, pool));
  }
  const auto free_before = pool.free_groups();
  std::uint32_t moved = 0;
  ASSERT_TRUE(log.clean_segment(0, pool, &moved));
  EXPECT_EQ(moved, 1u);  // page 3 was the only live page in segment 0
  EXPECT_GE(pool.free_groups(), free_before);
  // Page 3 survives with its stamp.
  EXPECT_TRUE(log.is_written(3));
  EXPECT_EQ(log.page_stamp(3), 4u);
  EXPECT_EQ(log.live_pages(), 8u);
  // Cleaning the 75%-garbage victim shrank garbage.
  EXPECT_LE(log.garbage_pages(), 1u);
}

TEST(ChunkLog, CleanEverythingReclaimsAllGarbage) {
  SegmentPool pool(64, 2);
  ChunkLog log(32, 4);
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(log.append_page(static_cast<std::uint32_t>(rng.uniform_u64(32)),
                                static_cast<WriteStamp>(i + 1), pool));
  }
  while (true) {
    const auto victim = log.pick_victim();
    if (!victim.has_value() || victim->garbage_ratio() <= 0.0) break;
    ASSERT_TRUE(log.clean_segment(victim->seq, pool, nullptr));
  }
  // All that remains is live data plus at most one open segment's slack.
  EXPECT_EQ(log.live_pages(), 32u);
  EXPECT_LE(log.garbage_pages(), 4u);
}

TEST(VictimIndex, MinimumTiesToLowestSlotAndGrows) {
  VictimIndex index;
  EXPECT_FALSE(index.min_slot().has_value());
  for (std::uint32_t s = 0; s < 5; ++s) EXPECT_EQ(index.add_slot(), s);
  EXPECT_FALSE(index.min_slot().has_value());  // all kNoVictim
  index.update(3, 7);
  index.update(1, 7);
  EXPECT_EQ(index.min_slot(), 1u);  // equal live: lowest slot wins
  index.update(4, 2);
  EXPECT_EQ(index.min_slot(), 4u);
  for (std::uint32_t s = 5; s < 9; ++s) index.add_slot();  // grows past 8
  index.update(8, 1);
  EXPECT_EQ(index.min_slot(), 8u);
  EXPECT_EQ(index.live(3), 7u);
  index.update(8, VictimIndex::kNoVictim);
  index.update(4, VictimIndex::kNoVictim);
  EXPECT_EQ(index.min_slot(), 1u);
}

// Independent model of a chunk log with a full-scan victim pick (strictly
// highest garbage ratio, first in scan order): the reference the index must
// reproduce pick for pick.
struct ReferenceLog {
  static constexpr std::uint32_t kNone = ~0u;
  struct Segment {
    std::uint32_t appended = 0;
    std::uint32_t live = 0;
    bool freed = false;
  };

  ReferenceLog(std::uint32_t pages, std::uint32_t pages_per_segment)
      : pps(pages_per_segment), page_seg(pages, kNone) {}

  void drop(std::uint32_t page) {
    if (page_seg[page] != kNone) --segments[page_seg[page]].live;
    page_seg[page] = kNone;
  }
  void place(std::uint32_t page) {
    if (open < 0 || segments[static_cast<std::size_t>(open)].appended == pps) {
      open = static_cast<std::int64_t>(segments.size());
      segments.emplace_back();
    }
    Segment& seg = segments[static_cast<std::size_t>(open)];
    ++seg.appended;
    ++seg.live;
    page_seg[page] = static_cast<std::uint32_t>(open);
  }
  void append(std::uint32_t page) {
    drop(page);
    place(page);
  }
  // Relocates like ChunkLog::clean_segment, whose privileged allocations
  // may take all `free_groups`.  Returns false where the real clean runs
  // dry, leaving the same partial relocation behind.
  bool clean(std::uint32_t seq, std::uint64_t free_groups) {
    for (std::uint32_t page = 0; page < page_seg.size(); ++page) {
      if (page_seg[page] != seq) continue;
      if (open < 0 || segments[static_cast<std::size_t>(open)].appended == pps) {
        if (free_groups == 0) return false;
        --free_groups;
      }
      append(page);
    }
    segments[seq].freed = true;
    return true;
  }

  std::optional<ChunkLog::Victim> pick_victim() const {
    std::optional<ChunkLog::Victim> best;
    for (std::size_t seq = 0; seq < segments.size(); ++seq) {
      const Segment& seg = segments[seq];
      if (seg.freed || static_cast<std::int64_t>(seq) == open) continue;
      if (seg.appended < pps) continue;
      ChunkLog::Victim v{static_cast<std::uint32_t>(seq), seg.live,
                         seg.appended};
      if (!best.has_value() || v.garbage_ratio() > best->garbage_ratio()) {
        best = v;
      }
    }
    return best;
  }

  std::uint32_t pps;
  std::vector<Segment> segments;
  std::vector<std::uint32_t> page_seg;
  std::int64_t open = -1;
};

struct ReferencePick {
  std::uint32_t chunk = 0;
  ChunkLog::Victim victim;
  bool found = false;
};

ReferencePick reference_global_pick(const std::vector<ReferenceLog>& logs) {
  ReferencePick best;
  for (std::uint32_t c = 0; c < logs.size(); ++c) {
    const auto v = logs[c].pick_victim();
    if (!v.has_value()) continue;
    if (!best.found || v->garbage_ratio() > best.victim.garbage_ratio()) {
      best = ReferencePick{c, *v, true};
    }
  }
  return best;
}

TEST(VictimIndex, MatchesFullScanUnderPoolPressure) {
  // Five logs of different lengths sharing one tight pool, driven by a
  // seeded stream of appends, overwrites, trims and cleans (some of which
  // run dry part-way, as the pool has no cleaner reserve).  After every
  // step the index's pick must equal the old full scan's pick, and every
  // log's cached best must equal a rescan.  The last log joins the index
  // mid-run, the way the cleaner picks up a newly attached volume.
  constexpr std::uint32_t kPps = 4;
  const std::vector<std::uint32_t> pages = {32, 24, 40, 16, 32};
  SegmentPool pool(48, 0);  // no cleaner reserve: cleans can run dry
  std::vector<ChunkLog> logs;
  std::vector<ReferenceLog> refs;
  logs.reserve(pages.size());
  for (const std::uint32_t p : pages) {
    logs.emplace_back(p, kPps);
    refs.emplace_back(p, kPps);
  }
  VictimIndex index;
  for (std::uint32_t c = 0; c + 1 < logs.size(); ++c) {
    logs[c].attach_index(&index, index.add_slot());
  }
  Rng rng(12);
  std::uint64_t stalls = 0;
  std::uint64_t cleans = 0;
  std::uint64_t failed_cleans = 0;
  for (int step = 0; step < 20000; ++step) {
    if (step == 500) {
      const std::uint32_t last = static_cast<std::uint32_t>(logs.size() - 1);
      logs[last].attach_index(&index, index.add_slot());
    }
    // The index only covers attached logs; so does the reference.
    const std::vector<ReferenceLog> indexed(
        refs.begin(), refs.begin() + index.size());
    const ReferencePick want = reference_global_pick(indexed);
    const auto got = index.min_slot();
    ASSERT_EQ(got.has_value(), want.found) << "step " << step;
    if (want.found) {
      ASSERT_EQ(*got, want.chunk) << "step " << step;
      const auto v = logs[*got].pick_victim();
      ASSERT_TRUE(v.has_value());
      ASSERT_EQ(v->seq, want.victim.seq) << "step " << step;
      ASSERT_EQ(v->live_pages, want.victim.live_pages) << "step " << step;
      ASSERT_EQ(v->garbage_ratio(), want.victim.garbage_ratio());
    }

    const auto c = static_cast<std::uint32_t>(rng.uniform_u64(logs.size()));
    const auto page = static_cast<std::uint32_t>(rng.uniform_u64(pages[c]));
    const std::uint64_t op = rng.uniform_u64(100);
    bool clean = op >= 85;
    if (op < 70) {
      if (logs[c].append_page(page, static_cast<WriteStamp>(step + 1), pool)) {
        refs[c].append(page);
      } else {
        ++stalls;
        clean = true;  // pool dry: the cleaner's turn
      }
    } else if (op < 85) {
      logs[c].trim_page(page);
      refs[c].drop(page);
    }
    if (clean && want.found) {
      // On a dry pool a clean stops part-way; the partly relocated victim
      // must stay correctly ranked.
      const std::uint64_t free_before = pool.free_groups();
      const bool ok =
          logs[want.chunk].clean_segment(want.victim.seq, pool, nullptr);
      ASSERT_EQ(ok, refs[want.chunk].clean(want.victim.seq, free_before))
          << "step " << step;
      ++(ok ? cleans : failed_cleans);
    }
    for (std::uint32_t i = 0; i < logs.size(); ++i) {
      ASSERT_TRUE(logs[i].check_invariants());
      const auto mine = logs[i].pick_victim();
      const auto ref = refs[i].pick_victim();
      ASSERT_EQ(mine.has_value(), ref.has_value()) << "step " << step;
      if (ref.has_value()) {
        ASSERT_EQ(mine->seq, ref->seq) << "step " << step;
      }
    }
  }
  // The stream must actually have exercised the pressure paths.
  EXPECT_GT(stalls, 100u);
  EXPECT_GT(cleans, 1000u);
  EXPECT_GT(failed_cleans, 0u);
}

struct Geometry {
  std::uint32_t pages;
  std::uint32_t pages_per_segment;
};

// Each page's segment, and each log's victim and invariants, against the
// reference page map.
void expect_matches_reference(const std::vector<ChunkLog>& logs,
                              const std::vector<ReferenceLog>& refs,
                              int step) {
  for (std::uint32_t i = 0; i < logs.size(); ++i) {
    ASSERT_TRUE(logs[i].check_invariants());
    for (std::uint32_t p = 0; p < refs[i].page_seg.size(); ++p) {
      ASSERT_EQ(logs[i].segment_of(p), refs[i].page_seg[p])
          << "step " << step << " log " << i << " page " << p;
      ASSERT_EQ(logs[i].is_written(p),
                refs[i].page_seg[p] != ReferenceLog::kNone);
    }
    const auto mine = logs[i].pick_victim();
    const auto ref = refs[i].pick_victim();
    ASSERT_EQ(mine.has_value(), ref.has_value()) << "step " << step;
    if (ref.has_value()) {
      ASSERT_EQ(mine->seq, ref->seq) << "step " << step;
      ASSERT_EQ(mine->live_pages, ref->live_pages) << "step " << step;
    }
  }
}

TEST(ChunkLog, MatchesPageMapReferenceAcrossWords) {
  // Three logs whose chunks span several 64-page bitmap words and whose
  // segment sizes do not divide 64, so relocation must split a word where
  // the open segment fills.  One pool with no cleaner reserve is shared,
  // so appends stall and some cleans run dry part-way.  After every step
  // each page's segment must equal the reference page map.
  const std::vector<Geometry> geometries = {{200, 48}, {130, 7}, {1000, 256}};
  SegmentPool pool(34, 0);  // a few groups over the live data
  std::vector<ChunkLog> logs;
  std::vector<ReferenceLog> refs;
  logs.reserve(geometries.size());
  for (const Geometry& g : geometries) {
    logs.emplace_back(g.pages, g.pages_per_segment);
    refs.emplace_back(g.pages, g.pages_per_segment);
  }
  Rng rng(21);
  std::uint64_t stalls = 0;
  std::uint64_t cleans = 0;
  std::uint64_t failed_cleans = 0;
  for (int step = 0; step < 10000; ++step) {
    const auto c = static_cast<std::uint32_t>(rng.uniform_u64(logs.size()));
    const auto page =
        static_cast<std::uint32_t>(rng.uniform_u64(geometries[c].pages));
    const std::uint64_t op = rng.uniform_u64(100);
    bool clean = op >= 85;
    if (op < 70) {
      if (logs[c].append_page(page, static_cast<WriteStamp>(step + 1), pool)) {
        refs[c].append(page);
      } else {
        ++stalls;
        clean = true;  // pool dry: the cleaner's turn
      }
    } else if (op < 85) {
      logs[c].trim_page(page);
      refs[c].drop(page);
    }
    if (const auto want = refs[c].pick_victim(); clean && want.has_value()) {
      const std::uint64_t free_before = pool.free_groups();
      const bool ok = logs[c].clean_segment(want->seq, pool, nullptr);
      ASSERT_EQ(ok, refs[c].clean(want->seq, free_before)) << "step " << step;
      ++(ok ? cleans : failed_cleans);
    }
    ASSERT_NO_FATAL_FAILURE(expect_matches_reference(logs, refs, step));
  }
  // The stream must actually have exercised the pressure paths.
  EXPECT_GT(stalls, 100u);
  EXPECT_GT(cleans, 500u);
  EXPECT_GT(failed_cleans, 100u);
}

TEST(ChunkLog, AppendRunMatchesPageMapReferenceAcrossWords) {
  // The multi-page twin of MatchesPageMapReferenceAcrossWords: each append
  // is a run of 1-150 pages, so `append_run` splits it where a 64-page
  // word ends and where the open segment fills, and a dry pool stops it
  // part-way.  The reference appends the landed prefix page by page; the
  // pages after it must keep their old segment and stamp.
  const std::vector<Geometry> geometries = {{200, 48}, {130, 7}, {1000, 256}};
  SegmentPool pool(34, 0);  // a few groups over the live data
  std::vector<ChunkLog> logs;
  std::vector<ReferenceLog> refs;
  logs.reserve(geometries.size());
  for (const Geometry& g : geometries) {
    logs.emplace_back(g.pages, g.pages_per_segment);
    refs.emplace_back(g.pages, g.pages_per_segment);
  }
  Rng rng(29);
  WriteStamp stamp = 0;
  std::uint64_t mid_run_stalls = 0;
  std::uint64_t cleans = 0;
  std::uint64_t failed_cleans = 0;
  for (int step = 0; step < 10000; ++step) {
    const auto c = static_cast<std::uint32_t>(rng.uniform_u64(logs.size()));
    const std::uint32_t pages = geometries[c].pages;
    const auto first = static_cast<std::uint32_t>(rng.uniform_u64(pages));
    const std::uint64_t op = rng.uniform_u64(100);
    bool clean = op >= 85;
    if (op < 70) {
      const auto n = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(1 + rng.uniform_u64(150), pages - first));
      // The run's pages and the one past it, as they were.
      const std::uint32_t end = std::min(first + n + 1, pages);
      std::vector<WriteStamp> before;
      for (std::uint32_t p = first; p < end; ++p) {
        before.push_back(logs[c].page_stamp(p));
      }
      const std::uint32_t landed = logs[c].append_run(first, n, stamp, pool);
      ASSERT_LE(landed, n) << "step " << step;
      for (std::uint32_t p = first; p < end; ++p) {
        const std::uint32_t i = p - first;
        if (i < landed) refs[c].append(p);
        ASSERT_EQ(logs[c].page_stamp(p), i < landed ? stamp + i : before[i])
            << "step " << step << " page " << p;
      }
      stamp += n;
      if (landed < n) {
        mid_run_stalls += landed > 0 ? 1 : 0;
        clean = true;  // pool dry: the cleaner's turn
      }
    } else if (op < 85) {
      logs[c].trim_page(first);
      refs[c].drop(first);
    }
    // A run overwrites far more than one page, so the cleaner gets up to
    // eight turns on the best victim of any log, and stops at the first
    // that runs dry.
    for (int turn = 0; clean && turn < 8; ++turn) {
      const ReferencePick want = reference_global_pick(refs);
      if (!want.found) break;
      const std::uint64_t free_before = pool.free_groups();
      const bool ok =
          logs[want.chunk].clean_segment(want.victim.seq, pool, nullptr);
      ASSERT_EQ(ok, refs[want.chunk].clean(want.victim.seq, free_before))
          << "step " << step;
      ++(ok ? cleans : failed_cleans);
      if (!ok) break;
    }
    ASSERT_NO_FATAL_FAILURE(expect_matches_reference(logs, refs, step));
  }
  // The stream must actually have exercised the pressure paths.
  EXPECT_GT(mid_run_stalls, 100u);
  EXPECT_GT(cleans, 500u);
  EXPECT_GT(failed_cleans, 100u);
}

}  // namespace
}  // namespace uc::ebs
