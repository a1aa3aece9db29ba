// Tests for the discrete-event kernel: ordering, FIFO tie-breaking, bounded
// runs, the lockstep peek/advance primitives — and the contention resources
// and stochastic latency model built on top of it.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "sched/queued_resource.h"
#include "sim/inline_callback.h"
#include "sim/latency_model.h"
#include "sim/parallel.h"
#include "sim/resources.h"
#include "sim/simulator.h"

namespace uc::sim {
namespace {

using namespace units;

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(300, [&] { order.push_back(3); });
  sim.schedule_at(100, [&] { order.push_back(1); });
  sim.schedule_at(200, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 300u);
  EXPECT_EQ(sim.events_processed(), 3u);
}

TEST(Simulator, EqualTimesFireInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(500, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, EventsMayScheduleMoreEvents) {
  Simulator sim;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 5) sim.schedule_after(10, chain);
  };
  sim.schedule_after(10, chain);
  sim.run();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(sim.now(), 50u);
}

// A callback that throws must not leak its slab slot: the fire path relinks
// the slot through a scope guard, so it is recycled even on the exception
// path (without the guard, repeated throwing callbacks exhaust the slab).
TEST(Simulator, ThrowingCallbackDoesNotLeakSlot) {
  Simulator sim;
  bool fired = false;
  sim.schedule_at(20, [&] { fired = true; });
  for (int i = 0; i < 1000; ++i) {
    sim.schedule_at(10, [] { throw std::runtime_error("boom"); });
    EXPECT_THROW(sim.run(), std::runtime_error);
  }
  EXPECT_FALSE(fired);  // every throw unwound out of run() before t = 20
  // Each throwing event's slot went back on the free list, so 1,000 of
  // them never grew the slab past its first 256-slot chunk.
  EXPECT_EQ(sim.slab_slots_for_testing(), 256u);
  sim.run();  // the surviving event still fires normally
  EXPECT_TRUE(fired);
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(sim.events_processed(), 1001u);
}

// The 40-bit schedule sequence renormalizes when exhausted; FIFO ordering
// among equal-time events must survive the compaction.
TEST(Simulator, SequenceRenormalizationPreservesFifo) {
  Simulator sim;
  sim.set_next_sequence_for_testing((1ull << 40) - 4);
  std::vector<int> order;
  for (int i = 0; i < 12; ++i) {  // crosses the renormalization boundary
    sim.schedule_at(500, [&order, i] { order.push_back(i); });
  }
  sim.run();
  ASSERT_EQ(order.size(), 12u);
  for (int i = 0; i < 12; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, RunUntilAdvancesClockAndStops) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(100, [&] { ++fired; });
  sim.schedule_at(2000, [&] { ++fired; });
  sim.run_until(1000);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 1000u);
  sim.run();
  EXPECT_EQ(fired, 2);
}

// `next_event_time` and `advance_to` are the primitives a lockstep driver
// (`placement::ShardedHost` fused groups) uses to move several simulators
// through one global time order.
TEST(Simulator, NextEventTimePeeksTheEarliestPendingEvent) {
  Simulator sim;
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(sim.next_event_time(), kNoTime);
  sim.schedule_at(300, [] {});
  sim.schedule_at(100, [] {});
  sim.schedule_at(200, [] {});
  EXPECT_FALSE(sim.idle());
  EXPECT_EQ(sim.next_event_time(), 100u);
  EXPECT_EQ(sim.events_processed(), 0u);  // peeking fires nothing
  sim.run_until(150);
  EXPECT_EQ(sim.next_event_time(), 200u);
  sim.run();
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(sim.next_event_time(), kNoTime);
}

TEST(Simulator, AdvanceToMovesTheClockWithoutFiring) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(100, [&] { ++fired; });
  sim.advance_to(40);
  EXPECT_EQ(sim.now(), 40u);
  sim.advance_to(100);  // up to the pending event's time is allowed
  EXPECT_EQ(sim.now(), 100u);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.next_event_time(), 100u);
  sim.advance_to(70);  // never backwards
  EXPECT_EQ(sim.now(), 100u);
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 100u);
  sim.advance_to(500);  // an idle simulator advances freely
  EXPECT_EQ(sim.now(), 500u);
}

TEST(SimulatorDeathTest, AdvanceToRejectsSkippingAPendingEvent) {
  Simulator sim;
  sim.schedule_at(100, [] {});
  EXPECT_DEATH(sim.advance_to(101), "advance_to would skip a pending event");
}

TEST(Simulator, RunWhileStopsOnPredicate) {
  Simulator sim;
  int fired = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule_at(static_cast<SimTime>(i * 10), [&] { ++fired; });
  }
  sim.run_while([&] { return fired < 3; });
  EXPECT_EQ(fired, 3);
}

TEST(QueuedResource, SerializesBackToBack) {
  sched::QueuedResource r;
  EXPECT_EQ(r.acquire(0, 100), 100u);
  EXPECT_EQ(r.acquire(0, 100), 200u);   // queued behind the first
  EXPECT_EQ(r.acquire(500, 100), 600u); // idle gap, starts immediately
  EXPECT_EQ(r.busy_time(), 300u);
}

TEST(BandwidthPipe, TransferTimeMatchesRate) {
  BandwidthPipe pipe(1000.0);  // 1000 MB/s -> 1 ns/byte
  EXPECT_EQ(pipe.transfer_time(4096), 4096u);
  EXPECT_EQ(pipe.transfer(0, 4096), 4096u);
  // Second transfer queues.
  EXPECT_EQ(pipe.transfer(0, 4096), 8192u);
}

TEST(QueuedResource, ServersRunInParallelThenQueue) {
  sched::QueuedResource servers(2);
  EXPECT_EQ(servers.acquire(0, 100), 100u);
  EXPECT_EQ(servers.acquire(0, 100), 100u);  // second server
  EXPECT_EQ(servers.acquire(0, 100), 200u);  // queues on earliest free
}

TEST(LatencyModel, DeterministicWithoutJitter) {
  LatencyModel model(LatencyModelConfig{.base_us = 10.0, .per_byte_ns = 2.0});
  Rng rng(1);
  EXPECT_EQ(model.floor_ns(1000), 12000u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(model.sample(rng, 1000), 12000u);
  }
}

TEST(LatencyModel, JitterPreservesMean) {
  LatencyModel model(LatencyModelConfig{.base_us = 100.0, .sigma = 0.3});
  Rng rng(2);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    sum += static_cast<double>(model.sample(rng, 0));
  }
  EXPECT_NEAR(sum / n, 100000.0, 1500.0);
}

TEST(LatencyModel, SpikesInflateTail) {
  LatencyModel base(LatencyModelConfig{.base_us = 100.0, .sigma = 0.1});
  LatencyModel spiky(LatencyModelConfig{.base_us = 100.0,
                                        .sigma = 0.1,
                                        .spike_prob = 0.005,
                                        .spike_mean_us = 2000.0});
  Rng rng(3);
  SimTime base_max = 0;
  SimTime spiky_max = 0;
  for (int i = 0; i < 20000; ++i) {
    base_max = std::max(base_max, base.sample(rng, 0));
    spiky_max = std::max(spiky_max, spiky.sample(rng, 0));
  }
  EXPECT_LT(base_max, 300 * kUs);
  EXPECT_GT(spiky_max, 1000 * kUs);
}

// ---------------------------------------------------------------------------
// InlineCallback: the kernel's allocation-free callable.
// ---------------------------------------------------------------------------

TEST(InlineCallback, InvokesCaptureAtExactCapacity) {
  // A capture that fills the inline buffer to the last byte must still fit.
  struct Payload {
    std::array<unsigned char, kInlineCallbackCapacity - sizeof(int*)> bytes;
    int* sink;
  };
  static_assert(sizeof(Payload) == kInlineCallbackCapacity);
  int sum = 0;
  Payload p{};
  p.bytes.fill(1);
  p.sink = &sum;
  auto fn = [p] {
    int s = 0;
    for (const unsigned char b : p.bytes) s += b;
    *p.sink = s;
  };
  static_assert(is_inline_storable_v<decltype(fn)>);
  InlineCallback cb(std::move(fn));
  cb();
  EXPECT_EQ(sum, static_cast<int>(kInlineCallbackCapacity - sizeof(int*)));
}

TEST(InlineCallback, OversizedCaptureIsRejectedAtCompileTime) {
  // One byte past capacity flips the trait; constructing such a callback is
  // a static_assert failure, which is the contract this trait documents.
  struct TooBig {
    std::array<unsigned char, kInlineCallbackCapacity + 1> bytes;
  };
  const auto oversized = [big = TooBig{}] { (void)big; };
  static_assert(!is_inline_storable_v<decltype(oversized)>);
  (void)oversized;
  // boxed() is the escape hatch: one explicit allocation, then it fits.
  static_assert(is_inline_storable_v<decltype(boxed([big = TooBig{}] {
    (void)big;
  }))>);
}

TEST(InlineCallback, MoveOnlyCapturesWork) {
  auto p = std::make_unique<int>(7);
  int got = 0;
  InlineCallback cb([p = std::move(p), &got] { got = *p; });
  InlineCallback moved(std::move(cb));
  EXPECT_FALSE(static_cast<bool>(cb));
  ASSERT_TRUE(static_cast<bool>(moved));
  moved();
  EXPECT_EQ(got, 7);
}

TEST(InlineCallback, MoveAssignDestroysPreviousTarget) {
  auto a_alive = std::make_shared<int>(1);
  std::weak_ptr<int> watch_a = a_alive;
  InlineCallback cb([keep = std::move(a_alive)] { (void)keep; });
  EXPECT_FALSE(watch_a.expired());
  cb = InlineCallback([] {});
  EXPECT_TRUE(watch_a.expired());
  cb();  // the replacement target is the live one
}

TEST(InlineCallback, ResetReleasesCapture) {
  auto alive = std::make_shared<int>(2);
  std::weak_ptr<int> watch = alive;
  InlineCallback cb([keep = std::move(alive)] { (void)keep; });
  cb.reset();
  EXPECT_TRUE(watch.expired());
  EXPECT_FALSE(static_cast<bool>(cb));
}

// ---------------------------------------------------------------------------
// Randomized property test: the kernel against a naive reference model.
// ---------------------------------------------------------------------------

// The reference is deliberately dumb: a flat list scanned for the earliest
// (time, id) pair on every fire.  Anything the slab heap, the slot
// recycling, or the clock rules get wrong shows up as a divergence.
class ReferenceModel {
 public:
  void schedule(SimTime t, std::uint64_t id) { pending_.push_back({t, id}); }

  // Fires everything with time <= `t` in (time, id) order, appending ids to
  // `out`; `on_fire` may schedule more (chained events).  Mirrors
  // `Simulator::run_until`: the clock then advances to `t`.
  void run_until(SimTime t, std::vector<std::uint64_t>* out,
                 const std::function<void(std::uint64_t)>& on_fire = {}) {
    while (fire_next(t, out, on_fire)) {
    }
    if (now_ < t) now_ = t;
  }

  // Mirrors `Simulator::run`: drains, clock stops at the last fired event.
  void run(std::vector<std::uint64_t>* out,
           const std::function<void(std::uint64_t)>& on_fire = {}) {
    while (fire_next(kNoLimit, out, on_fire)) {
    }
  }

  SimTime now() const { return now_; }

 private:
  struct Ref {
    SimTime time;
    std::uint64_t id;
  };
  static constexpr SimTime kNoLimit = static_cast<SimTime>(-1);

  bool fire_next(SimTime t, std::vector<std::uint64_t>* out,
                 const std::function<void(std::uint64_t)>& on_fire) {
    std::size_t best = pending_.size();
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      if (pending_[i].time > t) continue;
      if (best == pending_.size() ||
          pending_[i].time < pending_[best].time ||
          (pending_[i].time == pending_[best].time &&
           pending_[i].id < pending_[best].id)) {
        best = i;
      }
    }
    if (best == pending_.size()) return false;
    const Ref e = pending_[best];
    pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(best));
    now_ = e.time;
    out->push_back(e.id);
    if (on_fire) on_fire(e.id);
    return true;
  }

  std::vector<Ref> pending_;
  SimTime now_ = 0;
};

TEST(SimulatorProperty, RandomInterleavingsMatchReference) {
  for (const std::uint64_t seed : {1ull, 42ull, 0x5eedull, 77777ull}) {
    Rng rng(seed);
    Simulator sim;
    ReferenceModel ref;
    std::vector<std::uint64_t> fired_sim;
    std::vector<std::uint64_t> fired_ref;
    // Tags increase in schedule order, which is exactly the FIFO tie-break
    // the reference model uses.
    std::uint64_t next_tag = 1;

    for (int op = 0; op < 3000; ++op) {
      if (rng.uniform_u64(100) < 70) {
        // Tight time range so equal-timestamp collisions are common and the
        // FIFO tie-break is exercised constantly.
        const SimTime t = sim.now() + rng.uniform_u64(16);
        const std::uint64_t tag = next_tag++;
        sim.schedule_at(t, [&fired_sim, tag] { fired_sim.push_back(tag); });
        ref.schedule(t, tag);
      } else {
        const SimTime t = sim.now() + rng.uniform_u64(24);
        sim.run_until(t);
        ref.run_until(t, &fired_ref);
        ASSERT_EQ(fired_sim, fired_ref) << "seed " << seed << " op " << op;
        ASSERT_EQ(sim.now(), ref.now());
      }
    }
    sim.run();
    ref.run(&fired_ref);
    EXPECT_EQ(fired_sim, fired_ref) << "seed " << seed;
    EXPECT_EQ(sim.now(), ref.now());
    EXPECT_EQ(sim.events_processed(), fired_sim.size());
  }
}

TEST(SimulatorProperty, ChainedSchedulingMatchesReference) {
  for (const std::uint64_t seed : {3ull, 2026ull}) {
    Rng rng(seed);
    Simulator sim;
    ReferenceModel ref;
    std::vector<std::uint64_t> fired_sim;
    std::vector<std::uint64_t> fired_ref;
    std::uint64_t next_sim_tag = 1;
    std::uint64_t next_ref_tag = 1;

    // Every third event chains a follower at fire time; the follower's
    // delay depends only on its parent's tag.  Both sides fire in the same
    // global order, so their tag counters advance in lockstep — any ordering
    // bug desynchronizes the tags immediately.
    std::function<void(std::uint64_t)> fire_sim =
        [&](std::uint64_t tag) {
          fired_sim.push_back(tag);
          if (tag % 3 == 0) {
            const std::uint64_t child = next_sim_tag++;
            sim.schedule_at(sim.now() + tag % 7,
                            [&fire_sim, child] { fire_sim(child); });
          }
        };
    const auto on_ref_fire = [&](std::uint64_t tag) {
      if (tag % 3 == 0) {
        const std::uint64_t child = next_ref_tag++;
        ref.schedule(ref.now() + tag % 7, child);
      }
    };

    for (int i = 0; i < 200; ++i) {
      const SimTime t = rng.uniform_u64(50);
      const std::uint64_t tag = next_sim_tag++;
      next_ref_tag++;
      sim.schedule_at(t, [&fire_sim, tag] { fire_sim(tag); });
      ref.schedule(t, tag);
    }
    sim.run();
    ref.run(&fired_ref, on_ref_fire);
    EXPECT_EQ(fired_sim, fired_ref) << "seed " << seed;
    EXPECT_EQ(sim.now(), ref.now());
  }
}

// ---------------------------------------------------------------------------
// ParallelExecutor: the epoch primitive under the engine.
// ---------------------------------------------------------------------------

TEST(ParallelExecutor, RunsEveryShardOnceAtAnyThreadCount) {
  for (const int threads : {1, 2, 4, 8}) {
    ParallelExecutor exec(threads);
    EXPECT_EQ(exec.threads(), threads);
    constexpr std::size_t kShards = 13;  // more shards than workers
    std::vector<int> hits(kShards, 0);   // distinct slots; join = barrier
    exec.run_epoch(kShards, [&hits](std::size_t s) { hits[s] += 1; });
    EXPECT_EQ(exec.epochs(), 1u);
    for (std::size_t s = 0; s < kShards; ++s) {
      EXPECT_EQ(hits[s], 1) << "shard " << s << " threads " << threads;
    }
  }
}

TEST(ParallelExecutor, ShardResultsIndependentOfThreadCount) {
  // Each shard runs its own simulator; the outputs must not depend on which
  // worker ran the shard or how many ran concurrently.
  const auto run_fleet = [](int threads) {
    ParallelExecutor exec(threads);
    std::vector<std::uint64_t> out(6, 0);
    exec.run_epoch(out.size(), [&out](std::size_t s) {
      Simulator sim;
      Rng rng(1000 + s);
      std::uint64_t acc = 0;
      for (std::uint64_t i = 0; i < 200; ++i) {
        sim.schedule_at(rng.uniform_u64(50),
                        [&acc, i] { acc = acc * 31 + i; });
      }
      sim.run();
      out[s] = acc ^ sim.events_processed() ^ sim.now();
    });
    return out;
  };
  const std::vector<std::uint64_t> sequential = run_fleet(1);
  EXPECT_EQ(sequential, run_fleet(2));
  EXPECT_EQ(sequential, run_fleet(4));
  EXPECT_EQ(sequential, run_fleet(8));
}

TEST(ParallelExecutor, ClampsThreadsAndCountsEpochs) {
  ParallelExecutor exec(0);
  EXPECT_EQ(exec.threads(), 1);
  exec.run_epoch(0, [](std::size_t) { FAIL() << "no shards to run"; });
  EXPECT_EQ(exec.epochs(), 0u);  // a zero-shard call ran no barrier
  exec.run_epoch(3, [](std::size_t) {});
  EXPECT_EQ(exec.epochs(), 1u);
}

TEST(ParallelExecutorDeathTest, RejectsThreadsAboveTheCap) {
  // The cap is checked before any worker is spawned, so the dying child
  // never asks the OS for the threads.
  EXPECT_DEATH(ParallelExecutor(ParallelExecutor::kMaxThreads + 1),
               "too many executor threads");
}

TEST(ParallelExecutor, ShardExceptionRethrownAtTheBarrier) {
  // A throwing shard body must surface on the coordinating thread (not
  // std::terminate a worker), every other shard must still run, and the
  // pool must stay usable for the next epoch.
  for (const int threads : {1, 4}) {
    ParallelExecutor exec(threads);
    constexpr std::size_t kShards = 8;
    std::array<std::atomic<int>, kShards> hits{};
    bool caught = false;
    try {
      exec.run_epoch(kShards, [&hits](std::size_t s) {
        hits[s].fetch_add(1, std::memory_order_relaxed);
        if (s == 3) throw std::runtime_error("shard 3 failed");
      });
    } catch (const std::runtime_error& e) {
      caught = true;
      EXPECT_STREQ(e.what(), "shard 3 failed");
    }
    EXPECT_TRUE(caught) << "threads " << threads;
    for (std::size_t s = 0; s < kShards; ++s) {
      EXPECT_EQ(hits[s].load(), 1) << "shard " << s << " threads " << threads;
    }
    // The pool survives the failed epoch.
    std::atomic<int> ran{0};
    exec.run_epoch(kShards, [&ran](std::size_t) {
      ran.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(ran.load(), static_cast<int>(kShards));
    EXPECT_EQ(exec.epochs(), 2u);
  }
}

}  // namespace
}  // namespace uc::sim
