#pragma once

/// \file parallel.h
/// Shard-per-thread parallel execution for the discrete-event engine.
///
/// One `Simulator` is inherently sequential: every event mutates shared
/// model state, so the loop cannot be split.  What *can* be split is the
/// fleet: clusters interact only through rare placement/migration
/// decisions, so each cluster group ("shard") gets its own `Simulator` and
/// advances independently between synchronization points.
///
/// `ParallelExecutor` supplies exactly one primitive: an **epoch** — run
/// every shard's body once on a bounded worker pool, then join.  The join
/// is the epoch barrier; anything that must see a globally consistent view
/// (clock alignment, placement decisions, result merging) runs on the
/// coordinating thread between epochs.  Nothing crosses shards *inside* an
/// epoch, which is what makes the scheme deterministic:
///
/// - a shard's body always executes whole, single-threaded, on one worker;
/// - the thread count only changes *which* worker runs a shard and how many
///   run concurrently — never what a shard computes;
/// - so per-shard results are bit-identical at every thread count, and the
///   determinism suite can pin them with one digest per shard.
///
/// The worker pool is **persistent**: `threads - 1` workers are created in
/// the constructor and parked on a generation-counted condvar barrier; the
/// coordinating thread claims shards alongside them.  Epoch-sliced
/// execution (`placement::ShardedHost` under rebalancing) crosses the
/// barrier once per slice x partition — thousands of times per run — so
/// the dispatch cost is a wake + join, never a `std::thread` spawn
/// (`BM_ParallelEpochBarrier` tracks it).  An exception thrown by a shard
/// body — on any thread — is captured, the remaining shards still run (so
/// the pool parks in a consistent state), and the *first* captured
/// exception is rethrown from `run_epoch` on the coordinating thread after
/// the barrier.
///
/// See docs/ARCHITECTURE.md ("Threading model") for the shard partitioning
/// rules and where the barriers sit in the placement layer.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace uc::sim {

class ParallelExecutor {
 public:
  /// Most worker threads one executor may run.  A fleet has at most one
  /// shard per cluster, so more threads than this only cost OS threads;
  /// the CLIs reject a larger `--threads`.
  static constexpr int kMaxThreads = 256;

  /// `threads` < 1 is clamped to 1 (sequential); above `kMaxThreads` is a
  /// caller bug and asserts.  Spawns `threads - 1` persistent workers; no
  /// thread is ever created after construction.
  explicit ParallelExecutor(int threads = 1);
  ~ParallelExecutor();
  ParallelExecutor(const ParallelExecutor&) = delete;
  ParallelExecutor& operator=(const ParallelExecutor&) = delete;

  int threads() const { return threads_; }
  /// Barriers crossed so far — one per `run_epoch` call that had shards to
  /// run (an empty epoch performs no work and is not counted).
  std::uint64_t epochs() const { return epochs_; }

  /// One epoch: `body(shard)` runs exactly once for every shard in
  /// [0, shards); returns only after every body finished (the barrier).
  /// With one thread or one shard, bodies run inline in ascending order.
  /// Otherwise the parked workers wake and claim ascending indices off a
  /// shared counter alongside the coordinating thread; each body still runs
  /// whole on a single thread.  If any body throws, the remaining shards
  /// still run and the first captured exception is rethrown here after the
  /// barrier.
  void run_epoch(std::size_t shards,
                 const std::function<void(std::size_t)>& body);

 private:
  void worker_loop();
  /// Claims shards off `next_` until exhausted, capturing the first thrown
  /// exception; shared by the workers and the coordinating thread.
  void drain_shards();

  int threads_;
  std::uint64_t epochs_ = 0;

  // Epoch barrier state; everything but the claim counter is guarded by
  // `mu_`.  `epoch_seq_` is the generation the condvar waits on, so a
  // spurious wake (or a worker that missed a whole epoch) resolves by
  // comparing generations, never by consuming a token.
  std::mutex mu_;
  std::condition_variable cv_work_;  ///< coordinator -> workers: new epoch
  std::condition_variable cv_done_;  ///< workers -> coordinator: all parked
  std::uint64_t epoch_seq_ = 0;
  std::size_t working_ = 0;  ///< workers not yet parked this epoch
  std::size_t shards_ = 0;
  const std::function<void(std::size_t)>* body_ = nullptr;
  std::exception_ptr first_error_;
  bool stop_ = false;
  std::atomic<std::size_t> next_{0};  ///< shard claim counter
  std::vector<std::thread> workers_;
};

}  // namespace uc::sim
