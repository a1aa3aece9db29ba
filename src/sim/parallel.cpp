#include "sim/parallel.h"

#include <utility>

#include "common/status.h"

namespace uc::sim {

ParallelExecutor::ParallelExecutor(int threads)
    : threads_(threads < 1 ? 1 : threads) {
  UC_ASSERT(threads_ <= kMaxThreads, "too many executor threads");
  // `threads - 1` pool workers: the coordinating thread is the remaining
  // worker, so `threads_` bodies can run concurrently while dispatch stays
  // a condvar wake instead of a per-epoch thread spawn.
  workers_.reserve(static_cast<std::size_t>(threads_ - 1));
  for (int w = 1; w < threads_; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ParallelExecutor::~ParallelExecutor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& w : workers_) w.join();
}

void ParallelExecutor::drain_shards() {
  // Chunk-free claiming: shard runtimes are wildly uneven (one busy cluster
  // can dominate), so threads pull one shard at a time off a shared counter
  // instead of pre-splitting ranges.
  for (;;) {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= shards_) return;
    try {
      (*body_)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!first_error_) first_error_ = std::current_exception();
    }
  }
}

void ParallelExecutor::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_work_.wait(lock, [&] { return stop_ || epoch_seq_ != seen; });
      if (stop_) return;
      seen = epoch_seq_;
    }
    drain_shards();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --working_;
    }
    cv_done_.notify_one();
  }
}

void ParallelExecutor::run_epoch(
    std::size_t shards, const std::function<void(std::size_t)>& body) {
  if (shards == 0) return;  // no barrier ran; not a counted epoch
  ++epochs_;
  if (workers_.empty() || shards == 1) {
    // Inline path, same exception semantics as the pooled one: every shard
    // still runs, the first failure is rethrown at the end.
    std::exception_ptr first;
    for (std::size_t i = 0; i < shards; ++i) {
      try {
        body(i);
      } catch (...) {
        if (!first) first = std::current_exception();
      }
    }
    if (first) std::rethrow_exception(first);
    return;
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    shards_ = shards;
    body_ = &body;
    first_error_ = nullptr;
    next_.store(0, std::memory_order_relaxed);
    working_ = workers_.size();
    ++epoch_seq_;  // publishes body_/shards_ to the workers (same mutex)
  }
  cv_work_.notify_all();
  drain_shards();  // the coordinating thread claims shards too
  std::exception_ptr error;
  {
    // The join is the epoch barrier: every worker must park again before
    // run_epoch returns, so no worker can still touch `body` (or a shard's
    // state) once the coordinator proceeds.
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [&] { return working_ == 0; });
    body_ = nullptr;
    error = std::exchange(first_error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace uc::sim
