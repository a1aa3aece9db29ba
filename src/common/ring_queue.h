#pragma once

/// \file ring_queue.h
/// FIFO queue over a power-of-two ring in one vector.
///
/// Unlike `std::deque`, which allocates a block every few elements as the
/// queue slides forward, the ring allocates only when it grows past its
/// peak depth, so a queue at steady state pushes and pops for free.
///
/// Growing moves every element, so a caller never holds a reference to an
/// element across a `push_back`.

#include <cstddef>
#include <utility>
#include <vector>

namespace uc {

template <typename T>
class RingQueue {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  T& front() { return slots_[head_]; }

  void push_back(T value) {
    if (size_ == slots_.size()) grow();
    slots_[(head_ + size_) & (slots_.size() - 1)] = std::move(value);
    ++size_;
  }

  /// Drops the front element (its slot is reset, releasing what it held).
  void pop_front() {
    slots_[head_] = T{};
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
  }

 private:
  void grow() {
    std::vector<T> grown(slots_.empty() ? 8 : 2 * slots_.size());
    for (std::size_t i = 0; i < size_; ++i) {
      grown[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    }
    slots_ = std::move(grown);
    head_ = 0;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace uc
