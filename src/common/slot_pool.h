#pragma once

/// \file slot_pool.h
/// Index-addressed pool of per-I/O state for continuation chains.
///
/// A chain claims a slot for the state it carries from hop to hop, and each
/// continuation captures only `{this, slot}`: 16 trivially copyable bytes,
/// which `std::function` stores inline.  Once the pool has grown to the
/// peak number of chains in flight, a hop allocates nothing.
///
/// Slots live in a vector that grows on `claim()`, so a caller indexes the
/// pool afresh after any call that can claim a slot and never holds a
/// reference across one.  A slot's fields are whatever its last user left;
/// the claimer assigns every field it reads.

#include <cstdint>
#include <vector>

namespace uc {

template <typename T>
class SlotPool {
 public:
  std::uint32_t claim() {
    if (free_.empty()) {
      slots_.emplace_back();
      return static_cast<std::uint32_t>(slots_.size() - 1);
    }
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }

  void release(std::uint32_t slot) { free_.push_back(slot); }

  T& operator[](std::uint32_t slot) { return slots_[slot]; }

 private:
  std::vector<T> slots_;
  std::vector<std::uint32_t> free_;
};

}  // namespace uc
