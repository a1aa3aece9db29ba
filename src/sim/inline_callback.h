#pragma once

/// \file inline_callback.h
/// Fixed-capacity, allocation-free callback type for the event kernel.
///
/// `InlineCallback` is a move-only `void()` callable with `kCapacity` bytes
/// of inline storage and **no heap fallback**: a capture that does not fit
/// is a compile error, not a hidden allocation.  The simulator stores one
/// per event-slab slot, so steady-state scheduling on the hot paths (kernel
/// timers, `QueuedResource` dispatch, fabric/cleaner continuations, replay
/// arrivals) performs zero allocations per event.
///
/// Call sites whose state is genuinely larger than the capacity opt into a
/// single explicit allocation with `sim::boxed(...)` — the cost is visible
/// at the call site instead of buried inside `std::function`.

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace uc::sim {

/// Inline capture budget, sized for the hot-path continuations (a `this`
/// pointer plus a handful of scalars, a `std::function`, or a 32-byte trace
/// event with its timestamps).  Raising it grows every event slab slot.
inline constexpr std::size_t kInlineCallbackCapacity = 48;

/// True when `F` can live inside an `InlineCallback` without allocating.
/// Exposed so tests (and call sites picking between direct capture and
/// `boxed()`) can assert the decision at compile time.
template <typename F>
inline constexpr bool is_inline_storable_v =
    sizeof(std::decay_t<F>) <= kInlineCallbackCapacity &&
    alignof(std::decay_t<F>) <= alignof(std::max_align_t) &&
    std::is_nothrow_move_constructible_v<std::decay_t<F>> &&
    std::is_invocable_r_v<void, std::decay_t<F>&>;

class InlineCallback {
 public:
  static constexpr std::size_t kCapacity = kInlineCallbackCapacity;

  InlineCallback() = default;

  /// Implicit so call sites keep reading `schedule_at(t, [..]{...})`.
  template <typename F, typename = std::enable_if_t<!std::is_same_v<
                            std::decay_t<F>, InlineCallback>>>
  InlineCallback(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    assert_storable<Fn>();
    ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
    ops_ = &kOps<Fn>;
  }

  InlineCallback(InlineCallback&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(other.buf_, buf_);
      other.ops_ = nullptr;
    }
  }

  InlineCallback& operator=(InlineCallback&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(other.buf_, buf_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;

  ~InlineCallback() { reset(); }

  /// Destroys the held callable (releasing its captured resources); the
  /// callback becomes empty.
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  /// Constructs `f` directly in the inline buffer, destroying any previous
  /// target first.  The event slab uses this so scheduling builds the
  /// capture in its final resting place — no intermediate relocation.
  template <typename F, typename = std::enable_if_t<!std::is_same_v<
                            std::decay_t<F>, InlineCallback>>>
  void emplace(F&& f) {
    using Fn = std::decay_t<F>;
    assert_storable<Fn>();
    reset();
    ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
    ops_ = &kOps<Fn>;
  }

  /// Invokes the target and destroys it in ONE indirect call — the
  /// per-event dispatch of the kernel's fire path.  The callback is empty
  /// afterwards; the target is destroyed even if it throws.  Precondition:
  /// non-empty.
  void invoke_and_dispose() {
    const Ops* ops = ops_;
    ops_ = nullptr;
    ops->invoke_destroy(buf_);
  }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  void operator()() { ops_->invoke(buf_); }

 private:
  /// Shared compile-time capture contract, enforced on EVERY construction
  /// path (converting constructor and `emplace`, which the simulator's
  /// `schedule_at` template calls directly) so an oversized capture can
  /// never placement-new past `buf_` into the adjacent slab slot.
  template <typename Fn>
  static constexpr void assert_storable() {
    static_assert(sizeof(Fn) <= kCapacity,
                  "callback capture exceeds InlineCallback capacity: shrink "
                  "the capture, or wrap it in sim::boxed(...) to make the "
                  "allocation explicit");
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "callback capture is over-aligned for inline storage");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "callback captures must be nothrow-movable (the event "
                  "slab relocates them)");
    static_assert(std::is_invocable_r_v<void, Fn&>,
                  "callback must be invocable as void()");
  }

  struct Ops {
    void (*invoke)(void* self);
    void (*invoke_destroy)(void* self);
    void (*relocate)(void* src, void* dst) noexcept;
    void (*destroy)(void* self) noexcept;
  };

  template <typename Fn>
  static void invoke_impl(void* self) {
    (*static_cast<Fn*>(self))();
  }
  template <typename Fn>
  static void invoke_destroy_impl(void* self) {
    Fn* f = static_cast<Fn*>(self);
    struct Dispose {  // destroys on the exception path too
      Fn* f;
      ~Dispose() { f->~Fn(); }
    } dispose{f};
    (*f)();
  }
  template <typename Fn>
  static void relocate_impl(void* src, void* dst) noexcept {
    Fn* from = static_cast<Fn*>(src);
    ::new (dst) Fn(std::move(*from));
    from->~Fn();
  }
  template <typename Fn>
  static void destroy_impl(void* self) noexcept {
    static_cast<Fn*>(self)->~Fn();
  }

  template <typename Fn>
  static constexpr Ops kOps{&invoke_impl<Fn>, &invoke_destroy_impl<Fn>,
                            &relocate_impl<Fn>, &destroy_impl<Fn>};

  alignas(std::max_align_t) unsigned char buf_[kCapacity];
  const Ops* ops_ = nullptr;
};

/// Boxes an oversized callable behind one explicit heap allocation so it
/// fits an `InlineCallback` (the wrapper is a single `unique_ptr`).  Use at
/// cold or per-op call sites whose captures exceed the inline budget; hot
/// per-event paths should shrink their captures instead.
template <typename F>
auto boxed(F&& f) {
  return [p = std::make_unique<std::decay_t<F>>(std::forward<F>(f))] {
    (*p)();
  };
}

}  // namespace uc::sim
