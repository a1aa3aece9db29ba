#pragma once

/// \file token_bucket.h
/// Token-bucket rate limiter operating on simulated time.
///
/// This is the enforcement mechanism behind the ESSD's provisioned budgets
/// (Observation 4: total throughput deterministically pinned at the
/// guaranteed value).  The bucket is a pure function of the simulated clock —
/// refill is computed lazily on each call, so no periodic refill events are
/// needed and the bucket composes cheaply with the event-driven devices.

#include <cstdint>

#include "common/status.h"
#include "common/types.h"

namespace uc {

class TokenBucket {
 public:
  /// `rate_per_s` tokens accrue per simulated second, up to `capacity`
  /// (the burst allowance).  The bucket starts full.
  TokenBucket(double rate_per_s, double capacity)
      : rate_per_ns_(rate_per_s / 1e9), capacity_(capacity), tokens_(capacity) {
    UC_ASSERT(rate_per_s > 0.0, "token bucket rate must be positive");
    UC_ASSERT(capacity > 0.0, "token bucket capacity must be positive");
  }

  /// Consumes `n` tokens if available at `now`; returns success.
  bool try_consume(SimTime now, double n) {
    refill(now);
    if (tokens_ + 1e-9 < n) return false;
    tokens_ -= n;
    return true;
  }

  /// Unconditionally consumes `n` tokens, allowing the balance to go
  /// negative (deficit accounting).  Useful when a request must be admitted
  /// whole but should delay subsequent requests.
  void consume_with_debt(SimTime now, double n) {
    refill(now);
    tokens_ -= n;
  }

  /// Nanoseconds until `n` tokens will be available (0 if available now).
  SimTime delay_until_available(SimTime now, double n) {
    refill(now);
    if (tokens_ + 1e-9 >= n) return 0;
    const double deficit = n - tokens_;
    return static_cast<SimTime>(deficit / rate_per_ns_) + 1;
  }

  /// Current balance (may be negative under debt accounting).
  double tokens(SimTime now) {
    refill(now);
    return tokens_;
  }

  double capacity() const { return capacity_; }

 private:
  void refill(SimTime now) {
    if (now <= last_refill_) return;
    const double accrued =
        static_cast<double>(now - last_refill_) * rate_per_ns_;
    tokens_ = tokens_ + accrued > capacity_ ? capacity_ : tokens_ + accrued;
    last_refill_ = now;
  }

  double rate_per_ns_;
  double capacity_;
  double tokens_;
  SimTime last_refill_ = 0;
};

}  // namespace uc
