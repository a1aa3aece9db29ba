#pragma once

/// \file timing.h
/// NAND operation timing parameters.

#include <cstdint>

#include "common/types.h"
#include "common/units.h"

namespace uc::flash {

struct FlashTiming {
  double read_us = 48.0;     ///< tR: array sense, per (multi-plane) read
  double program_us = 660.0; ///< tProg: per (multi-plane) program
  double erase_us = 3500.0;  ///< tBERS: per (multi-plane) block erase
  double channel_mbps = 560.0;         ///< half-duplex per-channel bus
  double suspend_penalty_us = 12.0;    ///< extra read latency when the die is
                                       ///< mid-program (program-suspend grant)

  SimTime read_ns() const { return static_cast<SimTime>(read_us * 1e3); }
  SimTime program_ns() const { return static_cast<SimTime>(program_us * 1e3); }
  SimTime erase_ns() const { return static_cast<SimTime>(erase_us * 1e3); }
  SimTime suspend_penalty_ns() const {
    return static_cast<SimTime>(suspend_penalty_us * 1e3);
  }
};

}  // namespace uc::flash
