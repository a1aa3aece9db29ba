#include "flash/nand_array.h"

#include <cstddef>
#include <cstdint>

namespace uc::flash {

NandArray::NandArray(const FlashGeometry& geometry, const FlashTiming& timing,
                     Rng /*rng*/)
    : geometry_(geometry), timing_(timing) {
  UC_ASSERT(geometry_.validate().is_ok(), "invalid flash geometry");
  dies_.resize(static_cast<std::size_t>(geometry_.total_dies()));
  channels_.reserve(static_cast<std::size_t>(geometry_.channels));
  for (int c = 0; c < geometry_.channels; ++c) {
    channels_.emplace_back(timing_.channel_mbps);
  }
}

NandOpResult NandArray::read_page(SimTime now, int die,
                                  std::uint32_t transfer_bytes) {
  return read_row(now, die, 1, transfer_bytes);
}

NandOpResult NandArray::read_row(SimTime now, int die, int pages,
                                 std::uint32_t bytes_per_page) {
  UC_ASSERT(die >= 0 && die < geometry_.total_dies(), "die out of range");
  UC_ASSERT(pages >= 1 && pages <= geometry_.planes_per_die,
            "multi-plane read bounded by planes per die");
  Die& d = dies_[static_cast<std::size_t>(die)];
  // Program suspend: the read does not wait for an in-flight program but
  // pays the suspend grant penalty.
  SimTime sense = timing_.read_ns();
  if (d.program_unit.busy_until() > now) {
    sense += timing_.suspend_penalty_ns();
  }
  const SimTime sensed = d.read_port.acquire(now, sense);
  sim::BandwidthPipe& bus = channels_[static_cast<std::size_t>(
      geometry_.channel_of_die(die))];
  SimTime done = sensed;
  for (int p = 0; p < pages; ++p) {
    done = bus.transfer(done, bytes_per_page);
  }
  counters_.page_reads += static_cast<std::uint64_t>(pages);
  counters_.read_bytes +=
      static_cast<std::uint64_t>(pages) * bytes_per_page;
  return {done};
}

NandOpResult NandArray::program_row(SimTime now, int die, int pages) {
  UC_ASSERT(die >= 0 && die < geometry_.total_dies(), "die out of range");
  UC_ASSERT(pages >= 1 && pages <= geometry_.planes_per_die,
            "multi-plane program bounded by planes per die");
  Die& d = dies_[static_cast<std::size_t>(die)];
  sim::BandwidthPipe& bus = channels_[static_cast<std::size_t>(
      geometry_.channel_of_die(die))];
  SimTime transferred = now;
  for (int p = 0; p < pages; ++p) {
    transferred = bus.transfer(transferred, geometry_.page_bytes);
  }
  const SimTime done = d.program_unit.acquire(transferred, timing_.program_ns());
  counters_.row_programs += 1;
  counters_.programmed_bytes +=
      static_cast<std::uint64_t>(pages) * geometry_.page_bytes;
  return {done};
}

NandOpResult NandArray::erase_on_die(SimTime now, int die) {
  UC_ASSERT(die >= 0 && die < geometry_.total_dies(), "die out of range");
  Die& d = dies_[static_cast<std::size_t>(die)];
  const SimTime done = d.program_unit.acquire(now, timing_.erase_ns());
  counters_.superblock_die_erases += 1;
  return {done};
}

}  // namespace uc::flash
