#include "ftl/write_buffer.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace uc::ftl {

namespace {

constexpr std::size_t kMinTable = 16;

}  // namespace

WriteBuffer::WriteBuffer(std::uint32_t capacity_slots)
    : capacity_(capacity_slots) {
  UC_ASSERT(capacity_slots > 0, "write buffer needs capacity");
}

WriteBuffer::Entry* WriteBuffer::find(Lpn lpn) {
  return const_cast<Entry*>(std::as_const(*this).find(lpn));
}

const WriteBuffer::Entry* WriteBuffer::find(Lpn lpn) const {
  if (entries_ == 0) return nullptr;
  for (std::size_t i = home(lpn);; i = (i + 1) & mask_) {
    const Entry& e = table_[i];
    if (e.lpn == kEmpty) return nullptr;
    if (e.lpn == lpn) return &e;
  }
}

WriteBuffer::Entry& WriteBuffer::add(Lpn lpn) {
  UC_ASSERT(lpn < kEmpty, "write buffer stores 32-bit LPNs");
  UC_DCHECK(find(lpn) == nullptr, "add of a buffered LPN");
  if (std::size_t{entries_ + 1} * 2 > table_.size()) grow();
  ++entries_;
  std::size_t i = home(lpn);
  while (table_[i].lpn != kEmpty) i = (i + 1) & mask_;
  table_[i] = Entry{};
  table_[i].lpn = static_cast<std::uint32_t>(lpn);
  return table_[i];
}

void WriteBuffer::erase(Entry& e) {
  auto hole = static_cast<std::size_t>(&e - table_.data());
  // An entry moves into the hole unless its home lies cyclically inside
  // (hole, j], where it must stay.
  for (std::size_t j = (hole + 1) & mask_; table_[j].lpn != kEmpty;
       j = (j + 1) & mask_) {
    const std::size_t h = home(table_[j].lpn);
    if (((j - h) & mask_) >= ((j - hole) & mask_)) {
      table_[hole] = table_[j];
      hole = j;
    }
  }
  table_[hole].lpn = kEmpty;
  --entries_;
}

void WriteBuffer::grow() {
  const std::vector<Entry> old = std::exchange(
      table_, std::vector<Entry>(std::max(kMinTable, table_.size() * 2)));
  mask_ = table_.size() - 1;
  shift_ = 64;
  for (std::size_t s = table_.size(); s > 1; s >>= 1) --shift_;
  for (const Entry& e : old) {
    if (e.lpn == kEmpty) continue;
    std::size_t i = home(e.lpn);
    while (table_[i].lpn != kEmpty) i = (i + 1) & mask_;
    table_[i] = e;
  }
}

bool WriteBuffer::try_insert(Lpn lpn, WriteStamp stamp) {
  if (Entry* found = find(lpn); found != nullptr) {
    Entry& e = *found;
    UC_DCHECK(stamp > e.latest_stamp, "stamps must increase per LPN");
    e.latest_stamp = stamp;
    e.discarded = false;
    if (e.dirty) {
      // Overwrite coalesces in place: no new copy, no new FIFO entry.
      return true;
    }
    if (occupied_ >= capacity_) return false;
    e.dirty = true;
    ++occupied_;
    ++dirty_;
    dirty_fifo_.push_back(lpn);
    return true;
  }
  if (occupied_ >= capacity_) return false;
  Entry& e = add(lpn);
  e.latest_stamp = stamp;
  e.dirty = true;
  ++occupied_;
  ++dirty_;
  dirty_fifo_.push_back(lpn);
  return true;
}

std::uint32_t WriteBuffer::take_flush_batch(std::uint32_t max_slots,
                                            std::vector<FlushItem>& out) {
  std::uint32_t taken = 0;
  while (taken < max_slots && !dirty_fifo_.empty()) {
    const Lpn lpn = dirty_fifo_.front();
    dirty_fifo_.pop_front();
    Entry* e = find(lpn);
    if (e == nullptr || !e->dirty) continue;  // stale entry
    e->dirty = false;
    e->inflight += 1;
    --dirty_;
    out.push_back(FlushItem{lpn, e->latest_stamp});
    ++taken;
  }
  return taken;
}

void WriteBuffer::batch_programmed(const std::vector<FlushItem>& batch) {
  for (const FlushItem& item : batch) {
    Entry* e = find(item.lpn);
    UC_ASSERT(e != nullptr, "programmed slot missing from buffer");
    UC_ASSERT(e->inflight > 0, "programmed slot was not in flight");
    e->inflight -= 1;
    UC_ASSERT(occupied_ > 0, "buffer occupancy underflow");
    --occupied_;
    if (e->inflight == 0 && !e->dirty) erase(*e);
  }
}

std::optional<WriteStamp> WriteBuffer::read_lookup(Lpn lpn) const {
  const Entry* e = find(lpn);
  if (e == nullptr) return std::nullopt;
  if (e->discarded && !e->dirty) return std::nullopt;
  return e->latest_stamp;
}

void WriteBuffer::discard(Lpn lpn) {
  Entry* e = find(lpn);
  if (e == nullptr) return;
  if (e->dirty) {
    e->dirty = false;
    UC_ASSERT(dirty_ > 0 && occupied_ > 0, "buffer accounting underflow");
    --dirty_;
    --occupied_;
  }
  if (e->inflight == 0) {
    erase(*e);
    return;
  }
  e->discarded = true;
}

}  // namespace uc::ftl
