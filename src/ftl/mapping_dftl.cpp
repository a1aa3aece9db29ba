#include "ftl/mapping_dftl.h"

#include <cstdint>

namespace uc::ftl {

DftlMapping::DftlMapping(const MappingConfig& cfg, std::uint64_t logical_pages)
    : MappingPolicy(cfg, logical_pages), entries_(logical_pages) {
  tp_entries_ = cfg_.translation_page_bytes / 8;
  num_tps_ = (logical_pages + tp_entries_ - 1) / tp_entries_;
  cmt_.reserve(cfg_.cmt_capacity_pages);
}

std::uint32_t DftlMapping::touch(std::uint64_t tp, bool mutate) {
  if (auto it = cmt_.find(tp); it != cmt_.end()) {
    account_hit();
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    it->second.dirty |= mutate;
    return 0;
  }
  account_miss();
  if (cmt_.size() >= cfg_.cmt_capacity_pages) {
    const std::uint64_t victim = lru_.back();
    lru_.pop_back();
    auto vit = cmt_.find(victim);
    UC_ASSERT(vit != cmt_.end(), "CMT out of sync with its LRU list");
    if (vit->second.dirty) ++stats_.evict_writebacks;
    cmt_.erase(vit);
  }
  lru_.push_front(tp);
  cmt_.emplace(tp, CmtSlot{lru_.begin(), mutate});
  return 1;
}

TranslateResult DftlMapping::translate(Lpn lpn) {
  check(lpn);
  const std::uint64_t tp = tp_of(lpn);
  const std::uint32_t reads = touch(tp, /*mutate=*/false);
  return {entries_[lpn].spa, reads, tp};
}

UpdateResult DftlMapping::update(Lpn lpn, flash::Spa spa, WriteStamp stamp) {
  check(lpn);
  const std::uint64_t tp = tp_of(lpn);
  Entry& e = entries_[lpn];
  if (e.stamp > stamp) {
    // A rejected update still had to consult the translation page.
    const std::uint32_t reads = touch(tp, /*mutate=*/false);
    return {false, flash::kInvalidSpa, reads, tp};
  }
  const std::uint32_t reads = touch(tp, /*mutate=*/true);
  UpdateResult result{true, e.spa, reads, tp};
  if (e.spa == flash::kInvalidSpa) ++mapped_;
  e.spa = spa;
  e.stamp = stamp;
  return result;
}

UpdateResult DftlMapping::invalidate(Lpn lpn, WriteStamp trim_stamp) {
  check(lpn);
  const std::uint64_t tp = tp_of(lpn);
  Entry& e = entries_[lpn];
  UC_ASSERT(trim_stamp >= e.stamp, "trim stamp must be current");
  const std::uint32_t reads = touch(tp, /*mutate=*/true);
  UpdateResult result{true, e.spa, reads, tp};
  if (e.spa != flash::kInvalidSpa) {
    --mapped_;
    e.spa = flash::kInvalidSpa;
  }
  e.stamp = trim_stamp;
  return result;
}

flash::Spa DftlMapping::peek(Lpn lpn) const {
  check(lpn);
  return entries_[lpn].spa;
}

WriteStamp DftlMapping::stamp_of(Lpn lpn) const {
  check(lpn);
  return entries_[lpn].stamp;
}

void DftlMapping::refresh_stats(MappingStats& out) const {
  out.table_bytes =
      cmt_.size() * cfg_.translation_page_bytes + num_tps_ * 8;
}

}  // namespace uc::ftl
