#pragma once

/// \file mapping_dftl.h
/// DFTL-style demand-paged mapping (Gupta et al., ASPLOS '09): the full
/// page-level table lives on flash in translation pages of
/// `translation_page_bytes / 8` entries each; a small cached mapping
/// table (CMT) holds `cmt_capacity_pages` of them in DRAM with LRU
/// eviction.  Accessing an LPN whose translation page is not cached is a
/// miss: the caller charges one real flash read (`flash_reads = 1`), and
/// if the evicted page was dirty it must be written back first
/// (`evict_writebacks`).  A global translation directory (GTD, 8 bytes
/// per translation page) is pinned in DRAM, so
/// `table_bytes = cached_pages * tp_bytes + num_tps * 8` — orders of
/// magnitude below the flat map for large devices.
///
/// Correctness is carried by a backing exact table (the simulator's view
/// of what is on flash); the CMT only decides *when a miss is charged*.

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "ftl/mapping.h"

namespace uc::ftl {

class DftlMapping final : public MappingPolicy {
 public:
  DftlMapping(const MappingConfig& cfg, std::uint64_t logical_pages);

  MappingKind kind() const override { return MappingKind::kDftl; }
  TranslateResult translate(Lpn lpn) override;
  UpdateResult update(Lpn lpn, flash::Spa spa, WriteStamp stamp) override;
  UpdateResult invalidate(Lpn lpn, WriteStamp trim_stamp) override;
  flash::Spa peek(Lpn lpn) const override;
  WriteStamp stamp_of(Lpn lpn) const override;

  std::uint64_t cached_translation_pages() const { return cmt_.size(); }
  std::uint64_t translation_pages() const { return num_tps_; }

 private:
  struct CmtSlot {
    std::list<std::uint64_t>::iterator lru_it;
    bool dirty = false;
  };

  std::uint64_t tp_of(Lpn lpn) const { return lpn / tp_entries_; }
  /// Touches the translation page for `lpn`: LRU update on hit, fault +
  /// possible dirty eviction on miss.  Returns the flash reads to charge
  /// (0 on hit, 1 on miss) and accounts the access.
  std::uint32_t touch(std::uint64_t tp, bool mutate);
  void refresh_stats(MappingStats& out) const override;

  std::uint64_t tp_entries_ = 0;
  std::uint64_t num_tps_ = 0;
  std::vector<Entry> entries_;  ///< the table as it exists on flash
  std::list<std::uint64_t> lru_;  ///< front = most recent
  std::unordered_map<std::uint64_t, CmtSlot> cmt_;
};

}  // namespace uc::ftl
