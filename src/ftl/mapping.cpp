#include "ftl/mapping.h"

#include <cstdint>
#include <memory>

#include "ftl/mapping_dftl.h"
#include "ftl/mapping_hashed.h"
#include "ftl/mapping_learned.h"

namespace uc::ftl {

const char* to_string(MappingKind kind) {
  switch (kind) {
    case MappingKind::kPage:
      return "page";
    case MappingKind::kDftl:
      return "dftl";
    case MappingKind::kHashedGroup:
      return "hashed-group";
    case MappingKind::kLearnedRange:
      return "learned-range";
  }
  return "unknown";
}

Status MappingConfig::validate() const {
  if (cmt_capacity_pages == 0) {
    return Status::invalid_argument("DFTL CMT capacity must be >= 1 page");
  }
  if (translation_page_bytes < 8 || translation_page_bytes % 8 != 0) {
    return Status::invalid_argument(
        "translation page must hold whole 8-byte entries");
  }
  if (group_pages == 0) {
    return Status::invalid_argument("hashed-group needs group_pages >= 1");
  }
  if (min_run_pages < 2) {
    return Status::invalid_argument(
        "learned-range needs runs of at least 2 pages");
  }
  return Status::ok();
}

MappingPolicy::MappingPolicy(const MappingConfig& cfg,
                             std::uint64_t logical_pages)
    : cfg_(cfg), logical_pages_(logical_pages) {
  UC_ASSERT(logical_pages > 0, "mapping needs at least one logical page");
  UC_ASSERT(cfg.validate().is_ok(), "invalid mapping configuration");
}

// ---------------------------------------------------------- page mapping --

PageMapping::PageMapping(const MappingConfig& cfg, std::uint64_t logical_pages)
    : MappingPolicy(cfg, logical_pages), entries_(logical_pages) {}

TranslateResult PageMapping::translate(Lpn lpn) {
  check(lpn);
  account_hit();
  return {entries_[lpn].spa, 0, 0};
}

UpdateResult PageMapping::update(Lpn lpn, flash::Spa spa, WriteStamp stamp) {
  check(lpn);
  account_hit();
  Entry& e = entries_[lpn];
  if (e.stamp > stamp) {
    return {false, flash::kInvalidSpa, 0, 0};
  }
  UpdateResult result{true, e.spa, 0, 0};
  if (e.spa == flash::kInvalidSpa) ++mapped_;
  e.spa = spa;
  e.stamp = stamp;
  return result;
}

UpdateResult PageMapping::invalidate(Lpn lpn, WriteStamp trim_stamp) {
  check(lpn);
  account_hit();
  Entry& e = entries_[lpn];
  UC_ASSERT(trim_stamp >= e.stamp, "trim stamp must be current");
  UpdateResult result{true, e.spa, 0, 0};
  if (e.spa != flash::kInvalidSpa) {
    --mapped_;
    e.spa = flash::kInvalidSpa;
  }
  e.stamp = trim_stamp;
  return result;
}

flash::Spa PageMapping::peek(Lpn lpn) const {
  check(lpn);
  return entries_[lpn].spa;
}

WriteStamp PageMapping::stamp_of(Lpn lpn) const {
  check(lpn);
  return entries_[lpn].stamp;
}

void PageMapping::refresh_stats(MappingStats& out) const {
  out.table_bytes = logical_pages_ * sizeof(Entry);
}

// --------------------------------------------------------------- factory --

std::unique_ptr<MappingPolicy> make_mapping_policy(
    const MappingConfig& cfg, std::uint64_t logical_pages) {
  switch (cfg.kind) {
    case MappingKind::kPage:
      return std::make_unique<PageMapping>(cfg, logical_pages);
    case MappingKind::kDftl:
      return std::make_unique<DftlMapping>(cfg, logical_pages);
    case MappingKind::kHashedGroup:
      return std::make_unique<HashedGroupMapping>(cfg, logical_pages);
    case MappingKind::kLearnedRange:
      return std::make_unique<LearnedRangeMapping>(cfg, logical_pages);
  }
  UC_ASSERT(false, "unknown mapping kind");
  return nullptr;
}

}  // namespace uc::ftl
