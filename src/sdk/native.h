// Native (non-virtualized) execution environment: the SDK binds rank
// devices straight to performance-mode mappings, exactly how the paper runs
// its "native" baseline (§5.1, "the native is run in performance mode").
#pragma once

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/units.h"
#include "common/zero_pages.h"
#include "driver/driver.h"
#include "sdk/platform.h"

namespace vpim::sdk {

class NativePlatform : public Platform {
 public:
  NativePlatform(driver::UpmemDriver& drv, std::string app_name);

  std::vector<std::unique_ptr<RankDevice>> alloc_ranks(
      std::uint32_t nr_ranks) override;
  std::span<std::uint8_t> alloc(std::size_t bytes) override;
  SimClock& clock() override { return drv_.machine().clock(); }
  const CostModel& cost() const override { return drv_.machine().cost(); }

  driver::UpmemDriver& drv() { return drv_; }

 private:
  driver::UpmemDriver& drv_;
  std::string app_name_;
  // Application buffers of kOwnMappingBytes and more get a demand-zero
  // mapping of their own; smaller ones live on the malloc heap, where the
  // next run reuses what this one freed. Left to malloc, a buffer that
  // large lands on the heap or in a mapping of its own depending on glibc's
  // dynamic mmap threshold, that is on the sizes of earlier, unrelated
  // allocations, and that choice alone moved peak RSS by up to 12%.
  static constexpr std::size_t kOwnMappingBytes = 8 * kMiB;
  std::deque<std::vector<std::uint8_t>> heap_arena_;
  std::deque<ZeroPages> mapped_arena_;
};

}  // namespace vpim::sdk
