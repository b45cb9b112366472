#include "sdk/native.h"

#include "common/error.h"

namespace vpim::sdk {

namespace {

class NativeRankDevice : public RankDevice {
 public:
  explicit NativeRankDevice(driver::RankMapping mapping)
      : mapping_(std::move(mapping)) {}

  std::uint32_t nr_dpus() override { return mapping_.nr_dpus(); }

  void load(std::string_view kernel_name) override {
    mapping_.ci_load(kernel_name);
  }
  void launch(std::uint64_t dpu_mask,
              std::optional<std::uint32_t> nr_tasklets) override {
    mapping_.ci_launch(dpu_mask, nr_tasklets);
  }
  std::uint64_t running_mask() override {
    return mapping_.ci_running_mask();
  }
  void transfer(const driver::TransferMatrix& matrix) override {
    mapping_.transfer(matrix);
  }
  void broadcast(std::uint64_t mram_offset,
                 std::span<const std::uint8_t> data) override {
    mapping_.broadcast(mram_offset, data);
  }
  void copy_to_symbol(std::uint32_t dpu, std::string_view symbol,
                      std::uint32_t offset,
                      std::span<const std::uint8_t> data) override {
    mapping_.ci_copy_to_symbol(dpu, symbol, offset, data);
  }
  void copy_from_symbol(std::uint32_t dpu, std::string_view symbol,
                        std::uint32_t offset,
                        std::span<std::uint8_t> out) override {
    mapping_.ci_copy_from_symbol(dpu, symbol, offset, out);
  }
  void push_symbols(driver::XferDirection dir, std::string_view symbol,
                    std::uint32_t offset, std::span<std::uint8_t> packed,
                    std::uint32_t bytes_per_dpu) override {
    // Perf mode writes each DPU's CI slot directly within one SDK call.
    const auto n =
        static_cast<std::uint32_t>(packed.size() / bytes_per_dpu);
    for (std::uint32_t d = 0; d < n; ++d) {
      std::span<std::uint8_t> value(
          packed.data() + std::uint64_t{d} * bytes_per_dpu,
          bytes_per_dpu);
      if (dir == driver::XferDirection::kToRank) {
        mapping_.ci_copy_to_symbol(d, symbol, offset, value);
      } else {
        mapping_.ci_copy_from_symbol(d, symbol, offset, value);
      }
    }
  }

 private:
  driver::RankMapping mapping_;
};

}  // namespace

NativePlatform::NativePlatform(driver::UpmemDriver& drv, std::string app_name)
    : drv_(drv), app_name_(std::move(app_name)) {}

std::vector<std::unique_ptr<RankDevice>> NativePlatform::alloc_ranks(
    std::uint32_t nr_ranks) {
  std::vector<std::unique_ptr<RankDevice>> out;
  for (std::uint32_t r = 0;
       r < drv_.machine().nr_ranks() && out.size() < nr_ranks; ++r) {
    if (drv_.is_mapped(r) || drv_.sysfs().read(r).in_use) continue;
    out.push_back(std::make_unique<NativeRankDevice>(
        drv_.map_rank(r, app_name_)));
  }
  VPIM_CHECK(out.size() == nr_ranks, "not enough free ranks on the host");
  return out;
}

std::span<std::uint8_t> NativePlatform::alloc(std::size_t bytes) {
  if (bytes >= kOwnMappingBytes) {
    mapped_arena_.emplace_back(bytes);
    return {mapped_arena_.back().data(), bytes};
  }
  heap_arena_.emplace_back(bytes, 0);
  return {heap_arena_.back().data(), bytes};
}

}  // namespace vpim::sdk
