// Shared helpers for PrIM host programs and DPU kernels.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/error.h"
#include "sdk/dpu_set.h"

namespace vpim::prim {

// [begin, end) of partition `i` when `total` items are split over `parts`.
inline std::pair<std::uint64_t, std::uint64_t> partition(
    std::uint64_t total, std::uint32_t parts, std::uint32_t i) {
  const std::uint64_t base = total / parts;
  const std::uint64_t extra = total % parts;
  const std::uint64_t begin = i * base + std::min<std::uint64_t>(i, extra);
  const std::uint64_t len = base + (i < extra ? 1 : 0);
  return {begin, begin + len};
}

inline std::uint64_t round_up8(std::uint64_t x) { return (x + 7) / 8 * 8; }

template <typename T>
std::span<T> as(std::span<std::uint8_t> bytes) {
  return {reinterpret_cast<T*>(bytes.data()), bytes.size() / sizeof(T)};
}

template <typename T>
std::span<const std::uint8_t> bytes_of(const T& v) {
  return {reinterpret_cast<const std::uint8_t*>(&v), sizeof(T)};
}
template <typename T>
std::span<std::uint8_t> bytes_of(T& v) {
  return {reinterpret_cast<std::uint8_t*>(&v), sizeof(T)};
}

// Pushes one per-DPU value into a WRAM symbol (parallel push of a small
// variable, like DPU_XFER_TO_DPU on a host variable).
template <typename T>
void push_symbol(sdk::DpuSet& set, const std::string& symbol,
                 std::vector<T>& per_dpu) {
  VPIM_CHECK(per_dpu.size() == set.nr_dpus(), "one value per DPU required");
  for (std::uint32_t d = 0; d < set.nr_dpus(); ++d) {
    set.prepare_xfer(d, reinterpret_cast<std::uint8_t*>(&per_dpu[d]));
  }
  set.push_xfer(driver::XferDirection::kToRank,
                sdk::Target::symbol(symbol), sizeof(T));
}

}  // namespace vpim::prim
