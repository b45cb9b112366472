// DPU kernels shared by test suites.
#pragma once

#include <cstring>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sdk/dpu_set.h"
#include "upmem/kernel.h"

namespace vpim::test {

// Fig 2-style kernel: counts zero 32-bit words in the DPU's partition.
// Streams MRAM through a 2 KiB WRAM block like a real DPU program.
inline void register_count_zeros() {
  using upmem::DpuCtx;
  auto& registry = upmem::KernelRegistry::instance();
  if (registry.contains("test_count_zeros")) return;
  upmem::DpuKernel k;
  k.name = "test_count_zeros";
  k.symbols = {{"zero_count", 4}, {"partition_size", 4}};
  k.stages.push_back([](DpuCtx& ctx) {
    if (ctx.me() == 0) ctx.var<std::uint32_t>("zero_count") = 0;
  });
  k.stages.push_back([](DpuCtx& ctx) {
    const std::uint32_t bytes = ctx.var<std::uint32_t>("partition_size");
    const std::uint32_t n = bytes / 4;
    const std::uint32_t per = (n + ctx.nr_tasklets() - 1) / ctx.nr_tasklets();
    const std::uint32_t begin = ctx.me() * per;
    const std::uint32_t end = std::min(n, begin + per);
    if (begin >= end) return;
    constexpr std::uint32_t kBlockWords = 512;
    auto buf = ctx.mem_alloc(kBlockWords * 4);
    std::uint32_t zeros = 0;
    for (std::uint32_t w = begin; w < end; w += kBlockWords) {
      const std::uint32_t blk = std::min(kBlockWords, end - w);
      ctx.mram_read(w * 4, buf.first(blk * 4));
      for (std::uint32_t i = 0; i < blk; ++i) {
        std::int32_t v;
        std::memcpy(&v, buf.data() + i * 4, 4);
        if (v == 0) ++zeros;
      }
    }
    ctx.exec(end - begin);
    ctx.var<std::uint32_t>("zero_count") += zeros;
  });
  registry.add(std::move(k));
}

// A kernel that keeps its DPUs running for 1M cycles, for tests of host
// access to a busy DPU.
inline void register_busy_kernel() {
  auto& registry = upmem::KernelRegistry::instance();
  if (registry.contains("test_busy")) return;
  upmem::DpuKernel k;
  k.name = "test_busy";
  k.stages.push_back([](upmem::DpuCtx& ctx) { ctx.exec(1'000'000); });
  registry.add(std::move(k));
}

// Byte view of a u32 lvalue, for symbol copies in tests.
inline std::span<std::uint8_t> bytes_u32(std::uint32_t& v) {
  return {reinterpret_cast<std::uint8_t*>(&v), 4};
}

// Runs the count-zeros application end-to-end on any platform (native or
// guest); returns {computed, expected}. This is the Fig 2 workflow:
// alloc -> load -> distribute -> launch -> collect -> free.
inline std::pair<std::uint32_t, std::uint32_t> run_count_zeros(
    sdk::Platform& platform, std::uint32_t nr_dpus,
    std::uint32_t words_per_dpu, std::uint64_t seed) {
  register_count_zeros();
  auto set = sdk::DpuSet::allocate(platform, nr_dpus);
  set.load("test_count_zeros");

  Rng rng(seed);
  auto data = platform.alloc(
      static_cast<std::size_t>(nr_dpus) * words_per_dpu * 4);
  std::uint32_t expected = 0;
  for (std::uint64_t i = 0; i < std::uint64_t{nr_dpus} * words_per_dpu;
       ++i) {
    std::int32_t v =
        (i % 5 == 0) ? 0 : static_cast<std::int32_t>(rng.uniform(1, 1 << 30));
    std::memcpy(data.data() + i * 4, &v, 4);
    if (v == 0) ++expected;
  }

  const std::uint32_t partition_bytes = words_per_dpu * 4;
  for (std::uint32_t d = 0; d < nr_dpus; ++d) {
    set.prepare_xfer(d, data.data() + std::uint64_t{d} * partition_bytes);
  }
  set.push_xfer(driver::XferDirection::kToRank, sdk::Target::mram(0),
                partition_bytes);
  std::vector<std::uint32_t> sizes(nr_dpus, partition_bytes);
  for (std::uint32_t d = 0; d < nr_dpus; ++d) {
    set.prepare_xfer(d, reinterpret_cast<std::uint8_t*>(&sizes[d]));
  }
  set.push_xfer(driver::XferDirection::kToRank,
                sdk::Target::symbol("partition_size"), 4);

  set.launch(16);

  std::uint32_t total = 0;
  for (std::uint32_t d = 0; d < nr_dpus; ++d) {
    std::uint32_t v = 0;
    set.copy_from(d, sdk::Target::symbol("zero_count"),
                  {reinterpret_cast<std::uint8_t*>(&v), 4});
    total += v;
  }
  set.free();
  return {total, expected};
}

}  // namespace vpim::test
