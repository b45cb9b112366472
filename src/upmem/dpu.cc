#include "upmem/dpu.h"

#include "common/error.h"

namespace vpim::upmem {

void Dpu::load(const DpuKernel& kernel) {
  VPIM_CHECK(kernel.iram_bytes <= kIramSize, "binary does not fit in IRAM");
  kernel_ = &kernel;
  symbols_.clear();
  std::uint32_t symbol_bytes = 0;
  for (const SymbolDecl& decl : kernel.symbols) {
    VPIM_CHECK(decl.size > 0, "zero-sized symbol: " + decl.name);
    symbols_.emplace(decl.name, std::vector<std::uint8_t>(decl.size, 0));
    symbol_bytes += decl.size;
  }
  VPIM_CHECK(symbol_bytes <= kWramSize, "symbols exceed WRAM");
  wram_heap_size_ = kWramSize - symbol_bytes;
}

std::string_view Dpu::loaded_kernel_name() const {
  return kernel_ ? std::string_view(kernel_->name) : std::string_view{};
}

SimNs Dpu::run(std::uint32_t nr_tasklets, const CostModel& cost) {
  VPIM_CHECK(kernel_ != nullptr, "launch without a loaded binary");
  DpuCtx ctx(*this, nr_tasklets, cost);
  std::uint64_t total_cycles = 0;
  for (const StageFn& stage : kernel_->stages) {
    ctx.begin_stage();
    for (std::uint32_t t = 0; t < nr_tasklets; ++t) {
      ctx.set_tasklet(t);
      stage(ctx);
    }
    total_cycles += ctx.stage_cycles();
  }
  return cost.dpu_cycles_time(total_cycles);
}

std::span<std::uint8_t> Dpu::symbol_bytes(std::string_view name) {
  auto it = symbols_.find(name);
  VPIM_CHECK(it != symbols_.end(), "unknown symbol: " + std::string(name));
  return {it->second.data(), it->second.size()};
}

void Dpu::reset() {
  mram_.clear();
  kernel_ = nullptr;
  symbols_.clear();
  wram_heap_size_ = kWramSize;
}

}  // namespace vpim::upmem
