#include "upmem/dpu.h"

#include "common/error.h"

namespace vpim::upmem {

void Dpu::load(const DpuKernel& kernel) {
  VPIM_CHECK(kernel.iram_bytes <= kIramSize, "binary does not fit in IRAM");
  const std::uint32_t symbol_bytes = kernel.wram_symbol_bytes();
  std::size_t block_bytes = 0;
  for (const SymbolDecl& decl : kernel.symbols) {
    block_bytes += wram_slot_bytes(decl.size);
  }
  WramBlock block(block_bytes);
  for (const SymbolDecl& decl : kernel.symbols) block.carve(decl.size);
  kernel_ = &kernel;
  symbols_ = std::move(block);
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
  VPIM_CHECK(kernel_ != nullptr, "unknown symbol: " + std::string(name));
  std::size_t offset = 0;
  for (const SymbolDecl& decl : kernel_->symbols) {
    if (decl.name == name) return symbols_.at(offset, decl.size);
    offset += wram_slot_bytes(decl.size);
  }
  fail("unknown symbol: " + std::string(name));
}

void Dpu::reset() {
  mram_.clear();
  kernel_ = nullptr;
  symbols_ = {};
  wram_heap_size_ = kWramSize;
}

}  // namespace vpim::upmem
