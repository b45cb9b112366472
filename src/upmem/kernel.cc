#include "upmem/kernel.h"

#include <algorithm>

#include "upmem/dpu.h"
#include "upmem/mram_copy.h"

namespace vpim::upmem {

namespace {
// Fixed setup cost of one MRAM DMA transfer, in DPU cycles. Real hardware
// pays a roughly constant engine-programming cost per transfer on top of
// the streaming time.
constexpr std::uint64_t kDmaFixedCycles = 64;

// The WRAM heap of every launch on this host thread. A stage carves at
// most wram_heap_size() <= kWramSize raw bytes, and a non-empty slice
// occupies at most (8 + kWramRedzone) times its size.
thread_local WramBlock t_heap((8 + kWramRedzone) * kWramSize);
}  // namespace

DpuCtx::DpuCtx(Dpu& dpu, std::uint32_t nr_tasklets, const CostModel& cost)
    : dpu_(dpu),
      nr_tasklets_(nr_tasklets),
      dma_cycles_per_byte_(cost.dpu_hz / (cost.mram_dma_gbps * 1e9)),
      heap_(t_heap),
      instr_(nr_tasklets) {
  VPIM_CHECK(nr_tasklets >= 1 && nr_tasklets <= kMaxTasklets,
             "tasklet count out of range");
}

std::span<std::uint8_t> DpuCtx::mem_alloc(std::uint32_t bytes) {
  VPIM_CHECK(bytes <= dpu_.wram_heap_size() - heap_used_,
             "WRAM heap exhausted");
  heap_used_ += bytes;
  return heap_.carve(bytes);
}

namespace {
// Whether a DMA of `size` bytes at `mram_addr` touches exactly one page.
// Empty DMAs take the bank path, which accepts one at the end of the bank.
bool in_one_page(std::uint64_t mram_addr, std::size_t size) {
  return size > 0 && mram_addr % kMramPageSize + size <= kMramPageSize;
}
}  // namespace

void DpuCtx::mram_read(std::uint64_t mram_addr,
                       std::span<std::uint8_t> wram_buf) {
  VPIM_CHECK(wram_buf.size() <= kWramSize, "DMA larger than WRAM");
  if (in_one_page(mram_addr, wram_buf.size())) {
    const std::uint64_t page = mram_addr / kMramPageSize;
    if (page != window_page_) {
      window_ = dpu_.mram().page_bytes(page).data();
      window_writable_ = nullptr;
      window_page_ = page;
    }
    mram_copy(wram_buf.data(), window_ + mram_addr % kMramPageSize,
              wram_buf.size());
  } else {
    dpu_.mram().read(mram_addr, wram_buf);
  }
  charge_dma(wram_buf.size());
}

void DpuCtx::mram_write(std::span<const std::uint8_t> wram_buf,
                        std::uint64_t mram_addr) {
  VPIM_CHECK(wram_buf.size() <= kWramSize, "DMA larger than WRAM");
  if (in_one_page(mram_addr, wram_buf.size())) {
    const std::uint64_t page = mram_addr / kMramPageSize;
    if (page != window_page_ || window_writable_ == nullptr) {
      window_writable_ = dpu_.mram().writable_page_bytes(page).data();
      window_ = window_writable_;
      window_page_ = page;
    }
    mram_copy(window_writable_ + mram_addr % kMramPageSize, wram_buf.data(),
              wram_buf.size());
  } else {
    // The write may copy-on-write or materialize the window's page.
    window_page_ = kNoPage;
    dpu_.mram().write(mram_addr, wram_buf);
  }
  charge_dma(wram_buf.size());
}

void DpuCtx::charge_dma(std::size_t bytes) {
  instr_[tasklet_] +=
      kDmaFixedCycles + static_cast<std::uint64_t>(
                            dma_cycles_per_byte_ * static_cast<double>(bytes));
}

std::span<std::uint8_t> DpuCtx::symbol_bytes(SymbolLiteral name) {
  const char* const key = name.view().data();
  for (std::size_t i = 0; i < nr_resolved_; ++i) {
    if (resolved_[i].name == key) return resolved_[i].bytes;
  }
  const std::span<std::uint8_t> bytes = dpu_.symbol_bytes(name.view());
  if (nr_resolved_ < resolved_.size()) {
    resolved_[nr_resolved_++] = {key, bytes};
  }
  return bytes;
}

void DpuCtx::begin_stage() {
  std::fill(instr_.begin(), instr_.end(), 0);
  // Stage-local WRAM buffers are released at the barrier: kernels declare
  // them as per-stage statics on real hardware. Cross-stage communication
  // goes through symbols or MRAM.
  heap_used_ = 0;
  heap_.reset();
}

std::uint64_t DpuCtx::stage_cycles() const {
  std::uint64_t sum = 0;
  std::uint64_t mx = 0;
  for (std::uint64_t c : instr_) {
    sum += c;
    mx = std::max(mx, c);
  }
  // One instruction retires per cycle when the pipeline is full; with fewer
  // than kPipelineDepth busy tasklets, each tasklet's instructions are
  // spaced kPipelineDepth cycles apart and the slowest tasklet bounds the
  // stage (§2 hardware constraint).
  return std::max(sum, kPipelineDepth * mx);
}

KernelRegistry& KernelRegistry::instance() {
  static KernelRegistry registry;
  return registry;
}

std::uint32_t DpuKernel::wram_symbol_bytes() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    VPIM_CHECK(symbols[i].size > 0, "zero-sized symbol: " + symbols[i].name);
    for (std::size_t j = 0; j < i; ++j) {
      VPIM_CHECK(symbols[j].name != symbols[i].name,
                 "duplicate symbol: " + symbols[i].name);
    }
    total += symbols[i].size;
  }
  VPIM_CHECK(total <= kWramSize, "symbols exceed WRAM");
  return static_cast<std::uint32_t>(total);
}

void KernelRegistry::add(DpuKernel kernel) {
  VPIM_CHECK(!kernel.name.empty(), "kernel needs a name");
  VPIM_CHECK(kernel.iram_bytes <= kIramSize, "kernel does not fit in IRAM");
  VPIM_CHECK(!kernel.stages.empty(), "kernel needs at least one stage");
  (void)kernel.wram_symbol_bytes();  // throws on a bad symbol table
  kernels_.insert_or_assign(kernel.name, std::move(kernel));
}

const DpuKernel& KernelRegistry::get(std::string_view name) const {
  auto it = kernels_.find(name);
  VPIM_CHECK(it != kernels_.end(),
             "unknown DPU binary: " + std::string(name));
  return it->second;
}

bool KernelRegistry::contains(std::string_view name) const {
  return kernels_.contains(name);
}

}  // namespace vpim::upmem
