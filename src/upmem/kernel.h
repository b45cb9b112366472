// DPU-side programming model.
//
// Real UPMEM DPU programs are separate binaries compiled for the DPU ISA and
// loaded into IRAM. In this simulator a "binary" is a named DpuKernel: a
// sequence of *stages*, each executed by every tasklet (SPMD). A stage
// boundary is an implicit barrier, which is how UPMEM kernels use
// barrier_wait in practice (init stage / compute stage / reduce stage).
//
// Kernels do real computation against real MRAM/WRAM contents and charge
// DPU cycles through DpuCtx, so both results and DPU-segment timing are
// meaningful. The cycle model follows the §2 pipeline constraint: one
// instruction issued per cycle overall, and consecutive instructions of one
// tasklet at least kPipelineDepth cycles apart.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/cost_model.h"
#include "common/error.h"
#include "upmem/layout.h"
#include "upmem/wram_block.h"

namespace vpim::upmem {

class Dpu;

struct SymbolDecl {
  std::string name;
  std::uint32_t size = 0;  // bytes (WRAM symbols only)
};

// A WRAM symbol name as a kernel spells it: a string literal, or a
// constexpr pointer to one. The constructor is consteval, so the
// characters are immutable static data and two names at one address are
// the same name; DpuCtx resolves a repeated name by comparing addresses.
class SymbolLiteral {
 public:
  // Implicit, so kernels write ctx.var<T>("name").
  consteval SymbolLiteral(const char* name) : name_(name) {}
  std::string_view view() const { return name_; }

 private:
  std::string_view name_;
};

// Execution context handed to each tasklet.
class DpuCtx {
 public:
  DpuCtx(Dpu& dpu, std::uint32_t nr_tasklets, const CostModel& cost);

  std::uint32_t me() const { return tasklet_; }
  std::uint32_t nr_tasklets() const { return nr_tasklets_; }

  // Bump allocation from the shared 64 KiB WRAM heap (mem_alloc in the
  // SDK): zero-filled, 8-byte aligned, released at every stage barrier.
  // Throws once the stage's raw bytes exceed Dpu::wram_heap_size(). Slices
  // are carved from one host buffer per host thread, reused across
  // launches (see wram_block.h for the layout and ASan redzones).
  std::span<std::uint8_t> mem_alloc(std::uint32_t bytes);

  // MRAM <-> WRAM DMA; charges DMA cycles to the calling tasklet. A DMA
  // inside one page goes through the DMA window: the bytes of the page the
  // launch touched last, kept for the whole Dpu::run (DESIGN.md).
  void mram_read(std::uint64_t mram_addr, std::span<std::uint8_t> wram_buf);
  void mram_write(std::span<const std::uint8_t> wram_buf,
                  std::uint64_t mram_addr);

  // Typed access to a host-visible WRAM symbol. Tasklets of one DPU share
  // symbol storage, like UPMEM __host variables.
  template <typename T>
  T& var(SymbolLiteral name, std::uint32_t index = 0) {
    return vars<T>(name, index, 1)[0];
  }

  // Elements [first, first + count) of a WRAM symbol array: one symbol
  // lookup for a loop that would otherwise call var() per element.
  template <typename T>
  std::span<T> vars(SymbolLiteral name, std::uint32_t first,
                    std::uint32_t count) {
    auto bytes = symbol_bytes(name);
    VPIM_CHECK((std::uint64_t{first} + count) * sizeof(T) <= bytes.size(),
               "symbol access out of bounds");
    return {reinterpret_cast<T*>(bytes.data()) + first, count};
  }

  // The first use of a name in this launch resolves it through
  // Dpu::symbol_bytes; later uses of the same literal compare addresses.
  std::span<std::uint8_t> symbol_bytes(SymbolLiteral name);

  // Charges `instructions` pipeline instructions to the calling tasklet.
  // Kernels call this alongside their real C++ computation so the DPU
  // segment time scales with the work done.
  void exec(std::uint64_t instructions) { instr_[tasklet_] += instructions; }

  // --- used by Dpu::run ----------------------------------------------
  void begin_stage();
  void set_tasklet(std::uint32_t t) { tasklet_ = t; }
  // Stage duration in cycles under the pipeline model.
  std::uint64_t stage_cycles() const;

 private:
  void charge_dma(std::size_t bytes);

  Dpu& dpu_;
  std::uint32_t nr_tasklets_;
  const double dma_cycles_per_byte_;
  std::uint32_t tasklet_ = 0;
  std::uint32_t heap_used_ = 0;  // raw bytes mem_alloc'd this stage
  WramBlock& heap_;              // this host thread's heap buffer
  std::vector<std::uint64_t> instr_;  // per-tasklet issued instructions

  // The DMA window. Nothing but this launch touches the bank while it runs,
  // so the page's bytes stay the bank's until the launch itself writes
  // around the window; a writable page stays this bank's alone.
  static constexpr std::uint64_t kNoPage = ~0ULL;
  std::uint64_t window_page_ = kNoPage;
  const std::uint8_t* window_ = nullptr;
  std::uint8_t* window_writable_ = nullptr;  // null while read-only

  // Symbols this launch resolved, keyed by the address of their literal.
  // Kernels declare 1-3 symbols; a name past the last entry is resolved on
  // every use, as before.
  struct ResolvedSymbol {
    const char* name = nullptr;
    std::span<std::uint8_t> bytes;
  };
  std::array<ResolvedSymbol, 4> resolved_{};
  std::size_t nr_resolved_ = 0;
};

using StageFn = std::function<void(DpuCtx&)>;

struct DpuKernel {
  std::string name;
  std::vector<SymbolDecl> symbols;   // WRAM symbols
  std::vector<StageFn> stages;       // implicit barrier between stages
  std::uint32_t iram_bytes = 4096;   // modeled binary size (must fit IRAM)

  // Total WRAM the symbols declare. Throws on a zero-sized or duplicate
  // symbol, or a total beyond kWramSize.
  std::uint32_t wram_symbol_bytes() const;
};

// Global registry standing in for on-disk DPU binaries: dpu_load() resolves
// the binary path to a registered kernel by name.
class KernelRegistry {
 public:
  static KernelRegistry& instance();

  void add(DpuKernel kernel);
  const DpuKernel& get(std::string_view name) const;
  bool contains(std::string_view name) const;

 private:
  std::map<std::string, DpuKernel, std::less<>> kernels_;
};

}  // namespace vpim::upmem
