// One DRAM Processing Unit: 64 MiB MRAM bank, 64 KiB WRAM, 24 KiB IRAM,
// up to 24 tasklets (§2, Fig 1).
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "common/cost_model.h"
#include "common/units.h"
#include "upmem/kernel.h"
#include "upmem/layout.h"
#include "upmem/mram.h"
#include "upmem/wram_block.h"

namespace vpim::upmem {

class Dpu {
 public:
  MramBank& mram() { return mram_; }
  const MramBank& mram() const { return mram_; }

  // Loads a registered kernel ("binary") into IRAM and lays out its
  // host-visible WRAM symbols. Validates first: a kernel that is rejected
  // leaves the previous binary and its symbol values untouched.
  void load(const DpuKernel& kernel);
  bool loaded() const { return kernel_ != nullptr; }
  std::string_view loaded_kernel_name() const;

  // Runs the loaded kernel with `nr_tasklets` tasklets and returns the
  // modeled execution duration. The computation happens eagerly; callers
  // model asynchrony by deferring visibility until the finish time.
  SimNs run(std::uint32_t nr_tasklets, const CostModel& cost);

  // Host access to a WRAM symbol (control-interface path, and a kernel's
  // first use of a name in each launch; DpuCtx keeps what it resolved).
  // Symbols sit in one block in the loaded kernel's declaration order, so
  // a lookup scans its 1-3 declarations instead of a per-DPU name map.
  std::span<std::uint8_t> symbol_bytes(std::string_view name);

  // WRAM left for the tasklet heap after symbol storage.
  std::uint32_t wram_heap_size() const { return wram_heap_size_; }

  // Fully clears DPU state (rank reset).
  void reset();

 private:
  MramBank mram_;
  const DpuKernel* kernel_ = nullptr;
  WramBlock symbols_;  // kernel_->symbols, carved in declaration order
  std::uint32_t wram_heap_size_ = kWramSize;
};

}  // namespace vpim::upmem
