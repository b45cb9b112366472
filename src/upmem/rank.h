// One UPMEM rank: up to 64 DPUs behind a control interface (§2). The
// paper's testbed exposes 60 functional DPUs per rank (defective DPUs are
// fused off), which we reproduce.
//
// Control-interface (CI) calls model the hardware registers: they mutate
// device state but charge no time themselves — each *access path* (native
// perf-mode mmap, safe-mode ioctl, or the vPIM virtio round trip) charges
// its own calibrated cost, which is exactly the asymmetry the paper
// measures.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/cost_model.h"
#include "common/fault.h"
#include "common/obs/obs.h"
#include "common/sim_clock.h"
#include "upmem/dpu.h"

namespace vpim::upmem {

class Rank {
 public:
  Rank(std::uint32_t index, std::uint32_t functional_dpus,
       const SimClock& clock, const CostModel& cost);

  std::uint32_t index() const { return index_; }
  std::uint32_t nr_dpus() const {
    return static_cast<std::uint32_t>(dpus_.size());
  }
  std::uint64_t all_dpus_mask() const {
    return nr_dpus() == 64 ? ~0ULL : ((1ULL << nr_dpus()) - 1);
  }

  Dpu& dpu(std::uint32_t i);
  const Dpu& dpu(std::uint32_t i) const;

  // --- Control interface ------------------------------------------------
  // Loads a registered kernel into every functional DPU.
  void ci_load(std::string_view kernel_name);
  // Starts the loaded kernel on the masked DPUs; `nr_tasklets` overrides
  // the kernel's default when set.
  void ci_launch(std::uint64_t dpu_mask,
                 std::optional<std::uint32_t> nr_tasklets = std::nullopt);
  // DPUs still running at the current virtual time.
  std::uint64_t ci_running_mask() const;
  bool ci_any_running() const { return ci_running_mask() != 0; }
  // Virtual time at which the last launch fully drains.
  SimNs busy_until() const { return busy_until_; }

  // Host access to per-DPU WRAM symbols (CI path). Rejected while the DPU
  // is running, like touching live hardware would be.
  void ci_copy_to_symbol(std::uint32_t dpu, std::string_view symbol,
                         std::uint32_t offset,
                         std::span<const std::uint8_t> data);
  void ci_copy_from_symbol(std::uint32_t dpu, std::string_view symbol,
                           std::uint32_t offset, std::span<std::uint8_t> out);

  // MRAM access used by the driver mappings; rejected mid-launch.
  MramBank& mram(std::uint32_t dpu);

  // Snapshot of one rank's full software-visible state: whole DPU copies
  // (MRAM pages shared copy-on-write, so a snapshot is nearly free in real
  // memory; the loaded binary; WRAM symbol values). Loading one is the only
  // way rank state is copied: §7 pause/resume parks a snapshot, and rank
  // migration loads the source's snapshot into the target. Both ranks must
  // be idle.
  struct Snapshot {
    std::vector<Dpu> dpus;
  };
  Snapshot save_snapshot() const;
  void load_snapshot(Snapshot snapshot);

  // Clears all DPU state (manager reset path; time charged by the caller).
  void reset_memory();

  // --- Fault injection ---------------------------------------------------
  // Installed by PimMachine; consulted only at the serial entry of
  // ci_launch, so injected faults are thread-count invariant.
  void set_fault_plan(FaultPlan* plan) { fault_plan_ = plan; }

  // Observability hub (installed by PimMachine, may stay null in unit
  // tests). ci_launch records a rank.launch span plus one dpu.compute span
  // per masked DPU when a tracer is attached.
  void set_obs(obs::Hub* hub) { obs_ = hub; }

  // Permanent rank death: the control interface and DMA windows stop
  // responding. MRAM content stays recoverable through save_snapshot (the
  // chips hold data; only the rank-level pipeline is gone).
  void fail() { failed_ = true; }
  bool failed() const { return failed_; }
  // Throws FaultError(kRankDeath) if the rank has died.
  void check_alive() const;

 private:
  void check_not_running(std::uint32_t dpu) const;

  std::uint32_t index_;
  const SimClock& clock_;
  const CostModel& cost_;
  std::vector<Dpu> dpus_;
  std::vector<SimNs> finish_time_;
  SimNs busy_until_ = 0;
  FaultPlan* fault_plan_ = nullptr;
  obs::Hub* obs_ = nullptr;
  bool failed_ = false;
};

}  // namespace vpim::upmem
