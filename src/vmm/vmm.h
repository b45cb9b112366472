// Firecracker-like VMM shell: one Vmm instance per microVM, owning the
// guest memory, the vCPU configuration, and the virtio event loop (§3.2).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/cost_model.h"
#include "common/sim_clock.h"
#include "guest/guest_memory.h"
#include "vmm/event_loop.h"

namespace vpim::vmm {

struct VmmParams {
  std::string name = "vm";
  std::uint32_t vcpus = 16;
  // Real backing for guest RAM; sized for the workload rather than the
  // paper's nominal 128 GB VMs.
  std::uint64_t guest_ram_bytes = 512 * kMiB;
};

class Vmm {
 public:
  // `parallel_handling` selects vPIM's parallel operation handling for the
  // event loop (Table 2 column 4).
  Vmm(const VmmParams& params, SimClock& clock, const CostModel& cost,
      bool parallel_handling)
      : params_(params),
        clock_(clock),
        cost_(cost),
        memory_(params.guest_ram_bytes),
        loop_(clock, cost, parallel_handling) {}

  const std::string& name() const { return params_.name; }
  std::uint32_t vcpus() const { return params_.vcpus; }
  guest::GuestMemory& memory() { return memory_; }
  EventLoop& loop() { return loop_; }
  SimClock& clock() { return clock_; }
  const CostModel& cost() const { return cost_; }

  // Boots the microVM with `nr_virtio_devices` attached vUPMEM devices;
  // returns the boot duration (base microVM boot + ~2 ms per device, §3.2).
  SimNs boot(std::uint32_t nr_virtio_devices) {
    const SimNs start = clock_.now();
    clock_.advance(cost_.vm_boot_base_ns);
    clock_.advance(nr_virtio_devices * cost_.vupmem_boot_ns);
    booted_ = true;
    return clock_.now() - start;
  }

  bool booted() const { return booted_; }

 private:
  VmmParams params_;
  SimClock& clock_;
  const CostModel& cost_;
  guest::GuestMemory memory_;
  EventLoop loop_;
  bool booted_ = false;
};

}  // namespace vpim::vmm
