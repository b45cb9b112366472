// A booted microVM with vUPMEM devices attached — the unit cloud users get
// (§3.2/§3.3: resources, including the number of vUPMEM devices, are
// declared to the Firecracker API server at VM-create time).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/error.h"
#include "vmm/vmm.h"
#include "vpim/config.h"
#include "vpim/device.h"
#include "vpim/host.h"

namespace vpim::core {

class VpimVm {
 public:
  VpimVm(Host& host, vmm::VmmParams params, std::uint32_t nr_vupmem_devices,
         const VpimConfig& config = VpimConfig::full())
      : config_(config) {
    vmm_ = std::make_unique<vmm::Vmm>(params, host.clock, host.cost,
                                      config.parallel_handling);
    boot_duration_ = vmm_->boot(nr_vupmem_devices);
    devices_.reserve(nr_vupmem_devices);
    for (std::uint32_t i = 0; i < nr_vupmem_devices; ++i) {
      devices_.push_back(std::make_unique<VupmemDevice>(
          *vmm_, host.drv, host.manager, config,
          params.name + "/vupmem" + std::to_string(i), host.obs));
    }
  }

  vmm::Vmm& vmm() { return *vmm_; }
  std::uint32_t nr_devices() const {
    return static_cast<std::uint32_t>(devices_.size());
  }
  VupmemDevice& device(std::uint32_t i) {
    VPIM_CHECK(i < devices_.size(), "device index out of range");
    return *devices_[i];
  }
  SimNs boot_duration() const { return boot_duration_; }
  const VpimConfig& config() const { return config_; }

 private:
  VpimConfig config_;
  std::unique_ptr<vmm::Vmm> vmm_;
  std::vector<std::unique_ptr<VupmemDevice>> devices_;
  SimNs boot_duration_ = 0;
};

}  // namespace vpim::core
