// One vUPMEM device: the virtqueue pair shared by the guest driver
// (frontend) and the Firecracker device model (backend), plus shared
// instrumentation.
#pragma once

#include <string>

#include "common/obs/obs.h"
#include "virtio/device_state.h"
#include "virtio/pim_spec.h"
#include "virtio/virtqueue.h"
#include "vpim/backend.h"
#include "vpim/frontend.h"

namespace vpim::core {

struct VupmemDevice {
  VupmemDevice(vmm::Vmm& vmm, driver::UpmemDriver& drv, Manager& manager,
               const VpimConfig& config, std::string tag, obs::Hub& obs)
      : transferq(virtio::kTransferQueueSize),
        controlq(virtio::kControlQueueSize),
        backend(vmm, drv, manager, config, transferq, controlq, state,
                stats, tag, obs),
        frontend(vmm, backend, transferq, controlq, state, config, stats,
                 tag, obs),
        stats_collector(obs.metrics.add_collector(
            [this, tag](obs::Collection& out) { collect(out, tag); })) {}

  virtio::Virtqueue transferq;
  virtio::Virtqueue controlq;
  // Status register + feature negotiation; the PIM device offers no
  // feature bits (Appendix A.1).
  virtio::DeviceState state{0};
  DeviceStats stats;
  Backend backend;
  Frontend frontend;
  // Publishes the live DeviceStats into the metrics registry on every
  // export; unregisters itself when the device is destroyed.
  obs::MetricsRegistry::CollectorHandle stats_collector;

 private:
  void collect(obs::Collection& out, const std::string& tag) const {
    const obs::Labels dev = {{"device", tag}};
    out.counter("vpim_requests_total", dev, stats.requests);
    out.counter("vpim_device_doorbells_total", dev, stats.doorbells);
    out.counter("vpim_device_coalesced_notifies_total", dev,
                stats.coalesced_notifies);
    out.counter("vpim_device_cache_hits_total", dev, stats.cache_hits);
    out.counter("vpim_device_cache_misses_total", dev, stats.cache_misses);
    out.counter("vpim_device_cache_fills_total", dev, stats.cache_fills);
    out.counter("vpim_device_batched_writes_total", dev,
                stats.batched_writes);
    out.counter("vpim_device_batch_flushes_total", dev,
                stats.batch_flushes);
    out.counter("vpim_device_emulated_binds_total", dev,
                stats.emulated_binds);
    out.counter("vpim_device_request_errors_total", dev,
                stats.request_errors);
    out.counter("vpim_device_fault_retries_total", dev,
                stats.fault_retries);
    out.counter("vpim_device_fault_migrations_total", dev,
                stats.fault_migrations);
    out.counter("vpim_device_fault_failures_total", dev,
                stats.fault_failures);
    out.counter("vpim_device_dropped_completions_total", dev,
                stats.dropped_completions);
    out.counter("vpim_device_poll_timeouts_total", dev,
                stats.poll_timeouts);
    out.counter("vpim_device_admission_rejects_total", dev,
                stats.admission_rejects);
    out.counter("vpim_device_would_blocks_total", dev, stats.would_blocks);
    out.counter("vpim_device_cancelled_total", dev, stats.cancelled);
    out.counter("vpim_device_deadline_shed_total", dev, stats.deadline_shed);
    out.counter("vpim_device_lost_batched_writes_total", dev,
                stats.lost_batched_writes);
  }
};

}  // namespace vpim::core
