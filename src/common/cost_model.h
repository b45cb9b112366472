// Calibrated virtual-time cost model.
//
// Every latency/bandwidth the simulator charges lives here, documented with
// the paper evidence it was calibrated against (see DESIGN.md §4). Benches
// and tests may tweak individual fields to build ablations, but the default
// values are the ones EXPERIMENTS.md reports against the paper.
#pragma once

#include <cstdint>

#include "common/error.h"
#include "common/units.h"

namespace vpim {

struct CostModel {
  // ---- DPU / rank hardware -------------------------------------------
  // UPMEM DPUs on the paper's testbed run at 350 MHz (§5.1).
  double dpu_hz = 350e6;
  // MRAM<->WRAM DMA streaming bandwidth seen by one DPU (order of the
  // ~700 MB/s-1 GB/s reported by PrIM characterizations).
  double mram_dma_gbps = 1.0;
  // Host-side access to a mmap'ed control-interface register (perf mode).
  SimNs ci_op_native_ns = 400;
  // Per-CI-operation handling inside the backend once the request arrived.
  SimNs ci_op_backend_ns = 500;

  // ---- Host data path --------------------------------------------------
  // Byte-interleave copy host<->rank, optimized wide-word implementation
  // ("C/AVX512" path, §4.2). Calibrated so the naive/wide gap reproduces
  // the paper's "up to 343%" improvement.
  double interleave_wide_gbps = 6.0;
  // Naive per-byte implementation ("Rust/AVX2" stand-in). Calibrated to
  // the paper's end-to-end anchor (vPIM-rust ~5.2x native on checksum)
  // rather than the per-function "343%" figure, which is smaller.
  double interleave_naive_gbps = 0.5;
  // Backend copies that gather from scattered 4 KiB guest pages instead of
  // one contiguous host buffer pay a locality penalty.
  double scattered_copy_gbps = 5.0;
  // Host memset bandwidth; a 4 GiB rank reset at 6.7 GB/s gives the
  // paper's ~597 ms average reset time (§4.2).
  double memset_gbps = 7.2;
  // Fixed cost of one safe-mode ioctl: every call on the guest's vPIM
  // device file (the frontend) pays it.
  SimNs ioctl_ns = 1500;
  // Fixed per-transfer-call software cost on the native SDK path (perf
  // mode): matrix walk, WC-buffer flush, etc. This is the denominator of
  // the paper's 53x small-transfer overhead.
  SimNs native_xfer_fixed_ns = 700;

  // ---- Virtualization transitions ---------------------------------------
  // Guest->VMM queue notify: VMEXIT + KVM dispatch + Firecracker handler
  // entry and wakeup. The paper attributes the dominant overhead to these
  // transitions; the magnitude is calibrated against Firecracker's own
  // ~26x overhead on small block-IO requests (§1), which puts one full
  // guest->VMM->guest round trip in the tens of microseconds.
  SimNs vmexit_notify_ns = 25000;
  // VMM->guest completion: IRQ injection + guest resume.
  SimNs irq_inject_ns = 10000;
  // Fixed frontend work to build any request (descriptor setup etc.).
  SimNs frontend_request_fixed_ns = 2000;
  // vhost-style transition (§7 future work): the kernel-side worker is
  // kicked without a full exit to the userspace VMM, and completes with a
  // lightweight signal instead of a VMM-injected IRQ.
  SimNs vhost_notify_ns = 6000;
  SimNs vhost_complete_ns = 3000;

  // ---- Frontend per-page costs ------------------------------------------
  // Page management: reallocating user-space pages to kernel pointers
  // (Fig 13 "Page" step).
  SimNs page_mgmt_ns_per_page = 150;
  // Serializing one page pointer into the page buffer (Fig 13 "Ser").
  SimNs serialize_ns_per_page = 20;
  // Per-DPU metadata handling during (de)serialization.
  SimNs per_dpu_metadata_ns = 100;

  // ---- Backend per-page costs -------------------------------------------
  // Deserializing one page entry (Fig 13 "Deser").
  SimNs deserialize_ns_per_page = 20;
  // GPA->HVA translation of one page entry, before dividing across the
  // translation worker threads (§4.2, "several threads").
  SimNs gpa_translate_ns_per_page = 40;
  std::uint32_t translate_threads = 8;
  // Number of DPUs operated on concurrently by the backend (one chip).
  std::uint32_t backend_op_threads = 8;
  // Cost of handing an operation to a dedicated thread (parallel handling
  // optimization, §4.2) and of completing the event afterwards.
  SimNs thread_dispatch_ns = 5000;

  // Fixed handling cost per matrix entry in the backend, divided across
  // the 8 operation worker threads (one chip's worth of DPUs at a time).
  SimNs backend_per_entry_ns = 400;

  // ---- Guest-side small copies -------------------------------------------
  // memcpy bandwidth inside the guest (batch staging, cache hits).
  double guest_memcpy_gbps = 8.0;
  // Fixed cost of serving a read from the prefetch cache.
  SimNs cache_hit_fixed_ns = 120;

  // ---- Oversubscription (§7 future work) ---------------------------------
  // Emulated ranks run DPU programs on the host at a fraction of silicon
  // speed ("running applications at reduced performance").
  double emulation_slowdown = 25.0;
  // Host-memory copies to/from an emulated rank (plain memcpy).
  double emulated_copy_gbps = 8.0;

  // ---- Manager ------------------------------------------------------------
  // Round trip VM->manager over the UNIX socket plus bookkeeping; the paper
  // reports ~36 ms average for an allocation hitting a NAAV rank.
  SimNs manager_alloc_rt_ns = 36 * kMs;
  // Admission decision on the submit path (ISSUE 8): token-bucket refill,
  // budget check and the bookkeeping around a typed reject. A few cache
  // lines and a branch — far below one ioctl.
  SimNs admission_check_ns = 300;

  // ---- KV service (ISSUE 10) ----------------------------------------------
  // Host-side hot-key cache lookup on the KV enqueue path: one hash probe
  // plus LRU bookkeeping, served without touching the device.
  SimNs kv_cache_hit_ns = 150;

  // ---- Faults & recovery --------------------------------------------------
  // Base backoff before the backend retries a transiently faulted rank
  // operation; doubles per attempt up to core::kFaultMaxRetries.
  SimNs fault_retry_backoff_ns = 200 * kUs;
  // Reset-verify probe of a quarantined rank (the driver's per-DPU pattern
  // write/read), charged on top of the erase itself.
  SimNs rank_probe_ns = 2 * kMs;
  // Host streaming bandwidth while rescuing MRAM off a dying rank during a
  // wrank migration (degraded vs the healthy interleave path).
  double rank_rescue_gbps = 3.0;

  // ---- VM lifecycle ---------------------------------------------------------
  // Base Firecracker microVM boot (~125 ms per the Firecracker paper).
  SimNs vm_boot_base_ns = 125 * kMs;
  // Adding one vUPMEM device increases boot time by up to 2 ms (§3.2).
  SimNs vupmem_boot_ns = 2 * kMs;

  // ---- Helpers ---------------------------------------------------------
  // Time to move `bytes` at `gbps` gigabytes/second.
  static SimNs bytes_time(std::uint64_t bytes, double gbps) {
    VPIM_CHECK(gbps > 0.0, "bandwidth must be positive");
    return static_cast<SimNs>(static_cast<double>(bytes) / gbps);
  }

  SimNs dpu_cycles_time(std::uint64_t cycles) const {
    return static_cast<SimNs>(static_cast<double>(cycles) * 1e9 / dpu_hz);
  }
};

}  // namespace vpim
