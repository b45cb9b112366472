// vPIM optimization switches, matching Table 2 of the paper. Each named
// preset is one row; benches use them to isolate the effect of every
// optimization (§5.4).
#pragma once

#include <cstdint>
#include <string>

#include "common/units.h"

namespace vpim::core {

// Only writes up to this many guest pages are absorbed by the §4.1 batch
// buffer; larger transfers go straight to the backend (batching bulk data
// would just add a copy).
inline constexpr std::uint32_t kBatchEntryMaxPages = 16;  // 64 KiB

// Fault handling. The frontend abandons a request whose completion never
// arrives after kPollDeadlineNs of virtual time (typed TIMEOUT error),
// re-polling every kPollIntervalNs; the backend retries a transiently
// faulted rank operation up to kFaultMaxRetries times with exponential
// backoff (CostModel::fault_retry_backoff_ns).
inline constexpr SimNs kPollDeadlineNs = 100 * kMs;
inline constexpr SimNs kPollIntervalNs = 100 * kUs;
inline constexpr std::uint32_t kFaultMaxRetries = 4;

struct VpimConfig {
  // §4.2 "AVX512 and C enhancements": wide-word interleave/matrix code
  // instead of the naive per-byte path.
  bool c_enhancement = true;
  // §4.1 prefetch cache: 16 pages per DPU serving small reads.
  bool prefetch_cache = true;
  // §4.1 request batching: 64 pages per DPU accumulating small writes.
  bool request_batching = true;
  // §4.2 parallel operation handling across ranks.
  bool parallel_handling = true;
  // §7 future work: vhost-style transitions. Requests are handled by a
  // per-device kernel worker thread instead of trapping out to the
  // userspace VMM, cutting the guest->host transition cost and taking the
  // shared event loop out of the picture entirely.
  bool vhost_transitions = false;
  // §7 future work: when the manager cannot provide a physical rank, bind
  // the device to a host-emulated rank at reduced performance instead of
  // failing the allocation.
  bool oversubscribe = false;

  std::string label = "vPIM";

  // ISSUE 7: submission/completion queue depth — how many WireRequests the
  // frontend keeps in flight before ringing the doorbell (each slot owns a
  // full wire arena, so guest RAM pays ~8 MiB per extra slot). Depth 1 is
  // the classic blocking path: its stats, spans, metrics and virtual time
  // are bit-identical to the pre-SQ/CQ device. Its guest GPA layout is not.
  std::uint32_t queue_depth = 1;

  // Sizing of the §4.1 frontend buffers (defaults from the prototype).
  std::uint32_t prefetch_cache_pages = 16;  // per DPU
  std::uint32_t batch_buffer_pages = 64;    // per DPU

  // Overload protection (ISSUE 8). cq_capacity bounds unreaped
  // completions on the async path: once cq backlog + staged requests reach
  // it, try_submit_* returns a typed OVERLOADED would-block instead of
  // growing memory. 0 = unbounded (the pre-ISSUE-8 behaviour).
  std::uint32_t cq_capacity = 0;

  static VpimConfig rust() {
    return {false, false, false, false, false, false, "vPIM-rust"};
  }
  static VpimConfig c_only() {
    return {true, false, false, false, false, false, "vPIM-C"};
  }
  static VpimConfig with_prefetch() {
    return {true, true, false, false, false, false, "vPIM+P"};
  }
  static VpimConfig with_batching() {
    return {true, false, true, false, false, false, "vPIM+B"};
  }
  static VpimConfig with_prefetch_batching() {
    return {true, true, true, false, false, false, "vPIM+PB"};
  }
  static VpimConfig sequential() {
    return {true, true, true, false, false, false, "vPIM-Seq"};
  }
  static VpimConfig full() {
    return {true, true, true, true, false, false, "vPIM"};
  }
  // §7 future work prototype: full() plus vhost-style transitions.
  static VpimConfig vhost() {
    return {true, true, true, true, true, false, "vPIM+vhost"};
  }
};

}  // namespace vpim::core
