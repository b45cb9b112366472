// Per-vUPMEM-device instrumentation shared by the frontend and backend.
// Feeds the paper's driver-centric breakdowns (Fig 12/13) and the message-
// count claims in §5.4.2.
#pragma once

#include <cstdint>

#include "common/breakdown.h"

namespace vpim::core {

struct DeviceStats {
  OpBreakdown ops;       // CI / read-from-rank / write-to-rank time+count
  StepBreakdown wsteps;  // write-to-rank step breakdown (Fig 13)

  std::uint64_t requests = 0;       // wire requests staged, any queue
  std::uint64_t notifies = 0;       // guest->VMM transitions (VMEXITs)
  std::uint64_t cache_hits = 0;     // prefetch cache
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_fills = 0;    // backend fill messages
  std::uint64_t batched_writes = 0; // writes absorbed by the batch buffer
  std::uint64_t batch_flushes = 0;  // flush messages sent
  std::uint64_t emulated_binds = 0; // oversubscribed (emulated) bindings
  std::uint64_t request_errors = 0; // requests completed with a non-OK status

  // SQ/CQ pipelining. A doorbell is one guest->device kick covering every
  // request staged since the last one, answered by one completion IRQ;
  // coalesced_notifies counts the notifies that staging saved (batch size
  // - 1 per kick). notifies == doorbells; doorbells == requests at depth 1.
  std::uint64_t doorbells = 0;          // kicks rung == completion IRQs
  std::uint64_t coalesced_notifies = 0; // notifies avoided by batching

  // Fault handling (ISSUE 3).
  std::uint64_t fault_retries = 0;        // transient faults retried
  std::uint64_t fault_migrations = 0;     // wranks moved off a dead rank
  std::uint64_t fault_failures = 0;       // requests completed DEVICE_FAULT
  std::uint64_t dropped_completions = 0;  // injected lost completions
  std::uint64_t poll_timeouts = 0;        // frontend poll deadline expiries

  // Overload protection (ISSUE 8).
  std::uint64_t admission_rejects = 0;   // try_submit shed: tenant over rate
  std::uint64_t would_blocks = 0;        // try_submit shed: budget / CQ full
  std::uint64_t cancelled = 0;           // requests shed via cancel(Ticket)
  std::uint64_t deadline_shed = 0;       // backend shed on an expired deadline
  std::uint64_t lost_batched_writes = 0; // batch records lost to a failed flush
};

}  // namespace vpim::core
