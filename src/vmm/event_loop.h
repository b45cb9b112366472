// Firecracker's virtio event handling, in virtual time.
//
// Stock Firecracker runs a single loop that pops device events and handles
// them to completion one at a time — so concurrent requests from different
// ranks serialize in the VMM (Fig 16, red). vPIM's parallel-handling
// optimization (§4.2) has the loop only *dispatch* each event to a
// dedicated thread and move on, so per-rank operations overlap (blue).
//
// *Virtual-time* concurrency is simulated by replaying parallel branches
// from the same virtual start time (SimClock::run_parallel), so the loop
// models its occupancy as a set of busy *intervals* rather than a single
// cursor. *Host* concurrency is separate: a dispatched handler's leaf work
// (DPU kernel execution, per-bank copies, GPA->HVA translation) fans out
// over the host ThreadPool, so parallel handling now shortens wall-clock
// too, not just the modeled timeline:
//  - sequential mode: a request occupies the loop for its whole handling,
//    FIFO behind every previously recorded interval;
//  - parallel mode: a request only occupies the loop for the fixed
//    thread-dispatch slot, gap-fitted between already-recorded slots, and
//    the handling itself proceeds off-loop.
#pragma once

#include <functional>
#include <map>

#include "common/cost_model.h"
#include "common/sim_clock.h"

namespace vpim::vmm {

class EventLoop {
 public:
  EventLoop(SimClock& clock, const CostModel& cost, bool parallel_handling)
      : clock_(clock), cost_(cost), parallel_(parallel_handling) {}

  // Dispatches a request arriving at the current virtual time. `handler`
  // performs the device work (advancing the clock). On return the clock
  // sits at the request's completion time.
  void dispatch(const std::function<void()>& handler) {
    prune();
    const SimNs arrival = clock_.now();
    if (parallel_) {
      // Find the first dispatch-slot-sized gap at or after arrival.
      const SimNs slot = cost_.thread_dispatch_ns;
      SimNs start = arrival;
      auto it = busy_.begin();
      // Skip intervals that end before the candidate start.
      while (it != busy_.end() && it->second <= start) ++it;
      while (it != busy_.end() && it->first < start + slot) {
        start = std::max(start, it->second);
        ++it;
      }
      busy_.emplace(start, start + slot);
      clock_.set(start + slot);
      handler();
    } else {
      // FIFO behind everything the loop has already committed to.
      SimNs start = arrival;
      if (!busy_.empty()) {
        start = std::max(start, std::prev(busy_.end())->second);
      }
      clock_.set(start);
      handler();
      busy_.emplace(start, clock_.now());
    }
  }

  // Virtual time at which all recorded work drains.
  SimNs busy_until() const {
    return busy_.empty() ? 0 : std::prev(busy_.end())->second;
  }

 private:
  void prune() {
    // Intervals ending before the clock's floor can never affect a future
    // arrival (branches never rewind below it).
    const SimNs floor = clock_.floor();
    for (auto it = busy_.begin();
         it != busy_.end() && it->second <= floor;) {
      it = busy_.erase(it);
    }
  }

  SimClock& clock_;
  const CostModel& cost_;
  const bool parallel_;
  std::multimap<SimNs, SimNs> busy_;  // start -> end
};

}  // namespace vpim::vmm
