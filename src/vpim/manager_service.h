// Threaded front of the Manager: a UNIX-domain-socket server in the real
// system, modeled here as a request queue drained by a pool of worker
// threads (8 in the paper's prototype) plus the observer thread polling
// sysfs. Used by concurrency tests and the multi-tenant example; virtual
// time is not charged on these preemptive threads (the Manager core is
// constructed with charge_time = false).
//
// The one request is a whole-rank grant (Manager::request_rank), with:
//   - priorities: higher priority dequeues first; FIFO within a priority
//     level (submission sequence breaks ties), so ordering is total;
//   - typed shutdown: stop() drains the queue and resolves every pending
//     future with "no rank" (nullopt) instead of abandoning it, and a
//     request submitted after stop() resolves the same way at once.
//     shutdown_rejections() counts both.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "vpim/manager.h"

namespace vpim::core {

struct ManagerServiceConfig {
  std::uint32_t threads = 8;  // paper prototype: 8 socket workers
  std::chrono::milliseconds observe_period{10};
  // When true, workers idle until start() — lets tests enqueue a batch at
  // mixed priorities and observe a deterministic drain order.
  bool start_paused = false;
};

class ManagerService {
 public:
  ManagerService(Manager& manager, ManagerServiceConfig config);
  ~ManagerService();

  ManagerService(const ManagerService&) = delete;
  ManagerService& operator=(const ManagerService&) = delete;

  // Whole-rank allocation. The future carries the grant itself: the
  // rank's mapping in `owner`'s name (see Manager::request_rank), or
  // nullopt when the Manager abandons the request or the service stops
  // first; a Manager error (e.g. an empty owner) is rethrown by get().
  // The future is ALWAYS resolved: by a worker, by stop()'s
  // shutdown drain, or immediately when submitted after stop(). Higher
  // priority wins; equal-priority requests resolve in submission order.
  std::future<std::optional<driver::RankMapping>> request_rank(
      std::string owner, std::int32_t priority = 0);

  // Releases a start_paused service's workers. Idempotent.
  void start();

  void stop();

  // Requests resolved without a grant because the service was stopping:
  // drained from the queue by stop(), or submitted after it.
  std::uint64_t shutdown_rejections() const;

 private:
  struct Pending {
    std::int32_t priority = 0;
    std::uint64_t seq = 0;
    std::string owner;
    std::promise<std::optional<driver::RankMapping>> grant;
  };

  bool pop(Pending& out);
  void worker_loop();
  void observer_loop();

  Manager& manager_;
  ManagerServiceConfig config_;
  mutable std::mutex mu_;
  std::condition_variable cv_;           // workers: queue + start/stop
  std::condition_variable observer_cv_;  // observer tick; never shared with
                                         // cv_, so a worker wakeup cannot be
                                         // swallowed by the observer
  std::deque<Pending> queue_;  // kept sorted: priority desc, seq asc
  std::uint64_t next_seq_ = 0;
  std::uint64_t shutdown_rejections_ = 0;
  bool paused_ = false;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
  std::thread observer_;
};

}  // namespace vpim::core
