// Threaded front of the Manager: a UNIX-domain-socket server in the real
// system, modeled here as a request queue drained by a pool of worker
// threads (8 in the paper's prototype) plus the observer thread polling
// sysfs. Used by concurrency tests and the multi-tenant example; virtual
// time is not charged on these preemptive threads (the Manager core is
// constructed with charge_time = false).
//
// ISSUE 9 promotes the queue from a FIFO of opaque packaged_tasks to a
// typed request vocabulary (allocate / release / resize wrank, plus the
// legacy whole-rank request), with:
//   - priorities: higher priority dequeues first; FIFO within a priority
//     level (submission sequence breaks ties), so ordering is total;
//   - typed shutdown: stop() drains the queue and resolves every pending
//     future with AllocStatus::kShutdown instead of abandoning it — the
//     old packaged_task queue dropped entries on stop() and left callers
//     blocked on futures forever (satellite bugfix);
//   - a background consolidation hook: when the Manager's placement
//     policy wants consolidation, the observer thread runs a pass after
//     each observe() tick.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "vpim/manager.h"

namespace vpim::core {

// Resolution of one typed wrank request (see AllocResult semantics).
struct ServiceResponse {
  AllocStatus status = AllocStatus::kShutdown;
  std::uint64_t wrank = 0;
  std::uint32_t rank = Manager::kNoRank;
};

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

  // Typed vocabulary. Every call returns a future that is ALWAYS
  // resolved: by a worker, by stop()'s shutdown drain, or immediately
  // (kShutdown) when submitted after stop(). Higher priority wins;
  // equal-priority requests resolve in submission order.
  std::future<ServiceResponse> allocate(std::string tenant,
                                        std::uint32_t slots,
                                        std::int32_t priority = 0);
  std::future<ServiceResponse> release(std::uint64_t wrank,
                                       std::int32_t priority = 0);
  std::future<ServiceResponse> resize(std::uint64_t wrank,
                                      std::uint32_t new_slots,
                                      std::int32_t priority = 0);

  // Legacy whole-rank allocation (PR-5 vocabulary), now priority-aware.
  // The future carries the grant itself: the rank's mapping in `owner`'s
  // name (see Manager::request_rank).
  std::future<std::optional<driver::RankMapping>> request_rank(
      std::string owner, std::int32_t priority = 0);

  // Releases a start_paused service's workers. Idempotent.
  void start();

  void stop();

  // Requests resolved with kShutdown by the stop() drain (regression
  // observability for the satellite bugfix).
  std::uint64_t shutdown_rejections() const;

 private:
  struct Pending {
    std::int32_t priority = 0;
    std::uint64_t seq = 0;
    std::function<void()> run;     // executes + resolves the promise
    std::function<void()> reject;  // resolves the promise with kShutdown
  };

  // The one submit path: queues `run` at `priority` and returns a future
  // resolved with run()'s result by a worker, or with on_shutdown()'s when
  // stop() drains the entry or it arrives after stop().
  template <typename Run, typename OnShutdown>
  auto submit(std::int32_t priority, Run run, OnShutdown on_shutdown)
      -> std::future<decltype(run())>;
  void enqueue(std::int32_t priority, std::function<void()> run,
               std::function<void()> reject);
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
