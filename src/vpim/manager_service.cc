#include "vpim/manager_service.h"

#include <algorithm>
#include <memory>
#include <utility>

namespace vpim::core {

ManagerService::ManagerService(Manager& manager, ManagerServiceConfig config)
    : manager_(manager), config_(config), paused_(config.start_paused) {
  workers_.reserve(config_.threads);
  for (std::uint32_t i = 0; i < config_.threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  observer_ = std::thread([this] { observer_loop(); });
}

ManagerService::~ManagerService() { stop(); }

void ManagerService::start() {
  {
    std::lock_guard lock(mu_);
    paused_ = false;
  }
  cv_.notify_all();
}

void ManagerService::stop() {
  std::deque<Pending> orphans;
  {
    std::lock_guard lock(mu_);
    if (stopping_) return;
    stopping_ = true;
    paused_ = false;
    // Satellite bugfix: the old packaged_task queue was discarded here,
    // leaving every queued caller blocked on a future that would never
    // resolve. Drain instead and reject each entry with a typed
    // kShutdown outside the lock.
    orphans.swap(queue_);
    shutdown_rejections_ += orphans.size();
  }
  cv_.notify_all();
  observer_cv_.notify_all();
  for (auto& w : workers_) w.join();
  observer_.join();
  for (Pending& p : orphans) p.reject();
}

std::uint64_t ManagerService::shutdown_rejections() const {
  std::lock_guard lock(mu_);
  return shutdown_rejections_;
}

void ManagerService::enqueue(std::int32_t priority, std::function<void()> run,
                             std::function<void()> reject) {
  bool rejected = false;
  {
    std::lock_guard lock(mu_);
    if (stopping_) {
      ++shutdown_rejections_;
      rejected = true;
    } else {
      Pending p{priority, next_seq_++, std::move(run), std::move(reject)};
      // Insertion sort keeps the deque ordered (priority desc, seq asc);
      // queues are short relative to service time, so O(n) is fine.
      const auto it = std::find_if(
          queue_.begin(), queue_.end(),
          [&p](const Pending& q) { return q.priority < p.priority; });
      queue_.insert(it, std::move(p));
    }
  }
  if (rejected) {
    reject();  // resolve immediately: no worker will ever see this entry
    return;
  }
  cv_.notify_one();
}

bool ManagerService::pop(Pending& out) {
  std::unique_lock lock(mu_);
  cv_.wait(lock, [this] {
    return stopping_ || (!paused_ && !queue_.empty());
  });
  if (stopping_) return false;  // stop() drains the queue itself
  out = std::move(queue_.front());
  queue_.pop_front();
  return true;
}

void ManagerService::worker_loop() {
  Pending p;
  while (pop(p)) p.run();
}

void ManagerService::observer_loop() {
  while (true) {
    {
      std::unique_lock lock(mu_);
      if (observer_cv_.wait_for(lock, config_.observe_period,
                                [this] { return stopping_; })) {
        return;
      }
    }
    manager_.observe();
    // Background consolidation rides the observer tick when the active
    // placement policy asks for it (the `consolidating` ablation arm).
    if (manager_.policy_wants_consolidation()) manager_.consolidate();
  }
}

template <typename Run, typename OnShutdown>
auto ManagerService::submit(std::int32_t priority, Run run,
                            OnShutdown on_shutdown)
    -> std::future<decltype(run())> {
  auto promise = std::make_shared<std::promise<decltype(run())>>();
  auto fut = promise->get_future();
  enqueue(
      priority, [promise, run = std::move(run)] { promise->set_value(run()); },
      [promise, on_shutdown = std::move(on_shutdown)] {
        promise->set_value(on_shutdown());
      });
  return fut;
}

std::future<ServiceResponse> ManagerService::allocate(std::string tenant,
                                                      std::uint32_t slots,
                                                      std::int32_t priority) {
  return submit(
      priority,
      [this, tenant = std::move(tenant), slots] {
        const AllocResult r = manager_.allocate_wrank(tenant, slots);
        return ServiceResponse{r.status, r.wrank, r.rank};
      },
      [] { return ServiceResponse{}; });
}

std::future<ServiceResponse> ManagerService::release(std::uint64_t wrank,
                                                     std::int32_t priority) {
  return submit(
      priority,
      [this, wrank] {
        return ServiceResponse{manager_.release_wrank(wrank), wrank,
                               Manager::kNoRank};
      },
      [wrank] { return ServiceResponse{AllocStatus::kShutdown, wrank}; });
}

std::future<ServiceResponse> ManagerService::resize(std::uint64_t wrank,
                                                    std::uint32_t new_slots,
                                                    std::int32_t priority) {
  return submit(
      priority,
      [this, wrank, new_slots] {
        const AllocResult r = manager_.resize_wrank(wrank, new_slots);
        return ServiceResponse{r.status, r.wrank, r.rank};
      },
      [wrank] { return ServiceResponse{AllocStatus::kShutdown, wrank}; });
}

std::future<std::optional<driver::RankMapping>> ManagerService::request_rank(
    std::string owner, std::int32_t priority) {
  // Typed rejection for the legacy shape is "no rank": the optional stays
  // empty, but crucially the future resolves.
  return submit(
      priority,
      [this, owner = std::move(owner)] { return manager_.request_rank(owner); },
      [] { return std::optional<driver::RankMapping>(); });
}

}  // namespace vpim::core
