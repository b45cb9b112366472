#include "vpim/manager_service.h"

#include <algorithm>
#include <exception>
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
    // Drain the queue and resolve each entry without a grant outside the
    // lock, so no queued caller blocks on a future that never resolves.
    orphans.swap(queue_);
    shutdown_rejections_ += orphans.size();
  }
  cv_.notify_all();
  observer_cv_.notify_all();
  for (auto& w : workers_) w.join();
  observer_.join();
  for (Pending& p : orphans) p.grant.set_value(std::nullopt);
}

std::uint64_t ManagerService::shutdown_rejections() const {
  std::lock_guard lock(mu_);
  return shutdown_rejections_;
}

std::future<std::optional<driver::RankMapping>> ManagerService::request_rank(
    std::string owner, std::int32_t priority) {
  Pending p{priority, 0, std::move(owner), {}};
  auto fut = p.grant.get_future();
  {
    std::lock_guard lock(mu_);
    if (!stopping_) {
      p.seq = next_seq_++;
      // Insertion sort keeps the deque ordered (priority desc, seq asc);
      // queues are short relative to service time, so O(n) is fine.
      const auto it = std::find_if(
          queue_.begin(), queue_.end(),
          [&p](const Pending& q) { return q.priority < p.priority; });
      queue_.insert(it, std::move(p));
      cv_.notify_one();
      return fut;
    }
    ++shutdown_rejections_;
  }
  // No worker will ever see this request: resolve it now.
  p.grant.set_value(std::nullopt);
  return fut;
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
  while (pop(p)) {
    // A Manager error (e.g. an empty owner) belongs to the caller's future;
    // escaping the worker thread would terminate the host.
    try {
      p.grant.set_value(manager_.request_rank(p.owner));
    } catch (...) {
      p.grant.set_exception(std::current_exception());
    }
  }
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
  }
}

}  // namespace vpim::core
