#include "vpim/manager.h"

#include <algorithm>

#include "common/error.h"
#include "common/log.h"

namespace vpim::core {

Manager::Manager(driver::UpmemDriver& drv, ManagerConfig config)
    : drv_(drv), config_(config), table_(drv.machine().nr_ranks()) {}

void Manager::set_admission(AdmissionController* admission) {
  std::lock_guard lock(mu_);
  admission_ = admission;
}

std::optional<driver::RankMapping> Manager::request_rank(
    const std::string& owner) {
  VPIM_CHECK(!owner.empty(), "rank request without an owner tag");
  // UNIX-socket round trip + table bookkeeping: ~36 ms in the paper.
  charge(drv_.machine().cost().manager_alloc_rt_ns);
  for (std::uint32_t i = 0; i < config_.max_attempts; ++i) {
    {
      std::lock_guard lock(mu_);
      // Fairness gate: under contention the weighted round-robin policy
      // may defer this attempt to a tenant holding a smaller share of rank
      // grants. A deferral is indistinguishable from "nothing available"
      // and takes the normal retry path — never blocking, never aborting.
      if (admission_ == nullptr ||
          admission_->allow_rank_grant(owner,
                                       drv_.machine().clock().now())) {
        if (auto mapping = try_grant_locked(owner)) return mapping;
      }
    }
    // Nothing available: wait for a rank to free up, then retry.
    charge(config_.retry_wait_ns);
    observe(/*do_resets=*/true);
  }
  {
    std::lock_guard lock(mu_);
    ++stats_.failed_requests;
  }
  VPIM_WARN("manager", "abandoning rank request from %s after %u attempts",
            owner.c_str(), config_.max_attempts);
  return std::nullopt;
}

std::optional<driver::RankMapping> Manager::try_grant_locked(
    const std::string& owner) {
  const auto n = static_cast<std::uint32_t>(table_.size());
  const auto unmapped = [&](std::uint32_t r, RankState state) {
    return table_[r].state == state && !drv_.is_mapped(r);
  };
  // 1. A NANA rank previously used by this owner can be re-assigned
  //    without a reset: its residual content belongs to the requester.
  for (std::uint32_t r = 0; r < n; ++r) {
    if (unmapped(r, RankState::kNana) && table_[r].last_owner == owner) {
      if (auto mapping = grant_locked(r, owner)) {
        ++stats_.reuse_hits;
        return mapping;
      }
    }
  }
  // 2. Round-robin over NAAV ranks.
  for (std::uint32_t k = 0; k < n; ++k) {
    const std::uint32_t r = (rr_cursor_ + k) % n;
    if (unmapped(r, RankState::kNaav)) {
      if (auto mapping = grant_locked(r, owner)) {
        rr_cursor_ = (r + 1) % n;
        return mapping;
      }
    }
  }
  // 3. Reset-and-take any NANA rank (the requester effectively waits for
  //    the erase to finish).
  for (std::uint32_t r = 0; r < n; ++r) {
    if (unmapped(r, RankState::kNana)) {
      reset_rank_locked(r);
      if (auto mapping = grant_locked(r, owner)) return mapping;
    }
  }
  return std::nullopt;
}

std::optional<driver::RankMapping> Manager::grant_locked(
    std::uint32_t rank, const std::string& owner) {
  std::optional<driver::RankMapping> mapping;
  try {
    mapping = drv_.map_rank(rank, owner);
  } catch (const VpimError&) {
    // Someone mapped the rank first; the next observe pass classifies
    // the squatter.
    return std::nullopt;
  }
  Entry& e = table_[rank];
  e.state = RankState::kAllo;
  e.owner = owner;
  ++stats_.allocations;
  if (admission_ != nullptr) admission_->on_rank_granted(owner);
  return mapping;
}

void Manager::reset_rank_locked(std::uint32_t rank) {
  if (config_.charge_time) {
    drv_.reset_rank(rank);
  } else {
    drv_.machine().rank(rank).reset_memory();
  }
  table_[rank].last_owner.clear();
  ++stats_.resets;
}

void Manager::observe(bool do_resets) {
  std::lock_guard lock(mu_);
  // Fire any due injected seizures and pull typed fault records out of the
  // driver mailbox before reading status, so this pass already sees their
  // sysfs consequences.
  drv_.apply_fault_plan();
  stats_.fault_records_drained += drv_.drain_fault_records().size();
  const SimNs now = drv_.machine().clock().now();
  for (std::uint32_t r = 0; r < table_.size(); ++r) {
    Entry& e = table_[r];
    // The observer reads the textual status file, exactly as it would on a
    // real host; a line it cannot parse means the rank's state is unknown,
    // so it conservatively leaves the entry untouched.
    const auto status = driver::Sysfs::parse(drv_.rank_status_line(r));
    if (!status) {
      ++stats_.status_parse_errors;
      VPIM_WARN("manager", "unparseable sysfs status for rank %u; skipping",
                r);
      continue;
    }
    const bool in_use = status->in_use;
    if (status->health == driver::RankHealth::kFailed &&
        e.state != RankState::kFail) {
      // The driver reported a permanent fault (rank death).
      quarantine_locked(r, now);
    }
    switch (e.state) {
      case RankState::kAllo:
        if (in_use && !e.owner.empty() && status->owner != e.owner) {
          // Hot seizure: sysfs names a different holder than our table.
          // Track the squatter; once it lets go the rank's content cannot
          // be trusted, so it goes through reset-verify.
          ++stats_.seizures_observed;
          e.owner = status->owner;
          e.quarantine_on_release = true;
        } else if (!in_use) {
          // The holder released the rank without telling us (by design,
          // §3.5): every grant is a mapping, so sysfs showing the rank
          // free is exactly the release.
          ++stats_.releases_observed;
          if (e.quarantine_on_release) {
            quarantine_locked(r, now);
          } else {
            e.state = RankState::kNana;
            e.last_owner = e.owner;
            e.owner.clear();
          }
        }
        break;
      case RankState::kNaav:
        if (in_use) {
          // A native host application grabbed the rank directly; track it
          // so it is not handed to a VM.
          e.state = RankState::kAllo;
          e.owner = status->owner;
        }
        break;
      case RankState::kNana:
        if (in_use) {
          // Someone grabbed a rank still holding residual tenant data:
          // track the holder and force reset-verify once it lets go.
          ++stats_.seizures_observed;
          e.state = RankState::kAllo;
          e.owner = status->owner;
          e.last_owner.clear();
          e.quarantine_on_release = true;
        }
        break;
      case RankState::kFail:
        if (!in_use && now >= e.next_probe) {
          ++stats_.quarantine_probes;
          if (drv_.try_recover_rank(r, config_.charge_time)) {
            e = Entry{};  // back to a fresh kNaav
            ++stats_.recoveries;
          } else {
            e.next_probe =
                drv_.machine().clock().now() + e.probe_backoff;
            e.probe_backoff = std::min(e.probe_backoff * 2,
                                       config_.quarantine_backoff_max_ns);
          }
        }
        break;
    }
  }
  if (do_resets) {
    for (std::uint32_t r = 0; r < table_.size(); ++r) {
      if (table_[r].state == RankState::kNana && !drv_.is_mapped(r)) {
        reset_rank_locked(r);
        table_[r].state = RankState::kNaav;
      }
    }
  }
}

RankState Manager::state(std::uint32_t rank) const {
  std::lock_guard lock(mu_);
  VPIM_CHECK(rank < table_.size(), "rank index out of range");
  return table_[rank].state;
}

ManagerStats Manager::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

void Manager::quarantine_locked(std::uint32_t rank, SimNs now) {
  Entry& e = table_[rank];
  e.state = RankState::kFail;
  e.owner.clear();
  e.last_owner.clear();
  e.quarantine_on_release = false;
  e.probe_backoff = config_.quarantine_backoff_ns;
  e.next_probe = now;  // first probe as soon as the rank is unmapped
  ++stats_.quarantined;
  VPIM_WARN("manager", "rank %u quarantined (FAIL)", rank);
}

void Manager::charge(SimNs ns) {
  if (config_.charge_time && ns > 0) drv_.machine().clock().advance(ns);
}

std::vector<WrankInfo> Manager::wranks() const {
  std::lock_guard lock(mu_);
  std::vector<WrankInfo> out;
  for (std::uint32_t r = 0; r < table_.size(); ++r) {
    if (table_[r].state == RankState::kAllo) {
      out.push_back({table_[r].owner, r});
    }
  }
  return out;
}

}  // namespace vpim::core
