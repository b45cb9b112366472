#include "vpim/manager.h"

#include <algorithm>
#include <utility>

#include "common/error.h"
#include "common/log.h"
#include "common/obs/metrics.h"
#include "upmem/layout.h"

namespace vpim::core {

namespace {
// Sysfs owner tag for ranks the manager maps in its own name while they
// host wranks.
const char* const kHostingOwner = "vpim-manager";
}  // namespace

const char* to_string(AllocStatus status) {
  switch (status) {
    case AllocStatus::kOk:
      return "OK";
    case AllocStatus::kNoCapacity:
      return "NO_CAPACITY";
    case AllocStatus::kQuotaExceeded:
      return "QUOTA_EXCEEDED";
    case AllocStatus::kNotFound:
      return "NOT_FOUND";
    case AllocStatus::kBadRequest:
      return "BAD_REQUEST";
    case AllocStatus::kShutdown:
      return "SHUTDOWN";
  }
  return "?";
}

Manager::Manager(driver::UpmemDriver& drv, ManagerConfig config)
    : drv_(drv), config_(config), table_(drv.machine().nr_ranks()) {}

void Manager::set_admission(AdmissionController* admission) {
  std::lock_guard lock(mu_);
  admission_ = admission;
}

template <typename Attempt>
auto Manager::retry_grant(const std::string& tenant, SimNs& waited,
                          Attempt attempt) -> decltype(attempt()) {
  for (std::uint32_t i = 0; i < config_.max_attempts; ++i) {
    {
      std::lock_guard lock(mu_);
      // Fairness gate (ISSUE 8): under contention the weighted round-robin
      // policy may defer this attempt to a tenant holding a smaller share
      // of rank grants. A deferral is indistinguishable from "nothing
      // available" and takes the normal retry path — never blocking, never
      // aborting.
      if (admission_ == nullptr ||
          admission_->allow_rank_grant(tenant,
                                       drv_.machine().clock().now())) {
        if (auto result = attempt()) return result;
      }
    }
    // Nothing available: wait for a rank to free up, then retry.
    charge(config_.retry_wait_ns);
    waited += config_.retry_wait_ns;
    observe(/*do_resets=*/true);
  }
  std::lock_guard lock(mu_);
  ++stats_.failed_requests;
  return std::nullopt;
}

std::optional<driver::RankMapping> Manager::request_rank(
    const std::string& owner) {
  VPIM_CHECK(!owner.empty(), "rank request without an owner tag");
  // UNIX-socket round trip + table bookkeeping: ~36 ms in the paper.
  charge(drv_.machine().cost().manager_alloc_rt_ns);
  SimNs waited = 0;
  auto mapping =
      retry_grant(owner, waited, [&] { return try_grant_locked(owner); });
  if (!mapping.has_value()) {
    VPIM_WARN("manager", "abandoning rank request from %s after %u attempts",
              owner.c_str(), config_.max_attempts);
  }
  return mapping;
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
  // Re-home wranks displaced by a quarantine (runs after the table sweep
  // so rescue placements see this pass's state transitions).
  rescue_displaced_locked();
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
  // If the dying rank hosted wranks, drop the manager's mapping so
  // recovery probes can run, and displace every resident wrank. Displaced
  // wranks (rank == kNoRank) are re-homed by rescue_displaced_locked() on
  // the next observe/consolidation pass — never back onto a FAIL rank,
  // because quarantined ranks are filtered out of every RankView.
  e.host_mapping.reset();
  for (Wrank& w : wranks_) {
    if (w.rank == rank) {
      w.rank = kNoRank;
      ++stats_.wranks_displaced;
    }
  }
  e.state = RankState::kFail;
  e.owner.clear();
  e.last_owner.clear();
  e.quarantine_on_release = false;
  e.probe_backoff = config_.quarantine_backoff_ns;
  e.next_probe = now;  // first probe as soon as the rank is unmapped
  ++stats_.quarantined;
  VPIM_WARN("manager", "rank %u quarantined (FAIL)", rank);
}

void Manager::note_wrank_migration() {
  std::lock_guard lock(mu_);
  ++stats_.wrank_migrations;
}

// --- wrank allocation service (ISSUE 9) ----------------------------------

void Manager::charge(SimNs ns) {
  if (config_.charge_time && ns > 0) drv_.machine().clock().advance(ns);
}

SimNs Manager::reset_cost_ns() const {
  const std::uint64_t region =
      static_cast<std::uint64_t>(upmem::kDpuSlotsPerRank) * upmem::kMramSize;
  return CostModel::bytes_time(region, drv_.machine().cost().memset_gbps);
}

SimNs Manager::wrank_move_cost(std::uint32_t slots, double gbps) const {
  // A wrank of k slots owns k/slots_per_rank of the rank's resident image
  // (the same 2 x nr_dpus x MRAM formula the backend's PR-3 rescue uses).
  const std::uint64_t rank_bytes =
      2ULL * drv_.machine().rank(0).nr_dpus() * upmem::kMramSize;
  return CostModel::bytes_time(
      rank_bytes * slots / std::max(1u, config_.wrank_slots_per_rank), gbps);
}

std::vector<Manager::Wrank>::iterator Manager::find_wrank_locked(
    std::uint64_t id) {
  return std::ranges::find(wranks_, id, &Wrank::id);
}

std::vector<std::uint32_t> Manager::slots_used_locked() const {
  std::vector<std::uint32_t> used(table_.size(), 0);
  for (const Wrank& w : wranks_) {
    if (w.rank != kNoRank) used[w.rank] += w.slots;
  }
  return used;
}

std::uint32_t Manager::tenant_slots_locked(const std::string& tenant) const {
  std::uint32_t slots = 0;
  for (const Wrank& w : wranks_) {
    if (w.tenant == tenant) slots += w.slots;
  }
  return slots;
}

bool Manager::over_quota_locked(const std::string& tenant,
                                std::uint32_t extra) {
  const auto it = tenant_quotas_.find(tenant);
  const std::uint32_t quota =
      it != tenant_quotas_.end() ? it->second : config_.tenant_quota_slots;
  if (quota == 0 || tenant_slots_locked(tenant) + extra <= quota) {
    return false;
  }
  ++stats_.quota_rejections;
  return true;
}

std::vector<RankView> Manager::rank_views_locked() const {
  const std::vector<std::uint32_t> used = slots_used_locked();
  std::vector<RankView> views;
  views.reserve(table_.size());
  for (std::uint32_t r = 0; r < table_.size(); ++r) {
    const Entry& e = table_[r];
    RankView v;
    v.rank = r;
    if (e.host_mapping.has_value()) {
      v.usable = e.state != RankState::kFail;
      v.hosting = true;
      v.free_slots = config_.wrank_slots_per_rank - used[r];
    } else if (e.state == RankState::kNaav && !drv_.is_mapped(r)) {
      v.usable = true;
      v.free_slots = config_.wrank_slots_per_rank;
    } else if (e.state == RankState::kNana && !drv_.is_mapped(r)) {
      v.usable = true;
      v.needs_reset = true;
      v.free_slots = config_.wrank_slots_per_rank;
    }
    views.push_back(v);
  }
  return views;
}

SimNs Manager::host_bind_locked(std::uint32_t rank) {
  Entry& e = table_[rank];
  if (e.host_mapping.has_value()) return 0;
  SimNs modeled = 0;
  if (e.state == RankState::kNana) {
    // Residual tenant content: pay the full erase before hosting.
    modeled += reset_cost_ns();
    reset_rank_locked(rank);
  }
  e.host_mapping = drv_.map_rank(rank, kHostingOwner);
  e.state = RankState::kAllo;
  e.owner = kHostingOwner;
  e.last_owner.clear();
  return modeled;
}

void Manager::unbind_if_empty_locked(std::uint32_t rank) {
  if (rank == kNoRank || slots_used_locked()[rank] != 0) return;
  Entry& e = table_[rank];
  e.host_mapping.reset();
  // Hosted several tenants' slots: residual content belongs to nobody in
  // particular, so the rank must go through the erase before reuse.
  e.state = RankState::kNana;
  e.owner.clear();
  e.last_owner.clear();
}

void Manager::place_wrank_locked(Wrank& w, std::uint32_t rank) {
  w.rank = rank;
  VPIM_CHECK(slots_used_locked()[rank] <= config_.wrank_slots_per_rank,
             "wrank placement overflows the rank's slot capacity");
}

void Manager::move_wrank_locked(Wrank& w, std::uint32_t to, double gbps) {
  charge(host_bind_locked(to));
  unbind_if_empty_locked(std::exchange(w.rank, kNoRank));
  charge(wrank_move_cost(w.slots, gbps));
  ++stats_.wrank_migrations;
  place_wrank_locked(w, to);
}

void Manager::observe_frag_locked() {
  if (frag_hist_ == nullptr) return;
  const auto views = rank_views_locked();
  frag_hist_->observe(
      core::fragmentation_permille(views, config_.wrank_slots_per_rank));
}

AllocResult Manager::allocate_wrank(const std::string& tenant,
                                    std::uint32_t slots) {
  VPIM_CHECK(!tenant.empty(), "wrank request without a tenant tag");
  if (slots == 0 || slots > config_.wrank_slots_per_rank) {
    return {AllocStatus::kBadRequest, 0, kNoRank};
  }
  // UNIX-socket round trip + table bookkeeping, as for request_rank.
  SimNs modeled = drv_.machine().cost().manager_alloc_rt_ns;
  charge(modeled);
  {
    std::lock_guard lock(mu_);
    if (over_quota_locked(tenant, slots)) {
      if (alloc_hist_ != nullptr) alloc_hist_->observe(modeled);
      return {AllocStatus::kQuotaExceeded, 0, kNoRank};
    }
  }
  // The WRR fairness gate composes with every placement policy: the retry
  // loop applies it before each placement attempt (ISSUE 8 contract).
  const auto placed = retry_grant(
      tenant, modeled, [&]() -> std::optional<AllocResult> {
        const auto rank = place(config_.placement, rank_views_locked(), slots);
        if (!rank.has_value()) return std::nullopt;
        modeled += host_bind_locked(*rank);
        wranks_.push_back({next_wrank_id_++, tenant, kNoRank, slots});
        place_wrank_locked(wranks_.back(), *rank);
        ++stats_.wrank_allocs;
        if (admission_ != nullptr) admission_->on_rank_granted(tenant, slots);
        if (alloc_hist_ != nullptr) alloc_hist_->observe(modeled);
        observe_frag_locked();
        return AllocResult{AllocStatus::kOk, wranks_.back().id, *rank};
      });
  if (placed.has_value()) return *placed;
  std::lock_guard lock(mu_);
  if (alloc_hist_ != nullptr) alloc_hist_->observe(modeled);
  VPIM_WARN("manager", "abandoning %u-slot wrank request from %s after %u "
            "attempts", slots, tenant.c_str(), config_.max_attempts);
  return {AllocStatus::kNoCapacity, 0, kNoRank};
}

AllocStatus Manager::release_wrank(std::uint64_t wrank_id) {
  charge(drv_.machine().cost().manager_alloc_rt_ns);
  std::lock_guard lock(mu_);
  const auto it = find_wrank_locked(wrank_id);
  if (it == wranks_.end()) return AllocStatus::kNotFound;
  const std::uint32_t rank = it->rank;
  wranks_.erase(it);
  unbind_if_empty_locked(rank);
  ++stats_.wrank_releases;
  observe_frag_locked();
  return AllocStatus::kOk;
}

AllocResult Manager::resize_wrank(std::uint64_t wrank_id,
                                  std::uint32_t new_slots) {
  if (new_slots == 0 || new_slots > config_.wrank_slots_per_rank) {
    return {AllocStatus::kBadRequest, wrank_id, kNoRank};
  }
  charge(drv_.machine().cost().manager_alloc_rt_ns);
  std::string tenant;
  {
    std::lock_guard lock(mu_);
    const auto it = find_wrank_locked(wrank_id);
    if (it == wranks_.end()) {
      return {AllocStatus::kNotFound, wrank_id, kNoRank};
    }
    Wrank& w = *it;
    if (new_slots == w.slots) {
      return {AllocStatus::kOk, w.id, w.rank};
    }
    if (new_slots < w.slots) {
      w.slots = new_slots;
      ++stats_.wrank_resizes;
      observe_frag_locked();
      return {AllocStatus::kOk, w.id, w.rank};
    }
    if (over_quota_locked(w.tenant, new_slots - w.slots)) {
      return {AllocStatus::kQuotaExceeded, w.id, w.rank};
    }
    tenant = w.tenant;
  }
  // Growth may need capacity: same retry-with-timeout shape as allocate.
  SimNs waited = 0;
  const auto grown = retry_grant(
      tenant, waited, [&]() -> std::optional<AllocResult> {
        const auto it = find_wrank_locked(wrank_id);
        if (it == wranks_.end()) {
          // Racing release (service mode): nothing left to grow.
          return AllocResult{AllocStatus::kNotFound, wrank_id, kNoRank};
        }
        Wrank& w = *it;
        const std::uint32_t delta = new_slots - w.slots;
        if (w.rank == kNoRank ||
            slots_used_locked()[w.rank] + delta >
                config_.wrank_slots_per_rank) {
          // Live-migrate to a rank with room for the grown wrank. The
          // current rank cannot fit it even net of the wrank's own slots,
          // so mark it unusable for this placement. A displaced wrank is
          // re-homed like a rescue: its image streams out of the dead
          // rank at the degraded rescue bandwidth.
          auto views = rank_views_locked();
          if (w.rank != kNoRank) views[w.rank].usable = false;
          const auto target = place(config_.placement, views, new_slots);
          if (!target.has_value()) return std::nullopt;
          const CostModel& cost = drv_.machine().cost();
          move_wrank_locked(w, *target,
                            w.rank == kNoRank ? cost.rank_rescue_gbps
                                              : cost.interleave_wide_gbps);
        }
        w.slots = new_slots;
        place_wrank_locked(w, w.rank);  // grow in place
        ++stats_.wrank_resizes;
        if (admission_ != nullptr) admission_->on_rank_granted(w.tenant, delta);
        observe_frag_locked();
        return AllocResult{AllocStatus::kOk, w.id, w.rank};
      });
  return grown.value_or(
      AllocResult{AllocStatus::kNoCapacity, wrank_id, kNoRank});
}

std::uint32_t Manager::rescue_displaced_locked() {
  std::uint32_t moves = 0;
  for (Wrank& w : wranks_) {
    if (w.rank != kNoRank) continue;
    const auto rank = place(config_.placement, rank_views_locked(), w.slots);
    if (!rank.has_value()) continue;  // retried on the next pass
    // The hosting rank died under this wrank: its image streams out of
    // the dying silicon at the degraded rescue bandwidth (PR 3).
    move_wrank_locked(w, *rank, drv_.machine().cost().rank_rescue_gbps);
    ++moves;
    VPIM_WARN("manager", "wrank %llu (%s) rescued onto rank %u",
              static_cast<unsigned long long>(w.id), w.tenant.c_str(),
              *rank);
  }
  return moves;
}

std::uint32_t Manager::consolidate() {
  std::lock_guard lock(mu_);
  std::uint32_t moves = rescue_displaced_locked();
  // Packing pass: drain the least-occupied hosting rank onto fuller ones,
  // but only when *every* wrank on it can move — a partial drain pays
  // migration cost without freeing the rank. Repeats until no hosting
  // rank is fully drainable.
  while (true) {
    // Candidate sources, least-occupied first (ties: higher index first,
    // so low-index ranks act as accumulation targets like the fitting
    // policies prefer them).
    const std::vector<std::uint32_t> used = slots_used_locked();
    std::vector<std::uint32_t> sources;
    for (std::uint32_t r = 0; r < table_.size(); ++r) {
      if (used[r] > 0) sources.push_back(r);
    }
    std::sort(sources.begin(), sources.end(),
              [&used](std::uint32_t a, std::uint32_t b) {
                if (used[a] != used[b]) return used[a] < used[b];
                return a > b;
              });
    bool drained = false;
    for (const std::uint32_t src : sources) {
      // Plan: place each of src's wranks (id order) on another hosting,
      // non-quarantined rank, best-fit against simulated free counts.
      std::map<std::uint32_t, std::uint32_t> free;
      for (std::uint32_t r = 0; r < table_.size(); ++r) {
        const Entry& e = table_[r];
        if (r != src && e.host_mapping.has_value() &&
            e.state != RankState::kFail) {
          free[r] = config_.wrank_slots_per_rank - used[r];
        }
      }
      std::vector<std::pair<Wrank*, std::uint32_t>> plan;
      bool feasible = true;
      for (Wrank& w : wranks_) {
        if (w.rank != src) continue;
        std::optional<std::uint32_t> best;
        for (const auto& [r, f] : free) {
          if (f < w.slots) continue;
          if (!best.has_value() || f < free[*best]) best = r;
        }
        if (!best.has_value()) {
          feasible = false;
          break;
        }
        free[*best] -= w.slots;
        plan.emplace_back(&w, *best);
      }
      if (!feasible || plan.empty()) continue;
      // The last move empties src, which releases its hosting mapping.
      for (auto& [w, target] : plan) {
        move_wrank_locked(*w, target,
                          drv_.machine().cost().interleave_wide_gbps);
        ++stats_.consolidation_migrations;
        ++moves;
      }
      drained = true;
      break;  // recompute sources against the new occupancy
    }
    if (!drained) break;
  }
  ++stats_.consolidation_passes;
  observe_frag_locked();
  return moves;
}

std::uint32_t Manager::fragmentation_permille() const {
  std::lock_guard lock(mu_);
  return core::fragmentation_permille(rank_views_locked(),
                                      config_.wrank_slots_per_rank);
}

void Manager::set_placement_policy(PlacementPolicyKind kind) {
  std::lock_guard lock(mu_);
  config_.placement = kind;
}

PlacementPolicyKind Manager::placement_policy() const {
  std::lock_guard lock(mu_);
  return config_.placement;
}

bool Manager::policy_wants_consolidation() const {
  std::lock_guard lock(mu_);
  return config_.placement == PlacementPolicyKind::kConsolidating;
}

void Manager::set_tenant_quota(const std::string& tenant,
                               std::uint32_t slots) {
  std::lock_guard lock(mu_);
  tenant_quotas_[tenant] = slots;
}

std::uint32_t Manager::tenant_slots(const std::string& tenant) const {
  std::lock_guard lock(mu_);
  return tenant_slots_locked(tenant);
}

std::vector<WrankInfo> Manager::wranks() const {
  std::lock_guard lock(mu_);
  std::vector<WrankInfo> out;
  out.reserve(wranks_.size());
  for (const Wrank& w : wranks_) {
    out.push_back({w.id, w.tenant, w.rank, w.slots});
  }
  return out;
}

void Manager::attach_histograms(obs::Histogram* alloc_ns,
                                obs::Histogram* frag) {
  std::lock_guard lock(mu_);
  alloc_hist_ = alloc_ns;
  frag_hist_ = frag;
}

}  // namespace vpim::core
