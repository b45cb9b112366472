#include "vpim/admission.h"

#include <algorithm>

#include "common/obs/metrics.h"

namespace vpim::core {

AdmissionController::AdmissionController(AdmissionConfig config)
    : config_(config) {
  if (config_.bucket_burst == 0) config_.bucket_burst = 1;
  if (config_.global_inflight_budget == 0) config_.global_inflight_budget = 1;
}

AdmissionController::Session& AdmissionController::session_locked(
    const std::string& tenant) {
  for (Session& s : sessions_) {
    if (s.tenant == tenant) return s;
  }
  Session s;
  s.tenant = tenant;
  s.tokens = config_.bucket_burst * kNanoToken;  // start with a full bucket
  // A late-arriving session starts its WRR share at the *minimum* share of
  // the existing sessions, not at zero: otherwise a newcomer would starve
  // everyone else until it caught up on grants it never contended for.
  std::uint64_t min_vt = 0;
  bool any = false;
  for (const Session& o : sessions_) {
    if (!any || o.rank_vtime < min_vt) min_vt = o.rank_vtime;
    any = true;
  }
  s.rank_vtime = min_vt;
  sessions_.push_back(std::move(s));
  ++stats_.sessions;
  return sessions_.back();
}

void AdmissionController::refill_locked(Session& s, SimNs now) {
  if (now <= s.last_refill) return;
  const std::uint64_t elapsed =
      static_cast<std::uint64_t>(now - s.last_refill);
  // elapsed ns * tokens/sec = nano-tokens, exactly.
  const std::uint64_t cap = config_.bucket_burst * kNanoToken;
  const std::uint64_t earned = elapsed * config_.tokens_per_sec;
  s.tokens = std::min(cap, s.tokens + earned);
  s.last_refill = now;
}

virtio::PimStatus AdmissionController::try_admit(const std::string& tenant,
                                                SimNs now) {
  std::lock_guard lock(mu_);
  Session& s = session_locked(tenant);
  refill_locked(s, now);
  if (stats_.inflight >= config_.global_inflight_budget) {
    ++stats_.shed_global;
    return virtio::PimStatus::kOverloaded;
  }
  if (s.tokens < kNanoToken) {
    ++stats_.shed_tenant;
    return virtio::PimStatus::kAdmissionReject;
  }
  s.tokens -= kNanoToken;
  ++stats_.inflight;
  ++stats_.admitted;
  return virtio::PimStatus::kOk;
}

void AdmissionController::complete(SimNs /*now*/, SimNs queued_ns) {
  std::lock_guard lock(mu_);
  if (stats_.inflight > 0) --stats_.inflight;
  ++stats_.completed;
  if (queued_hist_ != nullptr) {
    queued_hist_->observe(queued_ns);
  }
}

bool AdmissionController::allow_rank_grant(const std::string& tenant,
                                           SimNs now) {
  std::lock_guard lock(mu_);
  Session& s = session_locked(tenant);
  s.last_contend = now;
  // Deny only if a *contending* session holds a strictly smaller weighted
  // share: the next free rank belongs to it. Sessions that stopped asking
  // (outside the fairness window) no longer hold anyone back.
  for (const Session& o : sessions_) {
    if (&o == &s || !o.last_contend.has_value()) continue;
    if (*o.last_contend + config_.fairness_window_ns < now) continue;
    if (o.rank_vtime < s.rank_vtime) {
      ++stats_.fairness_deferrals;
      return false;
    }
  }
  return true;
}

void AdmissionController::on_rank_granted(const std::string& tenant) {
  std::lock_guard lock(mu_);
  Session& s = session_locked(tenant);
  s.rank_vtime += kVtScale / s.weight;
}

void AdmissionController::note_shed_lateness(SimNs lateness_ns) {
  std::lock_guard lock(mu_);
  if (shed_hist_ != nullptr) {
    shed_hist_->observe(lateness_ns);
  }
}

void AdmissionController::set_tenant_weight(const std::string& tenant,
                                            std::uint32_t weight) {
  std::lock_guard lock(mu_);
  session_locked(tenant).weight = std::max<std::uint32_t>(1, weight);
}

AdmissionStats AdmissionController::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

void AdmissionController::attach_histograms(obs::Histogram* queued_ns,
                                            obs::Histogram* shed_lateness_ns) {
  std::lock_guard lock(mu_);
  queued_hist_ = queued_ns;
  shed_hist_ = shed_lateness_ns;
}

}  // namespace vpim::core
