// Admission control for multi-tenant overload protection (ISSUE 8).
//
// The paper's §3.5 manager assumes a polite tenant population; under heavy
// traffic a single greedy tenant can queue unbounded work and drag every
// other VM's tail latency. The AdmissionController sits next to the
// Manager and makes three kinds of *typed, non-blocking* decisions:
//
//   - per-tenant token buckets (rate + burst) -> kAdmissionReject when a
//     tenant submits faster than its contracted rate;
//   - a global in-flight budget -> kOverloaded (would-block) when the host
//     as a whole has too much admitted-but-uncompleted work;
//   - weighted round-robin fairness over *rank grants*: under
//     oversubscription, a tenant whose share of rank allocations is ahead
//     of its weight defers to contending tenants with a smaller share.
//
// Determinism: every decision reads only virtual time (SimNs passed by the
// caller) and counters mutated on the serial request path. Nothing here
// reads the wall clock, thread identity, or any other source that could
// differ across VPIM_THREADS settings, so admission decisions are
// bit-identical across host thread counts (see DESIGN.md §5f).
//
// Thread safety: all entry points take an internal mutex, same discipline
// as FaultPlan — callable from concurrent serial sections, but decisions
// that should be deterministic must be made from serial code.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/sim_clock.h"
#include "virtio/pim_spec.h"

namespace vpim::obs {
class Histogram;
}  // namespace vpim::obs

namespace vpim::core {

struct AdmissionConfig {
  // Per-tenant token bucket: sustained rate (requests per virtual second)
  // and burst capacity. A fresh session starts with a full bucket.
  std::uint64_t tokens_per_sec = 1000;
  std::uint64_t bucket_burst = 32;
  // Global in-flight budget: admitted requests that have not completed.
  std::uint32_t global_inflight_budget = 64;
  // Fairness: a session counts as *contending* for ranks if it asked for
  // one within this much virtual time; only contenders can defer a grant.
  SimNs fairness_window_ns = 500 * kMs;
};

// Mutex-guarded snapshot, mirroring ManagerStats.
struct AdmissionStats {
  std::uint64_t admitted = 0;
  std::uint64_t shed_tenant = 0;    // token bucket empty -> ADMISSION_REJECT
  std::uint64_t shed_global = 0;    // in-flight budget full -> OVERLOADED
  std::uint64_t completed = 0;      // admitted requests released
  std::uint64_t fairness_deferrals = 0;  // rank grants deferred by WRR
  std::uint64_t inflight = 0;       // current admitted-but-uncompleted
  std::uint64_t sessions = 0;       // tenant sessions ever seen
};

class AdmissionController {
 public:
  explicit AdmissionController(AdmissionConfig config = {});

  // Per-request admission at submit time. Returns virtio::PimStatus::kOk,
  // kAdmissionReject (tenant over rate) or kOverloaded (global budget
  // full). Never blocks, never throws. On kOk the request counts against
  // the global in-flight budget until complete() is called.
  virtio::PimStatus try_admit(const std::string& tenant, SimNs now);

  // Releases one admitted request and records its queued time (admit ->
  // completion reap) in the queued-time histogram when one is attached.
  void complete(SimNs now, SimNs queued_ns);

  // Weighted round-robin gate for rank allocation under oversubscription:
  // true if `tenant` currently holds the smallest weighted share of rank
  // grants among contending sessions (ties allowed), false to defer this
  // attempt to a needier tenant. Callers treat false like "no rank
  // available right now" and go through their normal retry path.
  bool allow_rank_grant(const std::string& tenant, SimNs now);
  // Charges a granted rank to the tenant's WRR share.
  void on_rank_granted(const std::string& tenant);

  // Deadline-shed accounting (backend boundary checks): how far past its
  // deadline a request was when the device shed it.
  void note_shed_lateness(SimNs lateness_ns);

  // Tenant weights for the WRR policy (default 1; 0 is clamped to 1).
  void set_tenant_weight(const std::string& tenant, std::uint32_t weight);

  AdmissionStats stats() const;
  const AdmissionConfig& config() const { return config_; }

  // Optional observability sinks (registered by the Host on the metrics
  // registry; histograms cannot be published through collectors).
  void attach_histograms(obs::Histogram* queued_ns,
                         obs::Histogram* shed_lateness_ns);

 private:
  // Token-bucket state is kept in nano-tokens (1 token = 1e9 units) so the
  // refill `elapsed_ns * tokens_per_sec` is exact integer arithmetic —
  // no float drift across platforms, which the determinism contract needs.
  static constexpr std::uint64_t kNanoToken = 1'000'000'000ull;
  // WRR virtual-time scale: each grant advances a session's share by
  // kVtScale / weight, so comparisons stay in exact integer math.
  static constexpr std::uint64_t kVtScale = 720720;  // lcm(1..13)ish

  struct Session {
    std::string tenant;
    std::uint32_t weight = 1;
    std::uint64_t tokens = 0;        // nano-tokens
    SimNs last_refill = 0;
    std::uint64_t rank_vtime = 0;    // WRR weighted share of rank grants
    std::optional<SimNs> last_contend;  // last allow_rank_grant call, if any
  };

  Session& session_locked(const std::string& tenant);
  void refill_locked(Session& s, SimNs now);

  AdmissionConfig config_;
  mutable std::mutex mu_;
  std::vector<Session> sessions_;
  AdmissionStats stats_;
  obs::Histogram* queued_hist_ = nullptr;
  obs::Histogram* shed_hist_ = nullptr;
};

}  // namespace vpim::core
