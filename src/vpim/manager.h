// The vPIM manager (§3.5): one per host, arbitrating physical ranks among
// VMs (and coexisting native applications).
//
// Rank life cycle (Fig 5, extended with quarantine):
//   NAAV --alloc--> ALLO --release--> NANA --reset--> NAAV
//                    ^---- realloc (same previous owner, no reset) ----'
//   any --permanent fault / seized release--> FAIL --reset-verify--> NAAV
//
// FAIL ranks are quarantined: the observer probes them with the driver's
// reset-verify pass under exponential backoff and only returns them to
// NAAV once the probe passes (see DESIGN.md fault model).
//
// Releases are *not* announced by VMs: a dedicated observer watches the
// driver's sysfs rank-status files and reacts, so native host applications
// and unmodified guests coexist (requirement R3). A grant *is* a mapping:
// the manager maps the rank in the requester's name before handing it
// over, so an ALLO rank is released exactly when sysfs shows it free.
//
// The Manager core is synchronous and thread-safe; ManagerService (below)
// adds the paper's 8-thread request pool and observer thread for real
// concurrent use, while deterministic benches drive the core directly and
// charge virtual time.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/cost_model.h"
#include "common/sim_clock.h"
#include "driver/driver.h"
#include "vpim/admission.h"
#include "vpim/placement.h"

namespace vpim::obs {
class Histogram;
}  // namespace vpim::obs

namespace vpim::core {

enum class RankState : std::uint8_t {
  kNaav,  // not allocated, available
  kAllo,  // allocated (to a VM device or a native application)
  kNana,  // not allocated, not available (awaiting content reset)
  kFail,  // quarantined after a fault; reset-verify before reuse
};

struct ManagerConfig {
  // Wait between allocation retries when no rank is available.
  SimNs retry_wait_ns = 50 * kMs;
  std::uint32_t max_attempts = 5;
  // Charge virtual time for socket round trips, waits, and resets.
  // Disabled by the real-thread ManagerService (virtual clocks are not
  // meaningful across preemptive threads).
  bool charge_time = true;
  // Quarantine probing: first reset-verify retry waits this long after a
  // failed probe, doubling per failure up to the cap.
  SimNs quarantine_backoff_ns = 100 * kMs;
  SimNs quarantine_backoff_max_ns = 1600 * kMs;
  // Wrank hosting (ISSUE 9): how many wrank slots one physical rank holds
  // under oversubscription. The Manager maps a rank in its own name while
  // it hosts wranks; an emptied rank goes back through the NANA reset.
  std::uint32_t wrank_slots_per_rank = 4;
  // Per-tenant slot quota for allocate/resize (0 = unlimited). Individual
  // tenants can be overridden with set_tenant_quota().
  std::uint32_t tenant_quota_slots = 0;
  // Placement policy the wrank allocator starts with (see placement.h).
  PlacementPolicyKind placement = PlacementPolicyKind::kFirstFit;
};

// Typed results of the wrank allocation vocabulary. ManagerService maps
// these 1:1 onto its wire responses (plus kShutdown, which only the
// service can produce).
enum class AllocStatus : std::uint8_t {
  kOk,
  kNoCapacity,     // retries exhausted, nothing placeable
  kQuotaExceeded,  // tenant over its slot quota — not retried
  kNotFound,       // release/resize of an unknown wrank id
  kBadRequest,     // zero or rank-exceeding slot count
  kShutdown,       // service draining its queue at stop()
};
const char* to_string(AllocStatus status);

struct AllocResult {
  AllocStatus status = AllocStatus::kNoCapacity;
  std::uint64_t wrank = 0;  // valid when status == kOk
  std::uint32_t rank = 0xFFFFFFFFu;
};

// Snapshot row for tests / benches / the consolidation pass.
struct WrankInfo {
  std::uint64_t id = 0;
  std::string tenant;
  std::uint32_t rank = 0xFFFFFFFFu;  // kNoRank when displaced by a fault
  std::uint32_t slots = 0;
};

struct ManagerStats {
  std::uint64_t allocations = 0;
  std::uint64_t reuse_hits = 0;  // NANA rank re-assigned to previous owner
  std::uint64_t resets = 0;
  std::uint64_t failed_requests = 0;
  std::uint64_t releases_observed = 0;
  // Fault handling (ISSUE 3).
  std::uint64_t quarantined = 0;         // transitions into kFail
  std::uint64_t quarantine_probes = 0;   // reset-verify attempts on kFail
  std::uint64_t recoveries = 0;          // kFail -> kNaav probe successes
  std::uint64_t seizures_observed = 0;   // ranks grabbed out from under us
  // Live wrank moves: backend fault migrations (PR 3) plus the manager's
  // own consolidation / rescue / resize moves (ISSUE 9).
  std::uint64_t wrank_migrations = 0;
  std::uint64_t fault_records_drained = 0;
  std::uint64_t status_parse_errors = 0;  // hostile/corrupt sysfs lines
  // Wrank allocation service (ISSUE 9).
  std::uint64_t wrank_allocs = 0;
  std::uint64_t wrank_releases = 0;
  std::uint64_t wrank_resizes = 0;
  std::uint64_t quota_rejections = 0;
  std::uint64_t consolidation_passes = 0;
  std::uint64_t consolidation_migrations = 0;  // packing moves only
  std::uint64_t wranks_displaced = 0;  // hosting rank quarantined under them
};

class Manager {
 public:
  // Sentinel rank index for displaced wranks (hosting rank quarantined;
  // re-placement pending).
  static constexpr std::uint32_t kNoRank = 0xFFFFFFFFu;

  Manager(driver::UpmemDriver& drv, ManagerConfig config = {});

  // Handles one allocation request from `owner` (a VM device tag).
  // Implements the §3.5 policy: previous-owner NANA rank first, then
  // round-robin over NAAV ranks, then reset-and-take a NANA rank, then
  // retry with timeout, finally abandon (nullopt). The grant is the
  // rank's mapping in `owner`'s name; dropping it is the release.
  std::optional<driver::RankMapping> request_rank(const std::string& owner);

  // --- wrank allocation vocabulary (ISSUE 9) ---------------------------
  // Oversubscribed slot allocation: a wrank of `slots` co-located slots is
  // placed on one physical rank by the active placement policy. The
  // Manager maps hosting ranks in its own name, so the sysfs observer sees
  // them busy like any other holder. Same retry-with-timeout shape as
  // request_rank; quota violations are rejected without retrying. All
  // decisions read only table state and virtual time — bit-identical at
  // any VPIM_THREADS.
  AllocResult allocate_wrank(const std::string& tenant, std::uint32_t slots);
  AllocStatus release_wrank(std::uint64_t wrank_id);
  // Grows or shrinks a wrank in place when its rank has room, otherwise
  // live-migrates it to a rank the policy picks (charging the move).
  AllocResult resize_wrank(std::uint64_t wrank_id, std::uint32_t new_slots);

  // One background consolidation pass: re-places wranks displaced off
  // quarantined ranks, then drains underfull hosting ranks onto fuller
  // ones (never onto a quarantined rank) so whole ranks free up for
  // multi-slot and exclusive requests. Returns the number of wrank moves.
  std::uint32_t consolidate();

  // Current fragmentation of the wrank population (see placement.h).
  std::uint32_t fragmentation_permille() const;

  void set_placement_policy(PlacementPolicyKind kind);
  PlacementPolicyKind placement_policy() const;
  bool policy_wants_consolidation() const;
  // Per-tenant quota override (slots; 0 = unlimited).
  void set_tenant_quota(const std::string& tenant, std::uint32_t slots);
  std::uint32_t tenant_slots(const std::string& tenant) const;
  std::vector<WrankInfo> wranks() const;

  // Observability sinks (wired by the Host): modeled allocation latency
  // per allocate/resize call, and the fragmentation level sampled after
  // every mutating wrank operation.
  void attach_histograms(obs::Histogram* alloc_ns, obs::Histogram* frag);

  // Observer pass: detects releases via sysfs (ALLO ranks whose mapping
  // disappeared -> NANA) and, when `do_resets`, erases NANA ranks
  // (-> NAAV). The real observer runs this on a polling thread.
  void observe(bool do_resets = true);

  RankState state(std::uint32_t rank) const;
  ManagerStats stats() const;
  const ManagerConfig& config() const { return config_; }

  // The backend migrated a wrank off a dead rank (stats only).
  void note_wrank_migration();

  // Overload protection (ISSUE 8): attaches an AdmissionController. When
  // set, rank allocation under scarcity goes through its weighted
  // round-robin gate (a deferred attempt behaves exactly like "no rank
  // available" and takes the normal retry path), and the frontends consult
  // it for per-request admission. Null (the default) keeps the pre-ISSUE-8
  // behaviour bit-for-bit.
  void set_admission(AdmissionController* admission);
  AdmissionController* admission() const { return admission_; }

 private:
  struct Entry {
    RankState state = RankState::kNaav;
    std::string owner;       // current holder (ALLO)
    std::string last_owner;  // for NANA-affinity reuse
    // Fault bookkeeping: a seized rank must be reset-verified (not merely
    // reset) once its squatter lets go; kFail ranks are probed with
    // exponential backoff.
    bool quarantine_on_release = false;
    SimNs probe_backoff = 0;
    SimNs next_probe = 0;
    // Wrank hosting (ISSUE 9): while the manager hosts wranks on this
    // rank it holds the driver mapping itself, so sysfs keeps the rank
    // busy and the observer treats it like any other active holder. Set
    // exactly while at least one wrank lives here.
    std::optional<driver::RankMapping> host_mapping;
  };

  // One row of the wrank table, the only placement ledger: per-rank
  // occupancy and per-tenant usage are derived from it, never mirrored.
  struct Wrank {
    std::uint64_t id = 0;
    std::string tenant;
    std::uint32_t rank = kNoRank;
    std::uint32_t slots = 0;
  };

  // The §3.5 retry-with-timeout shape every grant shares: up to
  // max_attempts runs of `attempt` under mu_, each behind the admission
  // WRR gate for `tenant`; between runs, wait retry_wait_ns (added to
  // `waited`) and run an observer pass. Returns the first engaged result,
  // or nullopt after counting one failed request.
  template <typename Attempt>
  auto retry_grant(const std::string& tenant, SimNs& waited,
                   Attempt attempt) -> decltype(attempt());
  std::optional<driver::RankMapping> try_grant_locked(
      const std::string& owner);
  // Maps `rank` in `owner`'s name and records it ALLO; nullopt (entry
  // untouched) when someone else mapped it first.
  std::optional<driver::RankMapping> grant_locked(std::uint32_t rank,
                                                  const std::string& owner);
  void reset_rank_locked(std::uint32_t rank);
  void quarantine_locked(std::uint32_t rank, SimNs now);

  // --- wrank internals (all require mu_) --------------------------------
  std::vector<Wrank>::iterator find_wrank_locked(std::uint64_t id);
  // Slots in use per rank, summed from the wrank table in one pass.
  std::vector<std::uint32_t> slots_used_locked() const;
  std::uint32_t tenant_slots_locked(const std::string& tenant) const;
  // True (and counted) when `extra` more slots would put `tenant` over
  // its quota.
  bool over_quota_locked(const std::string& tenant, std::uint32_t extra);
  std::vector<RankView> rank_views_locked() const;
  // Binds `rank` for wrank hosting (reset if NANA, then map); returns the
  // modeled cost of doing so.
  SimNs host_bind_locked(std::uint32_t rank);
  // Drops the hosting mapping of `rank` once no wrank lives there (-> NANA,
  // reset later).
  void unbind_if_empty_locked(std::uint32_t rank);
  // Puts `w` on `rank`; the rank's derived occupancy must still fit.
  void place_wrank_locked(Wrank& w, std::uint32_t rank);
  // The one wrank move (resize-migrate, rescue, consolidation): binds
  // `to`, unplaces `w` (releasing a hosting rank that empties), charges
  // its image streamed at `gbps`, counts the migration and places `w`.
  void move_wrank_locked(Wrank& w, std::uint32_t to, double gbps);
  // Re-places wranks whose hosting rank was quarantined under them.
  std::uint32_t rescue_displaced_locked();
  SimNs wrank_move_cost(std::uint32_t slots, double gbps) const;
  SimNs reset_cost_ns() const;
  void charge(SimNs ns);
  void observe_frag_locked();

  driver::UpmemDriver& drv_;
  ManagerConfig config_;
  AdmissionController* admission_ = nullptr;
  mutable std::mutex mu_;
  std::vector<Entry> table_;
  std::uint32_t rr_cursor_ = 0;  // round-robin start position
  ManagerStats stats_;
  // Wrank allocation service state (ISSUE 9).
  std::vector<Wrank> wranks_;  // ordered by id
  std::uint64_t next_wrank_id_ = 1;
  std::map<std::string, std::uint32_t> tenant_quotas_;
  obs::Histogram* alloc_hist_ = nullptr;
  obs::Histogram* frag_hist_ = nullptr;
};

}  // namespace vpim::core
