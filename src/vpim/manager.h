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
// The Manager grants whole ranks only. Oversubscription (§7) is not a
// Manager concern: a device that finds no free rank binds a host-emulated
// rank in the backend, and kMigrateRank upgrades it to a physical rank once
// one frees up.
//
// The Manager core is synchronous and thread-safe; ManagerService
// (manager_service.h) adds the paper's 8-thread request pool and observer
// thread for real concurrent use, while deterministic benches drive the
// core directly and charge virtual time.
#pragma once

#include <compare>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/cost_model.h"
#include "common/sim_clock.h"
#include "driver/driver.h"
#include "vpim/admission.h"

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
};

// One held grant: the rank `rank` is ALLO to `owner` in the Manager's
// table (a VM device tag, or a native application the observer saw).
struct WrankInfo {
  std::string owner;
  std::uint32_t rank = 0;
  auto operator<=>(const WrankInfo&) const = default;
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
  std::uint64_t fault_records_drained = 0;
  std::uint64_t status_parse_errors = 0;  // hostile/corrupt sysfs lines
};

class Manager {
 public:
  Manager(driver::UpmemDriver& drv, ManagerConfig config = {});

  // Handles one allocation request from `owner` (a VM device tag).
  // Implements the §3.5 policy: previous-owner NANA rank first, then
  // round-robin over NAAV ranks, then reset-and-take a NANA rank, then
  // retry with timeout, finally abandon (nullopt). The grant is the
  // rank's mapping in `owner`'s name; dropping it is the release.
  std::optional<driver::RankMapping> request_rank(const std::string& owner);

  // Every held grant, one row per ALLO rank in table order. The table is
  // updated by grants and by observer passes, so a dropped mapping leaves
  // its row until the next observe(). The name is kept from the deleted
  // slot tier because tenant_churn's leak check calls it.
  std::vector<WrankInfo> wranks() const;

  // Observer pass: detects releases via sysfs (ALLO ranks whose mapping
  // disappeared -> NANA) and, when `do_resets`, erases NANA ranks
  // (-> NAAV). The real observer runs this on a polling thread.
  void observe(bool do_resets = true);

  RankState state(std::uint32_t rank) const;
  ManagerStats stats() const;
  const ManagerConfig& config() const { return config_; }

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
  };

  std::optional<driver::RankMapping> try_grant_locked(
      const std::string& owner);
  // Maps `rank` in `owner`'s name and records it ALLO; nullopt (entry
  // untouched) when someone else mapped it first.
  std::optional<driver::RankMapping> grant_locked(std::uint32_t rank,
                                                  const std::string& owner);
  void reset_rank_locked(std::uint32_t rank);
  void quarantine_locked(std::uint32_t rank, SimNs now);

  // Advances the virtual clock by `ns` when charge_time is set.
  void charge(SimNs ns);

  driver::UpmemDriver& drv_;
  ManagerConfig config_;
  AdmissionController* admission_ = nullptr;
  mutable std::mutex mu_;
  std::vector<Entry> table_;
  std::uint32_t rr_cursor_ = 0;  // round-robin start position
  ManagerStats stats_;
};

}  // namespace vpim::core
