// Deterministic, seeded fault injection.
//
// A FaultPlan is a schedule of hardware faults expressed in *virtual* terms:
// either "the Nth operation of a given kind on rank R" or "at virtual time
// T". Both triggers are evaluated only at serial points of the simulation
// (rank CI entry, driver transfer entry, backend request dispatch, manager
// observation), so a given seed produces bit-identical fault sequences at
// any VPIM_THREADS setting. With no plan installed every query is a no-op
// and the simulation is byte-identical to a fault-free build.
//
// Fault taxonomy (ISSUE 3):
//   kTransientDpu   - a DPU glitches during Rank::ci_launch; the launch
//                     aborts but the rank survives. Retryable.
//   kMramEcc        - an ECC event during a rank DMA window; the transfer
//                     aborts, data is intact on retry. Retryable.
//   kRankDeath      - the rank's control interface dies permanently. MRAM
//                     contents stay readable through the rescue path
//                     (Rank::save_snapshot) but no new CI/DMA completes.
//   kRankSeizure    - a native host app grabs a free rank out from under
//                     the manager and scribbles on it, releasing it later.
//   kLostCompletion - the device wedges and never completes one request;
//                     exercises the frontend's poll deadline.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/units.h"

namespace vpim {

enum class FaultKind : std::uint32_t {
  kTransientDpu = 0,
  kMramEcc = 1,
  kRankDeath = 2,
  kRankSeizure = 3,
  kLostCompletion = 4,
};

const char* fault_kind_name(FaultKind kind);

// What the device layer reports upward when a fault fires: the typed record
// a real driver would read out of an error mailbox.
struct FaultRecord {
  FaultKind kind = FaultKind::kTransientDpu;
  std::uint32_t rank = 0;
  std::uint32_t dpu = 0;   // affected DPU for kTransientDpu, else 0
  SimNs at_time = 0;       // virtual time the fault fired

  std::string describe() const;
};

// Thrown by the device layer when an injected fault fires. The backend's
// recovery wrapper catches it; native SDK callers see it directly (kernel
// fault handling is a known UPMEM pain point — native apps just crash).
class FaultError : public VpimError {
 public:
  explicit FaultError(const FaultRecord& record)
      : VpimError(record.describe()), record_(record) {}

  const FaultRecord& record() const { return record_; }

  // Transient faults are worth retrying after a backoff; the rest are not.
  bool transient() const {
    return record_.kind == FaultKind::kTransientDpu ||
           record_.kind == FaultKind::kMramEcc;
  }

 private:
  FaultRecord record_;
};

// One scheduled fault. Launch/transfer/request-scoped kinds trigger when the
// rank's per-channel operation counter reaches `at_op` (1-based); seizures
// trigger when virtual time reaches `at_time` and hold the rank for
// `hold_ns`.
struct FaultEvent {
  FaultKind kind = FaultKind::kTransientDpu;
  std::uint32_t rank = 0;
  std::uint32_t dpu = 0;
  std::uint64_t at_op = 0;
  SimNs at_time = 0;
  SimNs hold_ns = 0;
};

// Knobs for FaultPlan::generate. Counts are events drawn with the seeded
// RNG; op triggers land uniformly in [1, max_op], seizures uniformly in
// [seizure_from_ns, seizure_until_ns].
struct FaultPlanConfig {
  std::uint64_t seed = 1;
  std::uint32_t transient_dpu_faults = 0;
  std::uint32_t mram_ecc_faults = 0;
  std::uint32_t rank_deaths = 0;
  std::uint32_t rank_seizures = 0;
  std::uint32_t lost_completions = 0;
  std::uint64_t max_op = 32;
  SimNs seizure_from_ns = 0;
  SimNs seizure_until_ns = 1 * kSec;
  SimNs seizure_hold_ns = 200 * kMs;

  // Storm mode (ISSUE 8): on top of the independent events above, each
  // burst picks one victim rank and schedules a *correlated* cluster
  // there — `storm_width` transient DPU faults and ECC events at adjacent
  // op triggers, a lost completion in the middle of them, and a rank death
  // right after — modelling the real-world failure pattern where one
  // failing rank throws a volley of errors before dying, while tenants
  // churn at max rate. 0 bursts = storms off.
  std::uint32_t storm_bursts = 0;
  std::uint32_t storm_width = 3;
};

// The schedule plus the per-rank operation counters that drive it. All
// queries are serialized with an internal mutex; callers must only query
// from serial sections (never inside ThreadPool::parallel_for bodies).
class FaultPlan {
 public:
  FaultPlan() = default;
  explicit FaultPlan(std::vector<FaultEvent> events);

  // Expands a config into a concrete event schedule, reproducibly.
  static std::vector<FaultEvent> generate(const FaultPlanConfig& config,
                                          std::uint32_t nr_ranks);

  // Serial entry of Rank::ci_launch. Counts one launch op (and one combined
  // device op) on `rank`; returns the fault to raise, if one is due.
  std::optional<FaultRecord> on_launch(std::uint32_t rank, SimNs now);

  // Serial entry of a rank DMA window (RankMapping transfer/broadcast).
  // Counts one transfer op (and one combined device op) on `rank`.
  std::optional<FaultRecord> on_transfer(std::uint32_t rank, SimNs now);

  // Serial entry of the backend's per-request dispatch. Counts one request
  // op on `rank`; a hit means the completion for this request is lost.
  std::optional<FaultRecord> on_request(std::uint32_t rank, SimNs now);

  // Seizure events whose at_time has arrived. Each is returned exactly once
  // (marked fired); the driver decides whether the grab succeeds.
  std::vector<FaultEvent> take_due_seizures(SimNs now);

  // Every fault that has fired so far, in firing order.
  std::vector<FaultRecord> fired() const;
  std::uint64_t fired_count(FaultKind kind) const;

 private:
  struct Counters {
    std::uint64_t launches = 0;
    std::uint64_t transfers = 0;
    std::uint64_t requests = 0;
    std::uint64_t device_ops = 0;  // launches + transfers combined
  };

  std::optional<FaultRecord> fire_op_locked(std::uint32_t rank, SimNs now,
                                            bool launch_channel,
                                            bool transfer_channel,
                                            const Counters& c);

  mutable std::mutex mu_;
  std::vector<FaultEvent> events_;
  std::vector<bool> fired_flags_;
  std::vector<FaultRecord> fired_log_;
  std::vector<Counters> counters_;  // indexed by rank, grown on demand
};

// ---- fault-record wire format --------------------------------------------
//
// The simulated device DMAs fault records into a driver-owned mailbox as raw
// bytes; the driver parses them back out when the manager drains the log.
// The parser treats the bytes as hostile (fuzzed in tests/driver_fuzz_test).

inline constexpr std::uint32_t kFaultRecordMagic = 0xFA171E57u;
inline constexpr std::size_t kFaultRecordBytes = 24;

std::vector<std::uint8_t> serialize_fault_record(const FaultRecord& record);

// Returns nullopt for anything malformed: wrong size, bad magic, unknown
// kind, rank >= nr_ranks, or an out-of-range DPU index.
std::optional<FaultRecord> parse_fault_record(
    std::span<const std::uint8_t> bytes, std::uint32_t nr_ranks);

}  // namespace vpim
