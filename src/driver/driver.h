// Simulated UPMEM kernel driver (paper §2, Fig 3).
//
// A process reaches a rank in *performance mode*: it mmaps the rank's MRAM
// and control interfaces and bypasses the driver (RankMapping below). The
// driver itself keeps the mapping table, sysfs, the fault mailbox and rank
// resets.
//
// In vPIM the Firecracker backend maps ranks this way (§3.4). The guest
// side of the paper's safe mode, where every call pays the kernel-entry
// cost, is the frontend's device file (src/vpim/frontend.h).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/fault.h"
#include "driver/sysfs.h"
#include "driver/xfer.h"
#include "upmem/layout.h"
#include "upmem/machine.h"

namespace vpim::driver {

class UpmemDriver;

// The one place a request stores to or pins MRAM. A backend drain parks
// every request's bank stores here (transfers, broadcasts, batched-flush
// records, prefetch pins) and replays them all in ONE parallel_for, so
// thread fan-out is paid once per drain, not per request. Virtual time is
// unaffected: callers charge their cost before adding.
//
// add() and add_broadcast() check every target bank through Rank::mram
// (rank alive, DPU index, DPU not running) before they park anything, so the issuing request sees the error, a rejected request
// parks nothing, and the replay only moves bytes. A parked bank pointer
// lives until its rank's binding changes; the owner flushes before that.
//
// A read parked with `pins` (one slot per DPU) replays as a pin instead of
// a copy: MramBank::pin stores the bank range's page refs, as they stand at
// that point of the replay, into pins[dpu]. Prefetch fills use this, so a
// later write to the bank in the same drain lands before the pin.
//
// Tasks are stored by value (never as XferEntry pointers — the backend
// reuses its deserialization scratch across requests in a batch), grouped
// per DPU in first-use order. Within a group, append order is replay
// order, so read-after-write on the same DPU stays correct across a
// batch. Host buffers are read or written at replay, not at add(): the
// async API's buffer-stability contract keeps them in place until then.
class CopyBacklog {
 public:
  CopyBacklog() { slot_.fill(-1); }

  void add(upmem::Rank& rank, const TransferMatrix& matrix,
           std::span<upmem::MramBank::Pin> pins = {});
  // Parks `data` at `mram_offset` of every bank of `rank`. Whole pages are
  // built once, here, and adopted copy-on-write by every bank, so a 60 MB
  // broadcast to 60 DPUs costs 60 MB of real memory; a partial tail page,
  // or a whole unaligned broadcast, is a plain write per bank.
  void add_broadcast(upmem::Rank& rank, std::uint64_t mram_offset,
                     std::span<const std::uint8_t> data);
  bool empty() const { return groups_.empty(); }
  // Replays every parked task (one parallel_for over DPU groups), then
  // resets for the next batch.
  void flush();

 private:
  enum class Kind : std::uint8_t { kWrite, kRead, kPin, kAdopt };
  struct Task {
    upmem::MramBank* bank;
    std::uint64_t mram_offset;
    std::uint8_t* host;  // kWrite, kRead
    union {
      upmem::MramBank::Pin* pin;         // kPin
      const upmem::MramPageRef* pages;   // kAdopt: size / page size refs
    };
    std::uint64_t size;
    Kind kind;
  };
  std::vector<Task>& group(std::uint32_t dpu);  // opened on first use
  std::array<std::int32_t, upmem::kDpuSlotsPerRank> slot_{};
  std::vector<std::vector<Task>> groups_;
  std::vector<std::vector<upmem::MramPageRef>> shared_;  // kAdopt pages
};

// One-shot wrappers over CopyBacklog::add and add_broadcast: with `defer`
// the request parks there for the owner's batched replay, otherwise it
// replays at once (the native driver's path). Banks hold DPU-linear bytes,
// so no (de)interleave runs here. Neither charges virtual time.
void copy_banks(upmem::Rank& rank, const TransferMatrix& matrix,
                CopyBacklog* defer = nullptr,
                std::span<upmem::MramBank::Pin> pins = {});
void broadcast_banks(upmem::Rank& rank, std::uint64_t mram_offset,
                     std::span<const std::uint8_t> data,
                     CopyBacklog* defer = nullptr);

// Performance-mode mapping of one rank. Exclusive: a rank can be mapped by
// at most one process at a time. Move-only RAII; unmapping frees the rank
// in sysfs, which is how the manager's observer learns about releases.
class RankMapping {
 public:
  RankMapping(RankMapping&& other) noexcept;
  RankMapping& operator=(RankMapping&& other) noexcept;
  RankMapping(const RankMapping&) = delete;
  RankMapping& operator=(const RankMapping&) = delete;
  ~RankMapping();

  std::uint32_t rank_index() const { return rank_index_; }
  std::uint32_t nr_dpus() const;

  // The host copy bandwidth transfers and broadcasts are charged at:
  // interleave_wide_gbps unless the owner sets another. The bytes move the
  // same way at any bandwidth; only virtual time differs.
  void set_gbps(double gbps) { gbps_ = gbps; }

  // The one physical stream entry: every host<->MRAM movement on this
  // mapping passes here once, before its bytes move. Injected transfer
  // faults fire first (a kRankDeath one fails the rank), so a retry sees
  // unchanged banks; then one fixed software cost plus `bytes` at the
  // mapping's bandwidth is charged under a driver.xfer span. Returns the
  // rank to copy into (copy_banks, broadcast_banks).
  upmem::Rank& stream(std::uint64_t bytes, std::uint32_t entries);

  // Scatter/gather data transfer for the whole matrix: stream, then
  // copy_banks.
  void transfer(const TransferMatrix& matrix);

  // Same payload to every DPU (UPMEM broadcast transfers). Physically the
  // host still writes each bank, so the stream is nr_dpus payloads long.
  void broadcast(std::uint64_t mram_offset, std::span<const std::uint8_t> data);

  // Control-interface operations; each charges the perf-mode CI cost.
  void ci_load(std::string_view kernel_name);
  void ci_launch(std::uint64_t dpu_mask,
                 std::optional<std::uint32_t> nr_tasklets = std::nullopt);
  std::uint64_t ci_running_mask();
  void ci_copy_to_symbol(std::uint32_t dpu, std::string_view symbol,
                         std::uint32_t offset,
                         std::span<const std::uint8_t> data);
  void ci_copy_from_symbol(std::uint32_t dpu, std::string_view symbol,
                           std::uint32_t offset, std::span<std::uint8_t> out);

  // Releases the mapping early (idempotent).
  void unmap();

 private:
  friend class UpmemDriver;
  // Only UpmemDriver::map_rank builds a mapping, so every mapping owns the
  // rank it names and unmaps it exactly once.
  RankMapping(UpmemDriver& drv, std::uint32_t rank_index);

  UpmemDriver* drv_ = nullptr;  // null once unmapped
  std::uint32_t rank_index_ = 0;
  double gbps_;
};

class UpmemDriver {
 public:
  explicit UpmemDriver(upmem::PimMachine& machine);

  upmem::PimMachine& machine() { return machine_; }
  Sysfs& sysfs() { return sysfs_; }

  // Performance mode: exclusive mmap of one rank.
  RankMapping map_rank(std::uint32_t rank, const std::string& owner);
  bool is_mapped(std::uint32_t rank) const;

  // Clears a rank's memory, charging host memset time over the full 4 GiB
  // rank-mapped region (manager reset path, ~597 ms in the paper).
  void reset_rank(std::uint32_t rank);

  // ---- Fault surface ----------------------------------------------------
  // The textual sysfs status file for one rank (what the manager's
  // observer actually reads and parses).
  std::string rank_status_line(std::uint32_t rank) const;

  // Records a fault in the driver's error mailbox (serialized bytes, like
  // a device DMA) and updates sysfs health: every fault bumps the rank's
  // fault counter; kRankDeath marks it failed.
  void log_fault(const FaultRecord& record);
  // Raw mailbox write, bypassing serialization — the fuzz tests use this
  // to feed the parse path truncated/garbage records.
  void log_raw_fault_bytes(std::span<const std::uint8_t> bytes);
  // Drains and parses the mailbox; malformed records are dropped with a
  // warning (the parser treats mailbox bytes as untrusted).
  std::vector<FaultRecord> drain_fault_records();

  // Reset-verify pass over a quarantined rank: erase, then a pattern
  // write/readback probe in every bank. Returns false (without touching
  // sysfs health) if the rank is mapped, still dead, or fails the probe.
  bool try_recover_rank(std::uint32_t rank, bool charge_time);

  // Fires due FaultPlan seizures (a native app grabbing free ranks) and
  // releases expired ones. Callers must serialize calls; the manager
  // invokes this from its locked observe pass.
  void apply_fault_plan();

 private:
  friend class RankMapping;
  void unmap_rank(std::uint32_t rank);

  upmem::PimMachine& machine_;
  Sysfs sysfs_;
  // Mapping bookkeeping is mutex-protected like the real kernel driver's;
  // the data path itself is single-threaded (virtual time).
  mutable std::mutex map_mu_;
  std::vector<char> mapped_;

  // Error mailbox: serialized fault records awaiting the observer's drain.
  mutable std::mutex fault_mu_;
  std::vector<std::vector<std::uint8_t>> fault_log_;
  // Ranks currently held by an injected native seizure, and when the
  // squatter lets go. Serialized by apply_fault_plan's caller.
  struct Seizure {
    std::uint32_t rank;
    SimNs release_at;
  };
  std::vector<Seizure> seizures_;
};

}  // namespace vpim::driver
