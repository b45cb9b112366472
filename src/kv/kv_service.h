// Host half of the partitioned KV/index service (ISSUE 10, tentpole).
//
// A KvService owns the key-space layout on one vUPMEM device: it routes
// client ops to hash partitions, stages per-DPU inbox batches, drives
// them through the PR-7 SQ/CQ pipeline (async inbox writes, one launch
// per cycle, async outbox reads) and merges the typed results back into
// client order. Two mitigation tiers fight skew:
//
//   - a host-side hot-key LRU cache absorbs repeated GETs of the hottest
//     keys before they reach the device (write ops invalidate/update the
//     cached entry at enqueue time, and a GET result observed *after* a
//     same-batch mutation never refills the cache — enqueue-order
//     coherence);
//   - a windowed rebalancer migrates the hottest partitions off
//     overloaded DPUs into free slots elsewhere.
//
// Determinism: every decision (routing, cache eviction, rebalance pick)
// runs on the serial control path and depends only on op order and
// virtual time, so results, metrics and traces are bit-identical at any
// VPIM_THREADS (DESIGN.md §5h).
#pragma once

#include <cstdint>
#include <list>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/obs/obs.h"
#include "common/sim_clock.h"
#include "guest/guest_memory.h"
#include "kv/kv_types.h"
#include "vpim/frontend.h"

namespace vpim::kv {

struct KvStats {
  std::uint64_t gets = 0;
  std::uint64_t puts = 0;
  std::uint64_t deletes = 0;
  std::uint64_t scans = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t batches = 0;       // execute() calls
  std::uint64_t cycles = 0;        // device round trips
  std::uint64_t rebalances = 0;    // partition migrations
  std::uint64_t migrated_records = 0;
  std::uint64_t device_errors = 0;  // ops resolved kDeviceFault/kTimeout
};

class KvService {
 public:
  KvService(core::Frontend& fe, guest::GuestMemory& mem, SimClock& clock,
            const CostModel& cost, obs::Hub& obs, KvConfig config = {});
  ~KvService();

  KvService(const KvService&) = delete;
  KvService& operator=(const KvService&) = delete;

  // Binds the frontend to a rank, loads the kernel, pushes the WRAM
  // argument block and zeroes every store slot. Returns false when no
  // rank was available.
  bool open();
  void close();
  bool is_open() const { return open_; }

  // Executes one batch. Results land in op order; every op resolves with
  // a typed KvStatus even when the device faults mid-batch.
  std::vector<KvResult> execute(std::span<const KvOp> ops);

  const KvStats& stats() const { return stats_; }
  const KvConfig& config() const { return config_; }

  // ---- test hooks --------------------------------------------------------
  // Raw device image of one partition: [u64 count | count x KvRecord],
  // read back through the blocking path (prop_kv_test diffs this against
  // the oracle's independently built image).
  std::vector<std::uint8_t> partition_image(std::uint32_t partition);
  std::uint32_t partition_dpu(std::uint32_t partition) const;

 private:
  struct Placement {
    std::uint32_t dpu = 0;
    std::uint32_t slot = 0;
  };
  struct CacheEntry {
    std::uint64_t value = 0;
    std::list<std::uint64_t>::iterator lru_pos;  // this key's node in lru_
  };
  // One routed unit of work: op `index` against `partition` (scans fan
  // out to every partition, point ops produce exactly one unit).
  struct Unit {
    std::uint32_t index = 0;
    std::uint32_t partition = 0;
  };

  void route(std::span<const KvOp> ops, std::vector<KvResult>& results);
  void run_cycles(std::span<const KvOp> ops,
                  std::vector<KvResult>& results);
  // One SQ/CQ round trip over every DPU with pending units; returns the
  // number of units retired.
  std::size_t run_one_cycle(std::span<const KvOp> ops,
                            std::vector<KvResult>& results);
  void parse_result(std::uint32_t op_index, const KvOp& op,
                    const KvResultSlot& slot, KvResult& out);
  void fail_unit(const KvOp& op, KvResult& out, KvStatus status);
  void finish_scans(std::span<const KvOp> ops,
                    std::vector<KvResult>& results);
  void maybe_rebalance();
  bool migrate_partition(std::uint32_t partition, std::uint32_t to_dpu);
  void cache_insert(std::uint64_t key, std::uint64_t value);
  void cache_touch(CacheEntry& entry);  // moves the entry to most recent
  void cache_erase(std::uint64_t key);
  // Reaps completions for `tickets`; returns true when every ticket
  // completed with status 0.
  bool drain_tickets(const std::vector<core::Frontend::Ticket>& tickets);

  core::Frontend& fe_;
  guest::GuestMemory& mem_;
  SimClock& clock_;
  const CostModel& cost_;
  obs::Hub& obs_;
  KvConfig config_;
  KvLayout layout_;
  bool open_ = false;

  std::vector<Placement> placement_;       // partition -> {dpu, slot}
  std::vector<std::uint32_t> free_slots_;  // per DPU
  std::vector<std::uint64_t> window_load_;  // per partition, this window
  std::uint32_t window_batches_ = 0;

  // Hot-key cache: a deterministic LRU. Every hit or refresh splices the
  // key to the back of lru_, so the front is the least recently touched
  // key and eviction never depends on hash-map iteration order.
  std::unordered_map<std::uint64_t, CacheEntry> cache_;
  std::list<std::uint64_t> lru_;
  // Keys mutated in the batch being executed: GET results that raced a
  // same-batch mutation must not refill the cache.
  std::unordered_set<std::uint64_t> mutated_;

  // Per-DPU staging (guest RAM, allocated once at open).
  std::vector<std::span<std::uint8_t>> inbox_buf_;
  std::vector<std::span<std::uint8_t>> outbox_buf_;
  std::span<std::uint8_t> migrate_buf_;
  std::vector<std::vector<Unit>> pending_;  // per DPU routing queues
  // Scan merge state: per op, rows gathered from every partition.
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      scan_rows_;

  KvStats stats_;
  obs::Histogram* batch_hist_ = nullptr;
  obs::MetricsRegistry::CollectorHandle collector_;
};

}  // namespace vpim::kv
