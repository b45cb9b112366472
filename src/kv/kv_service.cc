#include "kv/kv_service.h"

#include <algorithm>
#include <cstring>
#include <iterator>

#include "common/error.h"
#include "driver/xfer.h"
#include "kv/kv_kernel.h"
#include "virtio/pim_spec.h"

namespace vpim::kv {

namespace {

using core::Frontend;
using driver::TransferMatrix;
using driver::XferDirection;

KvStatus map_transport_status(std::int32_t status) {
  return status == static_cast<std::int32_t>(virtio::PimStatus::kTimeout)
             ? KvStatus::kTimeout
             : KvStatus::kDeviceFault;
}

}  // namespace

const char* to_string(KvStatus status) {
  switch (status) {
    case KvStatus::kOk: return "ok";
    case KvStatus::kNotFound: return "not-found";
    case KvStatus::kNoSpace: return "no-space";
    case KvStatus::kDeviceFault: return "device-fault";
    case KvStatus::kTimeout: return "timeout";
  }
  return "unknown";
}

KvService::KvService(Frontend& fe, guest::GuestMemory& mem, SimClock& clock,
                     const CostModel& cost, obs::Hub& obs, KvConfig config)
    : fe_(fe), mem_(mem), clock_(clock), cost_(cost), obs_(obs),
      config_(config), layout_(KvLayout::of(config)) {
  VPIM_CHECK(config_.nr_dpus >= 1 && config_.nr_dpus <= 64,
             "KV needs 1..64 DPUs");
  VPIM_CHECK(config_.partitions >= 1, "KV needs at least one partition");
  VPIM_CHECK(config_.partitions <=
                 config_.nr_dpus * config_.slots_per_dpu,
             "more partitions than store slots");
  VPIM_CHECK(config_.max_batch_ops >= 1, "KV needs a batch budget");
  VPIM_CHECK(config_.scan_limit >= 1 && config_.scan_limit <= kKvScanLimit,
             "scan_limit out of range");
  VPIM_CHECK(!config_.hot_key_cache || config_.hot_cache_entries >= 1,
             "hot-key cache needs at least one entry");
  batch_hist_ = &obs_.metrics.histogram("vpim_kv_batch_ns", {});
  collector_ = obs_.metrics.add_collector([this](obs::Collection& out) {
    out.counter("vpim_kv_ops_total", {{"op", "get"}}, stats_.gets);
    out.counter("vpim_kv_ops_total", {{"op", "put"}}, stats_.puts);
    out.counter("vpim_kv_ops_total", {{"op", "delete"}}, stats_.deletes);
    out.counter("vpim_kv_ops_total", {{"op", "scan"}}, stats_.scans);
    out.counter("vpim_kv_cache_hits_total", {}, stats_.cache_hits);
    out.counter("vpim_kv_batches_total", {}, stats_.batches);
    out.counter("vpim_kv_cycles_total", {}, stats_.cycles);
    out.counter("vpim_kv_rebalances_total", {}, stats_.rebalances);
    out.counter("vpim_kv_migrated_records_total", {},
                stats_.migrated_records);
    out.counter("vpim_kv_device_errors_total", {}, stats_.device_errors);
    out.gauge("vpim_kv_cache_entries", {},
              static_cast<std::int64_t>(cache_.size()));
  });
}

KvService::~KvService() {
  if (open_) close();
}

bool KvService::open() {
  VPIM_CHECK(!open_, "KV service already open");
  register_kv_kernels();
  if (!fe_.open()) return false;
  VPIM_CHECK(config_.nr_dpus <= fe_.nr_dpus(),
             "KV config wants more DPUs than the device has");

  // Initial placement: partitions round-robin over the DPUs, filling the
  // low slots first so every DPU keeps free high slots for migrations.
  placement_.assign(config_.partitions, {});
  free_slots_.assign(config_.nr_dpus, config_.slots_per_dpu);
  for (std::uint32_t p = 0; p < config_.partitions; ++p) {
    placement_[p] = {p % config_.nr_dpus, p / config_.nr_dpus};
    --free_slots_[p % config_.nr_dpus];
  }
  window_load_.assign(config_.partitions, 0);
  window_batches_ = 0;
  cache_.clear();
  lru_.clear();
  pending_.assign(config_.nr_dpus, {});
  stats_ = {};

  // Guest staging buffers, allocated once: per-DPU inbox/outbox plus one
  // slot-region bounce buffer for migrations.
  inbox_buf_.clear();
  outbox_buf_.clear();
  const std::uint64_t inbox_bytes =
      8 + config_.max_batch_ops * sizeof(KvOpSlot);
  const std::uint64_t outbox_bytes =
      config_.max_batch_ops * sizeof(KvResultSlot);
  for (std::uint32_t d = 0; d < config_.nr_dpus; ++d) {
    inbox_buf_.push_back(mem_.alloc(inbox_bytes));
    outbox_buf_.push_back(mem_.alloc(outbox_bytes));
  }
  migrate_buf_ = mem_.alloc(layout_.region);

  fe_.ci_load(config_.plant_scan_bug ? kKvTeethKernelName : kKvKernelName);
  KvArgs args;
  args.inbox_off = layout_.inbox_off;
  args.outbox_off = layout_.outbox_off;
  args.slot_capacity = config_.slot_capacity;
  args.scan_limit = config_.scan_limit;
  for (std::uint32_t d = 0; d < config_.nr_dpus; ++d) {
    fe_.ci_copy_to_symbol(
        d, kKvArgsSymbol, 0,
        {reinterpret_cast<const std::uint8_t*>(&args), sizeof(args)});
  }

  // Zero every slot header (one blocking write covering all DPUs).
  std::span<std::uint8_t> zeros = mem_.alloc(8);
  std::memset(zeros.data(), 0, zeros.size());
  TransferMatrix m;
  m.direction = XferDirection::kToRank;
  for (std::uint32_t d = 0; d < config_.nr_dpus; ++d) {
    for (std::uint32_t s = 0; s < config_.slots_per_dpu; ++s) {
      m.entries.push_back({d, s * layout_.region, zeros.data(), 8});
    }
  }
  fe_.write_to_rank(m);
  open_ = true;
  return true;
}

void KvService::close() {
  if (!open_) return;
  fe_.close();
  open_ = false;
}

std::uint32_t KvService::partition_dpu(std::uint32_t partition) const {
  VPIM_CHECK(partition < config_.partitions, "partition out of range");
  return placement_[partition].dpu;
}

std::vector<std::uint8_t> KvService::partition_image(
    std::uint32_t partition) {
  VPIM_CHECK(open_, "KV service not open");
  VPIM_CHECK(partition < config_.partitions, "partition out of range");
  const Placement pl = placement_[partition];
  TransferMatrix m;
  m.direction = XferDirection::kFromRank;
  m.entries.push_back({pl.dpu, pl.slot * layout_.region,
                       migrate_buf_.data(), layout_.region});
  fe_.read_from_rank(m);
  std::uint64_t count = 0;
  std::memcpy(&count, migrate_buf_.data(), 8);
  VPIM_CHECK(count <= config_.slot_capacity, "corrupt partition header");
  const std::uint64_t bytes = 8 + count * sizeof(KvRecord);
  return {migrate_buf_.begin(),
          migrate_buf_.begin() + static_cast<std::ptrdiff_t>(bytes)};
}

std::vector<KvResult> KvService::execute(std::span<const KvOp> ops) {
  VPIM_CHECK(open_, "KV service not open");
  std::vector<KvResult> results(ops.size());
  if (ops.empty()) return results;

  obs::Tracer* tracer = obs_.tracer;
  const SimNs t0 = clock_.now();
  if (tracer != nullptr) tracer->begin_span(obs::SpanKind::kKvBatch, t0);

  mutated_.clear();
  scan_rows_.assign(ops.size(), {});
  route(ops, results);
  run_cycles(ops, results);
  finish_scans(ops, results);

  ++stats_.batches;
  ++window_batches_;
  maybe_rebalance();

  const SimNs dt = clock_.now() - t0;
  batch_hist_->observe(dt);
  if (tracer != nullptr) {
    obs::Span& s = tracer->end_span(clock_.now());
    s.entries = static_cast<std::uint32_t>(ops.size());
  }
  return results;
}

void KvService::route(std::span<const KvOp> ops,
                      std::vector<KvResult>& results) {
  for (auto& q : pending_) q.clear();
  for (std::uint32_t i = 0; i < ops.size(); ++i) {
    const KvOp& op = ops[i];
    switch (op.kind) {
      case KvOpKind::kGet: {
        ++stats_.gets;
        if (config_.hot_key_cache) {
          auto it = cache_.find(op.key);
          if (it != cache_.end()) {
            clock_.advance(cost_.kv_cache_hit_ns);
            cache_touch(it->second);
            results[i].status = KvStatus::kOk;
            results[i].value = it->second.value;
            results[i].nresults = 1;
            results[i].cache_hit = true;
            ++stats_.cache_hits;
            continue;
          }
        }
        const std::uint32_t p = partition_of(op.key, config_.partitions);
        ++window_load_[p];
        pending_[placement_[p].dpu].push_back({i, p});
        break;
      }
      case KvOpKind::kPut: {
        ++stats_.puts;
        if (config_.hot_key_cache) {
          auto it = cache_.find(op.key);
          if (it != cache_.end()) {
            it->second.value = op.value;
            cache_touch(it->second);
          }
        }
        mutated_.insert(op.key);
        const std::uint32_t p = partition_of(op.key, config_.partitions);
        ++window_load_[p];
        pending_[placement_[p].dpu].push_back({i, p});
        break;
      }
      case KvOpKind::kDelete: {
        ++stats_.deletes;
        cache_erase(op.key);
        mutated_.insert(op.key);
        const std::uint32_t p = partition_of(op.key, config_.partitions);
        ++window_load_[p];
        pending_[placement_[p].dpu].push_back({i, p});
        break;
      }
      case KvOpKind::kScan: {
        ++stats_.scans;
        // A scan's key range hashes across every partition: fan one unit
        // out per partition and merge the sorted fragments afterwards.
        for (std::uint32_t p = 0; p < config_.partitions; ++p) {
          pending_[placement_[p].dpu].push_back({i, p});
        }
        break;
      }
    }
  }
}

void KvService::run_cycles(std::span<const KvOp> ops,
                           std::vector<KvResult>& results) {
  std::size_t remaining = 0;
  for (const auto& q : pending_) remaining += q.size();
  while (remaining > 0) {
    const std::size_t retired = run_one_cycle(ops, results);
    VPIM_CHECK(retired > 0, "KV cycle made no progress");
    remaining -= retired;
  }
}

bool KvService::drain_tickets(
    const std::vector<Frontend::Ticket>& tickets) {
  std::size_t reaped = 0;
  bool all_ok = true;
  int idle_polls = 0;
  while (reaped < tickets.size() && idle_polls < 3) {
    const auto batch = fe_.poll_completions();
    if (batch.empty()) {
      ++idle_polls;
      continue;
    }
    idle_polls = 0;
    for (const Frontend::Completion& done : batch) {
      for (Frontend::Ticket t : tickets) {
        if (done.ticket == t) {
          ++reaped;
          if (done.status != 0) all_ok = false;
          break;
        }
      }
    }
  }
  return all_ok && reaped == tickets.size();
}

std::size_t KvService::run_one_cycle(std::span<const KvOp> ops,
                                     std::vector<KvResult>& results) {
  // Take up to max_batch_ops units per DPU for this cycle.
  std::vector<std::vector<Unit>> cycle(config_.nr_dpus);
  std::uint64_t active_mask = 0;
  std::size_t retired = 0;
  for (std::uint32_t d = 0; d < config_.nr_dpus; ++d) {
    auto& q = pending_[d];
    const std::size_t take =
        std::min<std::size_t>(q.size(), config_.max_batch_ops);
    if (take == 0) continue;
    cycle[d].assign(q.begin(), q.begin() + static_cast<std::ptrdiff_t>(take));
    q.erase(q.begin(), q.begin() + static_cast<std::ptrdiff_t>(take));
    active_mask |= 1ULL << d;
    retired += take;
  }
  ++stats_.cycles;

  auto fail_dpu = [&](std::uint32_t d, KvStatus status) {
    for (const Unit& u : cycle[d]) {
      fail_unit(ops[u.index], results[u.index], status);
    }
    cycle[d].clear();
    active_mask &= ~(1ULL << d);
  };
  auto fail_all = [&](KvStatus status) {
    for (std::uint32_t d = 0; d < config_.nr_dpus; ++d) {
      if ((active_mask >> d) & 1) fail_dpu(d, status);
    }
  };

  // Stage every inbox through the SQ, one coalesced doorbell for the lot.
  {
    std::vector<Frontend::Ticket> tickets;
    std::vector<std::uint32_t> ticket_dpu;
    for (std::uint32_t d = 0; d < config_.nr_dpus; ++d) {
      if (((active_mask >> d) & 1) == 0) continue;
      std::uint8_t* buf = inbox_buf_[d].data();
      const std::uint64_t n = cycle[d].size();
      std::memcpy(buf, &n, 8);
      for (std::size_t i = 0; i < cycle[d].size(); ++i) {
        const Unit& u = cycle[d][i];
        const KvOp& op = ops[u.index];
        KvOpSlot slot;
        slot.opcode = static_cast<std::uint32_t>(op.kind);
        slot.slot = placement_[u.partition].slot;
        slot.key = op.key;
        slot.aux = op.kind == KvOpKind::kPut ? op.value : op.hi;
        std::memcpy(buf + 8 + i * sizeof(KvOpSlot), &slot, sizeof(slot));
      }
      TransferMatrix m;
      m.direction = XferDirection::kToRank;
      m.entries.push_back(
          {d, layout_.inbox_off, buf,
           8 + cycle[d].size() * sizeof(KvOpSlot)});
      try {
        tickets.push_back(fe_.submit_write(m));
        ticket_dpu.push_back(d);
      } catch (const VpimStatusError& e) {
        fail_dpu(d, map_transport_status(e.status()));
      }
    }
    if (!drain_tickets(tickets)) {
      // A failed inbox leaves the cycle's DPUs in an unknown staging
      // state; resolve every unit of the cycle with a typed status
      // rather than guessing which inbox landed.
      fail_all(KvStatus::kDeviceFault);
    }
  }
  if (active_mask == 0) return retired;

  // Launch the batch and wait for the slowest active DPU.
  try {
    fe_.ci_launch(active_mask, /*nr_tasklets=*/1);
    while ((fe_.ci_running_mask() & active_mask) != 0) {
      clock_.advance(config_.launch_poll_ns);
    }
  } catch (const VpimStatusError& e) {
    fail_all(map_transport_status(e.status()));
    return retired;
  }

  // Read every outbox back through the SQ.
  {
    std::vector<Frontend::Ticket> tickets;
    std::vector<std::uint32_t> ticket_dpu;
    for (std::uint32_t d = 0; d < config_.nr_dpus; ++d) {
      if (((active_mask >> d) & 1) == 0) continue;
      TransferMatrix m;
      m.direction = XferDirection::kFromRank;
      m.entries.push_back({d, layout_.outbox_off, outbox_buf_[d].data(),
                           cycle[d].size() * sizeof(KvResultSlot)});
      try {
        tickets.push_back(fe_.submit_read(m));
        ticket_dpu.push_back(d);
      } catch (const VpimStatusError& e) {
        fail_dpu(d, map_transport_status(e.status()));
      }
    }
    if (!drain_tickets(tickets)) {
      fail_all(KvStatus::kDeviceFault);
      return retired;
    }
  }

  // Parse results back into op order.
  for (std::uint32_t d = 0; d < config_.nr_dpus; ++d) {
    if (((active_mask >> d) & 1) == 0) continue;
    const std::uint8_t* buf = outbox_buf_[d].data();
    for (std::size_t i = 0; i < cycle[d].size(); ++i) {
      const Unit& u = cycle[d][i];
      KvResultSlot slot;
      std::memcpy(&slot, buf + i * sizeof(KvResultSlot), sizeof(slot));
      parse_result(u.index, ops[u.index], slot, results[u.index]);
    }
  }
  return retired;
}

void KvService::fail_unit(const KvOp& op, KvResult& out, KvStatus status) {
  out.status = status;
  out.nresults = 0;
  out.pairs.clear();
  ++stats_.device_errors;
  // The write may or may not have landed: drop any cached copy so the
  // cache never serves a value the device did not acknowledge.
  if (op.kind == KvOpKind::kPut || op.kind == KvOpKind::kDelete) {
    cache_erase(op.key);
  }
}

void KvService::parse_result(std::uint32_t op_index, const KvOp& op,
                             const KvResultSlot& slot, KvResult& out) {
  // A scan unit that arrives after a sibling unit already failed must not
  // flip the op back to success; device-fault statuses are sticky.
  if (out.status == KvStatus::kDeviceFault ||
      out.status == KvStatus::kTimeout) {
    return;
  }
  if (op.kind == KvOpKind::kScan) {
    auto& rows = scan_rows_[op_index];
    for (std::uint32_t r = 0; r < slot.nresults; ++r) {
      rows.emplace_back(slot.pairs[r].key, slot.pairs[r].value);
    }
    return;
  }
  out.status = static_cast<KvStatus>(slot.status);
  out.value = slot.value;
  out.nresults = slot.nresults;
  if (op.kind == KvOpKind::kGet && config_.hot_key_cache &&
      out.status == KvStatus::kOk && !mutated_.contains(op.key)) {
    cache_insert(op.key, out.value);
  }
}

void KvService::finish_scans(std::span<const KvOp> ops,
                             std::vector<KvResult>& results) {
  for (std::uint32_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind != KvOpKind::kScan) continue;
    KvResult& out = results[i];
    if (out.status == KvStatus::kDeviceFault ||
        out.status == KvStatus::kTimeout) {
      continue;
    }
    auto& rows = scan_rows_[i];
    std::sort(rows.begin(), rows.end());
    if (rows.size() > config_.scan_limit) {
      rows.resize(config_.scan_limit);
    }
    out.status = KvStatus::kOk;
    out.pairs = std::move(rows);
    out.nresults = static_cast<std::uint32_t>(out.pairs.size());
  }
}

void KvService::cache_insert(std::uint64_t key, std::uint64_t value) {
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    it->second.value = value;
    cache_touch(it->second);
    return;
  }
  if (cache_.size() >= config_.hot_cache_entries) {
    // Evict the least recently touched key and reuse its list node.
    cache_.erase(lru_.front());
    lru_.front() = key;
    lru_.splice(lru_.end(), lru_, lru_.begin());
  } else {
    lru_.push_back(key);
  }
  cache_.emplace(key, CacheEntry{value, std::prev(lru_.end())});
}

void KvService::cache_touch(CacheEntry& entry) {
  lru_.splice(lru_.end(), lru_, entry.lru_pos);
}

void KvService::cache_erase(std::uint64_t key) {
  auto it = cache_.find(key);
  if (it == cache_.end()) return;
  lru_.erase(it->second.lru_pos);
  cache_.erase(it);
}

void KvService::maybe_rebalance() {
  if (window_batches_ < config_.rebalance_period) return;
  window_batches_ = 0;
  if (!config_.rebalance) {
    std::fill(window_load_.begin(), window_load_.end(), 0);
    return;
  }

  for (std::uint32_t move = 0; move < config_.rebalance_max_moves;
       ++move) {
    // Per-DPU load this window.
    std::vector<std::uint64_t> dpu_load(config_.nr_dpus, 0);
    std::uint64_t total = 0;
    for (std::uint32_t p = 0; p < config_.partitions; ++p) {
      dpu_load[placement_[p].dpu] += window_load_[p];
      total += window_load_[p];
    }
    if (total == 0) break;
    const std::uint64_t mean =
        std::max<std::uint64_t>(1, total / config_.nr_dpus);
    std::uint32_t hot_dpu = 0;
    std::uint32_t cold_dpu = 0;
    for (std::uint32_t d = 1; d < config_.nr_dpus; ++d) {
      if (dpu_load[d] > dpu_load[hot_dpu]) hot_dpu = d;
      if (dpu_load[d] < dpu_load[cold_dpu]) cold_dpu = d;
    }
    if (dpu_load[hot_dpu] * 1000 <=
        static_cast<std::uint64_t>(config_.rebalance_ratio_permille) *
            mean) {
      break;
    }
    if (free_slots_[cold_dpu] == 0 || cold_dpu == hot_dpu) break;

    // Victim: the partition whose departure best levels the pair, i.e.
    // minimizes max(hot - load, cold + load). Naively moving the hottest
    // partition ping-pongs a whale between DPUs forever (the destination
    // becomes the new hot DPU); this choice instead peels the whale's
    // *siblings* off until it sits alone, then goes quiet because no move
    // improves the shape any further.
    std::uint32_t victim = config_.partitions;
    std::uint64_t best_peak = dpu_load[hot_dpu];
    for (std::uint32_t p = 0; p < config_.partitions; ++p) {
      if (placement_[p].dpu != hot_dpu || window_load_[p] == 0) continue;
      const std::uint64_t peak = std::max(dpu_load[hot_dpu] - window_load_[p],
                                          dpu_load[cold_dpu] + window_load_[p]);
      if (peak < best_peak) {
        best_peak = peak;
        victim = p;
      }
    }
    if (victim == config_.partitions) break;  // no move improves balance
    if (!migrate_partition(victim, cold_dpu)) break;
    // Account the move so the next iteration sees the new shape.
    window_load_[victim] = 0;
  }
  std::fill(window_load_.begin(), window_load_.end(), 0);
}

bool KvService::migrate_partition(std::uint32_t partition,
                                  std::uint32_t to_dpu) {
  const Placement from = placement_[partition];
  // Target slot: lowest free index on the destination DPU.
  std::vector<bool> used(config_.slots_per_dpu, false);
  for (std::uint32_t p = 0; p < config_.partitions; ++p) {
    if (placement_[p].dpu == to_dpu) used[placement_[p].slot] = true;
  }
  std::uint32_t to_slot = config_.slots_per_dpu;
  for (std::uint32_t s = 0; s < config_.slots_per_dpu; ++s) {
    if (!used[s]) {
      to_slot = s;
      break;
    }
  }
  if (to_slot == config_.slots_per_dpu) return false;

  obs::Tracer* tracer = obs_.tracer;
  const SimNs t0 = clock_.now();
  try {
    // Full-region copy (header + every record slot), so stale bytes in a
    // previously used slot can never leak into the destination.
    TransferMatrix rd;
    rd.direction = XferDirection::kFromRank;
    rd.entries.push_back({from.dpu, from.slot * layout_.region,
                          migrate_buf_.data(), layout_.region});
    fe_.read_from_rank(rd);
    TransferMatrix wr;
    wr.direction = XferDirection::kToRank;
    wr.entries.push_back({to_dpu, to_slot * layout_.region,
                          migrate_buf_.data(), layout_.region});
    fe_.write_to_rank(wr);
    // Retire the source last: until this lands the old copy stays
    // authoritative and the map still points at it.
    std::uint64_t zero = 0;
    TransferMatrix hdr;
    hdr.direction = XferDirection::kToRank;
    hdr.entries.push_back({from.dpu, from.slot * layout_.region,
                           reinterpret_cast<std::uint8_t*>(&zero), 8});
    fe_.write_to_rank(hdr);
  } catch (const VpimStatusError&) {
    return false;  // source copy still authoritative; retry next window
  }

  std::uint64_t count = 0;
  std::memcpy(&count, migrate_buf_.data(), 8);
  placement_[partition] = {to_dpu, to_slot};
  ++free_slots_[from.dpu];
  --free_slots_[to_dpu];
  ++stats_.rebalances;
  stats_.migrated_records += count;
  if (tracer != nullptr) {
    tracer->record(obs::SpanKind::kKvRebalance, t0, clock_.now() - t0,
                   layout_.region, 2);
  }
  return true;
}

}  // namespace vpim::kv
