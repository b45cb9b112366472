#include "driver/driver.h"

#include <array>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/log.h"
#include "common/obs/obs.h"
#include "common/thread_pool.h"
#include "upmem/layout.h"

namespace vpim::driver {

namespace {

vpim::obs::Tracer* trace_of(upmem::PimMachine& machine) {
  vpim::obs::Hub* hub = machine.obs();
  return hub != nullptr ? hub->tracer : nullptr;
}

}  // namespace

// ---------------------------------------------------------------- backlog

std::vector<CopyBacklog::Task>& CopyBacklog::group(std::uint32_t dpu) {
  std::int32_t& g = slot_[dpu];
  if (g < 0) {
    g = static_cast<std::int32_t>(groups_.size());
    groups_.emplace_back();
  }
  return groups_[static_cast<std::size_t>(g)];
}

void CopyBacklog::add(upmem::Rank& rank, const TransferMatrix& matrix,
                      std::span<upmem::MramBank::Pin> pins) {
  const bool to_rank = matrix.direction == XferDirection::kToRank;
  VPIM_CHECK(pins.empty() || !to_rank, "only a read can pin");
  for (const XferEntry& e : matrix.entries) {
    if (e.size == 0) continue;
    VPIM_CHECK(e.host != nullptr, "transfer entry without a host buffer");
    VPIM_CHECK(pins.empty() || e.dpu < pins.size(), "no pin slot for a DPU");
    rank.mram(e.dpu);  // throws for a dead rank, bad index or running DPU
  }
  const Kind kind =
      to_rank ? Kind::kWrite : (pins.empty() ? Kind::kRead : Kind::kPin);
  for (const XferEntry& e : matrix.entries) {
    if (e.size == 0) continue;
    group(e.dpu).push_back(
        {&rank.mram(e.dpu), e.mram_offset, e.host,
         {kind == Kind::kPin ? &pins[e.dpu] : nullptr}, e.size, kind});
  }
}

void CopyBacklog::add_broadcast(upmem::Rank& rank, std::uint64_t mram_offset,
                                std::span<const std::uint8_t> data) {
  for (std::uint32_t d = 0; d < rank.nr_dpus(); ++d) {
    rank.mram(d);  // throws for a dead rank or any running DPU
  }
  const std::uint64_t shared =
      mram_offset % upmem::kMramPageSize == 0
          ? data.size() / upmem::kMramPageSize * upmem::kMramPageSize
          : 0;
  const upmem::MramPageRef* pages =
      shared_.emplace_back(upmem::MramBank::build_pages(data.first(shared)))
          .data();
  // A write only reads through its host pointer.
  std::uint8_t* tail = const_cast<std::uint8_t*>(data.data()) + shared;
  for (std::uint32_t d = 0; d < rank.nr_dpus(); ++d) {
    upmem::MramBank* bank = &rank.mram(d);
    Task adopt{bank, mram_offset, nullptr, {}, shared, Kind::kAdopt};
    adopt.pages = pages;
    if (shared > 0) group(d).push_back(adopt);
    if (shared < data.size()) {
      group(d).push_back({bank, mram_offset + shared, tail, {},
                          data.size() - shared, Kind::kWrite});
    }
  }
}

void CopyBacklog::flush() {
  if (groups_.empty()) return;
  // One fan-out replays every parked request's tasks; group order (and
  // order within a group) is deterministic first-use order, and distinct
  // DPU banks never share a group, so any thread count yields identical
  // bank contents.
  ThreadPool::instance().parallel_for(groups_.size(), [&](std::size_t gi) {
    for (const Task& t : groups_[gi]) {
      switch (t.kind) {
        case Kind::kWrite:
          t.bank->write(t.mram_offset, {t.host, t.size});
          break;
        case Kind::kRead:
          t.bank->read(t.mram_offset, {t.host, t.size});
          break;
        case Kind::kPin:
          *t.pin = t.bank->pin(t.mram_offset, t.size);
          break;
        case Kind::kAdopt:
          t.bank->adopt_pages(t.mram_offset,
                              {t.pages, t.size / upmem::kMramPageSize});
          break;
      }
    }
  });
  groups_.clear();
  shared_.clear();
  slot_.fill(-1);
}

void copy_banks(upmem::Rank& rank, const TransferMatrix& matrix,
                CopyBacklog* defer, std::span<upmem::MramBank::Pin> pins) {
  CopyBacklog now;
  (defer != nullptr ? *defer : now).add(rank, matrix, pins);
  now.flush();
}

void broadcast_banks(upmem::Rank& rank, std::uint64_t mram_offset,
                     std::span<const std::uint8_t> data, CopyBacklog* defer) {
  CopyBacklog now;
  (defer != nullptr ? *defer : now).add_broadcast(rank, mram_offset, data);
  now.flush();
}

// ---------------------------------------------------------------- mapping

RankMapping::RankMapping(UpmemDriver& drv, std::uint32_t rank_index)
    : drv_(&drv),
      rank_index_(rank_index),
      gbps_(drv.machine().cost().interleave_wide_gbps) {}

RankMapping::RankMapping(RankMapping&& other) noexcept
    : drv_(std::exchange(other.drv_, nullptr)),
      rank_index_(other.rank_index_),
      gbps_(other.gbps_) {}

RankMapping& RankMapping::operator=(RankMapping&& other) noexcept {
  if (this != &other) {
    unmap();
    drv_ = std::exchange(other.drv_, nullptr);
    rank_index_ = other.rank_index_;
    gbps_ = other.gbps_;
  }
  return *this;
}

RankMapping::~RankMapping() { unmap(); }

void RankMapping::unmap() {
  if (drv_ != nullptr) {
    drv_->unmap_rank(rank_index_);
    drv_ = nullptr;
  }
}

std::uint32_t RankMapping::nr_dpus() const {
  VPIM_CHECK(drv_ != nullptr, "use of unmapped rank");
  return drv_->machine().rank(rank_index_).nr_dpus();
}

upmem::Rank& RankMapping::stream(std::uint64_t bytes, std::uint32_t entries) {
  VPIM_CHECK(drv_ != nullptr, "use of unmapped rank");
  upmem::PimMachine& machine = drv_->machine();
  upmem::Rank& rank = machine.rank(rank_index_);
  // Serial DMA-window entry: injected faults fire here, before any time is
  // charged or bytes move, so retries see an unchanged bank.
  rank.check_alive();
  if (FaultPlan* plan = machine.fault_plan()) {
    if (auto fault = plan->on_transfer(rank_index_, machine.clock().now())) {
      if (fault->kind == FaultKind::kRankDeath) rank.fail();
      throw FaultError(*fault);
    }
  }
  obs::ScopedSpan span(trace_of(machine), machine.clock(),
                       obs::SpanKind::kDriverXfer);
  span.set_bytes(bytes);
  span.set_entries(entries);
  span.set_rank(rank_index_);
  machine.clock().advance(machine.cost().native_xfer_fixed_ns +
                          CostModel::bytes_time(bytes, gbps_));
  return rank;
}

void RankMapping::transfer(const TransferMatrix& matrix) {
  const std::uint64_t bytes = matrix.total_bytes();
  VPIM_CHECK(bytes <= upmem::kMaxXferBytes,
             "rank operations move at most 4 GiB");
  copy_banks(stream(bytes, static_cast<std::uint32_t>(matrix.entries.size())),
             matrix);
}

void RankMapping::broadcast(std::uint64_t mram_offset,
                            std::span<const std::uint8_t> data) {
  VPIM_CHECK(data.size() <= upmem::kMaxXferBytes,
             "rank operations move at most 4 GiB");
  // The host physically streams the payload into every bank.
  const std::uint32_t banks = nr_dpus();
  broadcast_banks(stream(data.size() * banks, banks), mram_offset, data);
}

void RankMapping::ci_load(std::string_view kernel_name) {
  VPIM_CHECK(drv_ != nullptr, "use of unmapped rank");
  upmem::PimMachine& machine = drv_->machine();
  obs::ScopedSpan span(trace_of(machine), machine.clock(),
                       obs::SpanKind::kDriverCi);
  span.set_rank(rank_index_);
  machine.clock().advance(machine.cost().ci_op_native_ns);
  machine.rank(rank_index_).ci_load(kernel_name);
}

void RankMapping::ci_launch(std::uint64_t dpu_mask,
                            std::optional<std::uint32_t> nr_tasklets) {
  VPIM_CHECK(drv_ != nullptr, "use of unmapped rank");
  upmem::PimMachine& machine = drv_->machine();
  obs::ScopedSpan span(trace_of(machine), machine.clock(),
                       obs::SpanKind::kDriverCi);
  span.set_rank(rank_index_);
  machine.clock().advance(machine.cost().ci_op_native_ns);
  machine.rank(rank_index_).ci_launch(dpu_mask, nr_tasklets);
}

std::uint64_t RankMapping::ci_running_mask() {
  VPIM_CHECK(drv_ != nullptr, "use of unmapped rank");
  upmem::PimMachine& machine = drv_->machine();
  machine.clock().advance(machine.cost().ci_op_native_ns);
  return machine.rank(rank_index_).ci_running_mask();
}

void RankMapping::ci_copy_to_symbol(std::uint32_t dpu,
                                    std::string_view symbol,
                                    std::uint32_t offset,
                                    std::span<const std::uint8_t> data) {
  VPIM_CHECK(drv_ != nullptr, "use of unmapped rank");
  upmem::PimMachine& machine = drv_->machine();
  machine.clock().advance(machine.cost().ci_op_native_ns);
  machine.rank(rank_index_).ci_copy_to_symbol(dpu, symbol, offset, data);
}

void RankMapping::ci_copy_from_symbol(std::uint32_t dpu,
                                      std::string_view symbol,
                                      std::uint32_t offset,
                                      std::span<std::uint8_t> out) {
  VPIM_CHECK(drv_ != nullptr, "use of unmapped rank");
  upmem::PimMachine& machine = drv_->machine();
  machine.clock().advance(machine.cost().ci_op_native_ns);
  machine.rank(rank_index_).ci_copy_from_symbol(dpu, symbol, offset, out);
}

// ----------------------------------------------------------------- driver

UpmemDriver::UpmemDriver(upmem::PimMachine& machine)
    : machine_(machine),
      sysfs_(machine.nr_ranks()),
      mapped_(machine.nr_ranks(), false) {}

RankMapping UpmemDriver::map_rank(std::uint32_t rank,
                                  const std::string& owner) {
  VPIM_CHECK(rank < machine_.nr_ranks(), "rank index out of range");
  {
    std::lock_guard lock(map_mu_);
    VPIM_CHECK(!mapped_[rank], "rank already mapped in performance mode");
    mapped_[rank] = 1;
  }
  sysfs_.set_in_use(rank, owner);
  return RankMapping(*this, rank);
}

bool UpmemDriver::is_mapped(std::uint32_t rank) const {
  VPIM_CHECK(rank < machine_.nr_ranks(), "rank index out of range");
  std::lock_guard lock(map_mu_);
  return mapped_[rank] != 0;
}

void UpmemDriver::unmap_rank(std::uint32_t rank) {
  {
    std::lock_guard lock(map_mu_);
    mapped_[rank] = 0;
  }
  sysfs_.set_free(rank);
}

void UpmemDriver::reset_rank(std::uint32_t rank) {
  VPIM_CHECK(rank < machine_.nr_ranks(), "rank index out of range");
  VPIM_CHECK(!is_mapped(rank), "reset of a mapped rank");
  // The manager memsets the whole 4 GiB rank-mapped region (64 slots x
  // 64 MiB), independent of how many DPUs are functional.
  const std::uint64_t region =
      static_cast<std::uint64_t>(upmem::kDpuSlotsPerRank) * upmem::kMramSize;
  machine_.clock().advance(
      CostModel::bytes_time(region, machine_.cost().memset_gbps));
  machine_.rank(rank).reset_memory();
}

// ---------------------------------------------------------- fault surface

std::string UpmemDriver::rank_status_line(std::uint32_t rank) const {
  return sysfs_.format(rank);
}

void UpmemDriver::log_fault(const FaultRecord& record) {
  if (record.rank < machine_.nr_ranks()) {
    sysfs_.count_fault(record.rank);
    if (record.kind == FaultKind::kRankDeath) sysfs_.set_failed(record.rank);
  }
  std::lock_guard lock(fault_mu_);
  fault_log_.push_back(serialize_fault_record(record));
}

void UpmemDriver::log_raw_fault_bytes(std::span<const std::uint8_t> bytes) {
  std::lock_guard lock(fault_mu_);
  fault_log_.emplace_back(bytes.begin(), bytes.end());
}

std::vector<FaultRecord> UpmemDriver::drain_fault_records() {
  std::vector<std::vector<std::uint8_t>> raw;
  {
    std::lock_guard lock(fault_mu_);
    raw.swap(fault_log_);
  }
  std::vector<FaultRecord> records;
  records.reserve(raw.size());
  for (const auto& bytes : raw) {
    if (auto rec = parse_fault_record(bytes, machine_.nr_ranks())) {
      records.push_back(*rec);
    } else {
      VPIM_WARN("driver", "dropping malformed fault record (%zu bytes)",
                bytes.size());
    }
  }
  return records;
}

bool UpmemDriver::try_recover_rank(std::uint32_t rank, bool charge_time) {
  VPIM_CHECK(rank < machine_.nr_ranks(), "rank index out of range");
  if (is_mapped(rank)) return false;
  upmem::Rank& r = machine_.rank(rank);
  try {
    if (charge_time) {
      const std::uint64_t region =
          static_cast<std::uint64_t>(upmem::kDpuSlotsPerRank) *
          upmem::kMramSize;
      machine_.clock().advance(
          CostModel::bytes_time(region, machine_.cost().memset_gbps) +
          machine_.cost().rank_probe_ns);
    }
    r.reset_memory();
    // Verify: pattern write + readback in every functional bank, then
    // drop the probe page so a recovered rank holds nothing resident,
    // exactly like a fresh reset.
    std::array<std::uint8_t, 64> pattern;
    for (std::size_t i = 0; i < pattern.size(); ++i) {
      pattern[i] = static_cast<std::uint8_t>(0xA5 ^ i);
    }
    std::array<std::uint8_t, 64> readback{};
    for (std::uint32_t d = 0; d < r.nr_dpus(); ++d) {
      r.mram(d).write(0, pattern);
      r.mram(d).read(0, readback);
      if (readback != pattern) return false;
      r.mram(d).clear();
    }
  } catch (const FaultError&) {
    return false;
  }
  sysfs_.clear_failed(rank);
  return true;
}

void UpmemDriver::apply_fault_plan() {
  const SimNs now = machine_.clock().now();
  for (auto it = seizures_.begin(); it != seizures_.end();) {
    if (now >= it->release_at) {
      unmap_rank(it->rank);
      it = seizures_.erase(it);
    } else {
      ++it;
    }
  }
  FaultPlan* plan = machine_.fault_plan();
  if (plan == nullptr) return;
  for (const FaultEvent& ev : plan->take_due_seizures(now)) {
    if (ev.rank >= machine_.nr_ranks()) continue;
    {
      std::lock_guard lock(map_mu_);
      if (mapped_[ev.rank]) continue;  // mapped ranks resist the grab
      mapped_[ev.rank] = 1;
    }
    sysfs_.set_in_use(ev.rank, "native-seizure");
    log_fault({FaultKind::kRankSeizure, ev.rank, 0, now});
    // The squatter scribbles over the head of every bank if the rank is
    // idle, making residual-tenant-data loss real.
    upmem::Rank& r = machine_.rank(ev.rank);
    if (!r.failed() && !r.ci_any_running()) {
      std::array<std::uint8_t, 256> junk;
      for (std::size_t i = 0; i < junk.size(); ++i) {
        junk[i] = static_cast<std::uint8_t>(0xDE ^ (i * 7));
      }
      for (std::uint32_t d = 0; d < r.nr_dpus(); ++d) {
        r.mram(d).write(0, junk);
      }
    }
    seizures_.push_back({ev.rank, now + ev.hold_ns});
  }
}

}  // namespace vpim::driver
