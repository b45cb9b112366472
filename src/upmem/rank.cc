#include "upmem/rank.h"

#include <algorithm>

#include "common/error.h"
#include "common/thread_pool.h"

namespace vpim::upmem {

Rank::Rank(std::uint32_t index, std::uint32_t functional_dpus,
           const SimClock& clock, const CostModel& cost)
    : index_(index),
      clock_(clock),
      cost_(cost),
      dpus_(functional_dpus),
      finish_time_(functional_dpus, 0) {
  VPIM_CHECK(functional_dpus >= 1 && functional_dpus <= kDpuSlotsPerRank,
             "rank DPU count out of range");
}

Dpu& Rank::dpu(std::uint32_t i) {
  VPIM_CHECK(i < dpus_.size(), "DPU index out of range");
  return dpus_[i];
}

const Dpu& Rank::dpu(std::uint32_t i) const {
  VPIM_CHECK(i < dpus_.size(), "DPU index out of range");
  return dpus_[i];
}

void Rank::check_alive() const {
  if (failed_) {
    throw FaultError({FaultKind::kRankDeath, index_, 0, clock_.now()});
  }
}

void Rank::ci_load(std::string_view kernel_name) {
  check_alive();
  VPIM_CHECK(!ci_any_running(), "loading a binary while DPUs are running");
  const DpuKernel& kernel = KernelRegistry::instance().get(kernel_name);
  for (Dpu& dpu : dpus_) dpu.load(kernel);
}

void Rank::ci_launch(std::uint64_t dpu_mask,
                     std::optional<std::uint32_t> nr_tasklets) {
  check_alive();
  VPIM_CHECK(!ci_any_running(), "launch while DPUs are still running");
  VPIM_CHECK((dpu_mask & ~all_dpus_mask()) == 0,
             "launch mask targets defective/absent DPUs");
  if (fault_plan_ != nullptr) {
    if (auto fault = fault_plan_->on_launch(index_, clock_.now())) {
      if (fault->kind == FaultKind::kRankDeath) failed_ = true;
      throw FaultError(*fault);
    }
  }
  const SimNs start = clock_.now();
  const std::uint32_t tasklets = nr_tasklets.value_or(16);
  // Each masked DPU runs its kernel against its own MRAM bank / WRAM
  // symbols, so the launches are independent and fan out over the host
  // pool. Durations land in a per-DPU slot and are merged serially in
  // index order below, so finish times and busy_until_ are bit-identical
  // to a serial walk at any VPIM_THREADS.
  std::vector<SimNs> durations(dpus_.size(), 0);
  // Pool bodies must not touch the tracer directly; per-DPU spans land in
  // per-index FanoutScope slots and merge in index order on this thread,
  // nested under one rank.launch span whose duration is the slowest DPU.
  obs::Tracer* tracer = obs_ != nullptr ? obs_->tracer : nullptr;
  if (tracer != nullptr) {
    tracer->begin_span(obs::SpanKind::kRankLaunch, start);
  }
  obs::Tracer::FanoutScope fan(tracer, dpus_.size());
  ThreadPool::instance().parallel_for(dpus_.size(), [&](std::size_t i) {
    if ((dpu_mask >> i) & 1) {
      durations[i] = dpus_[i].run(tasklets, cost_);
      fan.record(i, obs::SpanKind::kDpuCompute, start, durations[i],
                 /*bytes=*/0, /*entries=*/1, index_);
    }
  });
  SimNs slowest = 0;
  std::uint32_t launched = 0;
  for (std::uint32_t i = 0; i < dpus_.size(); ++i) {
    if ((dpu_mask >> i) & 1) {
      finish_time_[i] = start + durations[i];
      busy_until_ = std::max(busy_until_, finish_time_[i]);
      slowest = std::max(slowest, durations[i]);
      ++launched;
    }
  }
  fan.merge();
  if (tracer != nullptr) {
    obs::Span& launch = tracer->top();
    launch.entries = launched;
    launch.rank = index_;
    tracer->end_span(start + slowest);
  }
}

std::uint64_t Rank::ci_running_mask() const {
  std::uint64_t mask = 0;
  const SimNs now = clock_.now();
  for (std::uint32_t i = 0; i < dpus_.size(); ++i) {
    if (finish_time_[i] > now) mask |= (1ULL << i);
  }
  return mask;
}

void Rank::ci_copy_to_symbol(std::uint32_t dpu, std::string_view symbol,
                             std::uint32_t offset,
                             std::span<const std::uint8_t> data) {
  check_not_running(dpu);
  auto bytes = this->dpu(dpu).symbol_bytes(symbol);
  VPIM_CHECK(offset + data.size() <= bytes.size(),
             "symbol write out of bounds");
  std::copy(data.begin(), data.end(), bytes.begin() + offset);
}

void Rank::ci_copy_from_symbol(std::uint32_t dpu, std::string_view symbol,
                               std::uint32_t offset,
                               std::span<std::uint8_t> out) {
  check_not_running(dpu);
  auto bytes = this->dpu(dpu).symbol_bytes(symbol);
  VPIM_CHECK(offset + out.size() <= bytes.size(),
             "symbol read out of bounds");
  std::copy(bytes.begin() + offset, bytes.begin() + offset + out.size(),
            out.begin());
}

MramBank& Rank::mram(std::uint32_t dpu) {
  check_not_running(dpu);
  return this->dpu(dpu).mram();
}

Rank::Snapshot Rank::save_snapshot() const {
  VPIM_CHECK(!ci_any_running(), "snapshot of a running rank");
  return Snapshot{dpus_};
}

void Rank::load_snapshot(Snapshot snapshot) {
  VPIM_CHECK(!ci_any_running(), "restore into a running rank");
  VPIM_CHECK(snapshot.dpus.size() <= dpus_.size(),
             "snapshot has more DPUs than the target rank");
  std::move(snapshot.dpus.begin(), snapshot.dpus.end(), dpus_.begin());
}

void Rank::reset_memory() {
  check_alive();
  VPIM_CHECK(!ci_any_running(), "reset while DPUs are running");
  for (Dpu& dpu : dpus_) dpu.reset();
}

void Rank::check_not_running(std::uint32_t dpu) const {
  check_alive();
  VPIM_CHECK(dpu < dpus_.size(), "DPU index out of range");
  VPIM_CHECK(finish_time_[dpu] <= clock_.now(),
             "host access to a running DPU");
}

}  // namespace vpim::upmem
