#include "vpim/backend.h"

#include <algorithm>
#include <cstring>

#include "common/error.h"
#include "common/log.h"
#include "upmem/layout.h"

namespace vpim::core {

namespace {
template <typename T>
T read_pod(const std::uint8_t* src) {
  T value;
  std::memcpy(&value, src, sizeof(T));
  return value;
}
}  // namespace

Backend::Backend(vmm::Vmm& vmm, driver::UpmemDriver& drv, Manager& manager,
                 const VpimConfig& config, virtio::Virtqueue& transferq,
                 virtio::Virtqueue& controlq, virtio::DeviceState& state,
                 DeviceStats& stats, std::string device_tag, obs::Hub& obs)
    : vmm_(vmm),
      drv_(drv),
      manager_(manager),
      config_(config),
      transferq_(transferq),
      controlq_(controlq),
      state_(state),
      stats_(stats),
      tag_(std::move(device_tag)),
      obs_(obs) {}

std::uint32_t Backend::rank_index() const {
  VPIM_CHECK(bound() && binding_->mapping() != nullptr,
             "device is not linked to a physical rank");
  return binding_->mapping()->rank_index();
}

virtio::PimConfigSpace Backend::config_space() const {
  VPIM_CHECK(bound(), "device is not linked to a rank");
  return binding_->config_space();
}

Backend::Binding::Binding(driver::RankMapping mapping,
                          upmem::PimMachine& machine, double gbps)
    : cost_(machine.cost()),
      rank_(&machine.rank(mapping.rank_index())),
      gbps_(gbps) {
  mapping.set_gbps(gbps);
  phys_.emplace(std::move(mapping));
}

Backend::Binding::Binding(const CostModel& base, const SimClock& clock,
                          std::uint32_t nr_dpus, obs::Hub* obs)
    : cost_(base), gbps_(base.emulated_copy_gbps) {
  cost_.dpu_hz /= cost_.emulation_slowdown;
  rank_ = &host_.emplace(0xEE, nr_dpus, clock, cost_);
  // Built outside the machine, so it must be wired into the observability
  // hub explicitly to emit launch spans.
  rank_->set_obs(obs);
}

virtio::PimConfigSpace Backend::Binding::config_space() const {
  virtio::PimConfigSpace cfg;
  cfg.nr_dpus = rank_->nr_dpus();
  cfg.dpu_freq_mhz = static_cast<std::uint32_t>(cost_.dpu_hz / 1e6);
  cfg.clock_division = 2;
  cfg.nr_control_interfaces = upmem::kChipsPerRank;
  cfg.mram_bytes_per_dpu = upmem::kMramSize;
  cfg.power_state = 0;
  return cfg;
}

void Backend::bind(driver::RankMapping mapping) {
  // Wide kernels gather from scattered guest pages; the naive path runs
  // the per-byte interleave loop.
  const CostModel& cost = vmm_.cost();
  binding_.emplace(std::move(mapping), drv_.machine(),
                   config_.c_enhancement ? cost.scattered_copy_gbps
                                         : cost.interleave_naive_gbps);
}

bool Backend::try_bind() {
  if (bound()) return true;
  if (auto mapping = manager_.request_rank(tag_)) {
    bind(std::move(*mapping));
    return true;
  }
  if (!config_.oversubscribe) return false;
  // Oversubscription (§7): fall back to a host-emulated rank running at
  // reduced performance. Mirrors the geometry of a physical rank.
  binding_.emplace(vmm_.cost(), vmm_.clock(),
                   drv_.machine().rank(0).nr_dpus(), drv_.machine().obs());
  ++stats_.emulated_binds;
  return true;
}

void Backend::unbind() {
  backlog_.flush();
  binding_.reset();
}

upmem::Rank& Backend::stream(std::uint64_t bytes, std::uint32_t entries) {
  if (driver::RankMapping* m = physical()) return m->stream(bytes, entries);
  // Emulated rank: plain host-memory copies at its own bandwidth, no
  // interleave transform and no fault plan.
  vmm_.clock().advance(vmm_.cost().native_xfer_fixed_ns +
                       CostModel::bytes_time(bytes, binding_->gbps()));
  return binding_->rank();
}

void Backend::settle_prefetch(std::uint32_t dpu, std::uint64_t mram_offset,
                              std::span<std::uint8_t> out) const {
  VPIM_CHECK(dpu < prefetch_.size(), "DPU index out of range");
  const upmem::MramBank::Pin& pin = prefetch_[dpu];
  VPIM_CHECK(!pin.empty(), "settle without a prefetch pin");
  if (!out.empty()) pin.read(mram_offset, out);
}

void Backend::drop_prefetch() {
  if (!prefetch_live_) return;  // every write and launch lands here
  for (upmem::MramBank::Pin& pin : prefetch_) pin = {};
  prefetch_live_ = false;
}

void Backend::check_deadline(const WireRequest& req) {
  if (req.deadline_ns == 0) return;
  const SimNs now = vmm_.clock().now();
  const auto deadline = static_cast<SimNs>(req.deadline_ns);
  if (now <= deadline) return;
  ++stats_.deadline_shed;
  if (AdmissionController* adm = manager_.admission()) {
    adm->note_shed_lateness(now - deadline);
  }
  throw VpimStatusError(virtio::PimStatus::kTimeout,
                        "request deadline expired; work shed");
}

std::optional<FaultRecord> Backend::lost_completion() {
  FaultPlan* plan = drv_.machine().fault_plan();
  driver::RankMapping* m = physical();
  if (plan == nullptr || m == nullptr) return std::nullopt;
  return plan->on_request(m->rank_index(), vmm_.clock().now());
}

void Backend::run_with_recovery(OpRef op) {
  std::uint32_t attempt = 0;
  for (;;) {
    try {
      op();
      return;
    } catch (const FaultError& e) {
      drv_.log_fault(e.record());
      if (e.transient()) {
        if (attempt < kFaultMaxRetries) {
          // Exponential backoff before touching the rank again.
          vmm_.clock().advance(vmm_.cost().fault_retry_backoff_ns
                               << attempt);
          ++attempt;
          ++stats_.fault_retries;
          continue;
        }
        ++stats_.fault_failures;
        throw VpimStatusError(
            virtio::PimStatus::kDeviceFault,
            std::string("transient fault persisted: ") + e.what());
      }
      if (e.record().kind == FaultKind::kRankDeath && physical() != nullptr) {
        if (recover_rank_death()) {
          attempt = 0;  // fresh rank, fresh retry budget
          continue;
        }
        // Unrecoverable: drop the dead binding so later requests complete
        // UNBOUND instead of re-faulting, then fail this one typed.
        unbind();
      }
      ++stats_.fault_failures;
      throw VpimStatusError(
          virtio::PimStatus::kDeviceFault,
          std::string("unrecoverable device fault: ") + e.what());
    }
  }
}

bool Backend::recover_rank_death() {
  const std::uint32_t dead = physical()->rank_index();
  if (binding_->rank().ci_any_running()) {
    return false;  // in-flight kernels are lost
  }
  // Keep the dead mapping held while asking for a replacement so the
  // manager cannot hand the dead rank straight back.
  auto replacement = manager_.request_rank(tag_);
  if (!replacement.has_value()) return false;
  // Rescue stream: every bank read off the dying rank at degraded
  // bandwidth. The dead rank is freed; its sysfs health stays failed.
  std::optional<upmem::Rank::Snapshot> rescued;
  move_state(Legs::kBoth, rescued, std::move(replacement),
             vmm_.cost().rank_rescue_gbps);
  ++stats_.fault_migrations;
  VPIM_WARN("backend", "%s: wrank migrated off dead rank %u onto rank %u",
            tag_.c_str(), dead, rank_index());
  return true;
}

void Backend::require_idle() {
  VPIM_REQUEST_CHECK(!binding_->rank().ci_any_running(),
                     virtio::PimStatus::kBadRequest,
                     "state move out of a rank whose DPUs still run");
}

std::uint64_t Backend::move_state(Legs legs,
                                  std::optional<upmem::Rank::Snapshot>& parked,
                                  std::optional<driver::RankMapping> to,
                                  double gbps) {
  const bool out = legs != Legs::kIn;
  const bool in = legs != Legs::kOut;
  if (out) require_idle();
  backlog_.flush();  // the moved state holds every acknowledged copy
  const std::uint64_t bytes = (out && in ? 2ULL : 1ULL) *
                              binding_->rank().nr_dpus() * upmem::kMramSize;
  vmm_.clock().advance(CostModel::bytes_time(bytes, gbps));
  if (out) {
    parked = binding_->rank().save_snapshot();
    unbind();
  }
  if (to.has_value()) bind(std::move(*to));
  if (in) {
    binding_->rank().load_snapshot(std::move(*parked));
    parked.reset();
  }
  return bytes;
}

template <typename Run>
void Backend::serve(virtio::Virtqueue& queue, const virtio::DescChain& chain,
                    Run run) {
  obs::ScopedSpan span(tracer(), vmm_.clock(), obs::SpanKind::kBackendRequest);
  try {
    const WireRequest req = read_request(chain);
    span.set_request(req.request_id);
    run(req, span);
  } catch (const VpimStatusError& e) {
    complete_with_status(queue, chain, e.status());
  } catch (const FaultError& e) {
    // Safety net for injected faults raised outside run_with_recovery
    // (e.g. a dead rank hit by a path that does not retry, or
    // kMigrateRank touching one): surface them typed, not as BAD_REQUEST.
    drv_.log_fault(e.record());
    ++stats_.fault_failures;
    complete_with_status(
        queue, chain,
        static_cast<std::int32_t>(virtio::PimStatus::kDeviceFault));
  } catch (const VpimError&) {
    // A deeper layer rejected guest-controlled input (GPA outside RAM,
    // MRAM bounds, unknown symbol, busy DPU, ...): per-request failure,
    // never fatal to the device model.
    complete_with_status(
        queue, chain,
        static_cast<std::int32_t>(virtio::PimStatus::kBadRequest));
  }
}

void Backend::handle_transferq() {
  VPIM_CHECK(state_.driver_ok(),
             "queue notification before DRIVER_OK (virtio 1.x 3.1)");
  while (transferq_.pop_avail_into(chain_scratch_)) {
    const virtio::DescChain& chain = chain_scratch_;
    if (auto lost = lost_completion()) {
      // Injected lost completion: the device wedges on this request. No
      // response, no push_used — the chain's descriptors stay outstanding
      // and the frontend's poll deadline is what recovers the guest.
      drv_.log_fault(*lost);
      ++stats_.dropped_completions;
      continue;
    }
    serve(transferq_, chain,
          [&](const WireRequest& req, obs::ScopedSpan& span) {
            if (driver::RankMapping* m = physical()) {
              span.set_rank(m->rank_index());
            }
            handle_request(chain, req);
          });
  }
  // Replay the whole drain's deferred copies in one fan-out before the
  // completion interrupt: every response already pushed becomes physically
  // true here, before the guest can observe it.
  backlog_.flush();
}

void Backend::handle_controlq() {
  VPIM_CHECK(state_.driver_ok(),
             "queue notification before DRIVER_OK (virtio 1.x 3.1)");
  // Defensive: control ops (migrate/suspend snapshots) read bank contents,
  // so any copies still parked from a transfer drain must land first. The
  // frontend always drains its SQ before a control round trip, so this is
  // normally a no-op.
  backlog_.flush();
  while (controlq_.pop_avail_into(chain_scratch_)) {
    const virtio::DescChain& chain = chain_scratch_;
    serve(controlq_, chain, [&](const WireRequest& req, obs::ScopedSpan&) {
      handle_control(chain, req);
    });
  }
}

WireRequest Backend::read_request(const virtio::DescChain& chain) {
  VPIM_REQUEST_CHECK(!chain.descs.empty() &&
                         chain.descs[0].len >= sizeof(WireRequest),
                     virtio::PimStatus::kBadRequest,
                     "first descriptor too small for a request block");
  return read_pod<WireRequest>(
      vmm_.memory().hva_range(chain.descs[0].addr, sizeof(WireRequest)));
}

void Backend::complete_with_status(virtio::Virtqueue& queue,
                                   const virtio::DescChain& chain,
                                   std::int32_t status) {
  WireResponse resp;
  resp.status = status;
  std::uint32_t written = 0;
  try {
    write_response(chain, resp);
    written = sizeof(WireResponse);
  } catch (const VpimError&) {
    // No usable response buffer in the chain. Complete with zero length
    // anyway: the guest can at least reclaim its descriptors.
  }
  queue.push_used(chain.head, written);
  ++stats_.request_errors;
}

void Backend::handle_request(const virtio::DescChain& chain,
                             const WireRequest& req) {
  if ((req.flags & kWireFlagCancelled) != 0) {
    // The guest cancelled this request after staging it: complete the
    // chain typed without executing any of the work.
    ++stats_.cancelled;
    throw VpimStatusError(virtio::PimStatus::kCancelled,
                          "request cancelled by the guest");
  }
  check_deadline(req);
  switch (static_cast<virtio::PimRequestType>(req.type)) {
    case virtio::PimRequestType::kWriteToRank:
    case virtio::PimRequestType::kReadFromRank:
      handle_rank_op(chain, req);
      return;
    case virtio::PimRequestType::kCiWrite:
    case virtio::PimRequestType::kCiRead:
      handle_ci(chain, req);
      return;
    case virtio::PimRequestType::kConfig:
      handle_config(chain);
      return;
  }
  // No default in the switch so -Wswitch keeps the known cases in sync;
  // an unrecognized type must still complete, or the guest's poll_used
  // spins forever while the descriptors leak.
  throw VpimStatusError(virtio::PimStatus::kBadRequest,
                        "unknown request type " + std::to_string(req.type));
}

void Backend::handle_rank_op(const virtio::DescChain& chain,
                             const WireRequest& req) {
  VPIM_REQUEST_CHECK(bound(), virtio::PimStatus::kUnbound,
                     "rank operation on a device not linked to a rank");
  SimClock& clock = vmm_.clock();
  const CostModel& cost = vmm_.cost();
  const bool is_write =
      req.type == static_cast<std::uint32_t>(
                      virtio::PimRequestType::kWriteToRank);
  VPIM_REQUEST_CHECK(
      req.direction == static_cast<std::uint32_t>(
                           is_write ? driver::XferDirection::kToRank
                                    : driver::XferDirection::kFromRank),
      virtio::PimStatus::kBadRequest,
      "request type disagrees with transfer direction");

  // -- Deserialization + GPA->HVA translation (Fig 13 "Deser") ----------
  // A write accounts each step in DeviceStats::wsteps through its span.
  obs::ScopedSpan deser_span(
      tracer(), clock, obs::SpanKind::kDeserialize,
      is_write ? &stats_.wsteps[WrankStep::kDeserialize] : nullptr);
  deserialize_matrix(chain, vmm_.memory(), deser_result_, deser_scratch_);
  const DeserializeResult& matrix = deser_result_;
  // Entries must fit the bound rank before anything touches MRAM.
  upmem::Rank& rank = binding_->rank();
  for (const DeserializedEntry& e : matrix.entries) {
    VPIM_REQUEST_CHECK(e.dpu < rank.nr_dpus(),
                       virtio::PimStatus::kBadRequest,
                       "entry targets a DPU beyond the bound rank");
    VPIM_REQUEST_CHECK(e.mram_offset <= upmem::kMramSize &&
                           e.size <= upmem::kMramSize - e.mram_offset,
                       virtio::PimStatus::kBadRequest,
                       "entry falls outside the MRAM bank");
  }
  clock.advance(cost.deserialize_ns_per_page * matrix.nr_pages +
                cost.per_dpu_metadata_ns * matrix.entries.size());
  clock.advance(cost.gpa_translate_ns_per_page * matrix.nr_pages /
                std::max<std::uint32_t>(1, cost.translate_threads));
  deser_span.set_bytes(matrix.total_bytes);
  deser_span.set_entries(static_cast<std::uint32_t>(matrix.entries.size()));
  deser_span.close();

  // Deserialization may have consumed the remaining deadline budget; shed
  // before the (much more expensive) data movement starts.
  check_deadline(req);

  // -- Data movement (Fig 13 "T-data") -----------------------------------
  // Covers scheduling, the movement itself, and any fault retries; the
  // kind is refined to batch/broadcast once the shape is known. Driver
  // xfer spans nest underneath.
  obs::ScopedSpan data_span(
      tracer(), clock, obs::SpanKind::kTransferData,
      is_write ? &stats_.wsteps[WrankStep::kTransferData] : nullptr);
  data_span.set_bytes(matrix.total_bytes);
  data_span.set_entries(static_cast<std::uint32_t>(matrix.entries.size()));
  // Per-chip operation workers walk the matrix 8 DPUs at a time.
  const auto entry_batches =
      (matrix.entries.size() + cost.backend_op_threads - 1) /
      std::max<std::uint32_t>(1, cost.backend_op_threads);
  clock.advance(entry_batches * cost.backend_per_entry_ns);

  // Faults fire at the binding's stream entry inside, before any bytes
  // move; recovery re-runs the whole movement block so a migrated binding
  // is re-resolved.
  run_with_recovery([&] {
    if ((req.flags & kWireFlagBatched) != 0) {
      data_span.set_kind(obs::SpanKind::kBatchApply);
      apply_batched_writes(matrix);
      return;
    }
    // Detect broadcast: every entry targets the same offset/size through
    // the same guest segment. Translation already merged contiguous pages,
    // so a broadcast shows up as one identical single-segment entry per
    // DPU — straight span comparisons, no per-request scratch.
    const auto same_as_first = [&](const DeserializedEntry& e) {
      const DeserializedEntry& first = matrix.entries[0];
      return e.mram_offset == first.mram_offset && e.size == first.size &&
             e.segments.size() == 1 && e.segments[0] == first.segments[0];
    };
    const bool broadcast =
        matrix.direction == driver::XferDirection::kToRank &&
        matrix.entries.size() == binding_->rank().nr_dpus() &&
        matrix.entries.size() > 1 &&
        std::all_of(matrix.entries.begin(), matrix.entries.end(),
                    same_as_first);
    if (broadcast) {
      data_span.set_kind(obs::SpanKind::kBroadcast);
      // The host still writes every bank: one stream of nr_dpus payloads.
      const HvaSegment& seg = matrix.entries[0].segments[0];
      const auto banks = static_cast<std::uint32_t>(matrix.entries.size());
      driver::broadcast_banks(stream(seg.second * banks, banks),
                              matrix.entries[0].mram_offset,
                              {seg.first, seg.second}, &backlog_);
      return;
    }
    // A copy parks one entry per guest segment. A prefetch fill pins each
    // entry's whole MRAM range, whatever its segments: one entry each.
    const bool fill = !is_write && (req.flags & kWireFlagPrefetch) != 0;
    driver::TransferMatrix& xfer = xfer_scratch_;
    xfer.entries.clear();
    xfer.direction = matrix.direction;
    for (const auto& e : matrix.entries) {
      std::uint64_t mram = e.mram_offset;
      for (const auto& [ptr, len] : e.segments) {
        xfer.entries.push_back({e.dpu, mram, ptr, fill ? e.size : len});
        if (fill) break;
        mram += len;
      }
    }
    const std::uint64_t bytes = xfer.total_bytes();
    VPIM_CHECK(bytes <= upmem::kMaxXferBytes,
               "rank operations move at most 4 GiB");
    upmem::Rank& dst =
        stream(bytes, static_cast<std::uint32_t>(xfer.entries.size()));
    prefetch_live_ |= fill;
    driver::copy_banks(dst, xfer, &backlog_,
                       fill ? std::span(prefetch_)
                            : std::span<upmem::MramBank::Pin>{});
  });
  data_span.close();

  WireResponse resp;
  resp.rank_index = response_rank();
  resp.value = matrix.total_bytes;
  write_response(chain, resp);
  transferq_.push_used(chain.head, sizeof(WireResponse));
}

void Backend::apply_batched_writes(const DeserializeResult& matrix) {
  VPIM_REQUEST_CHECK(matrix.direction == driver::XferDirection::kToRank,
                     virtio::PimStatus::kBadRequest,
                     "batched flush must be a write");
  // The whole batch payload, record headers included, is one stream.
  upmem::Rank& rank = stream(
      matrix.total_bytes, static_cast<std::uint32_t>(matrix.entries.size()));

  // Parse every DPU's batch region into its records before any record is
  // parked, so a malformed batch is rejected whole; the records then park
  // in the backlog like any transfer, in order per DPU.
  driver::TransferMatrix& records = xfer_scratch_;
  records.direction = driver::XferDirection::kToRank;
  records.entries.clear();
  for (const auto& e : matrix.entries) {
    VPIM_REQUEST_CHECK(e.dpu < upmem::kDpuSlotsPerRank,
                       virtio::PimStatus::kBadRequest,
                       "batch entry targets an invalid DPU slot");
    VPIM_REQUEST_CHECK(e.segments.size() == 1,
                       virtio::PimStatus::kBadRequest,
                       "batched region is not guest-contiguous");
    const std::span<std::uint8_t> region(e.segments[0].first,
                                         e.segments[0].second);
    std::uint64_t off = 0;
    while (off < region.size()) {
      VPIM_REQUEST_CHECK(off + sizeof(BatchRecordHeader) <= region.size(),
                         virtio::PimStatus::kBadRequest,
                         "truncated batch record header");
      const auto hdr = read_pod<BatchRecordHeader>(region.data() + off);
      off += sizeof(BatchRecordHeader);
      // hdr.size is guest-controlled: the remaining-bytes bound must not
      // wrap, and the record must land inside the MRAM bank.
      VPIM_REQUEST_CHECK(hdr.size <= region.size() - off,
                         virtio::PimStatus::kBadRequest,
                         "truncated batch record payload");
      VPIM_REQUEST_CHECK(hdr.mram_offset <= upmem::kMramSize &&
                             hdr.size <= upmem::kMramSize - hdr.mram_offset,
                         virtio::PimStatus::kBadRequest,
                         "batch record falls outside the MRAM bank");
      records.entries.push_back(
          {e.dpu, hdr.mram_offset, region.data() + off, hdr.size});
      off += hdr.size;
    }
  }
  driver::copy_banks(rank, records, &backlog_);
}

void Backend::handle_ci(const virtio::DescChain& chain,
                        const WireRequest& req) {
  using virtio::PimStatus;
  VPIM_REQUEST_CHECK(bound(), PimStatus::kUnbound,
                     "CI operation on a device not linked to a rank");
  // CI ops (launches, symbol reads) observe bank contents directly; any
  // copies deferred by earlier requests in this drain must land first.
  backlog_.flush();
  SimClock& clock = vmm_.clock();
  const CostModel& cost = vmm_.cost();
  clock.advance(cost.ci_op_backend_ns);
  // Physical control interfaces are reached through the perf-mode mmap;
  // the emulated rank is plain memory.
  clock.advance(cost.ci_op_native_ns);

  WireResponse resp;
  const std::string name(req.name,
                         strnlen(req.name, sizeof(req.name)));
  // Payload = descs[1] when the chain carries one besides the response.
  const auto payload_desc = [&]() -> const virtio::VirtqDesc& {
    VPIM_REQUEST_CHECK(chain.descs.size() >= 3, PimStatus::kBadRequest,
                       "symbol transfer without a payload buffer");
    return chain.descs[1];
  };
  // The rank reference is resolved inside the recovery wrapper so a retry
  // after wrank migration lands on the replacement rank. Typed request
  // rejections (VpimStatusError) pass straight through the wrapper.
  run_with_recovery([&] {
    upmem::Rank& rank = binding_->rank();
    switch (static_cast<CiOp>(req.ci_op)) {
      case CiOp::kLoad:
        rank.ci_load(name);
        break;
      case CiOp::kLaunch: {
        std::optional<std::uint32_t> tasklets;
        if (req.arg1 > 0) {
          tasklets = static_cast<std::uint32_t>(req.arg1 - 1);
        }
        rank.ci_launch(req.arg0, tasklets);
        break;
      }
      case CiOp::kReadStatus:
        resp.value = rank.ci_running_mask();
        break;
      case CiOp::kCopyToSymbol: {
        const virtio::VirtqDesc& payload = payload_desc();
        VPIM_REQUEST_CHECK(req.dpu < rank.nr_dpus(), PimStatus::kBadRequest,
                           "symbol write targets a DPU beyond the rank");
        rank.ci_copy_to_symbol(
            req.dpu, name, req.symbol_offset,
            {vmm_.memory().hva_range(payload.addr, payload.len),
             payload.len});
        break;
      }
      case CiOp::kCopyFromSymbol: {
        const virtio::VirtqDesc& payload = payload_desc();
        VPIM_REQUEST_CHECK(req.dpu < rank.nr_dpus(), PimStatus::kBadRequest,
                           "symbol read targets a DPU beyond the rank");
        VPIM_REQUEST_CHECK((payload.flags & virtio::kDescFlagWrite) != 0,
                           PimStatus::kBadRequest,
                           "symbol read into a read-only buffer");
        rank.ci_copy_from_symbol(
            req.dpu, name, req.symbol_offset,
            {vmm_.memory().hva_range(payload.addr, payload.len),
             payload.len});
        break;
      }
      case CiOp::kCopyToSymbolAll:
      case CiOp::kCopyFromSymbolAll: {
        const virtio::VirtqDesc& payload = payload_desc();
        const bool to_rank =
            static_cast<CiOp>(req.ci_op) == CiOp::kCopyToSymbolAll;
        // Every field here is guest-controlled: bound the entry count by
        // the rank geometry and compute the payload-length check in 64
        // bits so nr_entries * bytes_per_dpu cannot wrap to a small value.
        VPIM_REQUEST_CHECK(req.nr_entries <= rank.nr_dpus(),
                           PimStatus::kBadRequest,
                           "packed transfer has more entries than DPUs");
        VPIM_REQUEST_CHECK(req.arg0 > 0 && req.arg0 <= 0xFFFFFFFFu,
                           PimStatus::kBadRequest,
                           "bad packed per-DPU value size");
        const auto bytes_per_dpu = static_cast<std::uint32_t>(req.arg0);
        VPIM_REQUEST_CHECK(
            payload.len == std::uint64_t{req.nr_entries} * bytes_per_dpu,
            PimStatus::kBadRequest, "packed symbol payload length mismatch");
        VPIM_REQUEST_CHECK(to_rank ||
                               (payload.flags & virtio::kDescFlagWrite) != 0,
                           PimStatus::kBadRequest,
                           "packed symbol read into a read-only buffer");
        std::uint8_t* base =
            vmm_.memory().hva_range(payload.addr, payload.len);
        // Perf mode touches each DPU's CI slot.
        clock.advance(std::uint64_t{req.nr_entries} * cost.ci_op_native_ns);
        for (std::uint32_t d = 0; d < req.nr_entries; ++d) {
          std::span<std::uint8_t> value(base + std::uint64_t{d} *
                                                   bytes_per_dpu,
                                        bytes_per_dpu);
          if (to_rank) {
            rank.ci_copy_to_symbol(d, name, req.symbol_offset, value);
          } else {
            rank.ci_copy_from_symbol(d, name, req.symbol_offset, value);
          }
        }
        break;
      }
      case CiOp::kBindRank:
      case CiOp::kReleaseRank:
      case CiOp::kMigrateRank:
      case CiOp::kSuspendRank:
      case CiOp::kResumeRank:
        throw VpimStatusError(
            PimStatus::kUnsupported,
            "control operations belong on the control queue");
      default:
        throw VpimStatusError(PimStatus::kUnsupported,
                              "unknown CI opcode " +
                                  std::to_string(req.ci_op));
    }
  });
  // After recovery: a migrated device reports its replacement rank.
  resp.rank_index = response_rank();
  write_response(chain, resp);
  transferq_.push_used(chain.head, sizeof(WireResponse));
}

void Backend::handle_config(const virtio::DescChain& chain) {
  WireResponse resp;
  if (bound()) {
    resp.rank_index = response_rank();
    resp.config = config_space();
  } else {
    resp.status = static_cast<std::int32_t>(virtio::PimStatus::kUnbound);
  }
  write_response(chain, resp);
  transferq_.push_used(chain.head, sizeof(WireResponse));
}

void Backend::handle_control(const virtio::DescChain& chain,
                             const WireRequest& req) {
  using virtio::PimStatus;
  WireResponse resp;
  switch (static_cast<CiOp>(req.ci_op)) {
    case CiOp::kBindRank: {
      if (!try_bind()) {
        resp.status = static_cast<std::int32_t>(PimStatus::kNoCapacity);
        break;
      }
      resp.rank_index = response_rank();
      resp.value = emulated() ? 1 : 0;
      resp.config = config_space();
      break;
    }
    case CiOp::kReleaseRank:
      // Dropping the mapping frees the rank in sysfs; the manager's
      // observer notices the release (§3.5) — no explicit notification.
      unbind();
      break;
    case CiOp::kMigrateRank: {
      // Dynamic rank reallocation (§3.3): move this device's state to a
      // freshly allocated physical rank, then drop the old binding. Also
      // upgrades an emulated (oversubscribed) device to real hardware
      // once capacity frees up.
      VPIM_REQUEST_CHECK(bound(), PimStatus::kUnbound,
                         "migration without a bound rank");
      require_idle();  // before the manager round trip, too
      auto target = manager_.request_rank(tag_);
      if (!target.has_value()) {
        resp.status = static_cast<std::int32_t>(PimStatus::kNoCapacity);
        break;
      }
      std::optional<upmem::Rank::Snapshot> moving;
      move_state(Legs::kBoth, moving, std::move(target),
                 vmm_.cost().interleave_wide_gbps);
      resp.rank_index = response_rank();
      resp.config = config_space();
      break;
    }
    case CiOp::kSuspendRank: {
      // §7 pause/resume: park the device's state host-side and release
      // the rank so another tenant can use it.
      VPIM_REQUEST_CHECK(!suspended_.has_value(), PimStatus::kBadRequest,
                         "device already suspended");
      VPIM_REQUEST_CHECK(bound(), PimStatus::kUnbound,
                         "suspend without a bound rank");
      resp.value = move_state(Legs::kOut, suspended_, std::nullopt,
                              vmm_.cost().interleave_wide_gbps);
      break;
    }
    case CiOp::kResumeRank: {
      VPIM_REQUEST_CHECK(suspended_.has_value(), PimStatus::kBadRequest,
                         "resume without a suspension");
      if (!try_bind()) {
        resp.status = static_cast<std::int32_t>(PimStatus::kNoCapacity);
        break;
      }
      move_state(Legs::kIn, suspended_, std::nullopt,
                 vmm_.cost().interleave_wide_gbps);
      resp.rank_index = response_rank();
      resp.value = emulated() ? 1 : 0;
      resp.config = config_space();
      break;
    }
    default:
      throw VpimStatusError(PimStatus::kUnsupported,
                            "unexpected operation on the control queue");
  }
  write_response(chain, resp);
  controlq_.push_used(chain.head, sizeof(WireResponse));
}

void Backend::write_response(const virtio::DescChain& chain,
                             const WireResponse& resp) {
  // Response buffer = last device-writable descriptor of the chain.
  for (auto it = chain.descs.rbegin(); it != chain.descs.rend(); ++it) {
    if ((it->flags & virtio::kDescFlagWrite) != 0) {
      VPIM_REQUEST_CHECK(it->len >= sizeof(WireResponse),
                         virtio::PimStatus::kBadRequest,
                         "response buffer too small");
      std::memcpy(vmm_.memory().hva_range(it->addr, sizeof(WireResponse)),
                  &resp, sizeof(resp));
      return;
    }
  }
  throw VpimStatusError(virtio::PimStatus::kBadRequest,
                        "request chain has no response buffer");
}

}  // namespace vpim::core
