#include "vpim/frontend.h"

#include <algorithm>
#include <cstring>

#include "common/error.h"
#include "upmem/layout.h"

namespace vpim::core {

namespace {
constexpr std::uint64_t kBatchRecordOverhead = sizeof(BatchRecordHeader);

void copy_name(char (&dst)[64], std::string_view name) {
  VPIM_CHECK(name.size() < sizeof(dst), "name too long for the wire format");
  std::memset(dst, 0, sizeof(dst));
  std::memcpy(dst, name.data(), name.size());
}

// Rethrows a non-OK device completion as a typed error the guest SDK can
// catch and inspect; the device itself never crashes on a bad request.
void throw_if_rejected(const WireResponse& resp, const char* what) {
  if (resp.status == 0) return;
  throw VpimStatusError(resp.status,
                        std::string("device rejected ") + what + ": " +
                            virtio::status_name(resp.status));
}

[[noreturn]] void throw_poll_timeout() {
  throw VpimStatusError(virtio::PimStatus::kTimeout,
                        "device did not complete the request within the "
                        "poll deadline");
}

// The Fig 12 op class a root span of `kind` is accounted under.
std::optional<RankOp> rank_op_of(obs::SpanKind kind) {
  switch (obs::category_of(kind)) {
    case obs::Category::kCi:
      return RankOp::kCi;
    case obs::Category::kRead:
      return RankOp::kReadFromRank;
    case obs::Category::kWrite:
      return RankOp::kWriteToRank;
    default:
      return std::nullopt;
  }
}
}  // namespace

Frontend::DeviceOp::DeviceOp(Frontend& fe, obs::SpanKind kind,
                             bool request_open)
    : fe_(fe),
      tracer_(fe.tracer()),
      op_(rank_op_of(kind)),
      start_(fe.vmm_.clock().now()) {
  if (tracer_ != nullptr) {
    if (!request_open) tracer_->begin_request();
    tracer_->begin_span(kind, start_);
    tracer_->top().tenant = tracer_->intern(fe.tag_);
  }
  fe.vmm_.clock().advance(fe.vmm_.cost().ioctl_ns);
}

Frontend::DeviceOp::~DeviceOp() {
  const SimNs end = fe_.vmm_.clock().now();
  if (op_.has_value()) {
    const SimNs duration = end >= start_ ? end - start_ : 0;
    fe_.stats_.ops.add(*op_, duration);
    fe_.op_hist_[static_cast<std::size_t>(*op_)]->observe(duration);
  }
  if (tracer_ != nullptr) tracer_->end_span(end);
}

Frontend::Frontend(vmm::Vmm& vmm, Backend& backend,
                   virtio::Virtqueue& transferq, virtio::Virtqueue& controlq,
                   virtio::DeviceState& state, const VpimConfig& config,
                   DeviceStats& stats, std::string tag, obs::Hub& obs)
    : vmm_(vmm),
      backend_(backend),
      transferq_(transferq),
      controlq_(controlq),
      state_(state),
      config_(config),
      stats_(stats),
      tag_(std::move(tag)),
      obs_(obs) {
  // Per-device op-latency distributions (the handles point at stable
  // series, so the hot path is one array index + one observe()); they
  // leave the registry with the device.
  for (std::size_t i = 0; i < kNumRankOps; ++i) {
    op_hist_[i] = obs_.metrics.scoped_histogram(
        "vpim_op_ns",
        {{"device", tag_}, {"op", std::string(kRankOpNames[i])}});
  }
  if (config_.vhost_transitions) {
    // A dedicated kernel worker handles this device's queues; requests
    // from different devices never share a serializing loop.
    vhost_worker_.emplace(vmm_.clock(), vmm_.cost(),
                          /*parallel_handling=*/true);
  }
  VPIM_CHECK(config_.queue_depth >= 1, "queue depth must be at least 1");
  depth_ = std::min(config_.queue_depth, kMaxQueueDepth);
  config_.queue_depth = depth_;  // expose the clamped depth via config()
  inflight_hist_ =
      obs_.metrics.scoped_histogram("vpim_inflight_depth", {{"device", tag_}});
}

void Frontend::ensure_arenas() {
  if (arenas_ready_) return;
  guest::GuestMemory& mem = vmm_.memory();
  constexpr std::uint32_t kDpus = upmem::kDpuSlotsPerRank;
  constexpr std::uint64_t kPageListBytes =
      static_cast<std::uint64_t>(kDpus) * upmem::kMramPages * 8;
  constexpr std::uint64_t kPage = guest::kGuestPageSize;

  // Guest layout, in first-touch order: every request writes its slot's
  // control page, so all of them sit side by side, then the CI payloads;
  // the batch head slots (sub-page allocations, sixteen to a page, so four
  // pages hold all 64), then the batch buffers a DPU moves to once its
  // records outgrow the head, before the cache segments; the page-list
  // areas, which only wide requests reach, last.
  slots_.resize(depth_);
  const std::span<std::uint8_t> control = mem.alloc(depth_ * kPage);
  for (std::uint32_t i = 0; i < depth_; ++i) {
    carve_control_page(slots_[i].arena, control.subspan(i * kPage, kPage));
  }
  for (SqSlot& slot : slots_) slot.arena.payload = mem.alloc(kCiPayloadBytes);

  caches_.resize(kDpus);
  batches_.resize(kDpus);
  filling_.resize(kDpus);
  if (config_.request_batching) {
    for (DpuBatch& b : batches_) b.buf = mem.alloc(kBatchHeadBytes);
    batch_full_ = mem.alloc(kDpus * batch_bytes());
  }
  if (config_.prefetch_cache) {
    for (DpuCache& c : caches_) c.buf = mem.alloc(cache_bytes());
  }
  for (SqSlot& slot : slots_) slot.arena.page_lists = mem.alloc(kPageListBytes);
  arenas_ready_ = true;
}

bool Frontend::open() {
  if (open_) return true;
  DeviceOp op(*this, obs::SpanKind::kControl);
  // Virtio initialization dance (Appendix A.1 / virtio 1.x 3.1): status
  // walk and feature negotiation (the PIM device offers no features).
  if (!state_.driver_ok()) {
    state_.write_status(virtio::kStatusAcknowledge);
    state_.write_status(virtio::kStatusAcknowledge |
                        virtio::kStatusDriver);
    state_.write_driver_features(0);
    state_.write_status(virtio::kStatusAcknowledge | virtio::kStatusDriver |
                        virtio::kStatusFeaturesOk);
    state_.write_status(virtio::kStatusAcknowledge | virtio::kStatusDriver |
                        virtio::kStatusFeaturesOk |
                        virtio::kStatusDriverOk);
  }
  ensure_arenas();
  const WireResponse resp = control(CiOp::kBindRank, "the bind request");
  if (resp.status != 0) return false;  // manager abandoned the allocation
  config_space_ = resp.config;
  open_ = true;
  return true;
}

void Frontend::close() {
  if (!open_) return;
  DeviceOp op(*this, obs::SpanKind::kControl);
  // Teardown must never wedge: if the device died (DEVICE_FAULT, UNBOUND,
  // TIMEOUT), pending batched writes are lost with it, but the guest still
  // releases its device file and moves on. The pipeline drains first so
  // slot 0's arena is free for the control request and async completions
  // land in the CQ before the device goes away.
  try {
    drain();
  } catch (const VpimStatusError&) {
    for (auto& batch : batches_) batch.cursor = 0;
    batch_pending_ = 0;
    batch_locked_ = false;
  }
  invalidate_cache();
  try {
    control(CiOp::kReleaseRank, "the release request");
  } catch (const VpimStatusError&) {
    // Releasing an already-unbound or wedged device: local teardown still
    // completes; the manager's observer reclaims the rank either way.
  }
  open_ = false;
}

bool Frontend::migrate() {
  VPIM_CHECK(open_, "migration on an unlinked device");
  DeviceOp op(*this, obs::SpanKind::kControl);
  drain();  // in-flight work lands before the rank moves
  invalidate_cache();  // cached segments refer to the old rank
  const WireResponse resp =
      control(CiOp::kMigrateRank, "the migration request");
  if (resp.status != 0) return false;  // no free rank; still bound
  config_space_ = resp.config;
  return true;
}

void Frontend::suspend() {
  VPIM_CHECK(open_, "suspend on an unlinked device");
  DeviceOp op(*this, obs::SpanKind::kControl);
  drain();  // everything in flight must land before the state is parked
  invalidate_cache();
  control(CiOp::kSuspendRank, "the suspend request");
  open_ = false;
}

bool Frontend::resume() {
  VPIM_CHECK(!open_, "resume on a device that is already linked");
  DeviceOp op(*this, obs::SpanKind::kControl);
  const WireResponse resp = control(CiOp::kResumeRank, "the resume request");
  if (resp.status != 0) return false;  // stays parked until capacity frees
  config_space_ = resp.config;
  open_ = true;
  return true;
}

std::uint32_t Frontend::nr_dpus() const {
  VPIM_CHECK(open_, "device not linked to a rank");
  return config_space_.nr_dpus;
}

virtio::PimConfigSpace Frontend::config_space() const {
  VPIM_CHECK(open_, "device not linked to a rank");
  return config_space_;
}

// ------------------------------------------------------------- rank ops

void Frontend::write_to_rank(const driver::TransferMatrix& matrix) {
  VPIM_CHECK(open_, "write-to-rank on an unlinked device");
  VPIM_CHECK(matrix.direction == driver::XferDirection::kToRank,
             "write_to_rank called with a read matrix");
  check_dpus(matrix);
  DeviceOp op(*this, obs::SpanKind::kWrite);
  op.set_bytes(matrix.total_bytes());
  op.set_entries(static_cast<std::uint32_t>(matrix.entries.size()));
  // Any write makes cached MRAM contents stale.
  invalidate_cache();
  if (config_.request_batching && try_batch(matrix)) {
    op.set_kind(obs::SpanKind::kWriteBatched);
    return;
  }
  flush_batch();
  send_rank_op(matrix, /*is_write=*/true, /*flags=*/0);
}

void Frontend::read_from_rank(const driver::TransferMatrix& matrix) {
  VPIM_CHECK(open_, "read-from-rank on an unlinked device");
  VPIM_CHECK(matrix.direction == driver::XferDirection::kFromRank,
             "read_from_rank called with a write matrix");
  check_dpus(matrix);
  SimClock& clock = vmm_.clock();
  const CostModel& cost = vmm_.cost();
  DeviceOp op(*this, obs::SpanKind::kRead);
  op.set_bytes(matrix.total_bytes());
  op.set_entries(static_cast<std::uint32_t>(matrix.entries.size()));
  flush_batch();  // non-write request; also required for coherence

  const bool cacheable =
      config_.prefetch_cache &&
      std::all_of(matrix.entries.begin(), matrix.entries.end(),
                  [&](const driver::XferEntry& e) {
                    return e.size <= cache_bytes();
                  });
  if (!cacheable) {
    send_rank_op(matrix, /*is_write=*/false, /*flags=*/0);
    return;
  }

  // Classify each entry against its DPU's cache segment.
  auto in_cache = [&](const driver::XferEntry& e) {
    const DpuCache& c = caches_[e.dpu];
    return c.valid && e.mram_offset >= c.base &&
           e.mram_offset + e.size <= c.base + c.len;
  };
  driver::TransferMatrix& fill = fill_scratch_;
  fill.direction = driver::XferDirection::kFromRank;
  fill.entries.clear();
  std::fill(filling_.begin(), filling_.end(), std::uint8_t{0});
  for (const driver::XferEntry& e : matrix.entries) {
    if (in_cache(e)) {
      ++stats_.cache_hits;
      continue;
    }
    ++stats_.cache_misses;
    if (filling_[e.dpu]) continue;  // one fill per DPU per request
    filling_[e.dpu] = 1;
    DpuCache& c = caches_[e.dpu];
    const std::uint64_t len =
        std::min<std::uint64_t>(cache_bytes(),
                                upmem::kMramSize - e.mram_offset);
    fill.entries.push_back({e.dpu, e.mram_offset, c.buf.data(), len});
  }
  if (!fill.entries.empty()) {
    obs::ScopedSpan fill_span(tracer(), clock, obs::SpanKind::kReadFill);
    fill_span.set_bytes(fill.total_bytes());
    fill_span.set_entries(static_cast<std::uint32_t>(fill.entries.size()));
    send_rank_op(fill, /*is_write=*/false, kWireFlagPrefetch);
    ++stats_.cache_fills;
    for (const driver::XferEntry& f : fill.entries) {
      caches_[f.dpu].valid = true;
      caches_[f.dpu].base = f.mram_offset;
      caches_[f.dpu].len = f.size;
    }
  }
  // Serve every entry from the cache. Ranges that still miss (e.g. two
  // disjoint ranges on one DPU in one call) are collected into a single
  // direct read, so the residue costs one doorbell instead of one
  // notify/IRQ round trip per entry.
  driver::TransferMatrix& direct = direct_scratch_;
  direct.direction = driver::XferDirection::kFromRank;
  direct.entries.clear();
  for (const driver::XferEntry& e : matrix.entries) {
    if (!in_cache(e)) {
      direct.entries.push_back(e);
      continue;
    }
    // The fill pinned the segment: the hit is served straight from its
    // MRAM pages.
    backend_.settle_prefetch(e.dpu, e.mram_offset, {e.host, e.size});
    clock.advance(cost.cache_hit_fixed_ns +
                  CostModel::bytes_time(e.size, cost.guest_memcpy_gbps));
  }
  if (!direct.entries.empty()) {
    send_rank_op(direct, /*is_write=*/false, /*flags=*/0);
  }
  op.set_kind(obs::SpanKind::kReadCached);
}

void Frontend::check_dpus(const driver::TransferMatrix& matrix) const {
  // Reject out-of-range DPU indices at the device-file boundary, like the
  // native driver's ioctl would. Catching this early keeps a bad entry
  // from being absorbed into the batch buffer, where the rejection would
  // otherwise surface later — attributed to an unrelated flush — and
  // discard the other DPUs' batched writes with it.
  for (const driver::XferEntry& e : matrix.entries) {
    VPIM_CHECK(e.dpu < config_space_.nr_dpus,
               "transfer entry targets a DPU beyond the bound rank");
  }
}

bool Frontend::try_batch(const driver::TransferMatrix& matrix) {
  // A posted flush owns the batch buffers until its completion arrives;
  // appending would hand the device a torn buffer.
  if (batch_locked_) return false;
  // Batch only small writes, and only a matrix whose records all fit their
  // DPU buffers' remaining space: a matrix may name one DPU many times, so
  // each DPU's records are summed before anything is absorbed. A DPU whose
  // records would overflow its head slot first moves the ones there into
  // its full buffer and stays there, so each DPU moves at most once.
  const std::uint64_t small_max =
      std::uint64_t{kBatchEntryMaxPages} * guest::kGuestPageSize;
  std::array<std::uint64_t, upmem::kDpuSlotsPerRank> need{};
  for (const driver::XferEntry& e : matrix.entries) {
    VPIM_CHECK(e.dpu < batches_.size(), "DPU index out of range");
    need[e.dpu] += e.size + kBatchRecordOverhead;
    if (e.size > small_max ||
        batches_[e.dpu].cursor + need[e.dpu] > batch_bytes()) {
      return false;
    }
  }
  for (const driver::XferEntry& e : matrix.entries) {
    DpuBatch& b = batches_[e.dpu];
    if (b.cursor + need[e.dpu] > b.buf.size()) {
      const std::span<std::uint8_t> full =
          batch_full_.subspan(e.dpu * batch_bytes(), batch_bytes());
      std::memcpy(full.data(), b.buf.data(), b.cursor);
      b.buf = full;
    }
  }
  SimClock& clock = vmm_.clock();
  const CostModel& cost = vmm_.cost();
  for (const driver::XferEntry& e : matrix.entries) {
    DpuBatch& b = batches_[e.dpu];
    BatchRecordHeader hdr{e.mram_offset, e.size};
    std::memcpy(b.buf.data() + b.cursor, &hdr, sizeof(hdr));
    std::memcpy(b.buf.data() + b.cursor + sizeof(hdr), e.host, e.size);
    b.cursor += sizeof(hdr) + e.size;
    clock.advance(CostModel::bytes_time(e.size, cost.guest_memcpy_gbps) +
                  cost.cache_hit_fixed_ns);
    ++stats_.batched_writes;
    ++batch_pending_;
  }
  // Flush proactively once any buffer is nearly full.
  for (const driver::XferEntry& e : matrix.entries) {
    if (batches_[e.dpu].cursor + 4 * kKiB > batch_bytes()) {
      flush_batch();
      break;
    }
  }
  return true;
}

void Frontend::flush_batch() {
  if (batch_pending_ == 0 || batch_locked_) return;
  obs::ScopedSpan span(tracer(), vmm_.clock(), obs::SpanKind::kWriteFlush);
  driver::TransferMatrix& matrix = flush_scratch_;
  matrix.direction = driver::XferDirection::kToRank;
  matrix.entries.clear();
  for (std::uint32_t d = 0; d < batches_.size(); ++d) {
    if (batches_[d].cursor == 0) continue;
    matrix.entries.push_back(
        {d, 0, batches_[d].buf.data(), batches_[d].cursor});
  }
  span.set_bytes(matrix.total_bytes());
  span.set_entries(static_cast<std::uint32_t>(matrix.entries.size()));
  const std::uint32_t idx =
      stage_rank_op(matrix, /*is_write=*/true, kWireFlagBatched,
                    /*async=*/false, /*ticket=*/0, /*is_flush=*/true);
  batch_locked_ = true;
  // Depth 1 keeps the classic blocking flush; deeper queues post it and
  // let the next kick complete it (kick() resets the cursors and counts
  // the flush once the device accepts it, or parks the failure for
  // raise_flush_error()).
  if (depth_ == 1) kick();
  if (slots_[idx].completed || slots_[idx].timed_out) raise_flush_error();
}

void Frontend::invalidate_cache() {
  for (auto& c : caches_) c.valid = false;
  backend_.drop_prefetch();  // a pin lives exactly as long as its segment
}

void Frontend::record_lost_writes(std::int32_t status) {
  // Walk every DPU's batch buffer and convert the absorbed-but-unflushed
  // records into typed LostWrite entries, then retire the buffers: the
  // writes are declared lost exactly once, and a later flush can never
  // silently re-send them against a device that may have applied some of
  // the failed flush already.
  for (std::uint32_t d = 0; d < batches_.size(); ++d) {
    DpuBatch& b = batches_[d];
    std::uint64_t off = 0;
    while (off + kBatchRecordOverhead <= b.cursor) {
      BatchRecordHeader hdr;
      std::memcpy(&hdr, b.buf.data() + off, sizeof(hdr));
      lost_writes_.push_back({d, hdr.mram_offset, hdr.size, status});
      ++stats_.lost_batched_writes;
      off += kBatchRecordOverhead + hdr.size;
    }
    b.cursor = 0;
  }
  batch_pending_ = 0;
}

void Frontend::send_rank_op(const driver::TransferMatrix& matrix,
                            bool is_write, std::uint32_t flags) {
  const std::uint32_t idx =
      stage_rank_op(matrix, is_write, flags, /*async=*/false, /*ticket=*/0,
                    /*is_flush=*/false);
  finish_sync(idx, is_write ? "a write-to-rank operation"
                            : "a read-from-rank operation");
}

std::uint32_t Frontend::reserve(std::size_t descs) {
  if (staged_.size() >= depth_) kick();
  // The descriptor table recycles only on poll_used, so a deep queue of
  // wide matrices can exhaust it before the depth does; kick early rather
  // than let submit() throw.
  if (transferq_.free_descriptors() < descs) kick();
  return static_cast<std::uint32_t>(staged_.size());
}

std::uint32_t Frontend::publish(std::span<const virtio::DescBuffer> chain,
                                bool is_write, bool async, bool is_flush,
                                Ticket ticket, SimNs deadline_ns) {
  const auto idx = static_cast<std::uint32_t>(staged_.size());
  SqSlot& slot = slots_[idx];
  // Publish on the available ring; the doorbell waits for kick().
  slot.head = transferq_.submit(chain);
  slot.is_write = is_write;
  slot.async = async;
  slot.is_flush = is_flush;
  slot.completed = false;
  slot.timed_out = false;
  slot.cancelled = false;
  slot.admitted = false;
  slot.ticket = ticket;
  slot.deadline = deadline_ns;
  slot.admit_t0 = 0;
  ++stats_.requests;
  staged_.push_back(idx);
  return idx;
}

std::uint32_t Frontend::stage_rank_op(const driver::TransferMatrix& matrix,
                                      bool is_write, std::uint32_t flags,
                                      bool async, Ticket ticket,
                                      bool is_flush, SimNs deadline_ns) {
  SqSlot& slot = slots_[reserve(2 * matrix.entries.size() + 3)];
  SimClock& clock = vmm_.clock();
  const CostModel& cost = vmm_.cost();
  slot.t0 = clock.now();

  // -- Page management: user pages -> kernel page lists (Fig 13 "Page").
  // A write accounts each step in DeviceStats::wsteps through its span.
  {
    obs::ScopedSpan page(tracer(), clock, obs::SpanKind::kPageMgmt,
                         is_write ? &stats_.wsteps[WrankStep::kPageMgmt]
                                  : nullptr);
    std::uint64_t pages = 0;
    for (const driver::XferEntry& e : matrix.entries) {
      const std::uint64_t first_off =
          vmm_.memory().gpa_of(e.host) % guest::kGuestPageSize;
      pages += (first_off + e.size + guest::kGuestPageSize - 1) /
               guest::kGuestPageSize;
    }
    clock.advance(cost.page_mgmt_ns_per_page * pages);
    page.set_entries(static_cast<std::uint32_t>(pages));
  }

  // -- Serialization (Fig 13 "Ser") into this slot's arena.
  obs::ScopedSpan ser(tracer(), clock, obs::SpanKind::kSerialize,
                      is_write ? &stats_.wsteps[WrankStep::kSerialize]
                               : nullptr);
  ser.set_bytes(matrix.total_bytes());
  ser.set_entries(static_cast<std::uint32_t>(matrix.entries.size()));
  serialize_matrix(matrix, vmm_.memory(), slot.arena,
                   static_cast<std::uint32_t>(
                       is_write ? virtio::PimRequestType::kWriteToRank
                                : virtio::PimRequestType::kReadFromRank),
                   slot.ser);
  // Patch the flags + causal request id + wire deadline into the
  // serialized request block.
  {
    WireRequest req;
    std::memcpy(&req, slot.arena.request.data(), sizeof(req));
    req.flags = flags;
    req.request_id = wire_request_id();
    req.deadline_ns = static_cast<std::uint64_t>(deadline_ns);
    std::memcpy(slot.arena.request.data(), &req, sizeof(req));
  }
  clock.advance(cost.frontend_request_fixed_ns +
                cost.serialize_ns_per_page * slot.ser.nr_pages +
                cost.per_dpu_metadata_ns * matrix.entries.size());
  ser.close();
  return publish(slot.ser.chain, is_write, async, is_flush, ticket,
                 deadline_ns);
}

std::size_t Frontend::doorbell(virtio::Virtqueue& queue,
                               void (Backend::*handler)(),
                               std::size_t expected) {
  SimClock& clock = vmm_.clock();
  const CostModel& cost = vmm_.cost();
  ++stats_.doorbells;
  stats_.coalesced_notifies += expected - 1;

  // One span for the whole transport round trip: notify transition,
  // backend drain (which nests its own spans), completion IRQ, and any
  // completion polling.
  obs::ScopedSpan span(tracer(), clock, obs::SpanKind::kVirtioRoundtrip);
  if (depth_ > 1) span.set_entries(static_cast<std::uint32_t>(staged_.size()));

  // Guest -> host transition, device handling, completion back into the
  // guest (Fig 13 "Int" is the transition cost). With vhost transitions
  // (§7 future work) the kick lands in a per-device kernel worker instead
  // of trapping out to the userspace VMM. Everything the doorbell covers
  // shares one transition pair — that is the coalescing win.
  const bool vhost = vhost_worker_.has_value();
  const SimNs notify_cost =
      vhost ? cost.vhost_notify_ns : cost.vmexit_notify_ns;
  const SimNs complete_cost =
      vhost ? cost.vhost_complete_ns : cost.irq_inject_ns;
  clock.advance(notify_cost);
  ++stats_.notifies;
  vmm::EventLoop& loop = vhost ? *vhost_worker_ : vmm_.loop();
  Backend& backend = backend_;
  loop.dispatch([&] { (backend.*handler)(); });
  clock.advance(complete_cost);
  bool any_write = false;
  for (std::uint32_t idx : staged_) any_write |= slots_[idx].is_write;
  if (any_write) {
    stats_.wsteps.add(WrankStep::kInterrupt, notify_cost + complete_cost);
  }

  // Bounded completion wait: the first polls are free (the dispatch above
  // is synchronous, so a healthy device has already completed everything).
  // If a completion never arrives — injected lost completion, wedged
  // device — the guest re-polls every kPollIntervalNs of virtual time and
  // gives up on the stragglers once kPollDeadlineNs has elapsed.
  std::size_t got = 0;
  while (got < expected) {
    auto used = queue.poll_used();
    if (!used.has_value()) {
      SimNs wait_until = clock.now() + kPollDeadlineNs;
      // Completion-reap deadline boundary: when every outstanding staged
      // request carries a wire deadline, there is no point polling past
      // the latest of them — the device itself sheds expired work, so
      // waiting longer can only ever reap kTimeout. Anything without a
      // deadline keeps the classic full poll budget.
      bool all_deadlined = true;
      SimNs latest = 0;
      for (std::uint32_t idx : staged_) {
        const SqSlot& slot = slots_[idx];
        if (slot.completed) continue;
        if (slot.deadline == 0) {
          all_deadlined = false;
          break;
        }
        latest = std::max(latest, slot.deadline);
      }
      if (all_deadlined && latest > 0) {
        wait_until = std::min(wait_until, latest);
      }
      while (!used.has_value() && clock.now() < wait_until) {
        clock.advance(kPollIntervalNs);
        used = queue.poll_used();
      }
    }
    if (!used.has_value()) break;
    for (std::uint32_t idx : staged_) {
      SqSlot& slot = slots_[idx];
      if (!slot.completed && slot.head == used->id) {
        std::memcpy(&slot.resp, slot.arena.response.data(),
                    sizeof(WireResponse));
        slot.completed = true;
        break;
      }
    }
    ++got;
  }
  return got;
}

void Frontend::kick() {
  if (staged_.empty()) return;
  inflight_hist_->observe(staged_.size());
  doorbell(transferq_, &Backend::handle_transferq, staged_.size());

  // Resolve every staged slot in submission order: timeouts get a typed
  // status, posted flushes retire the batch buffers, async requests land
  // in the CQ. kick() itself never throws — blocking callers surface
  // their slot's status via finish_sync.
  const SimNs done = vmm_.clock().now();
  obs::Tracer* t = tracer();
  AdmissionController* adm = backend_.admission();
  for (std::uint32_t idx : staged_) {
    SqSlot& slot = slots_[idx];
    if (!slot.completed) {
      slot.timed_out = true;
      slot.resp = WireResponse{};
      slot.resp.status =
          static_cast<std::int32_t>(virtio::PimStatus::kTimeout);
      ++stats_.poll_timeouts;
    }
    if (depth_ > 1 && t != nullptr) {
      t->record(obs::SpanKind::kSqSlot, slot.t0, done - slot.t0,
                slot.resp.value, idx);
    }
    if (slot.is_flush) {
      if (slot.resp.status == 0) {
        for (auto& b : batches_) b.cursor = 0;
        batch_pending_ = 0;
        ++stats_.batch_flushes;
      } else {
        // The lossy-timeout edge: a failed posted flush loses every write
        // the batch buffers absorbed. Surface a typed per-slot record for
        // each before retiring the buffers, so the guest can enumerate
        // exactly what was lost instead of silently re-flushing or
        // dropping them.
        record_lost_writes(slot.resp.status);
        if (pending_flush_status_ == 0) {
          pending_flush_status_ = slot.resp.status;
        }
      }
      batch_locked_ = false;
    }
    if (slot.async) {
      // Release the admission budget on the reap, whatever the status —
      // success, timeout, cancel and deadline-shed all return the unit.
      if (slot.admitted && adm != nullptr) {
        adm->complete(done, done - slot.admit_t0);
      }
      cq_.push_back(
          {slot.ticket, slot.resp.status, slot.resp.value, slot.is_write});
    }
  }
  staged_.clear();
}

void Frontend::drain() {
  flush_batch();
  kick();
  raise_flush_error();
}

void Frontend::raise_flush_error() {
  if (pending_flush_status_ == 0) return;
  const std::int32_t status = pending_flush_status_;
  pending_flush_status_ = 0;
  if (status == static_cast<std::int32_t>(virtio::PimStatus::kTimeout)) {
    throw_poll_timeout();
  }
  WireResponse resp;
  resp.status = status;
  throw_if_rejected(resp, "a write-to-rank operation");
}

WireResponse Frontend::finish_sync(std::uint32_t idx, const char* what) {
  SqSlot& slot = slots_[idx];
  if (!slot.completed && !slot.timed_out) kick();
  raise_flush_error();
  if (slot.timed_out) throw_poll_timeout();
  throw_if_rejected(slot.resp, what);
  return slot.resp;
}

WireResponse Frontend::control(CiOp op, const char* what) {
  // Control requests borrow slot 0's arena, so the SQ must be drained.
  VPIM_CHECK(staged_.empty(), "control request with transfers still staged");
  WireArena& arena = slots_[0].arena;
  WireRequest req;
  req.ci_op = static_cast<std::uint32_t>(op);
  req.request_id = wire_request_id();
  std::memcpy(arena.request.data(), &req, sizeof(req));
  const virtio::DescBuffer chain[] = {
      {vmm_.memory().gpa_of(arena.request.data()), sizeof(WireRequest),
       false},
      {vmm_.memory().gpa_of(arena.response.data()), sizeof(WireResponse),
       true},
  };
  controlq_.submit(chain);
  ++stats_.requests;
  // Control requests stay strictly synchronous: one request, one doorbell,
  // one completion interrupt.
  if (doorbell(controlq_, &Backend::handle_controlq, 1) == 0) {
    ++stats_.poll_timeouts;
    throw_poll_timeout();
  }
  WireResponse resp;
  std::memcpy(&resp, arena.response.data(), sizeof(resp));
  if (resp.status !=
      static_cast<std::int32_t>(virtio::PimStatus::kNoCapacity)) {
    throw_if_rejected(resp, what);
  }
  return resp;
}

// --------------------------------------------------------------- CI ops

std::span<std::uint8_t> Frontend::ci_payload() {
  // Reserve now so the slot index cannot move between a caller staging
  // payload bytes and stage_ci serializing into the same slot.
  return slots_[reserve(3)].arena.payload;
}

std::uint32_t Frontend::stage_ci(const WireRequest& req,
                                 std::span<std::uint8_t> payload,
                                 bool payload_writable) {
  SqSlot& slot = slots_[reserve(3)];
  slot.t0 = vmm_.clock().now();
  WireRequest stamped = req;
  stamped.request_id = wire_request_id();
  std::memcpy(slot.arena.request.data(), &stamped, sizeof(stamped));
  // A CI chain is at most [request, payload, response]; build it in a
  // fixed array instead of a heap vector.
  std::array<virtio::DescBuffer, 3> chain;
  std::size_t n = 0;
  chain[n++] = {vmm_.memory().gpa_of(slot.arena.request.data()),
                sizeof(WireRequest), false};
  if (!payload.empty()) {
    chain[n++] = {vmm_.memory().gpa_of(payload.data()),
                  static_cast<std::uint32_t>(payload.size()),
                  payload_writable};
  }
  chain[n++] = {vmm_.memory().gpa_of(slot.arena.response.data()),
                sizeof(WireResponse), true};
  return publish(std::span(chain.data(), n));
}

WireResponse Frontend::ci_roundtrip(const WireRequest& req,
                                    std::span<std::uint8_t> payload,
                                    bool payload_writable) {
  const std::uint32_t idx = stage_ci(req, payload, payload_writable);
  return finish_sync(idx, "the CI operation");
}

void Frontend::ci_load(std::string_view kernel_name) {
  VPIM_CHECK(open_, "CI operation on an unlinked device");
  DeviceOp op(*this, obs::SpanKind::kCiLoad);
  flush_batch();
  WireRequest req;
  req.type = static_cast<std::uint32_t>(virtio::PimRequestType::kCiWrite);
  req.ci_op = static_cast<std::uint32_t>(CiOp::kLoad);
  copy_name(req.name, kernel_name);
  ci_roundtrip(req, {}, false);
}

void Frontend::ci_launch(std::uint64_t dpu_mask,
                         std::optional<std::uint32_t> nr_tasklets) {
  VPIM_CHECK(open_, "CI operation on an unlinked device");
  DeviceOp op(*this, obs::SpanKind::kCiLaunch);
  flush_batch();
  invalidate_cache();  // DPU programs may rewrite MRAM
  WireRequest req;
  req.type = static_cast<std::uint32_t>(virtio::PimRequestType::kCiWrite);
  req.ci_op = static_cast<std::uint32_t>(CiOp::kLaunch);
  req.arg0 = dpu_mask;
  req.arg1 = nr_tasklets ? *nr_tasklets + 1 : 0;
  ci_roundtrip(req, {}, false);
}

std::uint64_t Frontend::ci_running_mask() {
  VPIM_CHECK(open_, "CI operation on an unlinked device");
  DeviceOp op(*this, obs::SpanKind::kCiStatus);
  flush_batch();
  WireRequest req;
  req.type = static_cast<std::uint32_t>(virtio::PimRequestType::kCiRead);
  req.ci_op = static_cast<std::uint32_t>(CiOp::kReadStatus);
  const WireResponse resp = ci_roundtrip(req, {}, false);
  return resp.value;
}

void Frontend::ci_copy_to_symbol(std::uint32_t dpu, std::string_view symbol,
                                 std::uint32_t offset,
                                 std::span<const std::uint8_t> data) {
  VPIM_CHECK(open_, "CI operation on an unlinked device");
  VPIM_CHECK(data.size() <= kCiPayloadBytes,
             "symbol payload exceeds the staging buffer");
  DeviceOp op(*this, obs::SpanKind::kCiSymbol);
  op.set_bytes(data.size());
  flush_batch();
  std::span<std::uint8_t> payload = ci_payload();
  std::memcpy(payload.data(), data.data(), data.size());
  WireRequest req;
  req.type = static_cast<std::uint32_t>(virtio::PimRequestType::kCiWrite);
  req.ci_op = static_cast<std::uint32_t>(CiOp::kCopyToSymbol);
  req.dpu = dpu;
  req.symbol_offset = offset;
  copy_name(req.name, symbol);
  ci_roundtrip(req, payload.first(data.size()), false);
}

void Frontend::ci_copy_from_symbol(std::uint32_t dpu,
                                   std::string_view symbol,
                                   std::uint32_t offset,
                                   std::span<std::uint8_t> out) {
  VPIM_CHECK(open_, "CI operation on an unlinked device");
  VPIM_CHECK(out.size() <= kCiPayloadBytes,
             "symbol payload exceeds the staging buffer");
  DeviceOp op(*this, obs::SpanKind::kCiSymbol);
  op.set_bytes(out.size());
  flush_batch();
  std::span<std::uint8_t> payload = ci_payload();
  WireRequest req;
  req.type = static_cast<std::uint32_t>(virtio::PimRequestType::kCiRead);
  req.ci_op = static_cast<std::uint32_t>(CiOp::kCopyFromSymbol);
  req.dpu = dpu;
  req.symbol_offset = offset;
  copy_name(req.name, symbol);
  ci_roundtrip(req, payload.first(out.size()), true);
  std::memcpy(out.data(), payload.data(), out.size());
}

void Frontend::ci_push_symbols(driver::XferDirection dir,
                               std::string_view symbol,
                               std::uint32_t offset,
                               std::span<std::uint8_t> packed,
                               std::uint32_t bytes_per_dpu) {
  VPIM_CHECK(open_, "CI operation on an unlinked device");
  VPIM_CHECK(bytes_per_dpu > 0 && packed.size() % bytes_per_dpu == 0,
             "packed symbol buffer must hold whole per-DPU values");
  DeviceOp op(*this, obs::SpanKind::kCiSymbol);
  op.set_bytes(packed.size());
  op.set_entries(static_cast<std::uint32_t>(packed.size() / bytes_per_dpu));
  flush_batch();
  WireRequest req;
  req.type = static_cast<std::uint32_t>(
      dir == driver::XferDirection::kToRank
          ? virtio::PimRequestType::kCiWrite
          : virtio::PimRequestType::kCiRead);
  req.ci_op = static_cast<std::uint32_t>(
      dir == driver::XferDirection::kToRank ? CiOp::kCopyToSymbolAll
                                            : CiOp::kCopyFromSymbolAll);
  req.nr_entries =
      static_cast<std::uint32_t>(packed.size() / bytes_per_dpu);
  req.symbol_offset = offset;
  req.arg0 = bytes_per_dpu;
  copy_name(req.name, symbol);
  ci_roundtrip(req, packed,
               dir == driver::XferDirection::kFromRank);
}

// ------------------------------------------------------- async SQ/CQ API

Frontend::Ticket Frontend::submit_async(const driver::TransferMatrix& matrix,
                                        bool is_write, SimNs deadline_ns,
                                        bool admitted, SimNs admit_t0,
                                        bool request_open) {
  VPIM_CHECK(open_, is_write ? "write-to-rank on an unlinked device"
                             : "read-from-rank on an unlinked device");
  if (is_write) {
    VPIM_CHECK(matrix.direction == driver::XferDirection::kToRank,
               "submit_write called with a read matrix");
  } else {
    VPIM_CHECK(matrix.direction == driver::XferDirection::kFromRank,
               "submit_read called with a write matrix");
  }
  check_dpus(matrix);
  DeviceOp op(*this, is_write ? obs::SpanKind::kWrite : obs::SpanKind::kRead,
              request_open);
  op.set_bytes(matrix.total_bytes());
  op.set_entries(static_cast<std::uint32_t>(matrix.entries.size()));
  // Any write makes cached MRAM contents stale; batched writes must not
  // land after this one (write -> read ordering on the read path).
  if (is_write) invalidate_cache();
  flush_batch();
  const Ticket ticket = ++next_ticket_;
  const std::uint32_t idx =
      stage_rank_op(matrix, is_write, /*flags=*/0, /*async=*/true, ticket,
                    /*is_flush=*/false, deadline_ns);
  slots_[idx].admitted = admitted;
  slots_[idx].admit_t0 = admit_t0;
  if (staged_.size() >= depth_) kick();
  return ticket;
}

Frontend::Ticket Frontend::submit_write(const driver::TransferMatrix& matrix) {
  return submit_async(matrix, /*is_write=*/true, /*deadline_ns=*/0,
                      /*admitted=*/false, /*admit_t0=*/0,
                      /*request_open=*/false);
}

Frontend::Ticket Frontend::submit_read(const driver::TransferMatrix& matrix) {
  return submit_async(matrix, /*is_write=*/false, /*deadline_ns=*/0,
                      /*admitted=*/false, /*admit_t0=*/0,
                      /*request_open=*/false);
}

Frontend::SubmitResult Frontend::try_submit(
    const driver::TransferMatrix& matrix, bool is_write, SimNs deadline_ns) {
  VPIM_CHECK(open_, "try_submit on an unlinked device");
  SimClock& clock = vmm_.clock();
  // The admission decision is real work on the submit path: charge it and
  // make it visible on its own trace lane, shed or not, under the request
  // it admits (a shed request ends with its admission span).
  if (tracer() != nullptr) tracer()->begin_request();
  bool admitted = false;
  {
    obs::ScopedSpan aspan(tracer(), clock, obs::SpanKind::kAdmission);
    clock.advance(vmm_.cost().admission_check_ns);
    // CQ backpressure first: when reaped-but-unfetched completions plus
    // staged work reach the configured capacity, admitting more would grow
    // guest memory without bound. Typed would-block, nothing staged.
    if (config_.cq_capacity > 0 &&
        cq_.size() + staged_.size() >= config_.cq_capacity) {
      ++stats_.would_blocks;
      return {static_cast<std::int32_t>(virtio::PimStatus::kOverloaded), 0};
    }
    if (AdmissionController* adm = backend_.admission()) {
      const virtio::PimStatus verdict = adm->try_admit(tag_, clock.now());
      if (verdict != virtio::PimStatus::kOk) {
        if (verdict == virtio::PimStatus::kAdmissionReject) {
          ++stats_.admission_rejects;
        } else {
          ++stats_.would_blocks;
        }
        return {static_cast<std::int32_t>(verdict), 0};
      }
      admitted = true;  // holds one inflight unit until the reap releases it
    }
  }
  return {0, submit_async(matrix, is_write, deadline_ns, admitted,
                          admitted ? clock.now() : 0,
                          /*request_open=*/true)};
}

Frontend::SubmitResult Frontend::try_submit_write(
    const driver::TransferMatrix& matrix, SimNs deadline_ns) {
  return try_submit(matrix, /*is_write=*/true, deadline_ns);
}

Frontend::SubmitResult Frontend::try_submit_read(
    const driver::TransferMatrix& matrix, SimNs deadline_ns) {
  return try_submit(matrix, /*is_write=*/false, deadline_ns);
}

bool Frontend::cancel(Ticket ticket) {
  VPIM_CHECK(open_, "cancel on an unlinked device");
  DeviceOp op(*this, obs::SpanKind::kControl);
  // Cancellation only wins while the request is still staged (pre-
  // doorbell): the cancel flag is patched into the request block the
  // device has not read yet, and the backend completes it kCancelled
  // without executing. Past the doorbell the race is lost — the ticket
  // reaps its real completion, like io_uring's async-cancel.
  for (std::uint32_t idx : staged_) {
    SqSlot& slot = slots_[idx];
    if (!slot.async || slot.cancelled || slot.completed ||
        slot.ticket != ticket) {
      continue;
    }
    WireRequest req;
    std::memcpy(&req, slot.arena.request.data(), sizeof(req));
    req.flags |= kWireFlagCancelled;
    std::memcpy(slot.arena.request.data(), &req, sizeof(req));
    slot.cancelled = true;
    return true;
  }
  return false;
}

std::span<const Frontend::Completion> Frontend::poll_completions() {
  DeviceOp op(*this, obs::SpanKind::kCqDrain);
  kick();
  cq_out_.swap(cq_);
  cq_.clear();
  op.set_entries(static_cast<std::uint32_t>(cq_out_.size()));
  return cq_out_;
}

std::uint64_t Frontend::memory_overhead_bytes() const {
  if (!arenas_ready_) return 0;
  std::uint64_t total = 0;
  for (const SqSlot& slot : slots_) {
    total += slot.arena.request.size() + slot.arena.matrix_meta.size() +
             slot.arena.entry_meta.size() + slot.arena.page_lists.size() +
             slot.arena.payload.size() + slot.arena.response.size();
  }
  for (const auto& c : caches_) total += c.buf.size();
  if (config_.request_batching) {
    total += batches_.size() * (kBatchHeadBytes + batch_bytes());
  }
  return total;
}

}  // namespace vpim::core
