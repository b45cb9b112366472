// vUPMEM frontend: the virtio driver in the guest kernel (§4.1).
//
// Exposes the safe-mode device file the guest SDK talks to, and implements
// the two frontend optimizations that dominate vPIM's performance story:
//
//  - Prefetch cache: 16 pages per DPU. Small reads are served from the
//    cache; a miss fetches a cache-sized segment from the backend in one
//    message. Invalidated by write-to-rank, DPU launches, and rank release.
//    The fill message carries kWireFlagPrefetch, so the device pins the
//    segment's MRAM pages rather than copying them, and a hit copies just
//    its own bytes from the pin straight into the caller's buffer
//    (Backend::settle_prefetch). The guest cache segment is never touched;
//    it stays allocated because the fill's wire request describes it.
//  - Request batching: a 64-page-per-DPU buffer absorbs small writes as
//    {offset,size,data} records; the batch is flushed as a single message
//    when a buffer fills or any non-write request arrives.
//
// Every public operation charges the guest syscall cost; messages to the
// backend pay the VMEXIT/IRQ transition costs that the paper identifies as
// the primary virtualization overhead.
//
// ISSUE 7 layers an io_uring-style submission/completion queue over the
// transferq: up to VpimConfig::queue_depth requests are staged (each in
// its own wire-arena slot) before one doorbell kicks the backend, which
// drains the whole batch behind a single completion interrupt. The
// blocking device-file API is submit()+wait() at any depth; the async API
// (submit_write/submit_read/poll_completions) exposes the pipeline. At
// depth 1 the stats, spans, metrics and virtual time are bit-identical to
// the classic synchronous device; the guest GPA layout is not, because the
// wire arenas pack their control blocks into one control page per slot,
// laid side by side, with small page lists in the same page (WireArena).
// ensure_arenas lays the guest staging out in first-touch order: control
// pages, CI payloads, batch buffers, cache segments, page-list areas.
//
// Error semantics: every request completes with a WireResponse status
// (virtio::PimStatus). Capacity failures (bind/migrate/resume) surface as
// `false` returns; any other non-OK completion is rethrown as
// VpimStatusError carrying the device's status code.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/obs/obs.h"
#include "driver/xfer.h"
#include "virtio/device_state.h"
#include "virtio/pim_spec.h"
#include "virtio/virtqueue.h"
#include "vmm/vmm.h"
#include "vpim/backend.h"
#include "vpim/config.h"
#include "vpim/device_stats.h"
#include "vpim/wire.h"

namespace vpim::core {

class Frontend {
 public:
  Frontend(vmm::Vmm& vmm, Backend& backend, virtio::Virtqueue& transferq,
           virtio::Virtqueue& controlq, virtio::DeviceState& state,
           const VpimConfig& config, DeviceStats& stats, std::string tag,
           obs::Hub& obs);

  // Links the device to a physical rank through the manager (controlq).
  // Returns false if the manager abandoned the request.
  bool open();
  // Flushes, invalidates, and releases the rank.
  void close();
  // Dynamic rank reallocation (§3.3): asks the backend to move the
  // device's entire state to a freshly allocated rank. Transparent to the
  // application; returns false if no rank was available.
  bool migrate();
  // §7 pause/resume: parks the device's state host-side and releases the
  // rank (suspend), then later re-binds and restores it (resume). The
  // application sees identical device contents across the gap.
  void suspend();
  bool resume();
  bool is_open() const { return open_; }

  std::uint32_t nr_dpus() const;
  virtio::PimConfigSpace config_space() const;

  // ---- safe-mode device-file API (called by the guest SDK) -------------
  void write_to_rank(const driver::TransferMatrix& matrix);
  void read_from_rank(const driver::TransferMatrix& matrix);
  void ci_load(std::string_view kernel_name);
  void ci_launch(std::uint64_t dpu_mask,
                 std::optional<std::uint32_t> nr_tasklets);
  std::uint64_t ci_running_mask();
  void ci_copy_to_symbol(std::uint32_t dpu, std::string_view symbol,
                         std::uint32_t offset,
                         std::span<const std::uint8_t> data);
  void ci_copy_from_symbol(std::uint32_t dpu, std::string_view symbol,
                           std::uint32_t offset,
                           std::span<std::uint8_t> out);
  // Parallel per-DPU symbol transfer: one message covers the whole rank.
  // `packed` (nr_dpus x bytes_per_dpu, in guest RAM) is referenced by the
  // request zero-copy.
  void ci_push_symbols(driver::XferDirection dir, std::string_view symbol,
                       std::uint32_t offset, std::span<std::uint8_t> packed,
                       std::uint32_t bytes_per_dpu);

  // ---- async SQ/CQ API (ISSUE 7) ---------------------------------------
  // Buffer-stability contract (io_uring semantics): the guest buffers a
  // submitted matrix references stay untouched and do not overlap any
  // other in-flight request's buffers until the completion is reaped.
  // Async reads bypass the prefetch cache; async writes still invalidate
  // it and flush the batch buffer, so sync and async ops interleave
  // coherently.
  using Ticket = std::uint64_t;
  struct Completion {
    Ticket ticket = 0;
    std::int32_t status = 0;  // virtio::PimStatus; 0 = OK
    std::uint64_t bytes = 0;  // bytes moved, on success
    bool is_write = false;
  };
  // Stages the request; the doorbell rings when queue_depth requests are
  // pending, a blocking op arrives, or poll_completions() is called.
  Ticket submit_write(const driver::TransferMatrix& matrix);
  Ticket submit_read(const driver::TransferMatrix& matrix);
  // Kicks anything staged and drains the completion queue. Per-request
  // failures surface as typed Completion::status values, never throws.
  // The returned span is valid until the next poll_completions() call.
  std::span<const Completion> poll_completions();
  std::uint32_t queue_depth() const { return depth_; }

  // ---- overload protection (ISSUE 8) -----------------------------------
  // Would-block submission: consults the manager's AdmissionController
  // (when one is installed) and the configured CQ capacity *before*
  // staging anything. On kOk the ticket is live; on kAdmissionReject /
  // kOverloaded no work was queued and no memory grew — the caller
  // retries later (open-loop load generators just count the shed).
  // `deadline_ns` is an absolute virtual-time deadline stamped into the
  // WireRequest (0 = none).
  struct SubmitResult {
    std::int32_t status = 0;  // virtio::PimStatus; 0 = admitted
    Ticket ticket = 0;        // valid only when status == 0
    bool ok() const { return status == 0; }
  };
  SubmitResult try_submit_write(const driver::TransferMatrix& matrix,
                                SimNs deadline_ns = 0);
  SubmitResult try_submit_read(const driver::TransferMatrix& matrix,
                               SimNs deadline_ns = 0);
  // Cancel-by-Ticket: patches the cancel flag into the still-staged
  // request block, so the backend completes it kCancelled without
  // executing it; the completion reaps through the CQ like any other.
  // Returns false once the request is past the doorbell (or unknown).
  // A control-class device-file op: one root span, no DeviceStats::ops.
  bool cancel(Ticket ticket);
  // Batched writes declared lost when a posted flush failed (the lossy-
  // timeout edge): one typed record per absorbed write. Accumulates until
  // cleared.
  struct LostWrite {
    std::uint32_t dpu = 0;
    std::uint64_t mram_offset = 0;
    std::uint64_t size = 0;
    std::int32_t status = 0;  // virtio::PimStatus of the failed flush
  };
  std::span<const LostWrite> lost_writes() const { return lost_writes_; }
  void clear_lost_writes() { lost_writes_.clear(); }

  // Frontend memory footprint (§4.1 "Memory Overhead").
  std::uint64_t memory_overhead_bytes() const;

  const DeviceStats& stats() const { return stats_; }
  const VpimConfig& config() const { return config_; }

  // Spans record into the Host-level hub (Host::attach_tracer); every
  // device-file operation opens a request-scoped root span, and internal
  // messages (batch flushes, prefetch fills) nest under it.

 private:
  struct DpuCache {
    bool valid = false;
    std::uint64_t base = 0;  // MRAM offset of the cached segment
    std::uint64_t len = 0;
    std::span<std::uint8_t> buf;
  };
  struct DpuBatch {
    std::uint64_t cursor = 0;  // bytes used
    std::span<std::uint8_t> buf;
  };
  // One submission slot: a full wire arena plus the bookkeeping to match
  // its completion back out of the used ring. Slots recycle per batch
  // (index = position in staged_), so depth slots bound the pipeline.
  struct SqSlot {
    WireArena arena;
    SerializeResult ser;
    std::uint16_t head = 0;  // chain head, the used-ring match key
    bool is_write = false;
    bool async = false;
    bool is_flush = false;
    bool completed = false;
    bool timed_out = false;
    bool cancelled = false;  // cancel(Ticket) hit this slot while staged
    bool admitted = false;   // holds one unit of the admission budget
    Ticket ticket = 0;
    SimNs t0 = 0;  // staging time, for the per-slot lane span
    SimNs deadline = 0;  // absolute wire deadline; 0 = none
    SimNs admit_t0 = 0;  // admission time, for the queued-time histogram
    WireResponse resp{};
  };
  static constexpr std::uint32_t kMaxQueueDepth = 64;
  static constexpr std::uint64_t kCiPayloadBytes = 8 * kKiB;

  void ensure_arenas();
  void check_dpus(const driver::TransferMatrix& matrix) const;
  void send_rank_op(const driver::TransferMatrix& matrix, bool is_write,
                    std::uint32_t flags);
  // Kicks early when the slot ring or the descriptor table cannot take
  // one more request of `descs` descriptors; returns the slot index the
  // next publish() fills.
  std::uint32_t reserve(std::size_t descs);
  // Publishes `chain` for that slot on the transferq's available ring (no
  // doorbell) and resets the slot's completion state; returns its index.
  std::uint32_t publish(std::span<const virtio::DescBuffer> chain,
                        bool is_write = false, bool async = false,
                        bool is_flush = false, Ticket ticket = 0,
                        SimNs deadline_ns = 0);
  // Serializes into the next free slot and publishes it.
  std::uint32_t stage_rank_op(const driver::TransferMatrix& matrix,
                              bool is_write, std::uint32_t flags, bool async,
                              Ticket ticket, bool is_flush,
                              SimNs deadline_ns = 0);
  // Shared body of submit_*/try_submit_*: admission bookkeeping rides in
  // `admitted`/`admit_t0`; the plain submit_* path passes none.
  // try_submit opens the request itself, so its admission span carries the
  // request it admits, and passes `request_open`.
  Ticket submit_async(const driver::TransferMatrix& matrix, bool is_write,
                      SimNs deadline_ns, bool admitted, SimNs admit_t0,
                      bool request_open);
  SubmitResult try_submit(const driver::TransferMatrix& matrix,
                          bool is_write, SimNs deadline_ns);
  // Parses the batch buffers into typed LostWrite records and retires
  // them; called when a flush completes with a non-OK status.
  void record_lost_writes(std::int32_t status);
  std::uint32_t stage_ci(const WireRequest& req,
                         std::span<std::uint8_t> payload,
                         bool payload_writable);
  // The one transport round trip, for both virtqueues: the notify
  // transition, `handler`'s drain of `queue`, the completion IRQ, the
  // doorbell counters, then a bounded poll reaping up to `expected` used
  // entries into the staged slots. Returns how many were reaped.
  std::size_t doorbell(virtio::Virtqueue& queue, void (Backend::*handler)(),
                       std::size_t expected);
  // Rings the doorbell for everything staged and resolves every slot. Never
  // throws — failures land in the slots as typed statuses.
  void kick();
  // Flushes the batch buffers and completes everything in flight,
  // rethrowing a failed posted flush.
  void drain();
  // Blocking-path completion: kicks if the slot is still in flight, then
  // surfaces any posted-flush failure and the slot's own status.
  WireResponse finish_sync(std::uint32_t idx, const char* what);
  void raise_flush_error();
  // One synchronous control-queue request (bind, release, migrate,
  // suspend, resume). Returns the response; kNoCapacity comes back as a
  // status, any other failure is thrown typed.
  WireResponse control(CiOp op, const char* what);
  // Payload staging buffer of the slot the next stage_ci will use.
  std::span<std::uint8_t> ci_payload();
  WireResponse ci_roundtrip(const WireRequest& req,
                            std::span<std::uint8_t> payload,
                            bool payload_writable);
  bool try_batch(const driver::TransferMatrix& matrix);
  void flush_batch();
  void invalidate_cache();
  std::uint64_t cache_bytes() const {
    return static_cast<std::uint64_t>(config_.prefetch_cache_pages) *
           guest::kGuestPageSize;
  }
  std::uint64_t batch_bytes() const {
    return static_cast<std::uint64_t>(config_.batch_buffer_pages) *
           guest::kGuestPageSize;
  }

  // One device-file operation, accounted once when it ends, however it
  // ends (returned, rejected or thrown). Construction opens the request
  // scope (unless the caller opened it: `request_open`) and its root span,
  // tagged with this device's tenant (interned per op: a cleared tracer
  // forgets its tags), and charges the syscall.
  // Destruction adds a CI, R-rank or W-rank op's interval to
  // DeviceStats::ops and its vpim_op_ns histogram, then ends the span, so
  // root spans and Fig 12's ops agree to the nanosecond by construction.
  class DeviceOp {
   public:
    DeviceOp(Frontend& fe, obs::SpanKind kind, bool request_open = false);
    DeviceOp(const DeviceOp&) = delete;
    DeviceOp& operator=(const DeviceOp&) = delete;
    ~DeviceOp();

    // Refines the root's kind within its category (kWrite ->
    // kWriteBatched, kRead -> kReadCached).
    void set_kind(obs::SpanKind kind) {
      if (tracer_ != nullptr) tracer_->top().kind = kind;
    }
    void set_bytes(std::uint64_t bytes) {
      if (tracer_ != nullptr) tracer_->top().bytes = bytes;
    }
    void set_entries(std::uint32_t entries) {
      if (tracer_ != nullptr) tracer_->top().entries = entries;
    }

   private:
    Frontend& fe_;
    obs::Tracer* tracer_;
    std::optional<RankOp> op_;  // unset for control and CQ ops
    SimNs start_;
  };

  obs::Tracer* tracer() const { return obs_.tracer; }
  // Causal id stamped into outgoing WireRequests (0 when untraced).
  std::uint32_t wire_request_id() const {
    return obs_.tracer != nullptr
               ? static_cast<std::uint32_t>(obs_.tracer->current_request())
               : 0;
  }

  vmm::Vmm& vmm_;
  Backend& backend_;
  virtio::Virtqueue& transferq_;
  virtio::Virtqueue& controlq_;
  virtio::DeviceState& state_;
  VpimConfig config_;
  DeviceStats& stats_;
  std::string tag_;
  obs::Hub& obs_;
  // Per-category op-latency histograms (virtual time, log2 buckets),
  // registered once per device; indexed by RankOp.
  std::array<obs::MetricsRegistry::HistogramHandle, kNumRankOps> op_hist_;

  // vhost mode: per-device kernel worker standing in for the VMM loop.
  std::optional<vmm::EventLoop> vhost_worker_;

  bool open_ = false;
  bool arenas_ready_ = false;
  virtio::PimConfigSpace config_space_{};
  std::vector<DpuCache> caches_;
  std::vector<DpuBatch> batches_;
  std::uint64_t batch_pending_ = 0;  // total records pending
  // Pooled request-path working set, reused across device-file calls so
  // the steady-state hot path performs no heap allocation: the transfer
  // matrices assembled for prefetch fills, residual direct reads, and
  // batch flushes. (Serialization scratch lives in the SQ slots.)
  driver::TransferMatrix fill_scratch_;
  driver::TransferMatrix direct_scratch_;
  driver::TransferMatrix flush_scratch_;
  std::vector<std::uint8_t> filling_;  // per-DPU "fill queued" flags

  // ---- SQ/CQ state (ISSUE 7) -------------------------------------------
  std::uint32_t depth_ = 1;  // resolved queue depth
  std::vector<SqSlot> slots_;
  std::vector<std::uint32_t> staged_;  // slot indices since the last kick
  // A posted (depth > 1) batch flush keeps the batch buffers locked until
  // its completion arrives; a failed flush parks its status here and the
  // next blocking op rethrows it, so no write is silently dropped.
  bool batch_locked_ = false;
  std::int32_t pending_flush_status_ = 0;
  Ticket next_ticket_ = 0;
  std::vector<Completion> cq_;      // reaped, not yet handed out
  std::vector<Completion> cq_out_;  // last poll_completions result
  std::vector<LostWrite> lost_writes_;  // ISSUE 8: failed-flush records
  obs::MetricsRegistry::HistogramHandle inflight_hist_;
};

}  // namespace vpim::core
