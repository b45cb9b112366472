// vUPMEM backend: the device model inside Firecracker (§4.2).
//
// Decodes requests popped from the virtqueues, performs them on the bound
// rank (a performance-mode mapping, or a host-emulated rank under §7
// oversubscription), and completes them via the used ring. Implements the
// paper's backend optimizations:
//   - zero-copy request handling: payload pages are reached through
//     GPA->HVA translation (spread across translation worker threads),
//     never copied through the ring;
//   - contiguous guest pages merge into one segment during translation,
//     plus broadcast detection, so bulk copies stream at full bandwidth
//     (and broadcast storage stays copy-on-write);
//   - the wide-word ("C/AVX512") or naive ("Rust") copy bandwidth per the
//     active VpimConfig;
//   - per-chip operation workers (8 DPUs at a time).
#pragma once

#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/obs/obs.h"
#include "driver/driver.h"
#include "virtio/device_state.h"
#include "virtio/pim_spec.h"
#include "virtio/virtqueue.h"
#include "vmm/vmm.h"
#include "vpim/config.h"
#include "vpim/device_stats.h"
#include "vpim/manager.h"
#include "vpim/wire.h"

namespace vpim::core {

// Non-owning callable reference. run_with_recovery's ops are short-lived
// stack lambdas invoked before the call returns, so no ownership is
// needed — and unlike std::function, binding one never heap-allocates,
// which matters on the per-request hot path.
class OpRef {
 public:
  template <typename F>
  OpRef(F&& f)  // NOLINT(google-explicit-constructor)
      : ctx_(const_cast<void*>(static_cast<const void*>(&f))),
        fn_([](void* c) {
          (*static_cast<std::remove_reference_t<F>*>(c))();
        }) {}
  void operator()() const { fn_(ctx_); }

 private:
  void* ctx_;
  void (*fn_)(void*);
};

class Backend {
 public:
  Backend(vmm::Vmm& vmm, driver::UpmemDriver& drv, Manager& manager,
          const VpimConfig& config, virtio::Virtqueue& transferq,
          virtio::Virtqueue& controlq, virtio::DeviceState& state,
          DeviceStats& stats, std::string device_tag, obs::Hub& obs);

  // Event-loop entry points: drain all pending requests on the queue.
  void handle_transferq();
  void handle_controlq();

  bool bound() const { return binding_.has_value(); }
  // Oversubscription (§7): true when this device runs on a host-emulated
  // rank rather than physical UPMEM.
  bool emulated() const { return bound() && binding_->mapping() == nullptr; }
  std::uint32_t rank_index() const;  // physical bindings only
  virtio::PimConfigSpace config_space() const;
  const std::string& tag() const { return tag_; }
  // The manager's admission controller, when one is installed (ISSUE 8);
  // the frontend consults it on the try_submit path.
  AdmissionController* admission() const { return manager_.admission(); }

  // Prefetch pins (kWireFlagPrefetch). A fill read whose entries each
  // reach one guest segment pins each entry's MRAM range into its DPU's
  // slot instead of copying it, so the frontend's cache segment is never
  // written. Copy-on-write keeps a pin at the bytes of its fill, whatever
  // the rank or binding does later.
  //
  // Serves a cache hit: copies `out.size()` bytes at `mram_offset` from
  // DPU `dpu`'s pin straight into `out`, the caller's buffer, and returns
  // true. Returns false, `out` untouched, when the DPU holds no pin (the
  // fill copied eagerly, so the cache segment holds the bytes).
  bool settle_prefetch(std::uint32_t dpu, std::uint64_t mram_offset,
                       std::span<std::uint8_t> out) const;
  // Drops every pin; the frontend calls it when its cache segments go.
  void drop_prefetch();

 private:
  // Per-request dispatch. Guest-controlled input is validated with
  // VPIM_REQUEST_CHECK; a violation (or any VpimError a deeper layer
  // raises about guest data) completes the offending chain with a
  // virtio::PimStatus instead of unwinding out of the device model — a
  // hostile tenant must never abort or wedge the host (§3, §7).
  //
  // serve() is the one per-chain completion ladder for both queues: it
  // reads the request block under a backend span and runs
  // `run(req, span)`, or completes the chain with a typed status.
  template <typename Run>
  void serve(virtio::Virtqueue& queue, const virtio::DescChain& chain, Run run);
  // Transferq dispatch: cancellation, deadline shedding, request type.
  void handle_request(const virtio::DescChain& chain, const WireRequest& req);
  void handle_rank_op(const virtio::DescChain& chain,
                      const WireRequest& req);
  void apply_batched_writes(const DeserializeResult& matrix);
  void handle_ci(const virtio::DescChain& chain, const WireRequest& req);
  void handle_config(const virtio::DescChain& chain);
  void handle_control(const virtio::DescChain& chain,
                      const WireRequest& req);
  // Reads + validates the WireRequest block at the head of a chain.
  WireRequest read_request(const virtio::DescChain& chain);
  void write_response(const virtio::DescChain& chain,
                      const WireResponse& resp);
  // Error completion: best-effort response write, then push_used so the
  // guest reclaims the descriptors instead of spinning forever.
  void complete_with_status(virtio::Virtqueue& queue,
                            const virtio::DescChain& chain,
                            std::int32_t status);

  // --- rank binding ------------------------------------------------------
  // The device's rank: a physical performance-mode mapping granted by the
  // manager, or (§7 oversubscription) a host-emulated rank that mirrors a
  // physical rank's geometry with its DPUs slowed by emulation_slowdown.
  // One copy bandwidth prices every transfer, broadcast and batched write
  // on it. Destroying a binding releases its rank: unmapping frees a
  // physical one in sysfs, where the manager's observer sees it (§3.5).
  class Binding {
   public:
    Binding(driver::RankMapping mapping, upmem::PimMachine& machine,
            double gbps);
    Binding(const CostModel& base, const SimClock& clock,
            std::uint32_t nr_dpus, obs::Hub* obs);
    Binding(Binding&&) = delete;  // rank_ may point into the binding

    upmem::Rank& rank() { return *rank_; }
    double gbps() const { return gbps_; }
    virtio::PimConfigSpace config_space() const;
    // The physical mapping and its rank index; null on an emulated rank.
    driver::RankMapping* mapping() { return phys_ ? &*phys_ : nullptr; }
    const driver::RankMapping* mapping() const {
      return phys_ ? &*phys_ : nullptr;
    }

   private:
    std::optional<driver::RankMapping> phys_;
    CostModel cost_;  // the DPUs' clock; must outlive `host_`
    std::optional<upmem::Rank> host_;  // the emulated rank
    upmem::Rank* rank_;
    double gbps_;
  };
  // Binds `mapping` at the configured copy bandwidth.
  void bind(driver::RankMapping mapping);
  // Binds via the manager; falls back to emulation when allowed. Returns
  // false if neither succeeded.
  bool try_bind();
  // Drops the binding after landing the parked copies, which point into
  // its banks.
  void unbind();
  // The physical mapping, or null when unbound or emulated. This is the one
  // test for physical-only behaviour: fault hooks, driver xfer spans, the
  // response rank index and rank-death recovery.
  driver::RankMapping* physical() {
    return bound() ? binding_->mapping() : nullptr;
  }
  // Rank index for a response: the physical rank, else ~0.
  std::uint32_t response_rank() {
    return physical() != nullptr ? physical()->rank_index() : 0xFFFFFFFFu;
  }
  // The binding's one stream entry. Every host<->MRAM movement of a
  // request (transfer, broadcast, batched flush) charges `bytes` here once,
  // then copies into the returned rank (driver::copy_banks,
  // driver::broadcast_banks). On a mapping it is RankMapping::stream, with
  // its fault hooks and driver.xfer span; an emulated rank charges the
  // same formula at its own bandwidth and consults no fault plan.
  upmem::Rank& stream(std::uint64_t bytes, std::uint32_t entries);

  // --- fault recovery (ISSUE 3) -----------------------------------------
  // Runs `op`, absorbing injected faults: transient faults retry with
  // exponential backoff up to kFaultMaxRetries; permanent rank death
  // triggers a transparent wrank migration and a fresh retry.
  // Exhausted/unrecoverable faults rethrow as a DEVICE_FAULT status.
  void run_with_recovery(OpRef op);
  // Moves this device's wrank off its (dead) physical rank onto a freshly
  // allocated one, rescuing MRAM content. False when out of capacity.
  bool recover_rank_death();
  // The one state move (§3.3 reallocation, rank-death rescue, §7
  // pause/resume). The host reaches MRAM only through rank-wide transfers,
  // so a leg streams every bank whole, whatever was written:
  //   - the out-leg streams the bound rank into `parked` and unbinds;
  //   - `to`, when given, becomes the binding;
  //   - the in-leg loads `parked` into the binding and empties it.
  // The legs run are charged in one bytes_time call,
  // legs x nr_dpus x kMramSize at `gbps`. Returns the bytes charged. An
  // out-leg is refused (require_idle) before anything is charged.
  enum class Legs { kOut, kIn, kBoth };
  // Throws kBadRequest while a DPU of the bound rank still runs: streaming
  // banks out would race its MRAM writes, which hardware cannot do.
  void require_idle();
  std::uint64_t move_state(Legs legs,
                           std::optional<upmem::Rank::Snapshot>& parked,
                           std::optional<driver::RankMapping> to,
                           double gbps);
  // Injected kLostCompletion check at the per-request dispatch point.
  std::optional<FaultRecord> lost_completion();
  // Deadline boundary check (ISSUE 8): throws a typed kTimeout when the
  // request's wire deadline has already passed, so doomed work is shed
  // before it executes. Called at queue drain and again before data
  // movement (deserialization may consume the remaining budget).
  void check_deadline(const WireRequest& req);

  obs::Tracer* tracer() const { return obs_.tracer; }

  vmm::Vmm& vmm_;
  driver::UpmemDriver& drv_;
  Manager& manager_;
  VpimConfig config_;
  virtio::Virtqueue& transferq_;
  virtio::Virtqueue& controlq_;
  virtio::DeviceState& state_;
  DeviceStats& stats_;
  std::string tag_;
  obs::Hub& obs_;
  std::optional<Binding> binding_;
  // Pooled request-path working set: deserialize output/scratch and the
  // driver transfer matrix are reused across requests, so the steady-state
  // hot path performs no heap allocation once high-water marks are reached.
  DeserializeResult deser_result_;
  DeserializeScratch deser_scratch_;
  driver::TransferMatrix xfer_scratch_;
  virtio::DescChain chain_scratch_;
  // Every transfer's copies, on either binding. Replayed at the end of a
  // drain and before any bank access or binding change that bypasses it.
  driver::CopyBacklog backlog_;
  // One prefetch pin slot per DPU slot, written when the backlog replays.
  std::vector<upmem::MramBank::Pin> prefetch_ =
      std::vector<upmem::MramBank::Pin>(upmem::kDpuSlotsPerRank);
  bool prefetch_live_ = false;  // a fill may have pinned since the last drop
  // Parked state between kSuspendRank and kResumeRank (§7 pause/resume).
  std::optional<upmem::Rank::Snapshot> suspended_;
};

}  // namespace vpim::core
