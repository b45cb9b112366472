// Wire format of vUPMEM virtio requests: the serialized transfer matrix of
// Fig 6/7 plus the fixed request-info block. All structures live in guest
// memory and are referenced through virtqueue descriptors; payload data is
// never copied into the ring (zero-copy, §4.2).
//
// Chain layout for rank operations (Fig 7):
//   [0] request info            (WireRequest)
//   [1] matrix metadata         (WireMatrixMeta)
//   [2k+2] per-DPU metadata     (WireEntryMeta)
//   [2k+3] per-DPU page buffer  (u64 GPA array)
//   [last] response block       (WireResponse, device-writable)
// = at most 2 + 2*64 + 1 = 131 buffers, always within the 512-slot
// transferq. Every request completes with a WireResponse carrying a
// virtio::PimStatus, so the guest can distinguish success from a
// per-request rejection without the host ever dropping a chain.
//
// CI operations use [0] plus an optional small payload buffer and a
// device-writable response buffer.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "driver/xfer.h"
#include "guest/guest_memory.h"
#include "virtio/pim_spec.h"
#include "virtio/virtqueue.h"

namespace vpim::core {

// Control-interface opcodes carried in WireRequest::ci_op.
enum class CiOp : std::uint32_t {
  kLoad = 0,
  kLaunch = 1,
  kReadStatus = 2,
  kCopyToSymbol = 3,
  kCopyFromSymbol = 4,
  kBindRank = 5,     // controlq: ask the backend to acquire a rank
  kReleaseRank = 6,  // controlq: drop the rank binding
  kCopyToSymbolAll = 7,    // parallel per-DPU symbol write (packed payload)
  kCopyFromSymbolAll = 8,  // parallel per-DPU symbol read
  kMigrateRank = 9,  // controlq: move the device's state to a fresh rank
  kSuspendRank = 10,  // controlq: snapshot state and release the rank
  kResumeRank = 11,   // controlq: re-bind and restore the snapshot
};

// WireRequest::flags bits.
inline constexpr std::uint32_t kWireFlagBatched = 1;  // batch-buffer flush
// Guest cancelled this request after staging it but before the doorbell;
// the backend completes the chain with kCancelled without executing it
// (ISSUE 8). Patched into the staged request block in guest memory, so
// cancellation travels through the wire like any other request field.
inline constexpr std::uint32_t kWireFlagCancelled = 2;
// Prefetch-cache fill. The device may pin the MRAM range of each entry
// instead of copying it into the guest buffer; the guest then settles the
// bytes it reads through Backend::settle_prefetch. Costs, spans and fault
// hooks are those of any read.
inline constexpr std::uint32_t kWireFlagPrefetch = 4;

struct WireRequest {
  std::uint32_t type = 0;       // virtio::PimRequestType
  std::uint32_t direction = 0;  // driver::XferDirection for rank ops
  std::uint32_t nr_entries = 0;
  std::uint32_t dpu = 0;  // target DPU for per-DPU CI ops
  std::uint32_t ci_op = 0;
  std::uint32_t symbol_offset = 0;
  std::uint32_t flags = 0;
  // Causal request id (obs spans): the frontend stamps the id of the
  // device-file operation that produced this message, so host-side spans
  // can be joined to the guest-side root across the queue. 0 = untraced.
  std::uint32_t request_id = 0;
  std::uint64_t arg0 = 0;  // launch mask / payload size
  std::uint64_t arg1 = 0;  // nr_tasklets (+1, 0 = default)
  // Absolute virtual-time deadline (ISSUE 8 spec bump): 0 = none. Checked
  // at every layer boundary (backend drain, before data movement, and the
  // frontend's completion reap) so work that can no longer meet its
  // deadline is shed with kTimeout instead of executed.
  std::uint64_t deadline_ns = 0;
  char name[64] = {};      // kernel or symbol name
};

// Record header inside a batch-buffer flush payload: each absorbed write
// is stored as {mram_offset, size} followed by `size` data bytes.
struct BatchRecordHeader {
  std::uint64_t mram_offset = 0;
  std::uint64_t size = 0;
};

// Device-writable response block for CI/config/control requests.
struct WireResponse {
  std::int32_t status = 0;  // 0 = OK
  std::uint32_t rank_index = 0;
  std::uint64_t value = 0;  // e.g. running mask
  virtio::PimConfigSpace config{};
};

struct WireMatrixMeta {
  std::uint64_t nr_entries = 0;
  std::uint64_t total_bytes = 0;
};

struct WireEntryMeta {
  std::uint64_t dpu = 0;
  std::uint64_t mram_offset = 0;
  std::uint64_t size = 0;
  std::uint64_t first_page_offset = 0;  // offset into the first page
  std::uint64_t nr_pages = 0;
};

// Guest-kernel staging areas the frontend serializes into. Allocated once
// per device at initialization; their size is the frontend's per-DPU
// memory overhead (§4.1). The four control blocks share one guest page,
// the control page, and the rest of that page is the page-list head
// (carve_control_page). serialize_matrix writes a request's page lists
// into the head when an O(1) bound on their size fits there, 8 x (2 x
// entries + total_bytes / 4096) bytes (an entry of `size` bytes covers at
// most size / 4096 + 2 pages), and into the slot's own page-list area
// otherwise; so a small request touches exactly one arena page. The
// frontend lays every slot's control page side by side
// (Frontend::ensure_arenas).
struct WireArena {
  std::span<std::uint8_t> request;      // sizeof(WireRequest)
  std::span<std::uint8_t> matrix_meta;  // sizeof(WireMatrixMeta)
  std::span<std::uint8_t> entry_meta;   // 64 * sizeof(WireEntryMeta)
  std::span<std::uint8_t> page_head;    // rest of the control page
  std::span<std::uint8_t> page_lists;   // nr_dpus * 16384 * 8 bytes
  std::span<std::uint8_t> payload;      // small CI payloads (symbols)
  std::span<std::uint8_t> response;     // device-writable scratch
};

// Lays the control blocks out 64-byte aligned at the start of `page`, one
// guest page, and leaves the rest of it to `arena.page_head`.
void carve_control_page(WireArena& arena, std::span<std::uint8_t> page);

struct SerializeResult {
  std::vector<virtio::DescBuffer> chain;
  std::uint64_t nr_pages = 0;  // page-list entries written (for costing)
};

// Serializes `matrix` (host pointers must be inside `mem`) into `arena`,
// producing the descriptor chain. Throws on malformed matrices (too many
// entries, oversized transfer, buffers outside guest RAM).
//
// The out-parameter form reuses `out`'s chain storage across requests
// (clear, not free) so a long-lived caller pays no per-request allocation
// once the high-water mark is reached; the value form allocates fresh.
// Both produce byte-identical chains (property-tested in tests/prop/).
void serialize_matrix(const driver::TransferMatrix& matrix,
                      guest::GuestMemory& mem, WireArena& arena,
                      std::uint32_t request_type, SerializeResult& out);
SerializeResult serialize_matrix(const driver::TransferMatrix& matrix,
                                 guest::GuestMemory& mem, WireArena& arena,
                                 std::uint32_t request_type);

// One contiguous host-virtual piece of a translated entry.
using HvaSegment = std::pair<std::uint8_t*, std::uint64_t>;

struct DeserializedEntry {
  std::uint32_t dpu = 0;
  std::uint64_t mram_offset = 0;
  std::uint64_t size = 0;
  // Host-virtual scatter segments after GPA->HVA translation. Contiguous
  // guest pages are merged during translation, so these are maximally
  // coalesced already — views into DeserializeResult::segment_pool, valid
  // for the lifetime (and moves, but not copies) of the owning result.
  std::span<const HvaSegment> segments;
};

struct DeserializeResult {
  driver::XferDirection direction = driver::XferDirection::kToRank;
  std::vector<DeserializedEntry> entries;
  std::uint64_t nr_pages = 0;
  std::uint64_t total_bytes = 0;
  // Backing store for every entry's segment span (flat, per-entry extents
  // carved out before the parallel translation pass).
  std::vector<HvaSegment> segment_pool;
};

// Reusable working set for deserialize_matrix: per-entry metadata and
// page-list views captured by the validation pass. Owned by the caller so
// the backend's steady state performs no allocation per request.
struct DeserializeScratch {
  std::vector<WireEntryMeta> entry_metas;
  std::vector<const std::uint8_t*> page_lists;
  std::vector<std::uint64_t> seg_base;    // per-entry offset into the pool
  std::vector<std::uint32_t> seg_count;   // per-entry segments written
};

// Backend-side parse + GPA->HVA translation of a rank-operation chain.
// Every guest-controlled field is re-validated here (entry counts, the
// 4 GiB transfer cap, page-list lengths, page alignment, RAM bounds) —
// the serialize-side checks protect well-behaved guests, not the host.
// Throws VpimStatusError (kBadRequest) on hostile or malformed chains;
// the backend completes the request with that status.
//
// The out-parameter form reuses `out`/`scratch` storage across requests;
// the value form allocates fresh. Identical results either way.
void deserialize_matrix(const virtio::DescChain& chain,
                        guest::GuestMemory& mem, DeserializeResult& out,
                        DeserializeScratch& scratch);
DeserializeResult deserialize_matrix(const virtio::DescChain& chain,
                                     guest::GuestMemory& mem);

}  // namespace vpim::core
