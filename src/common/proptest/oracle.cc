#include "common/proptest/oracle.h"

namespace vpim::prop {
namespace {

// Spec constants, restated here as literals on purpose: the oracle parses
// the wire format from the specification (DESIGN.md / Fig 7), not from the
// production struct definitions.
constexpr std::uint64_t kOraclePage = 4096;
constexpr std::uint64_t kOracleMaxEntries = 64;   // DPU slots per rank
constexpr std::uint64_t kOracleMaxXfer = 1ULL << 32;  // 4 GiB
constexpr std::uint64_t kWireRequestBytes = 112;  // 8 u32 + 2 u64 + 64-char
constexpr std::uint64_t kMatrixMetaBytes = 16;    // 2 u64
constexpr std::uint64_t kEntryMetaBytes = 40;     // 5 u64

std::uint32_t load_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t load_u64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(load_u32(p)) |
         (static_cast<std::uint64_t>(load_u32(p + 4)) << 32);
}

}  // namespace

std::optional<OracleMatrix> oracle_deserialize(
    const std::vector<OracleDesc>& descs, const OracleMemReader& mem) {
  // Chain shape: [request][matrix meta]([entry meta][page list])*[response]
  // => odd count, at least 3.
  if (descs.size() < 3 || descs.size() % 2 == 0) return std::nullopt;
  if (descs[0].len < kWireRequestBytes) return std::nullopt;
  const std::uint8_t* req = mem(descs[0].gpa, kWireRequestBytes);
  if (req == nullptr) return std::nullopt;
  if (descs[1].len < kMatrixMetaBytes) return std::nullopt;
  const std::uint8_t* meta = mem(descs[1].gpa, kMatrixMetaBytes);
  if (meta == nullptr) return std::nullopt;

  OracleMatrix out;
  out.direction = load_u32(req + 4);  // WireRequest.direction
  if (out.direction > 1) return std::nullopt;  // kToRank=0, kFromRank=1

  const std::uint64_t nr_entries = load_u64(meta);
  const std::uint64_t total_bytes = load_u64(meta + 8);
  if (nr_entries != (descs.size() - 3) / 2) return std::nullopt;
  if (nr_entries > kOracleMaxEntries) return std::nullopt;
  if (total_bytes > kOracleMaxXfer) return std::nullopt;

  std::uint64_t summed_bytes = 0;
  for (std::uint64_t k = 0; k < nr_entries; ++k) {
    const OracleDesc& meta_desc = descs[2 + 2 * k];
    if (meta_desc.len < kEntryMetaBytes) return std::nullopt;
    const std::uint8_t* em = mem(meta_desc.gpa, kEntryMetaBytes);
    if (em == nullptr) return std::nullopt;
    OracleEntry entry;
    entry.dpu = load_u64(em);
    entry.mram_offset = load_u64(em + 8);
    const std::uint64_t size = load_u64(em + 16);
    const std::uint64_t first_off = load_u64(em + 24);
    const std::uint64_t nr_pages = load_u64(em + 32);
    if (size == 0 || size > kOracleMaxXfer) return std::nullopt;
    if (first_off >= kOraclePage) return std::nullopt;
    // Transition counting: index of the first and last page the byte range
    // [first_off, first_off + size) touches.
    const std::uint64_t first_page = first_off / kOraclePage;  // always 0
    const std::uint64_t last_page = (first_off + size - 1) / kOraclePage;
    if (nr_pages != last_page - first_page + 1) return std::nullopt;
    const OracleDesc& pages_desc = descs[3 + 2 * k];
    if (pages_desc.len != nr_pages * 8) return std::nullopt;
    const std::uint8_t* list = mem(pages_desc.gpa, pages_desc.len);
    if (list == nullptr) return std::nullopt;

    // Byte-at-a-time page gather (vs the production scatter-segment
    // builder): walk every listed page, validate it, and copy the bytes
    // the entry covers in it.
    entry.bytes.reserve(size);
    for (std::uint64_t p = 0; p < nr_pages; ++p) {
      const std::uint64_t page_gpa = load_u64(list + p * 8);
      if (page_gpa % kOraclePage != 0) return std::nullopt;
      const std::uint8_t* page = mem(page_gpa, kOraclePage);
      if (page == nullptr) return std::nullopt;
      const std::uint64_t start = (p == 0) ? first_off : 0;
      for (std::uint64_t b = start;
           b < kOraclePage && entry.bytes.size() < size; ++b) {
        entry.bytes.push_back(page[b]);
      }
    }
    if (entry.bytes.size() != size) return std::nullopt;

    out.nr_pages += nr_pages;
    summed_bytes += size;
    out.entries.push_back(std::move(entry));
  }
  if (summed_bytes != total_bytes) return std::nullopt;
  out.total_bytes = summed_bytes;
  return out;
}

OracleXferCost oracle_direct_xfer_cost(
    const CostModel& cost, const std::vector<OracleXferShape>& entries,
    bool c_data_path) {
  OracleXferCost r;
  // Everything below is accumulated entry by entry (additively), the
  // opposite shape from the production code's whole-matrix charges, so
  // additivity bugs in either direction show up as a mismatch.
  std::uint64_t pages = 0;
  std::uint64_t bytes = 0;
  for (const OracleXferShape& e : entries) {
    const std::uint64_t first_page = e.first_page_offset / kOraclePage;
    const std::uint64_t last_page =
        (e.first_page_offset + e.size - 1) / kOraclePage;
    pages += last_page - first_page + 1;
    bytes += e.size;
  }
  const auto n = static_cast<std::uint64_t>(entries.size());

  r.ioctl = cost.ioctl_ns;
  r.page_mgmt = cost.page_mgmt_ns_per_page * static_cast<SimNs>(pages);
  r.serialize = cost.frontend_request_fixed_ns +
                cost.serialize_ns_per_page * static_cast<SimNs>(pages) +
                cost.per_dpu_metadata_ns * static_cast<SimNs>(n);
  r.interrupt = cost.vmexit_notify_ns + cost.irq_inject_ns;
  const std::uint64_t translate_threads =
      cost.translate_threads > 0 ? cost.translate_threads : 1;
  r.deserialize =
      cost.deserialize_ns_per_page * static_cast<SimNs>(pages) +
      cost.per_dpu_metadata_ns * static_cast<SimNs>(n) +
      static_cast<SimNs>(
          static_cast<std::uint64_t>(cost.gpa_translate_ns_per_page) *
          pages / translate_threads);
  const std::uint64_t batches =
      (n + cost.backend_op_threads - 1) / cost.backend_op_threads;
  const double gbps =
      c_data_path ? cost.scattered_copy_gbps : cost.interleave_naive_gbps;
  r.transfer = static_cast<SimNs>(batches) * cost.backend_per_entry_ns +
               cost.native_xfer_fixed_ns +
               static_cast<SimNs>(static_cast<double>(bytes) / gbps);
  r.total = r.ioctl + r.page_mgmt + r.serialize + r.interrupt +
            r.deserialize + r.transfer;
  return r;
}

}  // namespace vpim::prop
