// Independent reference oracle for differential testing.
//
// Everything here is a deliberately naive, single-threaded
// reimplementation of behaviour the production stack implements elsewhere
// (vpim/wire.cc, the cost charges spread across frontend/backend/driver).
// It shares NO code with those paths — byte-at-a-time data movement, field
// parsing at explicit byte offsets, page counts via first/last-page
// transition counting — so a bug has to be made twice, in two different
// shapes, to escape the differential properties in tests/prop/.
//
// Keep it slow and obvious. Do not "optimize" the oracle or refactor it to
// reuse production helpers; its entire value is independence.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/cost_model.h"

namespace vpim::prop {

// ---- wire-format deserializer --------------------------------------------
//
// Reference for core::deserialize_matrix, working from raw descriptor
// (gpa, len) pairs and a memory accessor instead of virtio/GuestMemory
// types. Returns nullopt for every chain the device must reject; on accept
// the gathered bytes are materialized (byte-at-a-time page walk), which
// the differential test compares against the production scatter segments.

struct OracleDesc {
  std::uint64_t gpa = 0;
  std::uint64_t len = 0;
};

struct OracleEntry {
  std::uint64_t dpu = 0;
  std::uint64_t mram_offset = 0;
  std::vector<std::uint8_t> bytes;  // gathered payload, size == entry size
};

struct OracleMatrix {
  std::uint32_t direction = 0;
  std::uint64_t nr_pages = 0;
  std::uint64_t total_bytes = 0;
  std::vector<OracleEntry> entries;
};

// mem(gpa, len) returns a pointer to `len` readable bytes at `gpa`, or
// nullptr if [gpa, gpa+len) is not fully inside guest RAM.
using OracleMemReader =
    std::function<const std::uint8_t*(std::uint64_t, std::uint64_t)>;

std::optional<OracleMatrix> oracle_deserialize(
    const std::vector<OracleDesc>& descs, const OracleMemReader& mem);

// ---- direct rank-op cost recomputation -----------------------------------
//
// Reference for the virtual time one unbatched, uncached write_to_rank /
// read_from_rank charges end to end (frontend ioctl + page mgmt +
// serialize, VMEXIT/IRQ transitions, backend deserialize + translate +
// per-entry handling, native transfer at the configured data-path
// bandwidth). Recomputed additively per entry with transition-counted page
// counts; the property compares it against the production DeviceStats op
// and W-rank step breakdowns.

struct OracleXferShape {
  std::uint64_t first_page_offset = 0;  // gpa % 4096 of the buffer start
  std::uint64_t size = 0;               // bytes
};

struct OracleXferCost {
  SimNs ioctl = 0;
  SimNs page_mgmt = 0;   // W-rank "Page" step
  SimNs serialize = 0;   // W-rank "Ser" step
  SimNs interrupt = 0;   // W-rank "Int" step (notify + completion)
  SimNs deserialize = 0; // W-rank "Deser" step (incl. GPA translation)
  SimNs transfer = 0;    // W-rank "T-data" step
  SimNs total = 0;
};

OracleXferCost oracle_direct_xfer_cost(
    const CostModel& cost, const std::vector<OracleXferShape>& entries,
    bool c_data_path);

}  // namespace vpim::prop
