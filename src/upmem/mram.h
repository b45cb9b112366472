// Sparse, copy-on-write model of one DPU's 64 MiB MRAM bank.
//
// A full PIM machine would need 8 ranks x 64 DPUs x 64 MiB = 32 GiB of
// backing store if MRAM were allocated eagerly; instead pages materialize on
// first write and broadcast transfers (same host buffer pushed to every DPU,
// e.g. the UPMEM checksum demo) share immutable pages across banks.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "upmem/layout.h"

namespace vpim::upmem {

struct MramPage {
  std::array<std::uint8_t, kMramPageSize> bytes;
};
using MramPageRef = std::shared_ptr<MramPage>;

class MramBank {
 public:
  // The page table itself is lazy too: a fresh bank holds an empty vector
  // and grows it to kMramPages on the first write/adopt/import. Machines
  // construct 8 ranks x 64 banks up front, and a 16384-slot table per bank
  // is real memory and construction time for banks most workloads never
  // touch.
  MramBank() = default;

  // Reads `out.size()` bytes starting at `offset`; absent pages read as 0.
  void read(std::uint64_t offset, std::span<std::uint8_t> out) const;

  // Writes `in.size()` bytes starting at `offset` (copy-on-write).
  void write(std::uint64_t offset, std::span<const std::uint8_t> in);

  // Shares pre-built immutable pages starting at page-aligned `offset`.
  // Used by broadcast transfers: N banks end up referencing one page set.
  void adopt_pages(std::uint64_t offset, std::span<const MramPageRef> pages);

  // Builds shareable pages from a host buffer (zero-padded tail).
  static std::vector<MramPageRef> build_pages(
      std::span<const std::uint8_t> data);

  // Drops every page (rank reset; content reads back as zero).
  void clear();

  // Number of materialized (non-shared-null) pages, for memory accounting.
  std::size_t resident_pages() const;

 private:
  MramPage& page_for_write(std::uint64_t page_index);
  void ensure_table();

  std::vector<MramPageRef> pages_;  // empty until the first write
};

}  // namespace vpim::upmem
