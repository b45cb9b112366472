// Sparse, copy-on-write model of one DPU's 64 MiB MRAM bank.
//
// A full PIM machine would need 8 ranks x 64 DPUs x 64 MiB = 32 GiB of
// backing store if MRAM were allocated eagerly; instead pages materialize on
// first write and broadcast transfers (same host buffer pushed to every DPU,
// e.g. the UPMEM checksum demo) share immutable pages across banks.
//
// Writing zeros never materializes a page. An absent page reads as zero, so
// write() leaves it absent when every byte it would store there is zero (a
// KV service zeroing its slot headers on a freshly reset rank allocates
// nothing). A page that is already materialized takes the zeros like any
// other bytes, copy-on-write as usual. The one exception is
// writable_page_bytes(), the DPU DMA window: it hands out a raw writable
// pointer before the bytes are known, so it materializes the page
// whatever the DMA then stores. Simulated time never depends on which
// pages are materialized; this is a host-side representation choice.
//
// The bookkeeping is as sparse as the data. A bank's 16384 page refs sit in
// a two-level directory of 128 leaves x 128 refs: the directory is an empty
// vector until the bank's first write or adopt, and each leaf is allocated
// on the first write or adopt inside its 512 KiB span. A bank that was
// never written is two empty vectors, so the 512 banks a machine builds up
// front cost a few words each. Next to the directory, a touched-page index
// lists every page materialized since the last clear(), so the costs that
// used to walk a dense 16384-slot table are O(touched pages):
//   - clear() resets exactly the indexed pages;
//   - resident_pages() is the index's size;
//   - copying a bank (every Rank snapshot) and destroying one (every
//     machine teardown) touch only the allocated leaves.
// Reads and writes take one extra hop through the directory; a DPU launch
// skips it for DMAs that stay on the page it touched last (page_bytes(),
// writable_page_bytes() and the DpuCtx DMA window, DESIGN.md).
//
// pin() freezes a range without copying it: it takes the range's page refs
// as they stand (null for a page that reads as zero). Every later write to
// a pinned page sees a second owner and copies it first, and clear() only
// drops the bank's own refs, so the pin reads the bytes of the moment it
// was taken whatever happens to the bank afterwards.
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

// Copyable: a copy (a Rank snapshot) shares every page with its source,
// copy-on-write on either side; only the allocated leaves are duplicated.
class MramBank {
 public:
  // A frozen view of one bank range (see pin()). Empty by default.
  class Pin {
   public:
    bool empty() const { return size_ == 0; }
    // Reads `out.size()` bytes at bank offset `offset`, which must lie
    // inside the pinned range; null pages read as 0.
    void read(std::uint64_t offset, std::span<std::uint8_t> out) const;

   private:
    friend class MramBank;
    std::uint64_t offset_ = 0;  // bank offset of the pinned range
    std::uint64_t size_ = 0;
    std::vector<MramPageRef> pages_;  // from page offset_ / kMramPageSize
  };

  MramBank() = default;

  // Reads `out.size()` bytes starting at `offset`; absent pages read as 0.
  void read(std::uint64_t offset, std::span<std::uint8_t> out) const;

  // The bytes of page `page_index`; a page that reads as zero returns one
  // static zero page. Valid until the next write, adopt, clear or
  // assignment of this bank.
  std::span<const std::uint8_t, kMramPageSize> page_bytes(
      std::uint64_t page_index) const;

  // The bytes of page `page_index` for writing: materializes the page and
  // copies it first when another bank, pin or snapshot shares it, exactly
  // like write(). Valid, and the page exclusively this bank's, until the
  // next adopt, clear, assignment, pin or copy of this bank.
  std::span<std::uint8_t, kMramPageSize> writable_page_bytes(
      std::uint64_t page_index);

  // Pins `size` bytes starting at `offset`: shares the pages, copies none.
  Pin pin(std::uint64_t offset, std::uint64_t size) const;

  // Writes `in.size()` bytes starting at `offset` (copy-on-write). A page
  // that is absent stays absent when the bytes stored in it are all zero.
  void write(std::uint64_t offset, std::span<const std::uint8_t> in);

  // Shares pre-built immutable pages starting at page-aligned `offset`.
  // Used by broadcast transfers: N banks end up referencing one page set.
  void adopt_pages(std::uint64_t offset, std::span<const MramPageRef> pages);

  // Builds shareable pages from a host buffer (zero-padded tail).
  static std::vector<MramPageRef> build_pages(
      std::span<const std::uint8_t> data);

  // Drops every page (rank reset; content reads back as zero).
  void clear();

  // Number of materialized pages, for memory accounting.
  std::size_t resident_pages() const { return touched_.size(); }
  // Whether page `page_index` is materialized (false: it reads as zero).
  bool resident(std::uint64_t page_index) const;

 private:
  static constexpr std::uint64_t kLeafPages = 128;
  static constexpr std::uint64_t kLeaves = kMramPages / kLeafPages;
  static_assert(kLeaves * kLeafPages == kMramPages);
  static_assert(kMramPages <= 0x10000, "touched index holds u16 pages");
  using Leaf = std::vector<MramPageRef>;  // empty, or kLeafPages refs

  // The page at `page_index`, or null when it reads as zero.
  const MramPage* find(std::uint64_t page_index) const;
  // The ref slot for `page_index`, allocating the directory and leaf.
  MramPageRef& slot(std::uint64_t page_index);
  MramPage& page_for_write(std::uint64_t page_index);

  std::vector<Leaf> leaves_;  // empty, or kLeaves leaves
  std::vector<std::uint16_t> touched_;  // pages materialized since clear()
};

}  // namespace vpim::upmem
