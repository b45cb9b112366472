// Guest RAM: a flat guest-physical address space with a page allocator.
//
// Application buffers inside a VM are allocated here so the vUPMEM frontend
// can resolve them to guest physical page lists (the Fig 6/7 transfer
// matrix) and the backend can translate GPA -> HVA without copying.
//
// The backing store is demand-zero pages (common/zero_pages.h), not an
// eagerly zero-filled vector: a 2 GiB guest only pays (host RAM and
// wall-clock) for the pages it actually touches, exactly like a real VMM's
// memslots. This removes the dominant fixed cost of constructing a VM —
// benches build a fresh VM per measurement, and memset'ing gigabytes per
// point used to dwarf the request path being measured.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/error.h"
#include "common/units.h"
#include "common/zero_pages.h"

namespace vpim::guest {

inline constexpr std::uint64_t kGuestPageSize = 4 * kKiB;

class GuestMemory {
 public:
  explicit GuestMemory(std::uint64_t bytes);

  std::uint64_t size() const { return ram_.size(); }

  // Allocates a guest-contiguous buffer (page-granular bump allocator).
  std::span<std::uint8_t> alloc(std::uint64_t bytes);

  // Host virtual address of a GPA (bounds-checked).
  std::uint8_t* hva_of(std::uint64_t gpa);
  const std::uint8_t* hva_of(std::uint64_t gpa) const;

  // Host virtual address of [gpa, gpa+len); rejects ranges that leave
  // guest RAM (overflow-safe). The backend must use this — not hva_of —
  // for every guest-supplied buffer, or a GPA near the end of RAM would
  // let the guest read or write past the backing allocation.
  std::uint8_t* hva_range(std::uint64_t gpa, std::uint64_t len);
  const std::uint8_t* hva_range(std::uint64_t gpa, std::uint64_t len) const;

  // Guest physical address of a pointer into guest RAM.
  std::uint64_t gpa_of(const std::uint8_t* hva) const;

  bool contains(const std::uint8_t* hva) const {
    return hva >= ram_.data() && hva < ram_.data() + ram_.size();
  }

  std::uint64_t allocated_bytes() const { return bump_; }

 private:
  ZeroPages ram_;
  std::uint64_t bump_ = kGuestPageSize;  // GPA 0 reserved (null-ish)
};

}  // namespace vpim::guest
