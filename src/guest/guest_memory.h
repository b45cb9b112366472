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
//
// Every guest page the simulator touches therefore costs a real first-touch
// fault, so alloc() packs: a buffer smaller than a page is carved, 64-byte
// aligned, from a page shared with other small buffers and never straddles
// a page boundary; a buffer of a page or more starts on a page of its own.
// A transfer's page count (the Fig 6/7 page lists) is the same either way:
// a sub-page buffer still lies in one page, and a larger one keeps its
// alignment.
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

  // Allocates a guest-contiguous buffer: page-aligned when `bytes` is a
  // page or more, else 64-byte aligned inside one shared page.
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

  // Whole pages handed out so far (a shared sub-page page counts whole).
  std::uint64_t allocated_bytes() const { return bump_; }
  // Guest pages the host has materialised (read or written) so far.
  std::uint64_t resident_pages() const { return ram_.resident_pages(); }

 private:
  static constexpr std::uint64_t kSubPageAlign = 64;

  ZeroPages ram_;
  std::uint64_t bump_ = kGuestPageSize;  // GPA 0 reserved (null-ish)
  // The page small buffers are carved from: [sub_next_, sub_end_).
  std::uint64_t sub_next_ = 0;
  std::uint64_t sub_end_ = 0;
};

}  // namespace vpim::guest
