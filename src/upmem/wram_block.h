// Host storage for WRAM objects: one block carved by a bump cursor, the
// way the SDK lays out a DPU's 64 KiB scratchpad (host symbols at fixed
// offsets, then the mem_alloc heap). Each object starts 8-byte aligned, as
// on the DPU, so kernels may reinterpret it as u32/u64.
//
// Under AddressSanitizer everything in the block outside a carved object
// is poisoned, including a redzone after every object, so an overrun is
// reported exactly as it was when each object was its own heap allocation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <utility>

#include "common/error.h"

#if defined(__SANITIZE_ADDRESS__)
#define VPIM_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define VPIM_ASAN 1
#endif
#endif

#ifdef VPIM_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace vpim::upmem {

#ifdef VPIM_ASAN
inline constexpr std::size_t kWramRedzone = 8;  // one shadow granule
inline void asan_poison(const void* p, std::size_t n) {
  ASAN_POISON_MEMORY_REGION(p, n);
}
inline void asan_unpoison(const void* p, std::size_t n) {
  ASAN_UNPOISON_MEMORY_REGION(p, n);
}
#else
inline constexpr std::size_t kWramRedzone = 0;
inline void asan_poison(const void*, std::size_t) {}
inline void asan_unpoison(const void*, std::size_t) {}
#endif

// Block bytes a `size`-byte object occupies: its size rounded up to 8,
// plus the redzone. At most (8 + kWramRedzone) * size for a non-empty
// object, which bounds the block a given WRAM byte budget needs.
constexpr std::size_t wram_slot_bytes(std::size_t size) {
  return size == 0 ? 0 : (size + 7) / 8 * 8 + kWramRedzone;
}

class WramBlock {
 public:
  WramBlock() = default;
  // Allocated uninitialised: only the pages carves touch become resident.
  explicit WramBlock(std::size_t capacity)
      : bytes_(capacity != 0 ? new std::uint8_t[capacity] : nullptr),
        capacity_(capacity) {
    asan_poison(bytes_.get(), capacity_);
  }
  // Copies the carved objects; the copy has the same layout and poison.
  WramBlock(const WramBlock& other) : WramBlock(other.capacity_) {
    used_ = other.used_;
#ifdef VPIM_ASAN
    for (std::size_t g = 0; g < used_; g += 8) {
      std::size_t n = 0;  // objects start granule-aligned: a prefix is live
      while (n < 8 && !__asan_address_is_poisoned(other.bytes_.get() + g + n))
        ++n;
      asan_unpoison(bytes_.get() + g, n);
      std::memcpy(bytes_.get() + g, other.bytes_.get() + g, n);
    }
#else
    if (used_ != 0) std::memcpy(bytes_.get(), other.bytes_.get(), used_);
#endif
  }
  WramBlock(WramBlock&& other) noexcept
      : bytes_(std::move(other.bytes_)),
        capacity_(std::exchange(other.capacity_, 0)),
        used_(std::exchange(other.used_, 0)) {}
  WramBlock& operator=(WramBlock other) noexcept {
    std::swap(bytes_, other.bytes_);
    std::swap(capacity_, other.capacity_);
    std::swap(used_, other.used_);
    return *this;
  }

  // The next `size` bytes, zero-filled and 8-byte aligned.
  std::span<std::uint8_t> carve(std::size_t size) {
    const std::size_t slot = wram_slot_bytes(size);
    VPIM_CHECK(slot <= capacity_ - used_, "WRAM block exhausted");
    std::uint8_t* p = bytes_.get() + used_;
    used_ += slot;
    asan_unpoison(p, size);
    std::memset(p, 0, size);
    return {p, size};
  }

  // The `size` bytes at `offset`, bounds-checked against the carved part.
  std::span<std::uint8_t> at(std::size_t offset, std::size_t size) {
    VPIM_CHECK(offset <= used_ && size <= used_ - offset,
               "WRAM object outside its block");
    return {bytes_.get() + offset, size};
  }

  // Drops every carved object; the next carve starts at offset 0.
  void reset() {
    asan_poison(bytes_.get(), used_);
    used_ = 0;
  }

 private:
  std::unique_ptr<std::uint8_t[]> bytes_;
  std::size_t capacity_ = 0;
  std::size_t used_ = 0;
};

}  // namespace vpim::upmem
