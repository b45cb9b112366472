// The byte copy under every MRAM access (MramBank, its pins and the DPU DMA
// window). DPU kernels DMA a few bytes at a time, and GCC expands a memcpy
// whose length it can bound by the page size into `rep movsq`, whose
// start-up cost dwarfs a 16-byte record. Up to 16 bytes take two
// overlapping moves; larger copies call the library memcpy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace vpim::upmem {

// A plain memcpy, kept out of line so that no caller's bound on `n` turns
// it back into `rep movsq`.
[[gnu::noinline]] void mram_copy_large(std::uint8_t* dst,
                                       const std::uint8_t* src, std::size_t n);

// Two T-sized moves, overlapping unless n == 2 * sizeof(T), copy any n in
// [sizeof(T), 2 * sizeof(T)].
template <typename T>
void mram_copy_head_tail(std::uint8_t* dst, const std::uint8_t* src,
                         std::size_t n) {
  T head = 0;
  T tail = 0;
  std::memcpy(&head, src, sizeof(T));
  std::memcpy(&tail, src + n - sizeof(T), sizeof(T));
  std::memcpy(dst, &head, sizeof(T));
  std::memcpy(dst + n - sizeof(T), &tail, sizeof(T));
}

// Copies `n` bytes between non-overlapping buffers.
inline void mram_copy(std::uint8_t* dst, const std::uint8_t* src,
                      std::size_t n) {
  if (n > 16) {
    mram_copy_large(dst, src, n);
  } else if (n >= 8) {
    mram_copy_head_tail<std::uint64_t>(dst, src, n);
  } else if (n >= 4) {
    mram_copy_head_tail<std::uint32_t>(dst, src, n);
  } else if (n >= 2) {
    mram_copy_head_tail<std::uint16_t>(dst, src, n);
  } else if (n == 1) {
    *dst = *src;
  }
}

}  // namespace vpim::upmem
