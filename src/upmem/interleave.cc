#include "upmem/interleave.h"

#include <cstring>

#include "common/error.h"

namespace vpim::upmem {

namespace {

constexpr std::uint32_t kChips = 8;

void check_args(std::span<const std::uint8_t> src,
                std::span<std::uint8_t> dst) {
  VPIM_CHECK(src.size() == dst.size(), "interleave buffers must match");
  VPIM_CHECK(src.size() % kChips == 0,
             "interleave size must be a multiple of 8");
}

// Transposes an 8x8 byte matrix held as 8 little-endian 64-bit rows
// (row i byte j <-> bits [8j, 8j+8) of x[i]) in place, using delta swaps.
inline void transpose8x8(std::uint64_t x[8]) {
  std::uint64_t t;
  for (int i = 0; i < 8; i += 2) {
    t = ((x[i] >> 8) ^ x[i + 1]) & 0x00FF00FF00FF00FFULL;
    x[i + 1] ^= t;
    x[i] ^= t << 8;
  }
  for (int i = 0; i < 8; i += 4) {
    for (int j = 0; j < 2; ++j) {
      t = ((x[i + j] >> 16) ^ x[i + j + 2]) & 0x0000FFFF0000FFFFULL;
      x[i + j + 2] ^= t;
      x[i + j] ^= t << 16;
    }
  }
  for (int j = 0; j < 4; ++j) {
    t = ((x[j] >> 32) ^ x[j + 4]) & 0x00000000FFFFFFFFULL;
    x[j + 4] ^= t;
    x[j] ^= t << 32;
  }
}

inline std::uint64_t load_u64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

inline void store_u64(std::uint8_t* p, std::uint64_t v) {
  std::memcpy(p, &v, 8);
}

// Byte-at-a-time (de)interleave of words [first_word, per_chip): the whole
// naive kernel, and the ragged tail of the wide one.
inline void interleave_words(std::span<const std::uint8_t> src,
                             std::span<std::uint8_t> dst,
                             std::size_t per_chip, std::size_t first_word) {
  for (std::size_t w = first_word; w < per_chip; ++w) {
    for (std::size_t c = 0; c < kChips; ++c) {
      dst[c * per_chip + w] = src[w * kChips + c];
    }
  }
}

inline void deinterleave_words(std::span<const std::uint8_t> src,
                               std::span<std::uint8_t> dst,
                               std::size_t per_chip, std::size_t first_word) {
  for (std::size_t w = first_word; w < per_chip; ++w) {
    for (std::size_t c = 0; c < kChips; ++c) {
      dst[w * kChips + c] = src[c * per_chip + w];
    }
  }
}

}  // namespace

void interleave_naive(std::span<const std::uint8_t> src,
                      std::span<std::uint8_t> dst) {
  check_args(src, dst);
  interleave_words(src, dst, src.size() / kChips, 0);
}

void deinterleave_naive(std::span<const std::uint8_t> src,
                        std::span<std::uint8_t> dst) {
  check_args(src, dst);
  deinterleave_words(src, dst, src.size() / kChips, 0);
}

void interleave_wide(std::span<const std::uint8_t> src,
                     std::span<std::uint8_t> dst) {
  check_args(src, dst);
  const std::size_t per_chip = src.size() / kChips;
  const std::size_t blocks = per_chip / 8;  // 64-byte main-loop blocks
  for (std::size_t b = 0; b < blocks; ++b) {
    std::uint64_t x[8];
    for (std::size_t i = 0; i < 8; ++i) {
      x[i] = load_u64(src.data() + (b * 8 + i) * 8);
    }
    transpose8x8(x);
    for (std::size_t c = 0; c < kChips; ++c) {
      store_u64(dst.data() + c * per_chip + b * 8, x[c]);
    }
  }
  interleave_words(src, dst, per_chip, blocks * 8);
}

void deinterleave_wide(std::span<const std::uint8_t> src,
                       std::span<std::uint8_t> dst) {
  check_args(src, dst);
  const std::size_t per_chip = src.size() / kChips;
  const std::size_t blocks = per_chip / 8;
  for (std::size_t b = 0; b < blocks; ++b) {
    std::uint64_t x[8];
    for (std::size_t c = 0; c < kChips; ++c) {
      x[c] = load_u64(src.data() + c * per_chip + b * 8);
    }
    transpose8x8(x);
    for (std::size_t i = 0; i < 8; ++i) {
      store_u64(dst.data() + (b * 8 + i) * 8, x[i]);
    }
  }
  deinterleave_words(src, dst, per_chip, blocks * 8);
}

}  // namespace vpim::upmem
