// Byte-interleave kernels modelling the rank DDR stripe format.
//
// On real UPMEM hardware each 8-byte word of DPU-linear data is striped one
// byte per chip across the 8 chips of a rank, so host-side transfers must
// (de)interleave every buffer. The paper found the implementation of this
// transform to be performance-critical and rewrote it from Rust to C/AVX512
// (§4.2, up to 343% faster). We keep one portable kernel pair per shape:
//
//   - *_naive: byte-at-a-time loop (the "Rust" stand-in of Fig 11/12);
//   - *_wide : 64-bit-word path, one 8x8 byte transpose per 64-byte block
//     (the shape of the C rewrite).
//
// The simulated data path does not run these kernels: banks store
// DPU-linear bytes, and the cost model charges each shape's calibrated
// bandwidth (interleave_naive_gbps, interleave_wide_gbps). Both variants
// are bit-exact inverses of each other and are property-tested against the
// independent flat-byte oracle.
#pragma once

#include <cstdint>
#include <span>

namespace vpim::upmem {

// dst[chip * (n/8) + word] = src[word * 8 + chip]. n must be a multiple of
// 8; the wide kernel transposes whole 64-byte blocks and finishes any
// ragged tail word by word. dst and src must not alias and must both hold
// n bytes.
void interleave_naive(std::span<const std::uint8_t> src,
                      std::span<std::uint8_t> dst);
void deinterleave_naive(std::span<const std::uint8_t> src,
                        std::span<std::uint8_t> dst);
void interleave_wide(std::span<const std::uint8_t> src,
                     std::span<std::uint8_t> dst);
void deinterleave_wide(std::span<const std::uint8_t> src,
                       std::span<std::uint8_t> dst);

}  // namespace vpim::upmem
