// Seeded deterministic RNG helpers. All workload generators take an explicit
// seed so every experiment is reproducible run to run.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <vector>

namespace vpim {

// The 64-bit Mersenne Twister with the seeding, twist and tempering the C++
// standard fixes for std::mt19937_64, so it emits the same sequence; its
// range spans all 64 bits, so the std distributions draw from it exactly as
// from std::mt19937_64. The one difference is the refill: libstdc++ picks
// the twist matrix with `(y & 1) ? a : 0`, which GCC compiles to a branch
// that mispredicts on about half of the words; here a mask picks it.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  static constexpr result_type default_seed = 5489;

  explicit Mt19937_64(result_type seed = default_seed) {
    x_[0] = seed;
    for (std::size_t i = 1; i < kN; ++i) {
      x_[i] = kSeedMul * (x_[i - 1] ^ (x_[i - 1] >> 62)) + i;
    }
  }

  result_type operator()() {
    if (p_ >= kN) refill();
    std::uint64_t z = x_[p_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

 private:
  static constexpr std::size_t kN = 312;
  static constexpr std::size_t kM = 156;
  static constexpr std::uint64_t kSeedMul = 6364136223846793005ULL;
  static constexpr std::uint64_t kMatrixA = 0xb5026f5aa96619e9ULL;
  static constexpr std::uint64_t kUpper = ~std::uint64_t{0} << 31;

  // The next word from the upper bit of `hi`, the lower 31 of `lo`, and the
  // word `far` that sits kM ahead.
  static std::uint64_t twist(std::uint64_t hi, std::uint64_t lo,
                             std::uint64_t far) {
    const std::uint64_t y = (hi & kUpper) | (lo & ~kUpper);
    return far ^ (y >> 1) ^ (kMatrixA & (0 - (y & 1)));
  }

  void refill() {
    std::size_t k = 0;
    for (; k < kN - kM; ++k) x_[k] = twist(x_[k], x_[k + 1], x_[k + kM]);
    for (; k < kN - 1; ++k) x_[k] = twist(x_[k], x_[k + 1], x_[k + kM - kN]);
    x_[kN - 1] = twist(x_[kN - 1], x_[0], x_[kM - 1]);
    p_ = 0;
  }

  std::uint64_t x_[kN] = {};
  std::size_t p_ = kN;
};

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  std::uint64_t next_u64() { return engine_(); }

  // Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  double uniform_real(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  // Fills `out` with pseudo-random bytes.
  void fill_bytes(std::uint8_t* out, std::size_t n) {
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      std::uint64_t v = engine_();
      std::memcpy(out + i, &v, 8);
    }
    if (i < n) {
      std::uint64_t v = engine_();
      std::memcpy(out + i, &v, n - i);
    }
  }

  // Zipfian rank in [0, n) with exponent `s`; used by the synthetic
  // Wikipedia corpus so term frequencies look like natural language.
  std::size_t zipf(std::size_t n, double s = 1.0) {
    // Rejection-inversion would be overkill for corpus generation; a
    // cached-CDF draw is fine at our corpus sizes.
    if (cdf_.size() != n || cdf_s_ != s) {
      cdf_.resize(n);
      double sum = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
        cdf_[k] = sum;
      }
      for (auto& v : cdf_) v /= sum;
      cdf_s_ = s;
    }
    double u = uniform_real(0.0, 1.0);
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<std::size_t>(it - cdf_.begin());
  }

 private:
  Mt19937_64 engine_;
  std::vector<double> cdf_;
  double cdf_s_ = 0.0;
};

}  // namespace vpim
