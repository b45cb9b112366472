// Differential properties for the MRAM byte-interleave kernels: the naive
// and wide (64-bit transpose) variants must be bit-exact against the
// independent flat-byte oracle over random sizes and buffer alignments,
// and every variant must invert cleanly.
//
// Includes a deliberate-mutation teeth test: a kernel with a one-byte chip
// swap must be caught and must print a VPIM_PROP_SEED reproducer.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/proptest/oracle.h"
#include "common/proptest/proptest.h"
#include "common/rng.h"
#include "upmem/interleave.h"

namespace vpim::prop {
namespace {

struct InterleaveCase {
  std::uint64_t size = 8;       // bytes, multiple of 8
  std::uint64_t src_align = 0;  // byte offset into an over-allocated buffer
  std::uint64_t dst_align = 0;
  std::uint64_t data_seed = 1;  // payload stream, independent of the shape
};

std::string show_case(const InterleaveCase& c) {
  return "size=" + std::to_string(c.size) +
         " src_align=" + std::to_string(c.src_align) +
         " dst_align=" + std::to_string(c.dst_align) +
         " data_seed=" + std::to_string(c.data_seed);
}

Gen<InterleaveCase> interleave_case_gen() {
  Gen<InterleaveCase> gen;
  gen.sample = [](Rng& rng) {
    InterleaveCase c;
    // Mix sizes around the wide kernel's 64-byte main-loop boundary (the
    // tail loop handles the remainder) with free-form multiples of 8.
    switch (rng.uniform(0, 3)) {
      case 0:  // pure tail sizes
        c.size = 8 * static_cast<std::uint64_t>(rng.uniform(1, 7));
        break;
      case 1: {  // just around a multiple of 64
        const auto blocks = static_cast<std::uint64_t>(rng.uniform(1, 64));
        const auto jitter = static_cast<std::int64_t>(rng.uniform(-1, 1));
        const std::int64_t n =
            static_cast<std::int64_t>(blocks * 64) + 8 * jitter;
        c.size = static_cast<std::uint64_t>(n > 8 ? n : 8);
        break;
      }
      default:
        c.size = 8 * static_cast<std::uint64_t>(rng.uniform(1, 4096));
        break;
    }
    c.src_align = static_cast<std::uint64_t>(rng.uniform(0, 63));
    c.dst_align = static_cast<std::uint64_t>(rng.uniform(0, 63));
    c.data_seed = rng.next_u64();
    return c;
  };
  gen.shrink = [](const InterleaveCase& c) {
    std::vector<InterleaveCase> out;
    if (c.size > 8) {
      InterleaveCase half = c;
      half.size = ((c.size / 2) / 8) * 8;
      if (half.size >= 8) out.push_back(half);
      InterleaveCase less = c;
      less.size = c.size - 8;
      out.push_back(less);
    }
    if (c.src_align != 0) {
      InterleaveCase aligned = c;
      aligned.src_align = 0;
      out.push_back(aligned);
    }
    if (c.dst_align != 0) {
      InterleaveCase aligned = c;
      aligned.dst_align = 0;
      out.push_back(aligned);
    }
    return out;
  };
  return gen;
}

// Runs one interleave function over the case's (mis)aligned sub-buffers.
template <typename Fn>
std::vector<std::uint8_t> run_kernel(const InterleaveCase& c, Fn&& fn) {
  std::vector<std::uint8_t> src_buf(c.size + 64, 0xAA);
  std::vector<std::uint8_t> dst_buf(c.size + 64, 0xBB);
  Rng data(c.data_seed);
  data.fill_bytes(src_buf.data() + c.src_align, c.size);
  fn(std::span<const std::uint8_t>(src_buf.data() + c.src_align, c.size),
     std::span<std::uint8_t>(dst_buf.data() + c.dst_align, c.size));
  return {dst_buf.begin() + static_cast<std::ptrdiff_t>(c.dst_align),
          dst_buf.begin() + static_cast<std::ptrdiff_t>(c.dst_align + c.size)};
}

TEST(PropInterleave, AllVariantsMatchOracle) {
  const Params params = Params::from_env(0x1417E81EAFu, 150);
  const auto out = run_property<InterleaveCase>(
      "interleave.variants_vs_oracle", params, interleave_case_gen(),
      [](const InterleaveCase& c) {
        const auto oracle = run_kernel(c, oracle_interleave);
        const auto naive = run_kernel(c, upmem::interleave_naive);
        const auto wide = run_kernel(c, upmem::interleave_wide);
        require(naive == oracle, "interleave_naive disagrees with oracle");
        require(wide == oracle, "interleave_wide disagrees with oracle");
      },
      show_case);
  EXPECT_TRUE(out.ok) << out.reproducer;
}

TEST(PropInterleave, DeinterleaveMatchesOracle) {
  const Params params = Params::from_env(0xDE1417E8u, 150);
  const auto out = run_property<InterleaveCase>(
      "interleave.deinterleave_vs_oracle", params, interleave_case_gen(),
      [](const InterleaveCase& c) {
        const auto oracle = run_kernel(c, oracle_deinterleave);
        require(run_kernel(c, upmem::deinterleave_naive) == oracle,
                "deinterleave_naive disagrees with oracle");
        require(run_kernel(c, upmem::deinterleave_wide) == oracle,
                "deinterleave_wide disagrees with oracle");
      },
      show_case);
  EXPECT_TRUE(out.ok) << out.reproducer;
}

TEST(PropInterleave, EveryVariantRoundTrips) {
  const Params params = Params::from_env(0x2007E57u, 150);
  const auto out = run_property<InterleaveCase>(
      "interleave.roundtrip", params, interleave_case_gen(),
      [](const InterleaveCase& c) {
        std::vector<std::uint8_t> src(c.size);
        Rng data(c.data_seed);
        data.fill_bytes(src.data(), src.size());
        std::vector<std::uint8_t> mid(c.size), back(c.size);

        oracle_interleave(src, mid);
        oracle_deinterleave(mid, back);
        require(back == src, "oracle does not invert itself");

        // Cross-variant inversion: interleave with one implementation,
        // deinterleave with another.
        upmem::interleave_wide(src, mid);
        upmem::deinterleave_naive(mid, back);
        require(back == src, "wide -> naive roundtrip broken");
        upmem::interleave_naive(src, mid);
        oracle_deinterleave(mid, back);
        require(back == src, "naive -> oracle roundtrip broken");
      },
      show_case);
  EXPECT_TRUE(out.ok) << out.reproducer;
}

// Teeth: a kernel with two chips swapped for odd words must be caught,
// shrink to a small case, and print the one-line seed reproducer.
TEST(PropInterleave, MutatedKernelIsCaught) {
  const auto mutated = [](std::span<const std::uint8_t> src,
                          std::span<std::uint8_t> dst) {
    const std::uint64_t words = src.size() / 8;
    for (std::uint64_t i = 0; i < src.size(); ++i) {
      std::uint64_t word = i / 8;
      std::uint64_t chip = i % 8;
      if (word % 2 == 1 && chip < 2) chip ^= 1;  // the planted bug
      dst[chip * words + word] = src[i];
    }
  };
  Params params;
  params.base_seed = 0xBADC0DE;
  params.iterations = 150;
  params.quiet = true;  // the FAIL here is the expected outcome
  const auto out = run_property<InterleaveCase>(
      "interleave.teeth", params, interleave_case_gen(),
      [&](const InterleaveCase& c) {
        require(run_kernel(c, mutated) == run_kernel(c, oracle_interleave),
                "mutated kernel disagrees with oracle");
      },
      show_case);
  ASSERT_FALSE(out.ok) << "the harness failed to catch a planted bug";
  EXPECT_NE(out.reproducer.find("VPIM_PROP_SEED="), std::string::npos);
  // The bug needs at least two words to show; shrinking must still get
  // close to that floor instead of reporting a huge case.
  EXPECT_LE(out.minimal.size, 64u) << show_case(out.minimal);
  EXPECT_GE(out.minimal.size, 16u) << show_case(out.minimal);

  // The printed seed replays the same minimal case deterministically.
  Params replay;
  replay.replay_seed = out.failing_seed;
  replay.quiet = true;
  const auto again = run_property<InterleaveCase>(
      "interleave.teeth", replay, interleave_case_gen(),
      [&](const InterleaveCase& c) {
        require(run_kernel(c, mutated) == run_kernel(c, oracle_interleave),
                "mutated kernel disagrees with oracle");
      },
      show_case);
  ASSERT_FALSE(again.ok);
  EXPECT_EQ(show_case(again.minimal), show_case(out.minimal));
}

}  // namespace
}  // namespace vpim::prop
