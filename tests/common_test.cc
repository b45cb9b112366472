#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "common/breakdown.h"
#include "common/cost_model.h"
#include "common/rng.h"
#include "common/sim_clock.h"
#include "common/stats.h"
#include "common/zero_pages.h"

namespace vpim {
namespace {

TEST(SimClock, AdvancesMonotonically) {
  SimClock clock;
  EXPECT_EQ(clock.now(), 0u);
  clock.advance(5);
  clock.advance(7);
  EXPECT_EQ(clock.now(), 12u);
}

TEST(SimClock, ParallelTakesMax) {
  SimClock clock;
  clock.advance(100);
  std::vector<std::function<void()>> branches = {
      [&] { clock.advance(30); },
      [&] { clock.advance(80); },
      [&] { clock.advance(10); },
  };
  auto durations = clock.run_parallel(branches);
  EXPECT_EQ(clock.now(), 180u);
  ASSERT_EQ(durations.size(), 3u);
  EXPECT_EQ(durations[0], 30u);
  EXPECT_EQ(durations[1], 80u);
  EXPECT_EQ(durations[2], 10u);
}

TEST(SimClock, NestedParallelComposes) {
  SimClock clock;
  std::vector<std::function<void()>> inner = {
      [&] { clock.advance(5); },
      [&] { clock.advance(9); },
  };
  std::vector<std::function<void()>> outer = {
      [&] { clock.run_parallel(inner); },  // 9
      [&] { clock.advance(4); },
  };
  clock.run_parallel(outer);
  EXPECT_EQ(clock.now(), 9u);
}

TEST(SimClock, ScopedTimerAccumulates) {
  SimClock clock;
  SimNs acc = 0;
  {
    ScopedTimer t(clock, acc);
    clock.advance(42);
  }
  {
    ScopedTimer t(clock, acc);
    clock.advance(8);
  }
  EXPECT_EQ(acc, 50u);
}

TEST(ZeroPages, StartZeroedAndMoveOwnership) {
  ZeroPages pages(3 * 4096 + 5);
  ASSERT_NE(pages.data(), nullptr);
  EXPECT_EQ(pages.size(), 3u * 4096 + 5);
  EXPECT_TRUE(std::all_of(pages.data(), pages.data() + pages.size(),
                          [](std::uint8_t b) { return b == 0; }));
  pages.data()[pages.size() - 1] = 7;
  std::uint8_t* const base = pages.data();
  ZeroPages moved(std::move(pages));
  EXPECT_EQ(moved.data(), base);
  EXPECT_EQ(moved.data()[moved.size() - 1], 7);
  EXPECT_EQ(pages.data(), nullptr);
  EXPECT_EQ(pages.size(), 0u);
}

TEST(CostModel, BytesTime) {
  // 1 GiB at 1 GB/s should be ~1.07 virtual seconds.
  EXPECT_EQ(CostModel::bytes_time(1'000'000'000, 1.0), 1'000'000'000u);
  EXPECT_EQ(CostModel::bytes_time(500, 0.5), 1000u);
}

TEST(CostModel, DpuCyclesTime) {
  CostModel cost;
  cost.dpu_hz = 350e6;
  // 350 cycles at 350 MHz = 1 us.
  EXPECT_EQ(cost.dpu_cycles_time(350), 1000u);
}

TEST(Breakdown, SegmentsAccumulate) {
  SimClock clock;
  TimeBreakdown bd;
  {
    SegmentScope s(clock, bd, Segment::kCpuDpu);
    clock.advance(10);
  }
  {
    SegmentScope s(clock, bd, Segment::kDpu);
    clock.advance(20);
  }
  EXPECT_EQ(bd[Segment::kCpuDpu], 10u);
  EXPECT_EQ(bd[Segment::kDpu], 20u);
  EXPECT_EQ(bd.total(), 30u);
}

TEST(Breakdown, OpBreakdownCounts) {
  OpBreakdown ops;
  ops.add(RankOp::kCi, 100);
  ops.add(RankOp::kCi, 50);
  ops.add(RankOp::kWriteToRank, 500);
  EXPECT_EQ(ops.count(RankOp::kCi), 2u);
  EXPECT_EQ(ops.time(RankOp::kCi), 150u);
  EXPECT_EQ(ops.count(RankOp::kReadFromRank), 0u);
}

TEST(Stats, MeanStddevPercentile) {
  std::vector<double> xs = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(mean(xs), 3.0);
  EXPECT_NEAR(stddev(xs), 1.5811, 1e-3);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 5.0);
}

TEST(Stats, Geomean) {
  std::vector<double> xs = {1.0, 4.0};
  EXPECT_DOUBLE_EQ(geomean(xs), 2.0);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, FillBytesCoversBuffer) {
  Rng rng(7);
  std::vector<std::uint8_t> buf(1001, 0);
  rng.fill_bytes(buf.data(), buf.size());
  int nonzero = 0;
  for (auto b : buf) nonzero += (b != 0);
  EXPECT_GT(nonzero, 900);  // overwhelmingly likely for random bytes
}

TEST(Rng, ZipfSkewsLow) {
  Rng rng(3);
  int low = 0;
  for (int i = 0; i < 1000; ++i) {
    if (rng.zipf(1000, 1.0) < 10) ++low;
  }
  // Zipf(s=1) puts a large share of mass on the first few ranks.
  EXPECT_GT(low, 200);
}

// Mt19937_64 must emit std::mt19937_64's sequence, refills included.
TEST(Rng, EngineMatchesStdMt19937_64) {
  static_assert(Mt19937_64::min() == std::mt19937_64::min());
  static_assert(Mt19937_64::max() == std::mt19937_64::max());
  std::vector<std::uint64_t> seeds = {0, 1, 42, 5489,
                                      ~std::uint64_t{0}};
  std::mt19937_64 draw(20241019);
  for (int i = 0; i < 4; ++i) seeds.push_back(draw());
  for (const std::uint64_t seed : seeds) {
    Mt19937_64 mine(seed);
    std::mt19937_64 ref(seed);
    for (int i = 0; i < 1300; ++i) {  // more than four 312-word refills
      ASSERT_EQ(mine(), ref()) << "seed " << seed << " output " << i;
    }
  }
  // The standard's check value ([rand.predef]): the 10000th output of a
  // default-constructed engine.
  Mt19937_64 dflt;
  for (int i = 1; i < 10000; ++i) dflt();
  EXPECT_EQ(dflt(), 9981545732273789042ULL);
}

// Every Rng draw equals the same std distribution over std::mt19937_64.
TEST(Rng, DrawsMatchStdDistributionsOverStdMt19937_64) {
  using Lim = std::numeric_limits<std::int64_t>;
  // The ranges the PrIM apps, loadgens and fault plans draw from, plus
  // both extremes (one value, the whole int64 range).
  const std::pair<std::int64_t, std::int64_t> ranges[] = {
      {1, 10},         {1, 6},         {0, 8},
      {-5, 5},         {'A', 'D'},     {-1000000, 1000000},
      {0, 1LL << 40},  {0, 999},       {-50, 50},
      {-20, 20},       {-8, 8},        {-100, 100},
      {-1000, 1000},   {-100000, 100000}, {0, 63},
      {1, 1 << 30},    {0, (1 << 20) - 1}, {7, 7},
      {Lim::min(), Lim::max()}};
  for (const std::uint64_t seed : {1ULL, 2ULL, 77ULL}) {
    Rng rng(seed);
    std::mt19937_64 ref(seed);
    for (int round = 0; round < 200; ++round) {
      for (const auto& [lo, hi] : ranges) {
        ASSERT_EQ(rng.uniform(lo, hi),
                  std::uniform_int_distribution<std::int64_t>(lo, hi)(ref))
            << "[" << lo << ", " << hi << "] round " << round;
      }
      ASSERT_EQ(rng.uniform_real(0.0, 1.0),
                std::uniform_real_distribution<double>(0.0, 1.0)(ref));
      ASSERT_EQ(rng.uniform_real(-3.5, 2.0),
                std::uniform_real_distribution<double>(-3.5, 2.0)(ref));
      ASSERT_EQ(rng.next_u64(), ref());
    }

    for (const std::size_t n : {0, 1, 7, 8, 13, 1001}) {
      std::vector<std::uint8_t> got(n), want(n);
      rng.fill_bytes(got.data(), n);
      for (std::size_t i = 0; i < n; i += 8) {
        const std::uint64_t v = ref();
        std::memcpy(want.data() + i, &v, std::min<std::size_t>(8, n - i));
      }
      ASSERT_EQ(got, want) << "fill_bytes(" << n << ")";
    }

    for (const auto& [n, s] : {std::pair<std::size_t, double>{1000, 1.0},
                              {16384, 1.05}}) {
      std::vector<double> cdf(n);
      double sum = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
        cdf[k] = sum;
      }
      for (auto& v : cdf) v /= sum;
      for (int i = 0; i < 500; ++i) {
        const double u = std::uniform_real_distribution<double>(0.0, 1.0)(ref);
        ASSERT_EQ(rng.zipf(n, s), static_cast<std::size_t>(
                                      std::lower_bound(cdf.begin(), cdf.end(),
                                                       u) -
                                      cdf.begin()));
      }
    }
  }
}

}  // namespace
}  // namespace vpim
