// Figure, the harness every bench binary runs as: the BENCH_<target>.json
// it writes, the host time it records and the exit code it returns.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>

#include "bench/bench_util.h"

namespace vpim::bench {
namespace {

// Points VPIM_BENCH_OUT at a fresh directory for the test's JSON.
class BenchFigureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(::testing::TempDir()) /
           (std::string("bench_figure_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
    ::setenv("VPIM_BENCH_OUT", dir_.c_str(), 1);
  }
  void TearDown() override {
    ::unsetenv("VPIM_BENCH_OUT");
    std::filesystem::remove_all(dir_);
  }

  // The written JSON with every wall_ms value replaced by "#".
  std::string json_masked(const std::string& target) const {
    std::ifstream in(dir_ / ("BENCH_" + target + ".json"));
    std::stringstream text;
    text << in.rdbuf();
    static const std::regex kWall(R"("wall_ms": \d+\.\d{3})");
    return std::regex_replace(text.str(), kWall, "\"wall_ms\": #");
  }

  std::filesystem::path dir_;
};

// Busy-waits `ms` of host time (no sleep: the test stays CPU-bound).
void spin_ms(double ms) {
  const WallTimer timer;
  while (timer.elapsed_ms() < ms) {
  }
}

TEST_F(BenchFigureTest, WritesTheBenchJsonFormat) {
  Figure fig("figure_test");
  fig.point("figure_test/a", [](BenchPoint& p) {
    p.simulated_ns = 1234567;
    p.add("vmexits_per_op", 0.5, 4);
  });
  fig.point("figure_test/b", [](BenchPoint& p) {
    p.simulated_ns = 42;
    p.add("vmexits_per_op", 0.25, 4);
  });
  EXPECT_EQ(fig.finish(), 0);
  EXPECT_EQ(json_masked("figure_test"),
            "{\n"
            "  \"target\": \"figure_test\",\n"
            "  \"threads\": " +
                std::to_string(ThreadPool::instance().size()) +
                ",\n"
                "  \"points\": [\n"
                "    {\"name\": \"figure_test/a\", \"simulated_ns\": 1234567, "
                "\"wall_ms\": #, \"vmexits_per_op\": 0.5000},\n"
                "    {\"name\": \"figure_test/b\", \"simulated_ns\": 42, "
                "\"wall_ms\": #, \"vmexits_per_op\": 0.2500}\n"
                "  ]\n"
                "}\n");
}

TEST_F(BenchFigureTest, DerivedPointsFollowInOrderWithZeroHostTime) {
  Figure fig("figure_test");
  fig.point("figure_test/clean", [](BenchPoint& p) { p.simulated_ns = 10; });
  fig.derived("figure_test/overhead", 3);
  EXPECT_EQ(fig.finish(), 0);
  const std::string json = json_masked("figure_test");
  EXPECT_NE(json.find("{\"name\": \"figure_test/clean\", \"simulated_ns\": "
                      "10, \"wall_ms\": #},\n"
                      "    {\"name\": \"figure_test/overhead\", "
                      "\"simulated_ns\": 3, \"wall_ms\": #}\n"),
            std::string::npos)
      << json;
}

TEST_F(BenchFigureTest, HostTimeCoversTheBodyUnlessTheBodyNarrowsIt) {
  constexpr double kSpinMs = 5.0;
  Figure fig("figure_test");
  fig.point("figure_test/whole", [&](BenchPoint& p) {
    spin_ms(kSpinMs);
    EXPECT_FALSE(p.wall_stopped());
  });
  double narrowed_ms = 0.0;
  double body_ms = 0.0;
  fig.point("figure_test/narrowed", [&](BenchPoint& p) {
    const WallTimer body;
    spin_ms(kSpinMs);  // setup the point does not measure
    p.start_wall();
    p.stop_wall();
    narrowed_ms = p.wall_ms;
    body_ms = body.elapsed_ms();
  });
  // The narrowed window opens after the spin and closes inside the body.
  EXPECT_LE(narrowed_ms, body_ms - kSpinMs);
  EXPECT_EQ(fig.finish(), 0);
  // The whole-body point spun for kSpinMs, so its host time is at least
  // that; the JSON carries it with three decimals.
  std::ifstream in(dir_ / "BENCH_figure_test.json");
  std::stringstream text;
  text << in.rdbuf();
  std::smatch m;
  const std::string json = text.str();
  ASSERT_TRUE(std::regex_search(
      json, m,
      std::regex(R"("figure_test/whole", "simulated_ns": 0, "wall_ms": )"
                 R"((\d+\.\d{3}))")));
  EXPECT_GE(std::stod(m[1].str()), kSpinMs);
}

TEST_F(BenchFigureTest, AnyFailedClaimExitsOne) {
  Figure fig("figure_test");
  EXPECT_TRUE(fig.claim("holds", true, "detail"));
  EXPECT_FALSE(fig.claim("breaks", false, "detail"));
  EXPECT_TRUE(fig.claim("holds_again", true, "detail"));
  EXPECT_EQ(fig.finish(), 1);
}

TEST_F(BenchFigureTest, AllClaimsHoldingExitsZero) {
  Figure fig("figure_test");
  fig.point("figure_test/a", [](BenchPoint& p) { p.simulated_ns = 1; });
  EXPECT_TRUE(fig.claim("holds", true, "detail"));
  EXPECT_TRUE(fig.claim("holds_too", true, "detail"));
  EXPECT_EQ(fig.finish(), 0);
}

}  // namespace
}  // namespace vpim::bench
