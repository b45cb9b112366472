// Fig 10: Wikipedia Index Search execution time vs #DPUs (1..128).
// Both systems slow down as DPUs grow (more transfer work); the relative
// overhead shrinks (paper: 2.1x @1 DPU -> 1.3x @128 DPUs).
#include <benchmark/benchmark.h>

#include <map>

#include "bench/bench_util.h"

namespace vpim::bench {
namespace {

struct Cell {
  SimNs native = 0;
  SimNs vpim = 0;
};
std::map<std::uint32_t, Cell> g_cells;
std::vector<BenchPoint> g_points;

prim::IndexSearchParams params_for(std::uint32_t dpus) {
  prim::IndexSearchParams prm;
  prm.nr_dpus = dpus;
  const double scale = env_scale();
  prm.nr_documents = std::max<std::uint32_t>(
      32, static_cast<std::uint32_t>(4305 * scale));
  prm.avg_doc_words = std::max<std::uint32_t>(
      50, static_cast<std::uint32_t>(1900 * (scale < 1 ? 1.0 : 1.0)));
  return prm;
}

void run_cell(benchmark::State& state, const std::string& name,
              std::uint32_t dpus, bool virtualized) {
  const auto prm = params_for(dpus);
  for (auto _ : state) {
    prim::IndexSearchResult res;
    if (virtualized) {
      VmRig rig(core::VpimConfig::full(), (dpus + 59) / 60);
      res = prim::run_index_search(rig.platform, prm);
    } else {
      NativeRig rig;
      res = prim::run_index_search(rig.platform, prm);
    }
    state.SetIterationTime(ns_to_s(res.total));
    state.counters["correct"] = res.correct ? 1 : 0;
    state.counters["index_MB"] =
        static_cast<double>(res.index_bytes) / (1 << 20);
    Cell& cell = g_cells[dpus];
    (virtualized ? cell.vpim : cell.native) = res.total;
    // wall_ms stays 0: only the simulated columns are gated, host time is
    // compared on one runner by perfbench.
    BenchPoint& point = g_points.emplace_back(name, res.total, 0.0);
    point.add("correct", res.correct ? 1ULL : 0ULL);
    point.add("index_bytes", res.index_bytes);
    point.add("matches", res.matches);
  }
}

void print_summary() {
  print_header("Fig 10 - Index Search vs #DPUs",
               "time grows with #DPUs for both; overhead 2.1x @1 DPU "
               "-> 1.3x @128 DPUs; 63MB index, 445 queries in 4x128 "
               "batches");
  std::printf("%6s | %10s | %10s | %8s\n", "#DPUs", "native", "vPIM",
              "overhead");
  for (const auto& [dpus, cell] : g_cells) {
    std::printf("%6u | %8.1fms | %8.1fms | %7.2fx\n", dpus,
                ns_to_ms(cell.native), ns_to_ms(cell.vpim),
                ratio(cell.vpim, cell.native));
  }
}

}  // namespace
}  // namespace vpim::bench

int main(int argc, char** argv) {
  using namespace vpim::bench;
  benchmark::Initialize(&argc, argv);
  for (std::uint32_t dpus : {1u, 8u, 16u, 60u, 128u}) {
    for (const bool virtualized : {false, true}) {
      const std::string name = "fig10/dpus:" + std::to_string(dpus) +
                               (virtualized ? "/vPIM" : "/native");
      benchmark::RegisterBenchmark(
          name.c_str(),
          [name, dpus, virtualized](benchmark::State& state) {
            run_cell(state, name, dpus, virtualized);
          })
          ->UseManualTime()
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
    }
  }
  benchmark::RunSpecifiedBenchmarks();
  print_summary();
  write_bench_json("fig10", g_points);
  benchmark::Shutdown();
  return 0;
}
