// Fig 12: driver-centric breakdown of checksum execution into control-
// interface (CI), read-from-rank (R-rank) and write-to-rank (W-rank)
// operation time, inside the guest driver + Firecracker, for vPIM-rust vs
// vPIM(-C). 60 DPUs, 16 vCPUs, 8 MB file. Paper: W-rank dominates and is
// the step the C rewrite shrinks; CI and R-rank are similar across both.
// Here CI is identical in time and count; R-rank has the same count, and
// its time differs by well under 1% because a read's bank copy also runs
// at the data path's gather rate. Each claim is asserted with claim(); the
// bench exits 1 when one fails.
#include <benchmark/benchmark.h>

#include <fstream>
#include <map>

#include "bench/bench_util.h"
#include "common/obs/chrome_trace.h"
#include "common/obs/trace.h"

namespace vpim::bench {
namespace {

std::map<std::string, core::DeviceStats> g_stats;
std::vector<BenchPoint> g_points;

void run_system(benchmark::State& state, const std::string& label,
                const core::VpimConfig& config) {
  prim::ChecksumParams prm;
  prm.nr_dpus = 60;
  prm.file_bytes = static_cast<std::uint64_t>(
      static_cast<double>(8 * kMiB) * env_scale());
  for (auto _ : state) {
    WallTimer wall;
    VmRig rig(config, 1);
    obs::Tracer tracer;
    rig.host.attach_tracer(&tracer);
    prim::run_checksum(rig.platform, prm);
    const double wall_ms = wall.elapsed_ms();
    const core::DeviceStats& stats = rig.vm.device(0).stats;
    g_stats[label] = stats;

    // The figure is readable straight off the span stream: root-span
    // category totals must equal the DeviceStats breakdown to the ns.
    struct Check {
      obs::Category cat;
      RankOp op;
    };
    bool mismatch = false;
    for (const Check c : {Check{obs::Category::kCi, RankOp::kCi},
                          Check{obs::Category::kRead, RankOp::kReadFromRank},
                          Check{obs::Category::kWrite, RankOp::kWriteToRank}}) {
      const SimNs spans = tracer.total_for(c.cat);
      const SimNs ops = stats.ops.time(c.op);
      if (spans != ops) {
        mismatch = true;
        std::fprintf(
            stderr,
            "fig12/%s: %s spans %llu ns != stats %llu ns (delta %+lld ns)\n",
            label.c_str(),
            obs::kCategoryNames[static_cast<int>(c.cat)].data(),
            static_cast<unsigned long long>(spans),
            static_cast<unsigned long long>(ops),
            static_cast<long long>(spans) - static_cast<long long>(ops));
      }
    }
    if (mismatch) {
      std::fprintf(stderr,
                   "fig12/%s: span stream disagrees with DeviceStats; see "
                   "per-category deltas above\n",
                   label.c_str());
      std::exit(1);
    }
    {
      const std::string path =
          bench_out_path("BENCH_fig12_" + label + ".trace.json");
      std::ofstream out(path);
      obs::export_chrome_trace(tracer, out);
      std::printf("chrome trace: %zu spans -> %s\n", tracer.spans().size(),
                  path.c_str());
    }
    const SimNs total = stats.ops.time(RankOp::kCi) +
                        stats.ops.time(RankOp::kReadFromRank) +
                        stats.ops.time(RankOp::kWriteToRank);
    state.SetIterationTime(ns_to_s(total));
    state.counters["CI_ms"] = ns_to_ms(stats.ops.time(RankOp::kCi));
    state.counters["Rrank_ms"] =
        ns_to_ms(stats.ops.time(RankOp::kReadFromRank));
    state.counters["Wrank_ms"] =
        ns_to_ms(stats.ops.time(RankOp::kWriteToRank));
    state.counters["wall_ms"] = wall_ms;
    g_points.push_back({"fig12/" + label, total, wall_ms});
  }
}

void print_summary() {
  print_header("Fig 12 - driver-centric op breakdown (checksum, 8 MB)",
               "W-rank dominates and shrinks with the C data path; CI and "
               "R-rank stay roughly constant across implementations");
  std::printf("%-10s | %12s %5s | %12s %5s | %12s %5s\n", "system",
              "CI", "#", "R-rank", "#", "W-rank", "#");
  for (const auto& [label, stats] : g_stats) {
    std::printf(
        "%-10s | %10.2fms %5lu | %10.2fms %5lu | %10.2fms %5lu\n",
        label.c_str(), ns_to_ms(stats.ops.time(RankOp::kCi)),
        static_cast<unsigned long>(stats.ops.count(RankOp::kCi)),
        ns_to_ms(stats.ops.time(RankOp::kReadFromRank)),
        static_cast<unsigned long>(stats.ops.count(RankOp::kReadFromRank)),
        ns_to_ms(stats.ops.time(RankOp::kWriteToRank)),
        static_cast<unsigned long>(
            stats.ops.count(RankOp::kWriteToRank)));
  }
}

std::string ms(SimNs t) { return std::to_string(ns_to_ms(t)) + " ms"; }

bool check_claims() {
  const auto rust = g_stats.find("vPIM-rust");
  const auto c = g_stats.find("vPIM-C");
  if (rust == g_stats.end() || c == g_stats.end()) {
    return claim("both_systems_ran", false, "vPIM-rust and vPIM-C needed");
  }
  const OpBreakdown& r = rust->second.ops;
  const OpBreakdown& cc = c->second.ops;
  const auto versus = [&](RankOp op) {
    return ms(r.time(op)) + " x" + std::to_string(r.count(op)) + " vs " +
           ms(cc.time(op)) + " x" + std::to_string(cc.count(op));
  };
  bool ok = true;
  ok &= claim("CI_identical_in_rust_and_C",
              r.time(RankOp::kCi) == cc.time(RankOp::kCi) &&
                  r.count(RankOp::kCi) == cc.count(RankOp::kCi),
              versus(RankOp::kCi));
  const double rrank = ratio(r.time(RankOp::kReadFromRank),
                             cc.time(RankOp::kReadFromRank));
  ok &= claim("R-rank_similar_in_rust_and_C",
              r.count(RankOp::kReadFromRank) ==
                      cc.count(RankOp::kReadFromRank) &&
                  rrank > 0.99 && rrank < 1.01,
              versus(RankOp::kReadFromRank));
  ok &= claim("W-rank_shrinks_with_C",
              r.time(RankOp::kWriteToRank) > cc.time(RankOp::kWriteToRank),
              ms(r.time(RankOp::kWriteToRank)) + " -> " +
                  ms(cc.time(RankOp::kWriteToRank)));
  for (const auto& [label, stats] : g_stats) {
    const OpBreakdown& o = stats.ops;
    const SimNs w = o.time(RankOp::kWriteToRank);
    ok &= claim("W-rank_largest_op_class_" + label,
                w > o.time(RankOp::kCi) && w > o.time(RankOp::kReadFromRank),
                "W-rank " + ms(w) + ", CI " + ms(o.time(RankOp::kCi)) +
                    ", R-rank " + ms(o.time(RankOp::kReadFromRank)));
  }
  return ok;
}

}  // namespace
}  // namespace vpim::bench

int main(int argc, char** argv) {
  using namespace vpim::bench;
  benchmark::Initialize(&argc, argv);
  benchmark::RegisterBenchmark("fig12/vPIM-rust",
                               [](benchmark::State& state) {
                                 run_system(state, "vPIM-rust",
                                            vpim::core::VpimConfig::rust());
                               })
      ->UseManualTime()
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("fig12/vPIM-C",
                               [](benchmark::State& state) {
                                 run_system(state, "vPIM-C",
                                            vpim::core::VpimConfig::c_only());
                               })
      ->UseManualTime()
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
  benchmark::RunSpecifiedBenchmarks();
  print_summary();
  write_bench_json("fig12", g_points);
  const bool ok = check_claims();
  benchmark::Shutdown();
  return ok ? 0 : 1;
}
