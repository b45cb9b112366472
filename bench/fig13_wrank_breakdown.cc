// Fig 13: write-to-rank step breakdown (page management, serialization,
// virtio interrupt, deserialization, data transfer) for vPIM-rust vs
// vPIM-C on the checksum program (60 DPUs, 8 MB). Paper: T-data dominates
// (98.3% rust, 69.3% C) and is what the C rewrite shrinks; the other
// steps stay roughly constant. The C rewrite changes only the data
// movement, so here Page/Ser/Int/Deser are identical across both. Each
// claim is asserted with claim(); the bench exits 1 when one fails.
#include <benchmark/benchmark.h>

#include <map>

#include "bench/bench_util.h"

namespace vpim::bench {
namespace {

std::map<std::string, StepBreakdown> g_steps;
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
    prim::run_checksum(rig.platform, prm);
    const double wall_ms = wall.elapsed_ms();
    const StepBreakdown& steps = rig.vm.device(0).stats.wsteps;
    g_steps[label] = steps;
    state.SetIterationTime(ns_to_s(steps.total()));
    for (std::size_t i = 0; i < kWrankStepNames.size(); ++i) {
      state.counters[std::string(kWrankStepNames[i]) + "_ms"] =
          ns_to_ms(steps.step_time[i]);
    }
    state.counters["wall_ms"] = wall_ms;
    g_points.push_back({"fig13/" + label, steps.total(), wall_ms});
  }
}

void print_summary() {
  print_header("Fig 13 - write-to-rank step breakdown (checksum, 8 MB)",
               "T-data is 98.3% of W-rank time for rust, 69.3% for C; "
               "Page/Ser/Int/Deser roughly constant across data paths");
  std::printf("%-10s |", "system");
  for (auto name : kWrankStepNames) std::printf(" %9.9s |", name.data());
  std::printf(" %9s | T-data%%\n", "total");
  for (const auto& [label, steps] : g_steps) {
    std::printf("%-10s |", label.c_str());
    for (std::size_t i = 0; i < kWrankStepNames.size(); ++i) {
      std::printf(" %7.2fms |", ns_to_ms(steps.step_time[i]));
    }
    std::printf(" %7.2fms | %5.1f%%\n", ns_to_ms(steps.total()),
                100.0 * ratio(steps.time(WrankStep::kTransferData),
                              steps.total()));
  }
}

double tdata_share(const StepBreakdown& steps) {
  return ratio(steps.time(WrankStep::kTransferData), steps.total());
}

bool check_claims() {
  const auto rust = g_steps.find("vPIM-rust");
  const auto c = g_steps.find("vPIM-C");
  if (rust == g_steps.end() || c == g_steps.end()) {
    return claim("both_systems_ran", false, "vPIM-rust and vPIM-C needed");
  }
  const StepBreakdown& r = rust->second;
  const StepBreakdown& cc = c->second;
  bool ok = true;
  for (const WrankStep step : {WrankStep::kPageMgmt, WrankStep::kSerialize,
                               WrankStep::kInterrupt,
                               WrankStep::kDeserialize}) {
    const std::string name(kWrankStepNames[static_cast<std::size_t>(step)]);
    ok &= claim(name + "_identical_in_rust_and_C",
                r.time(step) == cc.time(step),
                std::to_string(ns_to_ms(r.time(step))) + " vs " +
                    std::to_string(ns_to_ms(cc.time(step))) + " ms");
  }
  ok &= claim("T-data_share_falls_with_C",
              tdata_share(r) > tdata_share(cc),
              std::to_string(100.0 * tdata_share(r)) + "% -> " +
                  std::to_string(100.0 * tdata_share(cc)) + "%");
  for (const auto& [label, steps] : g_steps) {
    const SimNs tdata = steps.time(WrankStep::kTransferData);
    bool largest = true;
    for (std::size_t i = 0; i < steps.step_time.size(); ++i) {
      if (static_cast<WrankStep>(i) != WrankStep::kTransferData) {
        largest &= tdata > steps.step_time[i];
      }
    }
    ok &= claim("T-data_largest_step_" + label, largest,
                std::to_string(100.0 * tdata_share(steps)) + "% of W-rank");
  }
  return ok;
}

}  // namespace
}  // namespace vpim::bench

int main(int argc, char** argv) {
  using namespace vpim::bench;
  benchmark::Initialize(&argc, argv);
  benchmark::RegisterBenchmark("fig13/vPIM-rust",
                               [](benchmark::State& state) {
                                 run_system(state, "vPIM-rust",
                                            vpim::core::VpimConfig::rust());
                               })
      ->UseManualTime()
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("fig13/vPIM-C",
                               [](benchmark::State& state) {
                                 run_system(state, "vPIM-C",
                                            vpim::core::VpimConfig::c_only());
                               })
      ->UseManualTime()
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
  benchmark::RunSpecifiedBenchmarks();
  print_summary();
  write_bench_json("fig13", g_points);
  const bool ok = check_claims();
  benchmark::Shutdown();
  return ok ? 0 : 1;
}
