// Fault-recovery overhead (ISSUE 3): the checksum program runs clean, then
// under a seeded FaultPlan with (a) transient DPU/ECC faults that the
// backend retries in place and (b) a permanent rank death that forces a
// transparent wrank migration (full-rank MRAM rescue at rank_rescue_gbps).
// Reported numbers are simulated ns; the "overhead" points are the delta
// each fault scenario adds over the clean run of the same workload. Each
// overhead is asserted exactly with claim(); the bench exits 1 when one
// fails.
#include <benchmark/benchmark.h>

#include <map>

#include "bench/bench_util.h"
#include "common/fault.h"

namespace vpim::bench {
namespace {

struct ScenarioResult {
  SimNs total = 0;
  std::uint64_t retries = 0;
  std::uint64_t migrations = 0;
  std::size_t fired = 0;
};

std::map<std::string, ScenarioResult> g_results;
std::vector<BenchPoint> g_points;

void run_scenario(benchmark::State& state, const std::string& label,
                  const FaultPlanConfig* fault_cfg) {
  prim::ChecksumParams prm;
  prm.nr_dpus = 60;
  prm.file_bytes = static_cast<std::uint64_t>(
      static_cast<double>(8 * kMiB) * env_scale());
  for (auto _ : state) {
    WallTimer wall;
    VmRig rig(vpim::core::VpimConfig::full(), 1);
    if (fault_cfg != nullptr) {
      // nr_ranks=1 aims every event at rank 0, the rank the single device
      // binds, so the schedule deterministically fires inside the run.
      rig.host.install_fault_plan(
          FaultPlan::generate(*fault_cfg, /*nr_ranks=*/1));
    }
    prim::run_checksum(rig.platform, prm);
    const double wall_ms = wall.elapsed_ms();
    ScenarioResult res;
    res.total = rig.host.clock.now();
    res.retries = rig.vm.device(0).stats.fault_retries;
    res.migrations = rig.vm.device(0).stats.fault_migrations;
    res.fired =
        rig.host.fault_plan ? rig.host.fault_plan->fired().size() : 0;
    g_results[label] = res;
    state.SetIterationTime(ns_to_s(res.total));
    state.counters["retries"] = static_cast<double>(res.retries);
    state.counters["migrations"] = static_cast<double>(res.migrations);
    state.counters["faults_fired"] = static_cast<double>(res.fired);
    state.counters["wall_ms"] = wall_ms;
    g_points.push_back({"fault_recovery/" + label, res.total, wall_ms});
  }
}

void print_summary() {
  print_header(
      "Fault recovery - checksum (60 DPUs, 8 MB) under injected faults",
      "transient faults cost bounded retry backoff; a rank death costs one "
      "full-rank MRAM rescue over the rank_rescue_gbps channel");
  const SimNs clean = g_results.count("clean") ? g_results["clean"].total : 0;
  std::printf("%-12s | %12s | %12s | %7s | %6s | %5s\n", "scenario",
              "total (ms)", "overhead(ms)", "retries", "migr", "fired");
  for (const auto& [label, res] : g_results) {
    const SimNs over = res.total > clean ? res.total - clean : 0;
    std::printf("%-12s | %12.3f | %12.3f | %7llu | %6llu | %5zu\n",
                label.c_str(), ns_to_ms(res.total), ns_to_ms(over),
                static_cast<unsigned long long>(res.retries),
                static_cast<unsigned long long>(res.migrations), res.fired);
    if (label != "clean") {
      g_points.push_back({"fault_recovery/" + label + "/overhead", over, 0.0});
    }
  }
}

// Exact at any VPIM_BENCH_SCALE: a rank death costs one manager grant plus
// one two-leg state move (every bank of the 60-DPU rank out and in at
// rank_rescue_gbps); the transient faults cost one backoff each.
bool check_claims() {
  const CostModel cost;
  const auto overhead = [](const std::string& label) {
    return g_results[label].total - g_results["clean"].total;
  };
  const ScenarioResult& death = g_results["rank_death"];
  const ScenarioResult& transient = g_results["transient"];
  const SimNs rescue =
      CostModel::bytes_time(2ULL * 60 * upmem::kMramSize,
                            cost.rank_rescue_gbps) +
      cost.manager_alloc_rt_ns;
  bool ok = true;
  ok &= claim("rank_death_one_migration", death.migrations == 1,
              std::to_string(death.migrations) + " migrations");
  ok &= claim("rank_death_overhead_is_two_leg_rescue",
              overhead("rank_death") == rescue,
              std::to_string(overhead("rank_death")) + " ns vs " +
                  std::to_string(rescue) + " ns");
  ok &= claim("transient_two_retries_no_migration",
              transient.retries == 2 && transient.migrations == 0,
              std::to_string(transient.retries) + " retries, " +
                  std::to_string(transient.migrations) + " migrations");
  ok &= claim("transient_overhead_is_two_backoffs",
              overhead("transient") == 2 * cost.fault_retry_backoff_ns,
              std::to_string(overhead("transient")) + " ns vs " +
                  std::to_string(2 * cost.fault_retry_backoff_ns) + " ns");
  return ok;
}

}  // namespace
}  // namespace vpim::bench

int main(int argc, char** argv) {
  using namespace vpim::bench;
  benchmark::Initialize(&argc, argv);
  benchmark::RegisterBenchmark("fault_recovery/clean",
                               [](benchmark::State& state) {
                                 run_scenario(state, "clean", nullptr);
                               })
      ->UseManualTime()
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark(
      "fault_recovery/transient",
      [](benchmark::State& state) {
        // One transient launch fault + one MRAM ECC event, both at the
        // first operation of their channel: each retried once in place.
        static vpim::FaultPlanConfig cfg = [] {
          vpim::FaultPlanConfig c;
          c.seed = 7;
          c.transient_dpu_faults = 1;
          c.mram_ecc_faults = 1;
          c.max_op = 1;
          return c;
        }();
        run_scenario(state, "transient", &cfg);
      })
      ->UseManualTime()
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark(
      "fault_recovery/rank_death",
      [](benchmark::State& state) {
        // The bound rank dies on its first device operation; the backend
        // migrates the wrank onto a healthy rank, rescuing MRAM.
        static vpim::FaultPlanConfig cfg = [] {
          vpim::FaultPlanConfig c;
          c.seed = 11;
          c.rank_deaths = 1;
          c.max_op = 1;
          return c;
        }();
        run_scenario(state, "rank_death", &cfg);
      })
      ->UseManualTime()
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
  benchmark::RunSpecifiedBenchmarks();
  print_summary();
  write_bench_json("fault_recovery", g_points);
  const bool ok = check_claims();
  benchmark::Shutdown();
  return ok ? 0 : 1;
}
