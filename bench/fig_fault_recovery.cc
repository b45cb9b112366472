// Fault-recovery overhead (ISSUE 3): the checksum program runs clean, then
// under a seeded FaultPlan with (a) transient DPU/ECC faults that the
// backend retries in place and (b) a permanent rank death that forces a
// transparent wrank migration (full-rank MRAM rescue at rank_rescue_gbps).
// Reported numbers are simulated ns; the "overhead" points are the delta
// each fault scenario adds over the clean run of the same workload. Each
// overhead is asserted exactly with claim(); the bench exits 1 when one
// fails.
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

void run_scenario(BenchPoint& p, const std::string& label,
                  const FaultPlanConfig* fault_cfg) {
  prim::ChecksumParams prm;
  prm.nr_dpus = 60;
  prm.file_bytes = static_cast<std::uint64_t>(
      static_cast<double>(8 * kMiB) * env_scale());
  VmRig rig(vpim::core::VpimConfig::full(), 1);
  if (fault_cfg != nullptr) {
    // nr_ranks=1 aims every event at rank 0, the rank the single device
    // binds, so the schedule deterministically fires inside the run.
    rig.host.install_fault_plan(
        FaultPlan::generate(*fault_cfg, /*nr_ranks=*/1));
  }
  prim::run_checksum(rig.platform, prm);
  p.stop_wall();
  ScenarioResult res;
  res.total = rig.host.clock.now();
  res.retries = rig.vm.device(0).stats.fault_retries;
  res.migrations = rig.vm.device(0).stats.fault_migrations;
  res.fired = rig.host.fault_plan ? rig.host.fault_plan->fired().size() : 0;
  g_results[label] = res;
  p.simulated_ns = res.total;
}

void print_summary(Figure& fig) {
  print_header(
      "Fault recovery - checksum (60 DPUs, 8 MB) under injected faults",
      "transient faults cost bounded retry backoff; a rank death costs one "
      "full-rank MRAM rescue over the rank_rescue_gbps channel");
  const SimNs clean = g_results.at("clean").total;
  std::printf("%-12s | %12s | %12s | %7s | %6s | %5s\n", "scenario",
              "total (ms)", "overhead(ms)", "retries", "migr", "fired");
  for (const auto& [label, res] : g_results) {
    const SimNs over = res.total > clean ? res.total - clean : 0;
    std::printf("%-12s | %12.3f | %12.3f | %7llu | %6llu | %5zu\n",
                label.c_str(), ns_to_ms(res.total), ns_to_ms(over),
                static_cast<unsigned long long>(res.retries),
                static_cast<unsigned long long>(res.migrations), res.fired);
    if (label != "clean") {
      fig.derived("fault_recovery/" + label + "/overhead", over);
    }
  }
}

// Exact at any VPIM_BENCH_SCALE: a rank death costs one manager grant plus
// one two-leg state move (every bank of the 60-DPU rank out and in at
// rank_rescue_gbps); the transient faults cost one backoff each.
void check_claims(Figure& fig) {
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
  fig.claim("rank_death_one_migration", death.migrations == 1,
            std::to_string(death.migrations) + " migrations");
  fig.claim("rank_death_overhead_is_two_leg_rescue",
            overhead("rank_death") == rescue,
            std::to_string(overhead("rank_death")) + " ns vs " +
                std::to_string(rescue) + " ns");
  fig.claim("transient_two_retries_no_migration",
            transient.retries == 2 && transient.migrations == 0,
            std::to_string(transient.retries) + " retries, " +
                std::to_string(transient.migrations) + " migrations");
  fig.claim("transient_overhead_is_two_backoffs",
            overhead("transient") == 2 * cost.fault_retry_backoff_ns,
            std::to_string(overhead("transient")) + " ns vs " +
                std::to_string(2 * cost.fault_retry_backoff_ns) + " ns");
}

}  // namespace
}  // namespace vpim::bench

int main() {
  using namespace vpim::bench;
  Figure fig("fault_recovery");
  fig.point("fault_recovery/clean",
            [](BenchPoint& p) { run_scenario(p, "clean", nullptr); });
  fig.point("fault_recovery/transient", [](BenchPoint& p) {
    // One transient launch fault + one MRAM ECC event, both at the first
    // operation of their channel: each retried once in place.
    vpim::FaultPlanConfig cfg;
    cfg.seed = 7;
    cfg.transient_dpu_faults = 1;
    cfg.mram_ecc_faults = 1;
    cfg.max_op = 1;
    run_scenario(p, "transient", &cfg);
  });
  fig.point("fault_recovery/rank_death", [](BenchPoint& p) {
    // The bound rank dies on its first device operation; the backend
    // migrates the wrank onto a healthy rank, rescuing MRAM.
    vpim::FaultPlanConfig cfg;
    cfg.seed = 11;
    cfg.rank_deaths = 1;
    cfg.max_op = 1;
    run_scenario(p, "rank_death", &cfg);
  });
  print_summary(fig);
  check_claims(fig);
  return fig.finish();
}
