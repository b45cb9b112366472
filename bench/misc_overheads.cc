// Miscellaneous overheads the paper reports outside its figures:
//  - §3.2: a vUPMEM device adds up to 2 ms to VM boot time;
//  - §4.1: frontend memory overhead <= 1.37 MB per DPU;
//  - §4.2: manager allocation round trip ~36 ms; rank reset ~597 ms.
// Each anchor is asserted with claim(); the bench exits 1 when one fails.
#include <benchmark/benchmark.h>

#include <cmath>

#include "bench/bench_util.h"

namespace vpim::bench {
namespace {

SimNs g_boot_plain = 0, g_boot_device = 0;
double g_frontend_mb_per_dpu = 0;
SimNs g_alloc = 0, g_reset = 0;

void bench_boot(benchmark::State& state) {
  for (auto _ : state) {
    core::Host host;
    core::VpimVm plain(host, {.name = "plain"}, 0);
    core::VpimVm with(host, {.name = "with"}, 1);
    g_boot_plain = plain.boot_duration();
    g_boot_device = with.boot_duration();
    state.SetIterationTime(ns_to_s(g_boot_device));
    state.counters["extra_ms"] = ns_to_ms(g_boot_device - g_boot_plain);
  }
}

void bench_frontend_memory(benchmark::State& state) {
  for (auto _ : state) {
    VmRig rig(core::VpimConfig::full(), 1);
    VPIM_CHECK(rig.vm.device(0).frontend.open(), "bind failed");
    const double per_dpu =
        static_cast<double>(
            rig.vm.device(0).frontend.memory_overhead_bytes()) /
        64.0 / (1024.0 * 1024.0);
    g_frontend_mb_per_dpu = per_dpu;
    state.SetIterationTime(1e-9);
    state.counters["MB_per_DPU"] = per_dpu;
  }
}

void bench_manager_alloc(benchmark::State& state) {
  for (auto _ : state) {
    core::Host host;
    const SimNs t0 = host.clock.now();
    auto mapping = host.manager.request_rank("bench-vm");
    VPIM_CHECK(mapping.has_value(), "allocation failed");
    g_alloc = host.clock.now() - t0;
    state.SetIterationTime(ns_to_s(g_alloc));
  }
}

void bench_rank_reset(benchmark::State& state) {
  for (auto _ : state) {
    core::Host host;
    {
      auto mapping = host.manager.request_rank("bench-vm");
      VPIM_CHECK(mapping.has_value(), "allocation failed");
      host.manager.observe();
    }
    host.manager.observe(/*do_resets=*/false);
    const SimNs t0 = host.clock.now();
    host.manager.observe(/*do_resets=*/true);  // performs the erase
    g_reset = host.clock.now() - t0;
    state.SetIterationTime(ns_to_s(g_reset));
  }
}

void print_summary() {
  print_header("Misc overheads (boot / frontend memory / manager)",
               "boot +2 ms per device; frontend <= 1.37 MB per DPU; "
               "manager allocation ~36 ms; rank reset ~597 ms");
  std::printf("vUPMEM boot overhead : %8.2f ms   (paper: up to 2 ms)\n",
              ns_to_ms(g_boot_device - g_boot_plain));
  std::printf("frontend memory      : %8.2f MB/DPU (paper bound: 1.37 "
              "MB/DPU)\n",
              g_frontend_mb_per_dpu);
  std::printf("manager allocation   : %8.2f ms   (paper: ~36 ms)\n",
              ns_to_ms(g_alloc));
  std::printf("rank reset           : %8.2f ms   (paper: ~597 ms)\n",
              ns_to_ms(g_reset));
}

// "within 10% of the paper's value" for a modeled duration.
bool near_paper(SimNs got, double paper_ms) {
  return std::abs(ns_to_ms(got) - paper_ms) <= 0.10 * paper_ms;
}

std::string ms_vs(SimNs got, const char* paper) {
  return std::to_string(ns_to_ms(got)) + " ms vs paper " + paper;
}

bool check_claims() {
  bool ok = true;
  ok &= claim("vupmem_boot_le_2ms", g_boot_device - g_boot_plain <= 2 * kMs,
              ms_vs(g_boot_device - g_boot_plain, "<= 2 ms"));
  ok &= claim("frontend_le_1.37MB_per_dpu", g_frontend_mb_per_dpu <= 1.37,
              std::to_string(g_frontend_mb_per_dpu) +
                  " MB/DPU vs paper <= 1.37 MB/DPU");
  ok &= claim("manager_alloc_36ms_pm10pct", near_paper(g_alloc, 36.0),
              ms_vs(g_alloc, "~36 ms"));
  ok &= claim("rank_reset_597ms_pm10pct", near_paper(g_reset, 597.0),
              ms_vs(g_reset, "~597 ms"));
  return ok;
}

}  // namespace
}  // namespace vpim::bench

int main(int argc, char** argv) {
  using namespace vpim::bench;
  benchmark::Initialize(&argc, argv);
  benchmark::RegisterBenchmark("misc/vm_boot", bench_boot)
      ->UseManualTime()
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("misc/frontend_memory",
                               bench_frontend_memory)
      ->UseManualTime()
      ->Iterations(1);
  benchmark::RegisterBenchmark("misc/manager_alloc", bench_manager_alloc)
      ->UseManualTime()
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("misc/rank_reset", bench_rank_reset)
      ->UseManualTime()
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
  benchmark::RunSpecifiedBenchmarks();
  print_summary();
  const bool ok = check_claims();
  benchmark::Shutdown();
  return ok ? 0 : 1;
}
