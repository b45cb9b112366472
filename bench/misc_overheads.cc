// Miscellaneous overheads the paper reports outside its figures:
//  - §3.2: a vUPMEM device adds up to 2 ms to VM boot time;
//  - §4.1: frontend memory overhead <= 1.37 MB per DPU;
//  - §4.2: manager allocation round trip ~36 ms; rank reset ~597 ms.
// Each anchor is asserted with claim(); the bench exits 1 when one fails.
#include <cmath>

#include "bench/bench_util.h"

namespace vpim::bench {
namespace {

SimNs g_boot_plain = 0, g_boot_device = 0;
double g_frontend_mb_per_dpu = 0;
SimNs g_alloc = 0, g_reset = 0;

void bench_boot(BenchPoint& p) {
  core::Host host(upmem::MachineConfig{}, bench_cost());
  core::VpimVm plain(host, {.name = "plain"}, 0);
  core::VpimVm with(host, {.name = "with"}, 1);
  g_boot_plain = plain.boot_duration();
  g_boot_device = with.boot_duration();
  p.simulated_ns = g_boot_device;
  p.add("extra_ns", g_boot_device - g_boot_plain);
}

// No simulated time: the point is the frontend's guest memory footprint.
void bench_frontend_memory(BenchPoint& p) {
  VmRig rig(core::VpimConfig::full(), 1);
  VPIM_CHECK(rig.vm.device(0).frontend.open(), "bind failed");
  g_frontend_mb_per_dpu =
      static_cast<double>(rig.vm.device(0).frontend.memory_overhead_bytes()) /
      64.0 / (1024.0 * 1024.0);
  p.add("MB_per_DPU", g_frontend_mb_per_dpu, 4);
}

void bench_manager_alloc(BenchPoint& p) {
  core::Host host(upmem::MachineConfig{}, bench_cost());
  const SimNs t0 = host.clock.now();
  auto mapping = host.manager.request_rank("bench-vm");
  VPIM_CHECK(mapping.has_value(), "allocation failed");
  g_alloc = host.clock.now() - t0;
  p.simulated_ns = g_alloc;
}

void bench_rank_reset(BenchPoint& p) {
  core::Host host(upmem::MachineConfig{}, bench_cost());
  {
    auto mapping = host.manager.request_rank("bench-vm");
    VPIM_CHECK(mapping.has_value(), "allocation failed");
    host.manager.observe();
  }
  host.manager.observe(/*do_resets=*/false);
  const SimNs t0 = host.clock.now();
  host.manager.observe(/*do_resets=*/true);  // performs the erase
  g_reset = host.clock.now() - t0;
  p.simulated_ns = g_reset;
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

void check_claims(Figure& fig) {
  fig.claim("vupmem_boot_le_2ms", g_boot_device - g_boot_plain <= 2 * kMs,
            ms_vs(g_boot_device - g_boot_plain, "<= 2 ms"));
  fig.claim("frontend_le_1.37MB_per_dpu", g_frontend_mb_per_dpu <= 1.37,
            std::to_string(g_frontend_mb_per_dpu) +
                " MB/DPU vs paper <= 1.37 MB/DPU");
  fig.claim("manager_alloc_36ms_pm10pct", near_paper(g_alloc, 36.0),
            ms_vs(g_alloc, "~36 ms"));
  fig.claim("rank_reset_597ms_pm10pct", near_paper(g_reset, 597.0),
            ms_vs(g_reset, "~597 ms"));
}

}  // namespace
}  // namespace vpim::bench

int main() {
  using namespace vpim::bench;
  Figure fig("misc_overheads");
  fig.point("misc/vm_boot", bench_boot);
  fig.point("misc/frontend_memory", bench_frontend_memory);
  fig.point("misc/manager_alloc", bench_manager_alloc);
  fig.point("misc/rank_reset", bench_rank_reset);
  print_summary();
  check_claims(fig);
  return fig.finish();
}
