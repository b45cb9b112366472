// Fig 16: per-rank virtio request execution time for one write-to-rank
// operation across 8 ranks. Sequential handling (stock Firecracker event
// loop) makes each successive rank's request wait behind the previous
// ones; parallel handling gives near-uniform times.
#include <algorithm>
#include <map>
#include <vector>

#include "bench/bench_util.h"

namespace vpim::bench {
namespace {

constexpr std::uint32_t kRanks = 8;
std::map<bool, std::vector<SimNs>> g_timelines;

std::vector<SimNs> run_timeline(bool parallel) {
  VmRig rig(parallel ? core::VpimConfig::full()
                     : core::VpimConfig::sequential(),
            kRanks);
  const std::uint64_t bytes = static_cast<std::uint64_t>(
      static_cast<double>(60 * kMiB) * env_scale());
  auto payload = rig.vm.vmm().memory().alloc(bytes);
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    VPIM_CHECK(rig.vm.device(r).frontend.open(), "bind failed");
  }
  // One write-to-rank per rank, submitted concurrently by the guest.
  std::vector<std::function<void()>> branches;
  branches.reserve(kRanks);
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    branches.push_back([&rig, &payload, bytes, r] {
      driver::TransferMatrix m;
      for (std::uint32_t d = 0; d < 60; ++d) {
        m.entries.push_back({d, 0, payload.data(), bytes / 60});
      }
      rig.vm.device(r).frontend.write_to_rank(m);
    });
  }
  return rig.host.clock.run_parallel(branches);
}

void run_bench(BenchPoint& p, bool parallel) {
  std::vector<SimNs>& durations = g_timelines[parallel];
  durations = run_timeline(parallel);
  p.simulated_ns = *std::max_element(durations.begin(), durations.end());
}

void print_summary() {
  print_header("Fig 16 - virtio request time per rank (one write op)",
               "sequential: each rank's request queues behind the previous "
               "(rising staircase); parallel: near-uniform times");
  std::printf("%8s | %14s | %14s\n", "rank id", "vPIM-Seq", "vPIM (par)");
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    std::printf("%8u | %12.1fms | %12.1fms\n", r,
                ns_to_ms(g_timelines[false][r]),
                ns_to_ms(g_timelines[true][r]));
  }
}

}  // namespace
}  // namespace vpim::bench

int main() {
  using namespace vpim::bench;
  Figure fig("fig16");
  fig.point("fig16/vPIM-Seq", [](BenchPoint& p) { run_bench(p, false); });
  fig.point("fig16/vPIM-parallel", [](BenchPoint& p) { run_bench(p, true); });
  print_summary();
  return fig.finish();
}
