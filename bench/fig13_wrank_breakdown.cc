// Fig 13: write-to-rank step breakdown (page management, serialization,
// virtio interrupt, deserialization, data transfer) for vPIM-rust vs
// vPIM-C on the checksum program (60 DPUs, 8 MB). Paper: T-data dominates
// (98.3% rust, 69.3% C) and is what the C rewrite shrinks; the other
// steps stay roughly constant. The C rewrite changes only the data
// movement, so here Page/Ser/Int/Deser are identical across both. Each
// claim is asserted with claim(); the bench exits 1 when one fails.
#include <map>

#include "bench/bench_util.h"

namespace vpim::bench {
namespace {

std::map<std::string, StepBreakdown> g_steps;

void run_system(BenchPoint& p, const std::string& label,
                const core::VpimConfig& config) {
  prim::ChecksumParams prm;
  prm.nr_dpus = 60;
  prm.file_bytes = static_cast<std::uint64_t>(
      static_cast<double>(8 * kMiB) * env_scale());
  VmRig rig(config, 1);
  prim::run_checksum(rig.platform, prm);
  p.stop_wall();
  const StepBreakdown& steps = rig.vm.device(0).stats.wsteps;
  g_steps[label] = steps;
  p.simulated_ns = steps.total();
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

void check_claims(Figure& fig) {
  const StepBreakdown& r = g_steps.at("vPIM-rust");
  const StepBreakdown& cc = g_steps.at("vPIM-C");
  for (const WrankStep step : {WrankStep::kPageMgmt, WrankStep::kSerialize,
                               WrankStep::kInterrupt,
                               WrankStep::kDeserialize}) {
    const std::string name(kWrankStepNames[static_cast<std::size_t>(step)]);
    fig.claim(name + "_identical_in_rust_and_C",
              r.time(step) == cc.time(step),
              std::to_string(ns_to_ms(r.time(step))) + " vs " +
                  std::to_string(ns_to_ms(cc.time(step))) + " ms");
  }
  fig.claim("T-data_share_falls_with_C", tdata_share(r) > tdata_share(cc),
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
    fig.claim("T-data_largest_step_" + label, largest,
              std::to_string(100.0 * tdata_share(steps)) + "% of W-rank");
  }
}

}  // namespace
}  // namespace vpim::bench

int main() {
  using namespace vpim::bench;
  using vpim::core::VpimConfig;
  Figure fig("fig13");
  fig.point("fig13/vPIM-rust", [](BenchPoint& p) {
    run_system(p, "vPIM-rust", VpimConfig::rust());
  });
  fig.point("fig13/vPIM-C", [](BenchPoint& p) {
    run_system(p, "vPIM-C", VpimConfig::c_only());
  });
  print_summary();
  check_claims(fig);
  return fig.finish();
}
