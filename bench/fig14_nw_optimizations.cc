// Fig 14: NW under vPIM-C / vPIM+P / vPIM+B / vPIM+PB, with segment
// breakdown. Paper: the prefetch cache cuts read (DPU-CPU) time ~89.3%,
// request batching cuts CPU-DPU and Inter-DPU writes ~95.8%/95.3%, the
// combination improves vPIM-C by ~10.8x; unoptimized vPIM-C is ~53x
// native.
#include <map>
#include <vector>

#include "bench/bench_util.h"

namespace vpim::bench {
namespace {

struct Row {
  prim::AppResult app;
  core::DeviceStats stats;
};
std::map<int, Row> g_rows;  // ordered by config index
prim::AppResult g_native;

const std::vector<core::VpimConfig>& configs() {
  static const std::vector<core::VpimConfig> kConfigs = [] {
    std::vector<core::VpimConfig> v = {
        core::VpimConfig::c_only(), core::VpimConfig::with_prefetch(),
        core::VpimConfig::with_batching(),
        core::VpimConfig::with_prefetch_batching()};
    // ISSUE 7 rider: +PB again with a deep submission queue. Only posted
    // batch flushes ride the SQ here (the SDK path still blocks per op),
    // so the doorbell saving saturates quickly — but it must exist.
    core::VpimConfig deep = core::VpimConfig::with_prefetch_batching();
    deep.queue_depth = 8;
    deep.label = "vPIM+PB*8";
    v.push_back(deep);
    return v;
  }();
  return kConfigs;
}

double vmexits_per_message(const core::DeviceStats& stats) {
  const std::uint64_t messages = stats.doorbells + stats.coalesced_notifies;
  return messages == 0 ? 0.0
                       : static_cast<double>(stats.doorbells) /
                             static_cast<double>(messages);
}

prim::AppParams nw_params() {
  prim::AppParams prm;
  prm.nr_dpus = 60;  // strong-scaling single-rank configuration
  prm.scale = env_scale();
  // The paper's Fig 14 NW variant moves boundaries element-wise (>15000
  // operations of ~109 bytes per DPU); run with finer-grained transfers
  // than the Fig 8 configuration.
  prm.xfer_grain = 0.25;
  return prm;
}

void run_native(BenchPoint& p) {
  NativeRig rig;
  g_native = prim::make_app("NW")->run(rig.platform, nw_params());
  p.simulated_ns = g_native.total();
  p.add("correct", g_native.correct ? 1ULL : 0ULL);
}

void run_config(BenchPoint& p, int index) {
  VmRig rig(configs()[index], 1);
  Row row;
  row.app = prim::make_app("NW")->run(rig.platform, nw_params());
  row.stats = rig.vm.device(0).stats;
  p.simulated_ns = row.app.total();
  p.add("correct", row.app.correct ? 1ULL : 0ULL);
  p.add("messages", row.stats.doorbells);
  p.add("vmexits_per_op", vmexits_per_message(row.stats), 4);
  g_rows[index] = row;
}

void print_summary() {
  print_header(
      "Fig 14 - NW with prefetch/batching ablation (single rank)",
      "vPIM-C ~53x native; +P cuts read time ~89.3% (messages 5000->125); "
      "+B cuts CPU-DPU/Inter-DPU writes ~95.8%/95.3% (messages "
      "10000->402); +PB improves vPIM-C by ~10.8x");
  std::printf("%-9s | %10s %10s %10s %10s | %10s | %8s | %9s | %8s\n",
              "config", "CPU-DPU", "DPU", "Inter-DPU", "DPU-CPU", "total",
              "vs nat", "messages", "speedup");
  std::printf("%-9s | %9.1fms %9.1fms %9.1fms %9.1fms | %9.1fms |\n",
              "native", ns_to_ms(g_native.breakdown[Segment::kCpuDpu]),
              ns_to_ms(g_native.breakdown[Segment::kDpu]),
              ns_to_ms(g_native.breakdown[Segment::kInterDpu]),
              ns_to_ms(g_native.breakdown[Segment::kDpuCpu]),
              ns_to_ms(g_native.total()));
  const SimNs base = g_rows.at(0).app.total();
  for (const auto& [index, row] : g_rows) {
    std::printf(
        "%-9s | %9.1fms %9.1fms %9.1fms %9.1fms | %9.1fms | %7.1fx | "
        "%9lu | %7.2fx\n",
        configs()[index].label.c_str(),
        ns_to_ms(row.app.breakdown[Segment::kCpuDpu]),
        ns_to_ms(row.app.breakdown[Segment::kDpu]),
        ns_to_ms(row.app.breakdown[Segment::kInterDpu]),
        ns_to_ms(row.app.breakdown[Segment::kDpuCpu]),
        ns_to_ms(row.app.total()), ratio(row.app.total(), g_native.total()),
        static_cast<unsigned long>(row.stats.doorbells),
        ratio(base, row.app.total()));
  }
}

// The deep queue must strictly reduce modeled VMEXITs per message
// relative to the depth-1 +PB row.
void check_claims(Figure& fig) {
  const double d1 = vmexits_per_message(g_rows.at(3).stats);
  const double d8 = vmexits_per_message(g_rows.at(4).stats);
  std::printf("vmexits/message: +PB %.4f -> +PB*8 %.4f\n", d1, d8);
  fig.claim("queue_depth_8_cuts_vmexits_per_message", d8 < d1,
            std::to_string(d1) + " -> " + std::to_string(d8));
}

}  // namespace
}  // namespace vpim::bench

int main() {
  using namespace vpim::bench;
  Figure fig("fig14");
  fig.point("fig14/native", run_native);
  for (int i = 0; i < static_cast<int>(configs().size()); ++i) {
    fig.point("fig14/" + configs()[i].label,
              [i](BenchPoint& p) { run_config(p, i); });
  }
  print_summary();
  check_claims(fig);
  return fig.finish();
}
