// Fig 9: checksum sensitivity analysis — (a) #vCPUs, (b) #DPUs, (c) data
// size per DPU — native vs vPIM.
#include <map>

#include "bench/bench_util.h"

namespace vpim::bench {
namespace {

struct Cell {
  SimNs native = 0;
  SimNs vpim = 0;
  prim::ChecksumResult last;
};
std::map<std::string, Cell> g_cells;

prim::ChecksumParams params_for(std::uint32_t dpus, std::uint64_t mb) {
  prim::ChecksumParams prm;
  prm.nr_dpus = dpus;
  prm.file_bytes =
      static_cast<std::uint64_t>(static_cast<double>(mb * kMiB) *
                                 env_scale());
  return prm;
}

void run_cell(BenchPoint& p, const std::string& key, std::uint32_t vcpus,
              std::uint32_t dpus, std::uint64_t mb, bool virtualized) {
  const prim::ChecksumParams prm = params_for(dpus, mb);
  prim::ChecksumResult res;
  if (virtualized) {
    VmRig rig(core::VpimConfig::full(), (dpus + 59) / 60, vcpus);
    res = prim::run_checksum(rig.platform, prm);
  } else {
    NativeRig rig;
    res = prim::run_checksum(rig.platform, prm);
  }
  p.simulated_ns = res.total;
  p.add("correct", res.correct ? 1ULL : 0ULL);
  p.add("ci_ops", res.ci_ops);
  Cell& cell = g_cells[key];
  (virtualized ? cell.vpim : cell.native) = res.total;
  cell.last = res;
}

void add(Figure& fig, const std::string& key, std::uint32_t vcpus,
         std::uint32_t dpus, std::uint64_t mb) {
  for (const bool virtualized : {false, true}) {
    fig.point("fig09/" + key + (virtualized ? "/vPIM" : "/native"),
              [&](BenchPoint& p) {
                run_cell(p, key, vcpus, dpus, mb, virtualized);
              });
  }
}

void print_summary() {
  print_header("Fig 9 - checksum sensitivity (vCPUs / DPUs / data size)",
               "(a) flat in #vCPUs; (b) grows with #DPUs; (c) overhead "
               "falls with size, 2.33x @8MB -> 1.29x @60MB");
  std::printf("%-22s | %10s | %10s | %8s\n", "config", "native", "vPIM",
              "overhead");
  for (const auto& [key, cell] : g_cells) {
    std::printf("%-22s | %8.1fms | %8.1fms | %7.2fx\n", key.c_str(),
                ns_to_ms(cell.native), ns_to_ms(cell.vpim),
                ratio(cell.vpim, cell.native));
  }
  const prim::ChecksumResult& last = g_cells.rbegin()->second.last;
  std::printf("\npaper op-count context (§5.3.1): 1 write-to-rank, 60 "
              "read-from-rank, 8k-28k CI ops per run; measured last cell: "
              "%lu writes, %lu reads, %lu CI ops\n",
              static_cast<unsigned long>(last.write_ops),
              static_cast<unsigned long>(last.read_ops),
              static_cast<unsigned long>(last.ci_ops));
}

}  // namespace
}  // namespace vpim::bench

int main() {
  using namespace vpim::bench;
  Figure fig("fig09");
  // (a) vary #vCPUs: 60 DPUs, 60 MB per DPU.
  for (std::uint32_t vcpus : {2u, 4u, 8u, 16u}) {
    add(fig, "a_vcpus:" + std::to_string(vcpus), vcpus, 60, 60);
  }
  // (b) vary #DPUs: 16 vCPUs, 60 MB per DPU.
  for (std::uint32_t dpus : {1u, 8u, 16u, 60u}) {
    add(fig,
        "b_dpus:" + std::string(dpus < 10 ? "0" : "") + std::to_string(dpus),
        16, dpus, 60);
  }
  // (c) vary data size: 60 DPUs, 16 vCPUs.
  for (std::uint64_t mb : {8u, 20u, 40u, 60u}) {
    add(fig, "c_mb:" + std::string(mb < 10 ? "0" : "") + std::to_string(mb),
        16, 60, mb);
  }
  print_summary();
  return fig.finish();
}
