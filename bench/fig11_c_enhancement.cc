// Fig 11: checksum under vPIM-rust (naive data path) vs vPIM-C (wide
// path) vs native — (a) varying #DPUs at 60 MB/DPU, (b) varying file size
// at 60 DPUs. Paper: vPIM-rust ~5.2x native on average, vPIM-C ~1.4x.
#include <map>

#include "bench/bench_util.h"
#include "common/stats.h"

namespace vpim::bench {
namespace {

struct Cell {
  SimNs native = 0;
  SimNs rust = 0;
  SimNs c = 0;
};
std::map<std::string, Cell> g_cells;

void run_cell(BenchPoint& p, const std::string& key, std::uint32_t dpus,
              std::uint64_t mb, int system) {
  prim::ChecksumParams prm;
  prm.nr_dpus = dpus;
  prm.file_bytes = static_cast<std::uint64_t>(
      static_cast<double>(mb * kMiB) * env_scale());
  prim::ChecksumResult res;
  if (system == 0) {
    NativeRig rig;
    res = prim::run_checksum(rig.platform, prm);
  } else {
    // The rust/C comparison predates prefetch/batching (Table 2).
    VmRig rig(system == 1 ? core::VpimConfig::rust()
                          : core::VpimConfig::c_only(),
              (dpus + 59) / 60);
    res = prim::run_checksum(rig.platform, prm);
  }
  p.simulated_ns = res.total;
  p.add("correct", res.correct ? 1ULL : 0ULL);
  Cell& cell = g_cells[key];
  if (system == 0) cell.native = res.total;
  if (system == 1) cell.rust = res.total;
  if (system == 2) cell.c = res.total;
}

void add(Figure& fig, const std::string& key, std::uint32_t dpus,
         std::uint64_t mb) {
  static const char* kSystems[] = {"native", "vPIM-rust", "vPIM-C"};
  for (int system = 0; system < 3; ++system) {
    fig.point("fig11/" + key + "/" + kSystems[system],
              [&](BenchPoint& p) { run_cell(p, key, dpus, mb, system); });
  }
}

void print_summary() {
  print_header("Fig 11 - C enhancement (checksum)",
               "vPIM-rust ~5.2x native on average; vPIM-C ~1.4x; the C "
               "rewrite improves the data path by up to 343%");
  std::printf("%-14s | %10s | %10s | %10s | %9s | %9s\n", "config",
              "native", "vPIM-rust", "vPIM-C", "rust ovhd", "C ovhd");
  std::vector<double> rust_ov, c_ov;
  for (const auto& [key, cell] : g_cells) {
    std::printf("%-14s | %8.1fms | %8.1fms | %8.1fms | %8.2fx | %8.2fx\n",
                key.c_str(), ns_to_ms(cell.native), ns_to_ms(cell.rust),
                ns_to_ms(cell.c), ratio(cell.rust, cell.native),
                ratio(cell.c, cell.native));
    rust_ov.push_back(ratio(cell.rust, cell.native));
    c_ov.push_back(ratio(cell.c, cell.native));
  }
  std::printf("\naverage overhead: vPIM-rust %.2fx (paper ~5.2x), vPIM-C "
              "%.2fx (paper ~1.4x)\n",
              geomean(rust_ov), geomean(c_ov));
}

}  // namespace
}  // namespace vpim::bench

int main() {
  using namespace vpim::bench;
  Figure fig("fig11");
  for (std::uint32_t dpus : {1u, 16u, 60u}) {
    add(fig,
        "a_dpus:" + std::string(dpus < 10 ? "0" : "") + std::to_string(dpus),
        dpus, 60);
  }
  for (std::uint64_t mb : {8u, 40u, 60u}) {
    add(fig, "b_mb:" + std::string(mb < 10 ? "0" : "") + std::to_string(mb),
        60, mb);
  }
  print_summary();
  return fig.finish();
}
