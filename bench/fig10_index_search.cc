// Fig 10: Wikipedia Index Search execution time vs #DPUs (1..128).
// Both systems slow down as DPUs grow (more transfer work); the relative
// overhead shrinks (paper: 2.1x @1 DPU -> 1.3x @128 DPUs).
#include <map>

#include "bench/bench_util.h"

namespace vpim::bench {
namespace {

struct Cell {
  SimNs native = 0;
  SimNs vpim = 0;
};
std::map<std::uint32_t, Cell> g_cells;

prim::IndexSearchParams params_for(std::uint32_t dpus) {
  prim::IndexSearchParams prm;
  prm.nr_dpus = dpus;
  const double scale = env_scale();
  prm.nr_documents = std::max<std::uint32_t>(
      32, static_cast<std::uint32_t>(4305 * scale));
  prm.avg_doc_words = std::max<std::uint32_t>(
      50, static_cast<std::uint32_t>(1900 * (scale < 1 ? 1.0 : 1.0)));
  return prm;
}

void run_cell(BenchPoint& p, std::uint32_t dpus, bool virtualized) {
  const auto prm = params_for(dpus);
  prim::IndexSearchResult res;
  if (virtualized) {
    VmRig rig(core::VpimConfig::full(), (dpus + 59) / 60);
    res = prim::run_index_search(rig.platform, prm);
  } else {
    NativeRig rig;
    res = prim::run_index_search(rig.platform, prm);
  }
  p.simulated_ns = res.total;
  p.add("correct", res.correct ? 1ULL : 0ULL);
  p.add("index_bytes", res.index_bytes);
  p.add("matches", res.matches);
  Cell& cell = g_cells[dpus];
  (virtualized ? cell.vpim : cell.native) = res.total;
}

void print_summary() {
  print_header("Fig 10 - Index Search vs #DPUs",
               "time grows with #DPUs for both; overhead 2.1x @1 DPU "
               "-> 1.3x @128 DPUs; 63MB index, 445 queries in 4x128 "
               "batches");
  std::printf("%6s | %10s | %10s | %8s\n", "#DPUs", "native", "vPIM",
              "overhead");
  for (const auto& [dpus, cell] : g_cells) {
    std::printf("%6u | %8.1fms | %8.1fms | %7.2fx\n", dpus,
                ns_to_ms(cell.native), ns_to_ms(cell.vpim),
                ratio(cell.vpim, cell.native));
  }
}

}  // namespace
}  // namespace vpim::bench

int main() {
  using namespace vpim::bench;
  Figure fig("fig10");
  for (std::uint32_t dpus : {1u, 8u, 16u, 60u, 128u}) {
    for (const bool virtualized : {false, true}) {
      fig.point("fig10/dpus:" + std::to_string(dpus) +
                    (virtualized ? "/vPIM" : "/native"),
                [&](BenchPoint& p) { run_cell(p, dpus, virtualized); });
    }
  }
  print_summary();
  return fig.finish();
}
