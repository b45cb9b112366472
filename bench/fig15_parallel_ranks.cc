// Fig 15: parallel operation handling on multiple ranks (checksum).
// Paper: ~1.13x average whole-application speedup (growing with ranks),
// ~1.4x on the write-to-rank operation.
#include <map>

#include "bench/bench_util.h"

namespace vpim::bench {
namespace {

struct Cell {
  SimNs seq_total = 0, par_total = 0;
  SimNs seq_write = 0, par_write = 0;
};
std::map<std::uint32_t, Cell> g_cells;

void run_cell(BenchPoint& p, std::uint32_t ranks, bool parallel) {
  prim::ChecksumParams prm;
  prm.nr_dpus = ranks * 60;
  prm.file_bytes = static_cast<std::uint64_t>(
      static_cast<double>(20 * kMiB) * env_scale());
  VmRig rig(parallel ? core::VpimConfig::full()
                     : core::VpimConfig::sequential(),
            ranks);
  const auto res = prim::run_checksum(rig.platform, prm);
  // Whole-app time plus the write-to-rank time summed over devices
  // (Fig 15b looks at the broadcast write specifically).
  // Wall time of the write op = the slowest device's completion; the
  // guest submits to every rank concurrently, so the sequential event
  // loop gives later ranks long queueing delays (Fig 16).
  SimNs write_time = 0;
  for (std::uint32_t i = 0; i < rig.vm.nr_devices(); ++i) {
    write_time = std::max(
        write_time, rig.vm.device(i).stats.ops.time(RankOp::kWriteToRank));
  }
  p.simulated_ns = res.total;
  p.add("correct", res.correct ? 1ULL : 0ULL);
  p.add("write_ns", write_time);
  Cell& cell = g_cells[ranks];
  (parallel ? cell.par_total : cell.seq_total) = res.total;
  (parallel ? cell.par_write : cell.seq_write) = write_time;
}

void print_summary() {
  print_header("Fig 15 - parallel operation handling on multiple ranks",
               "whole-app speedup ~1.13x avg (grows with ranks); "
               "write-to-rank speedup ~1.4x");
  std::printf("%6s | %10s %10s %8s | %10s %10s %8s\n", "#ranks",
              "seq app", "par app", "speedup", "seq W-rank", "par W-rank",
              "speedup");
  for (const auto& [ranks, cell] : g_cells) {
    std::printf("%6u | %8.1fms %8.1fms %7.2fx | %8.1fms %8.1fms %7.2fx\n",
                ranks, ns_to_ms(cell.seq_total), ns_to_ms(cell.par_total),
                ratio(cell.seq_total, cell.par_total),
                ns_to_ms(cell.seq_write), ns_to_ms(cell.par_write),
                ratio(cell.seq_write, cell.par_write));
  }
}

}  // namespace
}  // namespace vpim::bench

int main() {
  using namespace vpim::bench;
  Figure fig("fig15");
  for (std::uint32_t ranks : {2u, 4u, 8u}) {
    for (const bool parallel : {false, true}) {
      fig.point("fig15/ranks:" + std::to_string(ranks) +
                    (parallel ? "/vPIM" : "/vPIM-Seq"),
                [&](BenchPoint& p) { run_cell(p, ranks, parallel); });
    }
  }
  print_summary();
  return fig.finish();
}
