// Fig 8: execution time of the 16 PrIM applications, native vs vPIM, with
// 1 rank (60 DPUs) and 8 ranks (480 DPUs), segmented into CPU-DPU / DPU /
// Inter-DPU / DPU-CPU.
#include <algorithm>
#include <map>
#include "common/stats.h"

#include "bench/bench_util.h"

namespace vpim::bench {
namespace {

struct Row {
  prim::AppResult native;
  prim::AppResult vpim;
};
std::map<std::pair<std::string, std::uint32_t>, Row> g_rows;

void run_app(BenchPoint& p, const std::string& app, std::uint32_t dpus,
             bool virtualized) {
  prim::AppParams prm;
  prm.nr_dpus = dpus;
  prm.scale = env_scale();
  prim::AppResult res =
      virtualized ? run_prim_vpim(app, prm, core::VpimConfig::full())
                  : run_prim_native(app, prm);
  p.simulated_ns = res.total();
  p.add("cpu_dpu_ns", res.breakdown[Segment::kCpuDpu]);
  p.add("dpu_ns", res.breakdown[Segment::kDpu]);
  p.add("inter_dpu_ns", res.breakdown[Segment::kInterDpu]);
  p.add("dpu_cpu_ns", res.breakdown[Segment::kDpuCpu]);
  auto& row = g_rows[{app, dpus}];
  (virtualized ? row.vpim : row.native) = res;
}

void print_summary() {
  print_header(
      "Fig 8 - PrIM applications, strong scaling (60 vs 480 DPUs)",
      "overhead 1.01x-2.07x @60 DPUs (avg 1.24x), 1.02x-2.89x @480 DPUs "
      "(avg 1.54x); SEL/UNI/SpMV/BFS slow down at 480 DPUs due to serial "
      "transfers; RED/SCAN/HST Inter-DPU or DPU-CPU steps inflated by the "
      "prefetch cache");
  std::printf("%-9s %5s | %10s %10s %10s %10s | %10s | %8s | %s\n", "app",
              "#DPU", "CPU-DPU", "DPU", "Inter-DPU", "DPU-CPU", "total",
              "overhead", "ok");
  std::vector<double> overheads60, overheads480;
  for (const auto& app : prim::app_names()) {
    for (std::uint32_t dpus : {60u, 480u}) {
      const Row& row = g_rows.at({app, dpus});
      for (const bool virtualized : {false, true}) {
        const prim::AppResult& r =
            virtualized ? row.vpim : row.native;
        std::printf(
            "%-9s %5u | %9.1fms %9.1fms %9.1fms %9.1fms | %9.1fms |",
            (std::string(virtualized ? "v:" : "n:") + app).c_str(), dpus,
            ns_to_ms(r.breakdown[Segment::kCpuDpu]),
            ns_to_ms(r.breakdown[Segment::kDpu]),
            ns_to_ms(r.breakdown[Segment::kInterDpu]),
            ns_to_ms(r.breakdown[Segment::kDpuCpu]), ns_to_ms(r.total()));
        if (virtualized) {
          const double ov = ratio(row.vpim.total(), row.native.total());
          std::printf(" %7.2fx |", ov);
          (dpus == 60 ? overheads60 : overheads480).push_back(ov);
        } else {
          std::printf(" %8s |", "-");
        }
        std::printf(" %s\n", r.correct ? "yes" : "NO");
      }
    }
  }
  std::printf("\nmeasured overhead @60 DPUs:  min %.2fx  geomean %.2fx  "
              "max %.2fx   (paper: 1.01x / 1.24x avg / 2.07x)\n",
              *std::min_element(overheads60.begin(), overheads60.end()),
              geomean(overheads60),
              *std::max_element(overheads60.begin(), overheads60.end()));
  std::printf("measured overhead @480 DPUs: min %.2fx  geomean %.2fx  "
              "max %.2fx   (paper: 1.02x / 1.54x avg / 2.89x)\n",
              *std::min_element(overheads480.begin(), overheads480.end()),
              geomean(overheads480),
              *std::max_element(overheads480.begin(), overheads480.end()));
}

}  // namespace
}  // namespace vpim::bench

int main() {
  using namespace vpim::bench;
  Figure fig("fig08");
  for (const auto& app : vpim::prim::app_names()) {
    for (std::uint32_t dpus : {60u, 480u}) {
      for (const bool virtualized : {false, true}) {
        fig.point("fig08/" + app + "/dpus:" + std::to_string(dpus) +
                      (virtualized ? "/vPIM" : "/native"),
                  [&](BenchPoint& p) { run_app(p, app, dpus, virtualized); });
      }
    }
  }
  print_summary();
  return fig.finish();
}
