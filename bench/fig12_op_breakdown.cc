// Fig 12: driver-centric breakdown of checksum execution into control-
// interface (CI), read-from-rank (R-rank) and write-to-rank (W-rank)
// operation time, inside the guest driver + Firecracker, for vPIM-rust vs
// vPIM(-C). 60 DPUs, 16 vCPUs, 8 MB file. Paper: W-rank dominates and is
// the step the C rewrite shrinks; CI and R-rank are similar across both.
// Here CI is identical in time and count; R-rank has the same count, and
// its time differs by well under 1% because a read's bank copy also runs
// at the data path's gather rate. Each claim is asserted with claim(); the
// bench exits 1 when one fails.
#include <fstream>
#include <map>

#include "bench/bench_util.h"
#include "common/obs/chrome_trace.h"
#include "common/obs/trace.h"

namespace vpim::bench {
namespace {

std::map<std::string, core::DeviceStats> g_stats;

void run_system(BenchPoint& p, const std::string& label,
                const core::VpimConfig& config) {
  prim::ChecksumParams prm;
  prm.nr_dpus = 60;
  prm.file_bytes = static_cast<std::uint64_t>(
      static_cast<double>(8 * kMiB) * env_scale());
  VmRig rig(config, 1);
  obs::Tracer tracer;
  rig.host.attach_tracer(&tracer);
  prim::run_checksum(rig.platform, prm);
  p.stop_wall();
  const core::DeviceStats& stats = rig.vm.device(0).stats;
  g_stats[label] = stats;

  // The figure is readable straight off the span stream: root-span
  // category totals must equal the DeviceStats breakdown to the ns.
  struct Check {
    obs::Category cat;
    RankOp op;
  };
  bool mismatch = false;
  for (const Check c : {Check{obs::Category::kCi, RankOp::kCi},
                        Check{obs::Category::kRead, RankOp::kReadFromRank},
                        Check{obs::Category::kWrite, RankOp::kWriteToRank}}) {
    const SimNs spans = tracer.total_for(c.cat);
    const SimNs ops = stats.ops.time(c.op);
    if (spans != ops) {
      mismatch = true;
      std::fprintf(
          stderr,
          "fig12/%s: %s spans %llu ns != stats %llu ns (delta %+lld ns)\n",
          label.c_str(),
          obs::kCategoryNames[static_cast<int>(c.cat)].data(),
          static_cast<unsigned long long>(spans),
          static_cast<unsigned long long>(ops),
          static_cast<long long>(spans) - static_cast<long long>(ops));
    }
  }
  if (mismatch) {
    std::fprintf(stderr,
                 "fig12/%s: span stream disagrees with DeviceStats; see "
                 "per-category deltas above\n",
                 label.c_str());
    std::exit(1);
  }
  {
    const std::string path =
        bench_out_path("BENCH_fig12_" + label + ".trace.json");
    std::ofstream out(path);
    obs::export_chrome_trace(tracer, out);
    std::printf("chrome trace: %zu spans -> %s\n", tracer.spans().size(),
                path.c_str());
  }
  p.simulated_ns = stats.ops.time(RankOp::kCi) +
                   stats.ops.time(RankOp::kReadFromRank) +
                   stats.ops.time(RankOp::kWriteToRank);
}

void print_summary() {
  print_header("Fig 12 - driver-centric op breakdown (checksum, 8 MB)",
               "W-rank dominates and shrinks with the C data path; CI and "
               "R-rank stay roughly constant across implementations");
  std::printf("%-10s | %12s %5s | %12s %5s | %12s %5s\n", "system",
              "CI", "#", "R-rank", "#", "W-rank", "#");
  for (const auto& [label, stats] : g_stats) {
    std::printf(
        "%-10s | %10.2fms %5lu | %10.2fms %5lu | %10.2fms %5lu\n",
        label.c_str(), ns_to_ms(stats.ops.time(RankOp::kCi)),
        static_cast<unsigned long>(stats.ops.count(RankOp::kCi)),
        ns_to_ms(stats.ops.time(RankOp::kReadFromRank)),
        static_cast<unsigned long>(stats.ops.count(RankOp::kReadFromRank)),
        ns_to_ms(stats.ops.time(RankOp::kWriteToRank)),
        static_cast<unsigned long>(
            stats.ops.count(RankOp::kWriteToRank)));
  }
}

std::string ms(SimNs t) { return std::to_string(ns_to_ms(t)) + " ms"; }

void check_claims(Figure& fig) {
  const OpBreakdown& r = g_stats.at("vPIM-rust").ops;
  const OpBreakdown& cc = g_stats.at("vPIM-C").ops;
  const auto versus = [&](RankOp op) {
    return ms(r.time(op)) + " x" + std::to_string(r.count(op)) + " vs " +
           ms(cc.time(op)) + " x" + std::to_string(cc.count(op));
  };
  fig.claim("CI_identical_in_rust_and_C",
            r.time(RankOp::kCi) == cc.time(RankOp::kCi) &&
                r.count(RankOp::kCi) == cc.count(RankOp::kCi),
            versus(RankOp::kCi));
  const double rrank = ratio(r.time(RankOp::kReadFromRank),
                             cc.time(RankOp::kReadFromRank));
  fig.claim("R-rank_similar_in_rust_and_C",
            r.count(RankOp::kReadFromRank) ==
                    cc.count(RankOp::kReadFromRank) &&
                rrank > 0.99 && rrank < 1.01,
            versus(RankOp::kReadFromRank));
  fig.claim("W-rank_shrinks_with_C",
            r.time(RankOp::kWriteToRank) > cc.time(RankOp::kWriteToRank),
            ms(r.time(RankOp::kWriteToRank)) + " -> " +
                ms(cc.time(RankOp::kWriteToRank)));
  for (const auto& [label, stats] : g_stats) {
    const OpBreakdown& o = stats.ops;
    const SimNs w = o.time(RankOp::kWriteToRank);
    fig.claim("W-rank_largest_op_class_" + label,
              w > o.time(RankOp::kCi) && w > o.time(RankOp::kReadFromRank),
              "W-rank " + ms(w) + ", CI " + ms(o.time(RankOp::kCi)) +
                  ", R-rank " + ms(o.time(RankOp::kReadFromRank)));
  }
}

}  // namespace
}  // namespace vpim::bench

int main() {
  using namespace vpim::bench;
  using vpim::core::VpimConfig;
  Figure fig("fig12");
  fig.point("fig12/vPIM-rust", [](BenchPoint& p) {
    run_system(p, "vPIM-rust", VpimConfig::rust());
  });
  fig.point("fig12/vPIM-C", [](BenchPoint& p) {
    run_system(p, "vPIM-C", VpimConfig::c_only());
  });
  print_summary();
  check_claims(fig);
  return fig.finish();
}
