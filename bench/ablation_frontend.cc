// Ablations over vPIM design choices that DESIGN.md calls out:
//  - prefetch cache size (pages per DPU): bigger caches amortize more
//    small reads but inflate every miss (Takeaway 1);
//  - batch buffer size (pages per DPU): bigger buffers mean fewer flushes;
//  - GPA->HVA translation worker threads (§4.2 "several threads");
//  - vhost-style transitions (§7 future work) vs classic virtio-mmio.
// NW (small transfers) and RED (one tiny Inter-DPU read) are the probe
// workloads because they sit at opposite ends of the prefetch trade-off.
#include <map>

#include "bench/bench_util.h"

namespace vpim::bench {
namespace {

std::map<std::string, SimNs> g_results;

prim::AppParams probe_params() {
  prim::AppParams prm;
  prm.nr_dpus = 60;
  prm.scale = env_scale();
  return prm;
}

void add(Figure& fig, const std::string& key, const std::string& app,
         const core::VpimConfig& config, std::uint32_t translate_threads = 8) {
  fig.point("ablation/" + key, [&](BenchPoint& p) {
    VmRig rig(config, 1);
    rig.host.cost.translate_threads = translate_threads;
    const auto res = prim::make_app(app)->run(rig.platform, probe_params());
    p.simulated_ns = res.total();
    p.add("correct", res.correct ? 1ULL : 0ULL);
    g_results[key] = res.total();
  });
}

void print_summary() {
  print_header("Frontend design-choice ablations (NW & RED probes)",
               "prefetch sizing trades hit amortization against fill "
               "inflation; batching sizing trades flush count against "
               "memory; vhost cuts the per-message transition cost");
  for (const auto& [key, total] : g_results) {
    std::printf("%-36s %10.1f ms\n", key.c_str(), ns_to_ms(total));
  }
}

}  // namespace
}  // namespace vpim::bench

int main() {
  using namespace vpim::bench;
  using vpim::core::VpimConfig;
  Figure fig("ablation_frontend");

  // Prefetch cache size sweep (NW benefits, RED suffers).
  for (std::uint32_t pages : {4u, 16u, 64u}) {
    VpimConfig cfg = VpimConfig::full();
    cfg.prefetch_cache_pages = pages;
    add(fig, "cache_pages:" + std::to_string(pages) + "/NW", "NW", cfg);
    add(fig, "cache_pages:" + std::to_string(pages) + "/RED", "RED", cfg);
  }
  {
    VpimConfig cfg = VpimConfig::full();
    cfg.prefetch_cache = false;
    add(fig, "cache_off/NW", "NW", cfg);
    add(fig, "cache_off/RED", "RED", cfg);
  }

  // Batch buffer size sweep (NW writes).
  for (std::uint32_t pages : {16u, 64u, 256u}) {
    VpimConfig cfg = VpimConfig::full();
    cfg.batch_buffer_pages = pages;
    add(fig, "batch_pages:" + std::to_string(pages) + "/NW", "NW", cfg);
  }

  // Translation worker threads (bulk write path; VA is bandwidth-bound).
  for (std::uint32_t threads : {1u, 8u}) {
    add(fig, "translate_threads:" + std::to_string(threads) + "/VA", "VA",
        VpimConfig::full(), threads);
  }

  // Classic virtio-mmio vs vhost transitions on the small-transfer probe.
  add(fig, "transport_virtio/NW", "NW", VpimConfig::full());
  add(fig, "transport_vhost/NW", "NW", VpimConfig::vhost());

  print_summary();
  return fig.finish();
}
