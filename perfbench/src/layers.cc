// Per-layer metric names, units and the shared accounting helpers.
#include <string>

#include "common/obs/span.h"
#include "kv/kv_service.h"
#include "upmem/layout.h"
#include "upmem/machine.h"
#include "workloads.h"

namespace perfbench {

namespace {

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }
double ratio(std::uint64_t num, std::uint64_t den) {
  return ratio(static_cast<double>(num), static_cast<double>(den));
}

// Simulated layers reported by the traced run (obs::kLayerNames minus
// admission, which no workload installs).
constexpr std::array<std::size_t, 7> kSimLayers = {0, 1, 2, 3, 4, 5, 7};

}  // namespace

void set_layer_defaults(Metrics& m) {
  for (const char* arm : {"native", "vpim"}) {
    for (std::string_view cls : kCallClassNames) {
      m.set(std::string(arm) + ".host_s." + std::string(cls), 0.0, "s");
    }
    for (std::string_view cls : kCallClassNames) {
      m.set(std::string(arm) + ".calls." + std::string(cls), 0.0, "count");
    }
  }
  m.set("vpim.p50_call_us", 0.0, "us");
  m.set("prim.app_host_s", 0.0, "s");
  m.set("upmem.teardown_ms_per_host", 0.0, "ms");
  m.set("upmem.resident_mb", 0.0, "MB");
  FrontendTotals{}.report(m);
  KvTotals{}.report(m);
  report_manager(m, {}, 0.0, 0);
  m.set("vmm.boot_host_ms", 0.0, "ms");
  m.set("vmm.boot_sim_ms", 0.0, "ms");
  m.set("backend.emulated_share", 0.0, "ratio");
  m.set("loadgen.lateness_us.lo", 0.0, "us");
  m.set("loadgen.lateness_us.hi", 0.0, "us");
  m.set("loadgen.backlog_slope.lo", 0.0, "ops/ms");
  m.set("loadgen.backlog_slope.hi", 0.0, "ops/ms");
  for (std::size_t l : kSimLayers) {
    m.set("sim_self_ms." + std::string(vpim::obs::kLayerNames[l]), 0.0, "ms");
  }
  for (std::size_t l : kSimLayers) {
    m.set("spans." + std::string(vpim::obs::kLayerNames[l]), 0.0, "count");
  }
  for (std::size_t l = 1; l < kNumHostLayers; ++l) {
    m.set("host_self_s." + std::string(kHostLayerNames[l]), 0.0, "s");
  }
  m.set("host_self_s.unattributed", 0.0, "s");
  m.set("host_attributed_frac", 0.0, "ratio");
}

void set_trace_layers(RepResult& r, const SimLayerAgg& agg) {
  Metrics& m = r.layer;
  for (std::size_t l : kSimLayers) {
    const std::string name(vpim::obs::kLayerNames[l]);
    m.set("sim_self_ms." + name,
          static_cast<double>(agg.self_ns[l]) * 1e-6, "ms");
    m.set("spans." + name, static_cast<double>(agg.spans[l]), "count");
  }
  double attributed = 0.0;
  for (std::size_t l = 1; l < kNumHostLayers; ++l) {
    m.set("host_self_s." + std::string(kHostLayerNames[l]), r.host_self_s[l],
          "s");
    attributed += r.host_self_s[l];
  }
  m.set("host_self_s.unattributed", r.wall_s - attributed, "s");
  m.set("host_attributed_frac", ratio(attributed, r.wall_s), "ratio");
  r.span_digest = agg.digest;
}

void FrontendTotals::add(const vpim::core::DeviceStats& s) {
  for (std::size_t i = 0; i < vpim::kNumRankOps; ++i) {
    ops += s.ops.count(static_cast<vpim::RankOp>(i));
  }
  notifies += s.notifies;
  cache_hits += s.cache_hits;
  cache_misses += s.cache_misses;
  batched_writes += s.batched_writes;
  batch_flushes += s.batch_flushes;
  doorbells += s.doorbells;
  request_errors += s.request_errors;
  emulated_binds += s.emulated_binds;
}

void FrontendTotals::report(Metrics& m) const {
  m.set("frontend.vmexits_per_op", ratio(notifies, ops), "ratio");
  m.set("frontend.prefetch_hit_ratio",
        ratio(cache_hits, cache_hits + cache_misses), "ratio");
  m.set("frontend.writes_per_flush", ratio(batched_writes, batch_flushes),
        "ratio");
  m.set("frontend.ops_per_doorbell", ratio(ops, doorbells), "ratio");
  m.set("frontend.request_errors", static_cast<double>(request_errors),
        "count");
}

void KvTotals::add(const vpim::kv::KvStats& s) {
  ops += s.gets + s.puts + s.deletes + s.scans;
  gets += s.gets;
  cache_hits += s.cache_hits;
  batches += s.batches;
  cycles += s.cycles;
  rebalances += s.rebalances;
  migrated_records += s.migrated_records;
  device_errors += s.device_errors;
}

void KvTotals::report(Metrics& m) const {
  m.set("kv.host_us_per_op", ratio(exec_s * 1e6, static_cast<double>(ops)),
        "us");
  m.set("kv.cache_hit_ratio", ratio(cache_hits, gets), "ratio");
  m.set("kv.cycles_per_batch", ratio(cycles, batches), "ratio");
  m.set("kv.rebalances", static_cast<double>(rebalances), "count");
  m.set("kv.migrated_records", static_cast<double>(migrated_records),
        "count");
  m.set("kv.device_errors", static_cast<double>(device_errors), "count");
  m.set("kv.open_host_ms", ratio(open_s * 1e3, static_cast<double>(opens)),
        "ms");
  m.set("kv.close_host_ms",
        ratio(close_s * 1e3, static_cast<double>(closes)), "ms");
}

void report_manager(Metrics& m, const vpim::core::ManagerStats& s,
                    double observe_host_s, std::uint64_t observes) {
  m.set("manager.reuse_ratio", ratio(s.reuse_hits, s.allocations), "ratio");
  m.set("manager.resets", static_cast<double>(s.resets), "count");
  m.set("manager.failed_requests", static_cast<double>(s.failed_requests),
        "count");
  m.set("manager.observe_host_ms",
        ratio(observe_host_s * 1e3, static_cast<double>(observes)), "ms");
}

vpim::core::ManagerConfig bench_manager() {
  vpim::core::ManagerConfig cfg;
  cfg.retry_wait_ns = 10 * vpim::kMs;
  cfg.max_attempts = 3;
  return cfg;
}

std::uint64_t machine_resident_bytes(vpim::upmem::PimMachine& machine) {
  std::uint64_t pages = 0;
  for (std::uint32_t r = 0; r < machine.nr_ranks(); ++r) {
    vpim::upmem::Rank& rank = machine.rank(r);
    for (std::uint32_t d = 0; d < rank.nr_dpus(); ++d) {
      pages += rank.mram(d).resident_pages();
    }
  }
  return pages * vpim::upmem::kMramPageSize;
}

}  // namespace perfbench
