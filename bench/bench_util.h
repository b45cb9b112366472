// Shared scaffolding for the figure-reproduction benches.
//
// Every bench builds a fresh simulated host with the paper's testbed
// geometry (8 ranks x 60 functional DPUs at 350 MHz, §5.1), runs the
// workload natively and/or under vPIM, and reports *virtual* time. Each
// bench binary is one Figure (below): it runs every point once, reports its
// simulated ns next to the host ms it took, checks the figure's claims and
// writes BENCH_<target>.json.
//
// Set VPIM_BENCH_SCALE (e.g. 0.05) to shrink datasets for smoke runs; the
// default 1.0 reproduces the paper-scale shapes recorded in EXPERIMENTS.md.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "prim/app.h"
#include "prim/micro.h"
#include "sdk/native.h"
#include "vpim/guest_platform.h"
#include "vpim/host.h"
#include "vpim/vpim_vm.h"

namespace vpim::bench {

inline double env_scale() {
  if (const char* s = std::getenv("VPIM_BENCH_SCALE")) {
    const double v = std::atof(s);
    if (v > 0) return v;
  }
  return 1.0;
}

// VPIM_COST_PERTURB uniformly slows the cost model by the given factor:
// every fixed cost is multiplied by it and every bandwidth divided by it,
// so end-to-end simulated time drifts by roughly the same factor on any
// workload. CI uses it to self-test the perf-regression gate: a 1.01
// perturbation must trip the 0.5% drift check, and an unset (or 1.0)
// value must reproduce the committed baselines exactly.
inline CostModel bench_cost() {
  CostModel cost;
  if (const char* s = std::getenv("VPIM_COST_PERTURB")) {
    const double f = std::atof(s);
    if (f > 0) {
      auto slow = [f](SimNs& ns) {
        ns = static_cast<SimNs>(static_cast<double>(ns) * f);
      };
      auto throttle = [f](double& gbps) { gbps /= f; };
      slow(cost.ci_op_native_ns);
      slow(cost.ci_op_backend_ns);
      slow(cost.ioctl_ns);
      slow(cost.native_xfer_fixed_ns);
      slow(cost.vmexit_notify_ns);
      slow(cost.irq_inject_ns);
      slow(cost.frontend_request_fixed_ns);
      slow(cost.vhost_notify_ns);
      slow(cost.vhost_complete_ns);
      slow(cost.page_mgmt_ns_per_page);
      slow(cost.serialize_ns_per_page);
      slow(cost.per_dpu_metadata_ns);
      slow(cost.deserialize_ns_per_page);
      slow(cost.gpa_translate_ns_per_page);
      slow(cost.thread_dispatch_ns);
      slow(cost.backend_per_entry_ns);
      slow(cost.cache_hit_fixed_ns);
      slow(cost.manager_alloc_rt_ns);
      slow(cost.fault_retry_backoff_ns);
      slow(cost.rank_probe_ns);
      slow(cost.vm_boot_base_ns);
      slow(cost.vupmem_boot_ns);
      slow(cost.admission_check_ns);
      slow(cost.kv_cache_hit_ns);
      throttle(cost.mram_dma_gbps);
      throttle(cost.interleave_wide_gbps);
      throttle(cost.interleave_naive_gbps);
      throttle(cost.scattered_copy_gbps);
      throttle(cost.memset_gbps);
      throttle(cost.guest_memcpy_gbps);
      throttle(cost.emulated_copy_gbps);
      throttle(cost.rank_rescue_gbps);
      cost.dpu_hz /= f;
    }
  }
  return cost;
}

inline core::ManagerConfig bench_manager() {
  core::ManagerConfig cfg;
  cfg.retry_wait_ns = 10 * kMs;
  cfg.max_attempts = 3;
  return cfg;
}

// A fresh host per measurement keeps virtual clocks independent.
struct NativeRig {
  core::Host host{upmem::MachineConfig{}, bench_cost(), bench_manager()};
  sdk::NativePlatform platform{host.drv, "bench-native"};
};

struct VmRig {
  explicit VmRig(const core::VpimConfig& config,
                 std::uint32_t nr_devices = 8, std::uint32_t vcpus = 16,
                 std::uint64_t guest_ram = 2 * kGiB)
      : vm(host,
           {.name = "bench-vm",
            .vcpus = vcpus,
            .guest_ram_bytes = guest_ram},
           nr_devices, config),
        platform(vm) {}

  core::Host host{upmem::MachineConfig{}, bench_cost(), bench_manager()};
  core::VpimVm vm;
  core::GuestPlatform platform;
};

inline prim::AppResult run_prim_native(const std::string& app,
                                       const prim::AppParams& params) {
  NativeRig rig;
  return prim::make_app(app)->run(rig.platform, params);
}

inline prim::AppResult run_prim_vpim(const std::string& app,
                                     const prim::AppParams& params,
                                     const core::VpimConfig& config) {
  VmRig rig(config);
  return prim::make_app(app)->run(rig.platform, params);
}

// ---- small output helpers ------------------------------------------------

inline void print_header(const char* figure, const char* claim) {
  std::printf("\n============================================================"
              "====================\n");
  std::printf("%s\n", figure);
  std::printf("paper: %s\n", claim);
  std::printf("=============================================================="
              "==================\n");
}

inline double ratio(SimNs a, SimNs b) {
  return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
}

// ---- wall-clock + machine-readable output --------------------------------
//
// Simulated time (the figures) is virtual and thread-count independent;
// wall-clock time is what the host-parallel engine actually speeds up. Each
// bench records both per figure point in BENCH_<target>.json so CI can
// diff simulated results across VPIM_THREADS settings and trend the
// wall-clock numbers.

class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double elapsed_ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

struct BenchPoint {
  BenchPoint(std::string point, SimNs sim_ns, double wall)
      : name(std::move(point)), simulated_ns(sim_ns), wall_ms(wall) {}

  std::string name;        // figure point, e.g. "fig08/BS/dpus:480/vPIM"
  SimNs simulated_ns = 0;  // virtual time — must not depend on threads
  double wall_ms = 0.0;    // host wall-clock of the measured region
  // Bench-specific columns, written after wall_ms in insertion order.
  // Values are formatted on insertion so each bench keeps its own format.
  std::vector<std::pair<std::string, std::string>> extra;

  void add(std::string key, unsigned long long value) {
    extra.emplace_back(std::move(key), std::to_string(value));
  }
  void add(std::string key, double value, int decimals) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
    extra.emplace_back(std::move(key), buf);
  }

  // wall_ms is the host time from start_wall() to stop_wall(). Figure
  // brackets a point's whole body with them; a body that measures only
  // part of its work calls start_wall() where that part begins (after a
  // warmup, say) and stop_wall() where it ends (before teardown, say).
  void start_wall() { wall_ = WallTimer(); }
  void stop_wall() {
    wall_ms = wall_.elapsed_ms();
    wall_stopped_ = true;
  }
  bool wall_stopped() const { return wall_stopped_; }

 private:
  WallTimer wall_;
  bool wall_stopped_ = false;
};

// Where BENCH_*.json (and other bench artifacts) land. Historically the
// benches wrote to whatever CWD they were launched from, which silently
// scattered results when CI ran them from the build tree; now the output
// directory is pinned at configure time (the repo root) and can be
// redirected per run with VPIM_BENCH_OUT.
inline std::string bench_out_dir() {
  if (const char* s = std::getenv("VPIM_BENCH_OUT")) {
    if (*s != '\0') return s;
  }
#ifdef VPIM_BENCH_DEFAULT_OUT
  return VPIM_BENCH_DEFAULT_OUT;
#else
  return ".";
#endif
}

inline std::string bench_out_path(const std::string& filename) {
  std::string dir = bench_out_dir();
  if (!dir.empty() && dir.back() != '/') dir += '/';
  return dir + filename;
}

inline void write_bench_json(const std::string& target,
                             std::span<const BenchPoint> points) {
  const std::string path = bench_out_path("BENCH_" + target + ".json");
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"target\": \"%s\",\n  \"threads\": %u,\n",
               target.c_str(), ThreadPool::instance().size());
  std::fprintf(f, "  \"points\": [\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const BenchPoint& p = points[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"simulated_ns\": %llu, "
                 "\"wall_ms\": %.3f",
                 p.name.c_str(),
                 static_cast<unsigned long long>(p.simulated_ns), p.wall_ms);
    for (const auto& [key, value] : p.extra) {
      std::fprintf(f, ", \"%s\": %s", key.c_str(), value.c_str());
    }
    std::fprintf(f, "}%s\n", i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s (%zu points, %u host threads)\n", path.c_str(),
              points.size(), ThreadPool::instance().size());
}

// ---- the figure harness --------------------------------------------------
//
// Each bench binary is one Figure:
//
//   Figure fig("fig08");
//   fig.point("fig08/BS/dpus:60/native", [&](BenchPoint& p) { ... });
//   print_summary();                   // the bench's own table
//   fig.claim("name", ok, "detail");   // each claim it checks
//   return fig.finish();               // BENCH_fig08.json + exit code
//
// Points run once each, in the order the bench declares them.

class Figure {
 public:
  explicit Figure(std::string target) : target_(std::move(target)) {}

  // Runs `body` once as the point `name`, times it and prints one line.
  // The body sets p.simulated_ns and adds the point's extra columns; it
  // must not add points itself (`p` lives in points_).
  template <class Body>
  void point(std::string name, Body&& body) {
    BenchPoint& p = points_.emplace_back(std::move(name), 0, 0.0);
    p.start_wall();
    body(p);
    if (!p.wall_stopped()) p.stop_wall();
    std::printf("point %-36s %12.3f ms simulated %10.3f ms host\n",
                p.name.c_str(), ns_to_ms(p.simulated_ns), p.wall_ms);
  }

  // Records a point computed from the others: no body, no host time.
  void derived(std::string name, SimNs simulated_ns) {
    points_.emplace_back(std::move(name), simulated_ns, 0.0);
  }

  // Checks one claim: prints "claim <name>: ok|FAIL (<detail>)" and
  // returns `ok`. Any failed claim makes finish() return 1.
  bool claim(const std::string& name, bool ok, const std::string& detail) {
    std::printf("claim %s: %s (%s)\n", name.c_str(), ok ? "ok" : "FAIL",
                detail.c_str());
    failed_ |= !ok;
    return ok;
  }

  // Writes BENCH_<target>.json; returns the exit code, 1 if a claim failed.
  int finish() const {
    write_bench_json(target_, points_);
    return failed_ ? 1 : 0;
  }

 private:
  std::string target_;
  std::vector<BenchPoint> points_;
  bool failed_ = false;
};

}  // namespace vpim::bench
