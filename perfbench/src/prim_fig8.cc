// prim_fig8: the paper's Fig 8 suite. All 16 PrIM apps run natively (the
// lo arm) and under vPIM with every optimisation on (the hi arm) at 480
// DPUs (8 ranks). Each run gets a fresh Host, as Fig 8 does: building it is
// set-up, the app run is the timed phase, destroying it is teardown.
#include <algorithm>
#include <cmath>
#include <memory>

#include "prim/app.h"
#include "sdk/native.h"
#include "vpim/guest_platform.h"
#include "vpim/host.h"
#include "vpim/vpim_vm.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::uint32_t kDpus = 480;
// Dataset scale of the figure benches' smoke runs: every app still spans
// all 480 DPUs, at about 1.2 s (native) + 1.5 s (vPIM) of host time. The
// seed picks each app's dataset contents and its scale within +-2% of it.
constexpr double kScale = 0.05;
constexpr double kScaleJitter = 0.04;

void report_arm(Metrics& m, const char* arm, const ArmStats& s) {
  for (std::size_t c = 0; c < kNumCallClasses; ++c) {
    const std::string cls(kCallClassNames[c]);
    m.set(std::string(arm) + ".host_s." + cls, s.host_s[c], "s");
    m.set(std::string(arm) + ".calls." + cls,
          static_cast<double>(s.calls[c]), "count");
  }
}

}  // namespace

RepResult run_prim_fig8(const RunArgs& args) {
  RepResult r;
  set_layer_defaults(r.layer);
  HostTrace wall_trace(args.host_spans);
  vpim::obs::Tracer tracer;
  SimLayerAgg sim_agg;
  Stopwatch setup, wall, teardown;
  ArmStats native_arm, vpim_arm;
  FrontendTotals fe;
  std::vector<double> overheads;
  SimNs vpim_total = 0;
  double boot_host_s = 0.0;
  SimNs boot_sim = 0;
  std::uint64_t vms = 0, hosts = 0, resident = 0;
  vpim::core::ManagerStats mgr{};

  setup.start();
  vpim::prim::register_prim_kernels();
  setup.stop();

  std::uint64_t app_index = 0;
  for (const std::string& app : vpim::prim::app_names()) {
    vpim::prim::AppParams params;
    params.nr_dpus = kDpus;
    params.seed = mix64(args.seed * 64 + app_index++);
    params.scale = kScale * (1.0 + kScaleJitter *
                                       (static_cast<double>(params.seed >> 11) *
                                            0x1.0p-53 -
                                        0.5));
    SimNs native_ns = 0;
    for (const bool virtualized : {false, true}) {
      // ---- set-up: fresh Host (+ VM) for this run -----------------------
      setup.start();
      auto host = std::make_unique<vpim::core::Host>(
          vpim::upmem::MachineConfig{}, perturbed_cost(), bench_manager());
      std::unique_ptr<vpim::core::VpimVm> vm;
      std::unique_ptr<vpim::sdk::Platform> base;
      if (virtualized) {
        const std::int64_t t0 = host_now_ns();
        vm = std::make_unique<vpim::core::VpimVm>(
            *host,
            vpim::vmm::VmmParams{.name = "bench-vm",
                                 .vcpus = 16,
                                 .guest_ram_bytes = 2 * vpim::kGiB},
            8, vpim::core::VpimConfig::full());
        boot_host_s += static_cast<double>(host_now_ns() - t0) * 1e-9;
        boot_sim += vm->boot_duration();
        ++vms;
        base = std::make_unique<vpim::core::GuestPlatform>(*vm);
      } else {
        base = std::make_unique<vpim::sdk::NativePlatform>(host->drv,
                                                           "bench-native");
      }
      if (args.sim_trace) host->attach_tracer(&tracer);
      TimedPlatform platform(
          *base, virtualized ? vpim_arm : native_arm, wall_trace,
          virtualized ? HostLayer::kSdkVpim : HostLayer::kSdkNative,
          &sim_agg, args.sim_trace ? &tracer : nullptr, args.delay);
      setup.stop();
      r.setup_units.push_back(setup.lap());

      // ---- timed phase: the app run --------------------------------------
      wall.start();
      wall_trace.next_op();
      vpim::prim::AppResult res;
      {
        HostSpan span(wall_trace, HostLayer::kPrim);
        res = vpim::prim::make_app(app)->run(platform, params);
      }
      wall.stop();
      r.wall_units.push_back(wall.lap());

      // ---- checks and accounting (untimed) ------------------------------
      if (args.sim_trace) sim_agg.fold(tracer);
      ++r.attempted;
      if (!res.correct) {
        r.fail(app + (virtualized ? "/vPIM" : "/native") +
               ": DPU result differs from the CPU reference");
      }
      r.sim_digest.str(app);
      r.sim_digest.u64(virtualized ? 1 : 0);
      for (SimNs seg : res.breakdown.segment) r.sim_digest.u64(seg);
      if (virtualized) {
        vpim_total += res.total();
        overheads.push_back(static_cast<double>(res.total()) /
                            static_cast<double>(std::max<SimNs>(native_ns, 1)));
        for (std::uint32_t d = 0; d < vm->nr_devices(); ++d) {
          fe.add(vm->device(d).stats);
        }
      } else {
        native_ns = res.total();
      }
      resident += machine_resident_bytes(host->machine);
      const vpim::core::ManagerStats ms = host->manager.stats();
      mgr.allocations += ms.allocations;
      mgr.reuse_hits += ms.reuse_hits;
      mgr.resets += ms.resets;
      mgr.failed_requests += ms.failed_requests;

      // ---- teardown -------------------------------------------------------
      teardown.start();
      base.reset();
      vm.reset();
      host.reset();
      teardown.stop();
      r.teardown_units.push_back(teardown.lap());
      ++hosts;
      if (args.sim_trace) sim_agg.fold(tracer);
    }
  }

  r.setup_s = setup.seconds();
  r.wall_s = wall.seconds();
  r.teardown_s = teardown.seconds();

  // ---- simulated end-to-end metrics ------------------------------------
  double log_sum = 0.0;
  for (double o : overheads) log_sum += std::log(o);
  for (ArmStats* arm : {&native_arm, &vpim_arm}) {
    std::sort(arm->call_latency.begin(), arm->call_latency.end());
    std::sort(arm->bulk_latency.begin(), arm->bulk_latency.end());
  }
  const auto& lo = native_arm.bulk_latency;
  const auto& hi = vpim_arm.bulk_latency;
  r.sim.set("sim_s", static_cast<double>(vpim_total) * 1e-9, "s",
            overheads.size());
  r.sim.set("overhead_x",
            std::exp(log_sum / static_cast<double>(overheads.size())), "x",
            overheads.size());
  r.sim.set("p50_lat_us", static_cast<double>(percentile(lo, 0.50)) * 1e-3,
            "us", lo.size());
  r.sim.set("p99_lat_us", static_cast<double>(percentile(lo, 0.99)) * 1e-3,
            "us", lo.size());
  r.sim.set("p99_lat_us.hi", static_cast<double>(percentile(hi, 0.99)) * 1e-3,
            "us", hi.size());
  const auto& calls = vpim_arm.call_latency;
  r.sim.set("max_rate_kops",
            static_cast<double>(calls.size()) /
                (static_cast<double>(vpim_arm.device_sim_ns) * 1e-9) * 1e-3,
            "kops", calls.size());
  if (!percentile_supported(lo.size(), 0.99) ||
      !percentile_supported(hi.size(), 0.99)) {
    r.fail("too few bulk device calls for a supported p99");
  }

  // ---- per-layer metrics -------------------------------------------------
  Metrics& m = r.layer;
  report_arm(m, "native", native_arm);
  report_arm(m, "vpim", vpim_arm);
  m.set("vpim.p50_call_us",
        static_cast<double>(percentile(calls, 0.50)) * 1e-3, "us",
        calls.size());
  fe.report(m);
  report_manager(m, mgr, 0.0, 0);
  m.set("upmem.teardown_ms_per_host",
        r.teardown_s * 1e3 / static_cast<double>(hosts), "ms", hosts);
  m.set("upmem.resident_mb",
        static_cast<double>(resident) / static_cast<double>(hosts) / 1e6,
        "MB", hosts);
  m.set("vmm.boot_host_ms", boot_host_s * 1e3 / static_cast<double>(vms),
        "ms", vms);
  m.set("vmm.boot_sim_ms",
        static_cast<double>(boot_sim) * 1e-6 / static_cast<double>(vms), "ms",
        vms);
  r.host_self_s = wall_trace.self_seconds();
  m.set("prim.app_host_s",
        r.host_self_s[static_cast<std::size_t>(HostLayer::kPrim)], "s");
  set_trace_layers(r, sim_agg);
  for (const auto& [name, metric] : r.sim.items()) {
    r.sim_digest.str(name);
    r.sim_digest.bytes(&metric.value, sizeof(metric.value));
  }
  return r;
}

}  // namespace perfbench
