// vpim-sim: command-line explorer for the simulated vPIM stack.
//
// Runs any PrIM application (or the checksum / index-search
// microbenchmarks) natively and/or under a chosen vPIM configuration and
// prints the paper-style segment breakdown plus the virtualization
// internals.
//
// Examples:
//   vpim-sim --app NW --dpus 60
//   vpim-sim --app TRNS --dpus 480 --config vPIM-C
//   vpim-sim --app checksum --mb 20 --config vPIM+vhost
//   vpim-sim --list
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "common/fault.h"
#include "common/obs/chrome_trace.h"
#include "common/obs/trace.h"

#include "prim/app.h"
#include "prim/micro.h"
#include "sdk/native.h"
#include "vpim/guest_platform.h"
#include "vpim/host.h"
#include "vpim/vpim_vm.h"

using namespace vpim;

namespace {

struct Options {
  std::string app = "VA";
  std::uint32_t dpus = 60;
  std::uint32_t tasklets = 16;
  double scale = 1.0;
  std::uint64_t mb = 20;  // checksum file size per DPU
  std::uint32_t depth = 1;  // SQ depth
  std::string config = "vPIM";
  std::string trace_path;   // --trace FILE: CSV of the vPIM run's spans
  std::string chrome_path;  // --chrome-trace FILE: chrome://tracing JSON
  std::string metrics_path;  // --metrics FILE: Prometheus text dump
  bool native_only = false;
  bool vpim_only = false;
  // --storm SEED: run the vPIM side under a correlated fault storm
  // (bursts of transients + ECC + a lost completion + rank death on one
  // victim rank). 0 = off. Recovery is transparent when the retry budget
  // holds; the knobs in README "Fault injection" tune that budget.
  std::uint64_t storm_seed = 0;

  bool tracing() const {
    return !trace_path.empty() || !chrome_path.empty();
  }
};

core::VpimConfig config_by_label(const std::string& label) {
  for (const auto& preset :
       {core::VpimConfig::rust(), core::VpimConfig::c_only(),
        core::VpimConfig::with_prefetch(), core::VpimConfig::with_batching(),
        core::VpimConfig::with_prefetch_batching(),
        core::VpimConfig::sequential(), core::VpimConfig::full(),
        core::VpimConfig::vhost()}) {
    if (preset.label == label) return preset;
  }
  std::fprintf(stderr,
               "unknown config '%s' (try vPIM-rust, vPIM-C, vPIM+P, "
               "vPIM+B, vPIM+PB, vPIM-Seq, vPIM, vPIM+vhost)\n",
               label.c_str());
  std::exit(2);
}

int usage() {
  std::printf(
      "usage: vpim-sim [--app NAME] [--dpus N] [--tasklets N]\n"
      "                [--scale X] [--mb N] [--config LABEL] [--depth N]\n"
      "                [--trace FILE] [--chrome-trace FILE]\n"
      "                [--metrics FILE] [--storm SEED]\n"
      "                [--native-only | --vpim-only] [--list]\n"
      "  NAME: a PrIM app (--list), 'checksum', or 'search'\n"
      "  --depth:        submission-queue depth, at least 1 (default: 1)\n"
      "  --storm:        seeded correlated fault storm under the vPIM run\n"
      "  --trace:        span stream as CSV\n"
      "  --chrome-trace: span stream as chrome://tracing JSON\n"
      "  --metrics:      Prometheus-style metrics snapshot\n");
  return 2;
}

void print_breakdown(const char* who, const prim::AppResult& res) {
  std::printf(
      "%-8s CPU-DPU %9.2f ms | DPU %9.2f ms | Inter-DPU %9.2f ms | "
      "DPU-CPU %9.2f ms | total %9.2f ms | %s\n",
      who, ns_to_ms(res.breakdown[Segment::kCpuDpu]),
      ns_to_ms(res.breakdown[Segment::kDpu]),
      ns_to_ms(res.breakdown[Segment::kInterDpu]),
      ns_to_ms(res.breakdown[Segment::kDpuCpu]), ns_to_ms(res.total()),
      res.correct ? "correct" : "WRONG RESULT");
}

void dump_observability(const Options& opt, core::Host& host,
                        const obs::Tracer& tracer) {
  if (!opt.trace_path.empty()) {
    std::ofstream out(opt.trace_path);
    tracer.dump_csv(out);
    std::printf("trace: %zu spans -> %s\n", tracer.spans().size(),
                opt.trace_path.c_str());
  }
  if (!opt.chrome_path.empty()) {
    std::ofstream out(opt.chrome_path);
    obs::export_chrome_trace(tracer, out);
    std::printf("chrome trace: %zu spans -> %s (open in ui.perfetto.dev "
                "or chrome://tracing)\n",
                tracer.spans().size(), opt.chrome_path.c_str());
  }
  if (!opt.metrics_path.empty()) {
    std::ofstream out(opt.metrics_path);
    out << host.obs.metrics.prometheus_text();
    std::printf("metrics: %zu families -> %s\n",
                host.obs.metrics.family_count(), opt.metrics_path.c_str());
  }
}

void print_device_stats(const core::DeviceStats& stats) {
  std::printf(
      "internals: %lu messages / %lu doorbells | batching %lu absorbed / "
      "%lu flushes | cache %lu hits / %lu misses / %lu fills\n",
      static_cast<unsigned long>(stats.notifies + stats.coalesced_notifies),
      static_cast<unsigned long>(stats.doorbells),
      static_cast<unsigned long>(stats.batched_writes),
      static_cast<unsigned long>(stats.batch_flushes),
      static_cast<unsigned long>(stats.cache_hits),
      static_cast<unsigned long>(stats.cache_misses),
      static_cast<unsigned long>(stats.cache_fills));
}

// Same storm recipe as the nightly chaos soak: two correlated bursts of
// width 2 drawn from the first 64 rank ops. Everything derives from the
// seed, so a storm run reproduces exactly at any VPIM_THREADS.
void maybe_install_storm(const Options& opt, core::Host& host) {
  if (opt.storm_seed == 0) return;
  FaultPlanConfig fcfg;
  fcfg.seed = opt.storm_seed;
  // Tight trigger window: a single app run issues tens of rank ops, not
  // hundreds, and a burst scheduled past the last op never fires.
  fcfg.max_op = 12;
  fcfg.storm_bursts = 2;
  fcfg.storm_width = 2;
  host.install_fault_plan(
      FaultPlan::generate(fcfg, host.machine.nr_ranks()));
  std::printf("storm: seed %llu, 2 bursts x width 2\n",
              static_cast<unsigned long long>(opt.storm_seed));
}

void report_storm(const core::Host& host) {
  if (!host.fault_plan) return;
  std::printf("storm: %zu fault events fired (recovery time is charged "
              "to the figures above)\n",
              host.fault_plan->fired().size());
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--app") {
      opt.app = value();
    } else if (arg == "--dpus") {
      opt.dpus = static_cast<std::uint32_t>(std::atoi(value()));
    } else if (arg == "--tasklets") {
      opt.tasklets = static_cast<std::uint32_t>(std::atoi(value()));
    } else if (arg == "--scale") {
      opt.scale = std::atof(value());
    } else if (arg == "--mb") {
      opt.mb = static_cast<std::uint64_t>(std::atoll(value()));
    } else if (arg == "--config") {
      opt.config = value();
    } else if (arg == "--depth") {
      opt.depth = static_cast<std::uint32_t>(std::atoi(value()));
      if (opt.depth == 0) return usage();
    } else if (arg == "--trace") {
      opt.trace_path = value();
    } else if (arg == "--chrome-trace") {
      opt.chrome_path = value();
    } else if (arg == "--metrics") {
      opt.metrics_path = value();
    } else if (arg == "--storm") {
      opt.storm_seed = static_cast<std::uint64_t>(std::atoll(value()));
    } else if (arg == "--native-only") {
      opt.native_only = true;
    } else if (arg == "--vpim-only") {
      opt.vpim_only = true;
    } else if (arg == "--list") {
      std::printf("PrIM applications:");
      for (const auto& name : prim::app_names()) {
        std::printf(" %s", name.c_str());
      }
      std::printf("\nmicrobenchmarks: checksum search\n");
      return 0;
    } else {
      return usage();
    }
  }

  core::VpimConfig config = config_by_label(opt.config);
  config.queue_depth = opt.depth;
  const std::uint32_t nr_devices = (opt.dpus + 59) / 60;
  std::printf("machine: 8 ranks x 60 DPUs @350 MHz | app %s, %u DPUs, "
              "%u tasklets, scale %.2f | config %s\n",
              opt.app.c_str(), opt.dpus, opt.tasklets, opt.scale,
              config.label.c_str());

  SimNs native_total = 0, vpim_total = 0;
  if (opt.app == "checksum" || opt.app == "search") {
    auto run_micro = [&](sdk::Platform& platform) -> SimNs {
      if (opt.app == "checksum") {
        prim::ChecksumParams prm;
        prm.nr_dpus = opt.dpus;
        prm.nr_tasklets = opt.tasklets;
        prm.file_bytes = opt.mb * kMiB;
        const auto res = prim::run_checksum(platform, prm);
        std::printf("  %8.2f ms, %s, ops: %lu W / %lu R / %lu CI\n",
                    ns_to_ms(res.total),
                    res.correct ? "correct" : "WRONG",
                    static_cast<unsigned long>(res.write_ops),
                    static_cast<unsigned long>(res.read_ops),
                    static_cast<unsigned long>(res.ci_ops));
        return res.total;
      }
      prim::IndexSearchParams prm;
      prm.nr_dpus = opt.dpus;
      prm.nr_tasklets = opt.tasklets;
      const auto res = prim::run_index_search(platform, prm);
      std::printf("  %8.2f ms, %s, index %.1f MB, %lu matches\n",
                  ns_to_ms(res.total), res.correct ? "correct" : "WRONG",
                  static_cast<double>(res.index_bytes) / (1 << 20),
                  static_cast<unsigned long>(res.matches));
      return res.total;
    };
    if (!opt.vpim_only) {
      core::Host host;
      sdk::NativePlatform native(host.drv, "vpim-sim");
      std::printf("native:\n");
      native_total = run_micro(native);
    }
    if (!opt.native_only) {
      core::Host host;
      maybe_install_storm(opt, host);
      core::VpimVm vm(host, {.name = "vpim-sim"}, nr_devices, config);
      core::GuestPlatform guest(vm);
      obs::Tracer tracer;
      if (opt.tracing()) host.attach_tracer(&tracer);
      std::printf("%s:\n", config.label.c_str());
      try {
        vpim_total = run_micro(guest);
      } catch (const VpimStatusError& e) {
        std::printf("  run ended with typed status: %s\n", e.what());
      }
      print_device_stats(vm.device(0).stats);
      report_storm(host);
      dump_observability(opt, host, tracer);
    }
  } else {
    prim::AppParams prm;
    prm.nr_dpus = opt.dpus;
    prm.nr_tasklets = opt.tasklets;
    prm.scale = opt.scale;
    if (!opt.vpim_only) {
      core::Host host;
      sdk::NativePlatform native(host.drv, "vpim-sim");
      const auto res = prim::make_app(opt.app)->run(native, prm);
      print_breakdown("native", res);
      native_total = res.total();
    }
    if (!opt.native_only) {
      core::Host host;
      maybe_install_storm(opt, host);
      core::VpimVm vm(host, {.name = "vpim-sim"}, nr_devices, config);
      core::GuestPlatform guest(vm);
      obs::Tracer tracer;
      if (opt.tracing()) host.attach_tracer(&tracer);
      try {
        const auto res = prim::make_app(opt.app)->run(guest, prm);
        print_breakdown(config.label.c_str(), res);
        vpim_total = res.total();
      } catch (const VpimStatusError& e) {
        std::printf("  run ended with typed status: %s\n", e.what());
      }
      print_device_stats(vm.device(0).stats);
      report_storm(host);
      dump_observability(opt, host, tracer);
    }
  }
  if (native_total > 0 && vpim_total > 0) {
    std::printf("overhead: %.2fx\n", static_cast<double>(vpim_total) /
                                         static_cast<double>(native_total));
  }
  return 0;
}
