// Two-clock benchmark driver.
//
//   vpim_perfbench --workload <prim_fig8|kv_zipf|tenant_churn> --seed <n>
//                  --seconds <s> --trace <0|1> [--min-reps <n>]
//
// Repeats whole repetitions (set-up, timed phase, teardown) of the workload
// until --seconds of host time have passed, then prints a human-readable
// table followed by one JSON line. With --trace 0 the JSON carries the
// end-to-end metrics (host-time medians over the repetitions, in
// reference-machine seconds, plus the simulated metrics, which every
// repetition must reproduce exactly). A host-speed probe runs before the
// first repetition and after each one; a repetition's host times are
// divided by the mean speed index of the probes around it. With
// --trace 1 three kinds of repetition cycle: plain, with the benchmark's
// host-clock spans, and with the simulator's span tracer attached; the JSON
// carries the per-layer metrics and what each kind of tracing cost.
// Exits 1 when any output is wrong or a repetition's simulated digest
// differs from the first one's.
#include <malloc.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "common/log.h"
#include "common/thread_pool.h"
#include "machine_probe.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int min_reps = 0;  // 0 = default (3 plain; 1 of each kind when tracing)
};

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      o.workload = val;
    } else if (key == "--seed") {
      o.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      o.seconds = std::atof(val);
    } else if (key == "--trace") {
      o.trace = std::atoi(val) != 0;
    } else if (key == "--min-reps") {
      o.min_reps = std::atoi(val);
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return false;
    }
  }
  return argc % 2 == 1 && !o.workload.empty();
}

std::function<RepResult(const RunArgs&)> workload_fn(const std::string& w) {
  if (w == "prim_fig8") return run_prim_fig8;
  if (w == "kv_zipf") return run_kv_zipf;
  if (w == "tenant_churn") return run_tenant_churn;
  return nullptr;
}

void print_json_number(double v) {
  std::printf("%.17g", std::isfinite(v) ? v : 0.0);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: %s --workload <prim_fig8|kv_zipf|tenant_churn> "
                 "--seed <n> --seconds <s> --trace <0|1> [--min-reps <n>]\n",
                 argv[0]);
    return 2;
  }
  const auto fn = workload_fn(opt.workload);
  if (!fn) {
    std::fprintf(stderr, "unknown workload %s\n", opt.workload.c_str());
    return 2;
  }

  // Abandoned rank requests are expected in tenant_churn (each one becomes
  // an emulated bind); keep their warnings out of the output and the timing.
  vpim::set_log_level(vpim::LogLevel::kError);
  RunArgs args;
  args.seed = opt.seed;
  args.delay = PlantedDelay::from_env();
  const unsigned threads = vpim::ThreadPool::instance().size();

  // Repetition kinds, in the order they cycle with --trace 1.
  enum Kind { kPlain = 0, kSpans, kSimTrace };
  std::array<std::vector<RepResult>, 3> reps;
  const std::array<const char*, 3> kind_names = {"", " host-spans",
                                                 " sim-trace"};
  const int kinds = opt.trace ? 3 : 1;
  const std::size_t min_reps = opt.min_reps > 0 ? opt.min_reps
                               : opt.trace      ? 1
                                                : 3;
  const std::int64_t t_start = host_now_ns();
  ProbeSample before = probe_machine();
  for (std::size_t n = 0;; ++n) {
    const auto kind = static_cast<Kind>(n % kinds);
    args.host_spans = kind == kSpans;
    args.sim_trace = kind == kSimTrace;
    const std::int64_t t0 = host_now_ns();
    RepResult rep = fn(args);
    // Hand freed heap back to the system so memory a repetition released
    // does not pile up into the next one's peak.
    malloc_trim(0);
    const ProbeSample after = probe_machine();
    rep.speed_index = 0.5 * (before.index + after.index);
    before = after;
    const double rep_s = static_cast<double>(host_now_ns() - t0) * 1e-9;
    const double elapsed =
        static_cast<double>(host_now_ns() - t_start) * 1e-9;
    std::printf("rep %zu%s: setup %.4f s  wall %.4f s  teardown %.4f s  "
                "(%.2f s)  speed index %.3f  sim %s\n",
                n, kind_names[kind], rep.setup_s, rep.wall_s, rep.teardown_s,
                rep_s, rep.speed_index, rep.sim_digest.hex().c_str());
    reps[kind].push_back(std::move(rep));
    const bool enough = reps[kPlain].size() >= min_reps &&
                        (n + 1) % kinds == 0;
    if (enough && elapsed + rep_s * kinds > opt.seconds) break;
  }

  // ---- correctness and determinism ---------------------------------------
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
  const std::uint64_t sim_digest = reps[kPlain].front().sim_digest.value();
  for (const auto& group : reps) {
    for (const RepResult& rep : group) {
      attempted += rep.attempted;
      failed += rep.failed;
      failures.insert(failures.end(), rep.failures.begin(),
                      rep.failures.end());
      ++attempted;  // the repetition's determinism check
      if (rep.sim_digest.value() != sim_digest ||
          rep.span_digest.value() != group.front().span_digest.value()) {
        ++failed;
        failures.push_back("simulated digest differs between repetitions");
      }
    }
  }
  for (const std::string& f : failures) {
    std::printf("FAIL: %s\n", f.c_str());
  }

  // ---- metrics -------------------------------------------------------------
  auto med = [](const std::vector<RepResult>& group, auto field) {
    std::vector<double> v;
    for (const RepResult& rep : group) v.push_back(field(rep));
    return median(v);
  };
  // Host time of one phase: the sum over units of each unit's median across
  // repetitions (the median of the totals when repetitions do not split
  // into the same units). Normalised, each repetition's times are divided
  // by its speed index first.
  enum Phase { kSetup, kWall, kTeardown };
  auto host_time = [&](const std::vector<RepResult>& group, Phase phase,
                       bool normalised) {
    auto units = [phase](const RepResult& x) -> const std::vector<double>& {
      return phase == kSetup  ? x.setup_units
             : phase == kWall ? x.wall_units
                              : x.teardown_units;
    };
    auto scale = [normalised](const RepResult& x) {
      return normalised ? 1.0 / x.speed_index : 1.0;
    };
    const std::size_t n = units(group.front()).size();
    bool same_units = n > 0;
    for (const RepResult& rep : group) same_units &= units(rep).size() == n;
    if (!same_units) {
      return med(group, [&](const RepResult& x) {
        const double total = phase == kSetup  ? x.setup_s
                             : phase == kWall ? x.wall_s
                                              : x.teardown_s;
        return total * scale(x);
      });
    }
    double sum = 0.0;
    for (std::size_t u = 0; u < n; ++u) {
      sum += med(group,
                 [&](const RepResult& x) { return units(x)[u] * scale(x); });
    }
    return sum;
  };
  Metrics out;
  const double plain_wall = host_time(reps[kPlain], kWall, true);
  const double speed_index =
      med(reps[kPlain], [](const RepResult& x) { return x.speed_index; });
  if (!opt.trace) {
    const auto n = reps[kPlain].size();
    out.set("setup_s", host_time(reps[kPlain], kSetup, true), "s", n);
    out.set("wall_s", plain_wall, "s", n);
    out.set("teardown_s", host_time(reps[kPlain], kTeardown, true), "s", n);
    out.set("peak_rss_mb", peak_rss_mb(), "MB", 1);
    for (const auto& [name, m] : reps[kPlain].front().sim.items()) {
      out.set(name, m.value, m.unit, m.samples);
    }
  } else {
    // Simulated per-layer columns come from the repetitions with the
    // simulator's tracer attached; everything else from the host-span ones.
    for (const auto& [name, m] : reps[kSpans].front().layer.items()) {
      const bool sim_column =
          name.rfind("sim_self_ms.", 0) == 0 || name.rfind("spans.", 0) == 0;
      std::vector<double> v;
      for (const RepResult& rep : reps[sim_column ? kSimTrace : kSpans]) {
        v.push_back(rep.layer.find(name)->value);
      }
      out.set(name, median(v), m.unit, m.samples);
    }
    out.set("trace.overhead_s",
            host_time(reps[kSpans], kWall, true) - plain_wall, "s",
            reps[kSpans].size());
    out.set("trace.sim_overhead_s",
            host_time(reps[kSimTrace], kWall, true) - plain_wall, "s",
            reps[kSimTrace].size());
    const auto n = reps[kPlain].size();
    out.set("machine.speed_index", speed_index, "ratio", n);
    out.set("raw.wall_s", host_time(reps[kPlain], kWall, false), "s", n);
    out.set("raw.teardown_s", host_time(reps[kPlain], kTeardown, false), "s",
            n);
    out.set("fail_frac",
            static_cast<double>(failed) / static_cast<double>(attempted),
            "ratio", attempted);
  }

  std::printf("\nworkload %s  seed %llu  VPIM_THREADS %u  repetitions "
              "%zu plain + %zu host-spans + %zu sim-trace\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              threads, reps[kPlain].size(), reps[kSpans].size(),
              reps[kSimTrace].size());
  std::printf("host speed index %.4f (median over plain repetitions); raw "
              "wall_s %.6f s, teardown_s %.6f s\n",
              speed_index,
              host_time(reps[kPlain], kWall, false),
              host_time(reps[kPlain], kTeardown, false));
  std::printf("sim_digest %s\n", reps[kPlain].front().sim_digest.hex().c_str());
  if (opt.trace) {
    std::printf("span_digest %s\n",
                reps[kSimTrace].front().span_digest.hex().c_str());
  }
  std::printf("%-34s %16s  %-6s %8s\n", "metric", "value", "unit", "samples");
  for (const auto& [name, m] : out.items()) {
    std::printf("%-34s %16.6f  %-6s %8llu\n", name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
  }
  std::printf("attempted %llu  failed %llu\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  for (const auto& [name, m] : out.items()) {
    std::printf("%s\"%s\": {\"value\": ", first ? "" : ", ", name.c_str());
    print_json_number(m.value);
    std::printf(", \"unit\": \"%s\"}", m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}
