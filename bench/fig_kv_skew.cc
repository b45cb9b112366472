// KV skew sweep (ISSUE 10): an open-loop trace replays against the
// partitioned KV service at a fixed fraction of the host's *measured*
// uniform capacity, three arms:
//
//   - dist:uniform/mit:on  — the capacity anchor: uniformly drawn keys,
//     mitigation tier on (nothing for it to do);
//   - dist:zipf99/mit:on   — YCSB-style Zipf theta=0.99 hot keys with the
//     mitigation tier fighting back: the hot-key cache absorbs repeated
//     GETs host-side and the windowed rebalancer migrates hot partitions
//     off the overloaded DPU;
//   - dist:zipf99/mit:off  — the control: same trace, cache and
//     rebalancer disabled, so the hottest DPU serializes the batch and
//     the service rate falls under the offered rate.
//
// Open-loop semantics: op i's arrival is start + i * gap (gap = measured
// uniform service time / 0.7). A window executes once its last op has
// arrived; an op is *good* when its completion lands within a fixed
// budget of its own arrival. A lane that cannot keep up falls ever
// further behind the arrival schedule and its goodput collapses — the
// same lateness mechanism as fig_overload, driven by skew instead of
// offered load.
//
// Emits BENCH_kv_skew.json (goodput_ops, cache_hit_ratio, rebalances and
// p50_op_ns/p99_op_ns latency columns next to simulated_ns/wall_ms) and
// self-gates (exit 1) on the tentpole claims:
//   1. the mitigated Zipf lane holds >= 85% of uniform goodput;
//   2. the unmitigated control degrades >= 2x below uniform.
// The pNN_*_ns columns are gated against the committed baseline by
// tools/bench_diff.py (10% tolerance) in the bench-regression CI job.
#include <algorithm>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "kv/kv_service.h"
#include "kv/loadgen.h"

namespace vpim::bench {
namespace {

constexpr std::uint32_t kWindow = 256;  // ops per execute() batch

struct Arm {
  const char* label;
  bool zipf;
  bool mitigation;
};
constexpr std::array<Arm, 3> kArms = {
    Arm{"kv/dist:uniform/mit:on", false, true},
    Arm{"kv/dist:zipf99/mit:on", true, true},
    Arm{"kv/dist:zipf99/mit:off", true, false}};

struct Row {
  std::string name;
  SimNs simulated_ns = 0;
  double goodput_ops = 0.0;  // deadline-met ops per simulated second
  double cache_hit_ratio = 0.0;
  std::uint64_t rebalances = 0;
  std::uint64_t cycles = 0;  // device round trips (diagnostic, ungated)
  SimNs p99_op_ns = 0;
};
std::vector<Row> g_rows;

// Floored at the full 4096-op trace: the collapse gate needs ~16 windows
// for the control's lateness to accumulate, and the whole sweep costs
// ~20ms of wall clock, so VPIM_BENCH_SCALE only ever scales it *up*.
std::uint32_t trace_ops() {
  const double scaled = 4096.0 * env_scale();
  return scaled < 4096.0 ? 4096 : static_cast<std::uint32_t>(scaled);
}

kv::KvConfig kv_config(bool mitigation) {
  kv::KvConfig cfg;
  cfg.partitions = 64;
  cfg.nr_dpus = 16;
  cfg.slots_per_dpu = 8;
  cfg.slot_capacity = 256;
  // Small per-DPU inbox: a DPU holding more than its fair share of a
  // window needs extra SQ/CQ cycles, which is how skew actually costs —
  // the hot DPU multiplies the whole batch's fixed round-trip overhead.
  cfg.max_batch_ops = 4;
  cfg.hot_key_cache = mitigation;
  cfg.hot_cache_entries = 256;
  cfg.rebalance = mitigation;
  cfg.rebalance_period = 4;
  return cfg;
}

kv::LoadgenConfig trace_config(bool zipf) {
  kv::LoadgenConfig lg;
  lg.seed = 424242;
  lg.nr_ops = trace_ops();
  lg.key_space = 2048;
  lg.zipf_theta_permille = zipf ? 990 : 0;
  lg.put_permille = 100;  // read-heavy: the shape hot-key caches exist for
  lg.delete_permille = 10;
  lg.scan_permille = 2;  // scans fan to every partition; keep them rare
  return lg;
}

core::VpimConfig kv_vm_config() {
  core::VpimConfig config = core::VpimConfig::full();
  config.queue_depth = 32;
  return config;
}

struct KvRig {
  explicit KvRig(bool mitigation)
      : vm_rig(kv_vm_config(), /*nr_devices=*/1),
        svc(vm_rig.vm.device(0).frontend, vm_rig.vm.vmm().memory(),
            vm_rig.host.clock, vm_rig.host.cost, vm_rig.host.obs,
            kv_config(mitigation)) {}

  SimClock& clock() { return vm_rig.host.clock; }

  // Every key PUT once, so the measured region's GETs hit real records.
  bool preload(const kv::LoadgenConfig& lg) {
    if (!svc.open()) return false;
    std::vector<kv::KvOp> batch;
    for (std::uint64_t k = 0; k < lg.key_space; ++k) {
      batch.push_back({kv::KvOpKind::kPut, k, k * 2654435761ULL, 0});
      if (batch.size() == kWindow || k + 1 == lg.key_space) {
        for (const kv::KvResult& r : svc.execute(batch)) {
          if (r.status != kv::KvStatus::kOk) return false;
        }
        batch.clear();
      }
    }
    return true;
  }

  VmRig vm_rig;
  kv::KvService svc;
};

// The uniform lane replayed wide open (no arrival gaps): its per-op
// service time anchors the offered rate and the deadline budget every
// arm then runs against.
SimNs calibrate_uniform_ns_per_op() {
  KvRig rig(/*mitigation=*/true);
  const kv::LoadgenConfig lg = trace_config(/*zipf=*/false);
  if (!rig.preload(lg)) return 0;
  const auto trace = kv::generate_trace(lg);
  const SimNs start = rig.clock().now();
  std::vector<kv::KvOp> window;
  for (const kv::KvTraceOp& t : trace) {
    window.push_back(t.op);
    if (window.size() == kWindow) {
      rig.svc.execute(window);
      window.clear();
    }
  }
  if (!window.empty()) rig.svc.execute(window);
  rig.svc.close();
  return (rig.clock().now() - start) / trace.size();
}

void run_kv_skew(BenchPoint& p, const Arm& arm, SimNs ns_per_op) {
  // Offered rate = 0.7x uniform capacity, as an exact integer gap so
  // the arrival schedule is deterministic virtual time.
  const SimNs gap = ns_per_op * 10 / 7;
  // An on-time window costs its fill time (kWindow arrivals) plus one
  // window of service; 2x the fill time covers both with headroom, and
  // a lane that falls behind eats through it within a few windows.
  const SimNs budget = 2 * kWindow * gap;

  KvRig rig(arm.mitigation);
  const kv::LoadgenConfig lg = trace_config(arm.zipf);
  VPIM_CHECK(rig.preload(lg), "kv preload failed");
  const auto trace = kv::generate_trace(lg);

  std::uint64_t good = 0;
  std::vector<SimNs> latencies;
  latencies.reserve(trace.size());
  const SimNs start = rig.clock().now();
  p.start_wall();

  std::vector<kv::KvOp> window;
  std::vector<SimNs> arrivals;
  std::size_t issued = 0;
  auto flush = [&] {
    if (window.empty()) return;
    // Open loop: the batch may start once its last op has arrived —
    // never earlier, but the clock running late is the lane's problem.
    const SimNs ready = arrivals.back();
    if (rig.clock().now() < ready) {
      rig.clock().advance(ready - rig.clock().now());
    }
    const auto results = rig.svc.execute(window);
    const SimNs done = rig.clock().now();
    for (std::size_t i = 0; i < window.size(); ++i) {
      const SimNs latency = done - arrivals[i];
      latencies.push_back(latency);
      if (results[i].status != kv::KvStatus::kDeviceFault &&
          results[i].status != kv::KvStatus::kTimeout && latency <= budget) {
        ++good;
      }
    }
    window.clear();
    arrivals.clear();
  };
  for (const kv::KvTraceOp& t : trace) {
    window.push_back(t.op);
    arrivals.push_back(start + static_cast<SimNs>(issued++) * gap);
    if (window.size() == kWindow) flush();
  }
  flush();
  p.stop_wall();
  const SimNs elapsed = rig.clock().now() - start;

  const kv::KvStats& st = rig.svc.stats();
  const std::uint64_t point_reads = st.gets;
  rig.svc.close();

  std::sort(latencies.begin(), latencies.end());
  const SimNs p50 = latencies.empty() ? 0 : latencies[latencies.size() / 2];
  const SimNs p99 =
      latencies.empty() ? 0
                        : latencies[(latencies.size() * 99 + 99) / 100 - 1];
  const double goodput =
      elapsed == 0 ? 0.0 : static_cast<double>(good) / ns_to_s(elapsed);
  const double hit_ratio =
      point_reads == 0 ? 0.0
                       : static_cast<double>(st.cache_hits) /
                             static_cast<double>(point_reads);

  p.simulated_ns = elapsed;
  p.add("goodput_ops", goodput, 1);
  p.add("cache_hit_ratio", hit_ratio, 4);
  p.add("rebalances", st.rebalances);
  p.add("cycles", st.cycles);
  p.add("p50_op_ns", p50);
  p.add("p99_op_ns", p99);
  g_rows.push_back({arm.label, elapsed, goodput, hit_ratio, st.rebalances,
                    st.cycles, p99});
}

const Row* find_row(const char* label) {
  for (const Row& row : g_rows) {
    if (row.name == label) return &row;
  }
  return nullptr;
}

void print_summary() {
  print_header(
      "KV skew - Zipf theta=0.99 vs uniform, mitigation on vs off",
      "hot-key cache + partition rebalance hold skewed goodput within 15% "
      "of uniform while the unmitigated control collapses >= 2x");
  std::printf("%-26s | %12s | %12s | %7s | %6s | %7s | %10s\n", "point",
              "simulated", "goodput/s", "cache", "moves", "cycles", "p99 op");
  for (const Row& row : g_rows) {
    std::printf(
        "%-26s | %10.2fms | %12.1f | %6.1f%% | %6llu | %7llu | %8.2fms\n",
        row.name.c_str(), ns_to_ms(row.simulated_ns), row.goodput_ops,
        row.cache_hit_ratio * 100.0,
        static_cast<unsigned long long>(row.rebalances),
        static_cast<unsigned long long>(row.cycles),
        ns_to_ms(row.p99_op_ns));
  }
}

void check_claims(Figure& fig) {
  const Row& uniform = *find_row("kv/dist:uniform/mit:on");
  const Row& mitigated = *find_row("kv/dist:zipf99/mit:on");
  const Row& control = *find_row("kv/dist:zipf99/mit:off");
  const auto versus = [&](const Row& row) {
    return std::to_string(row.goodput_ops) + "/s vs uniform " +
           std::to_string(uniform.goodput_ops) + "/s";
  };
  fig.claim("uniform_goodput_nonzero", uniform.goodput_ops > 0.0,
            std::to_string(uniform.goodput_ops) + "/s");
  fig.claim("mitigated_zipf_within_15pct_of_uniform",
            mitigated.goodput_ops >= 0.85 * uniform.goodput_ops,
            versus(mitigated));
  fig.claim("unmitigated_control_degrades_2x_below_uniform",
            control.goodput_ops <= 0.5 * uniform.goodput_ops,
            versus(control));
}

}  // namespace
}  // namespace vpim::bench

int main() {
  using namespace vpim::bench;
  Figure fig("kv_skew");
  const vpim::SimNs ns_per_op = calibrate_uniform_ns_per_op();
  if (!fig.claim("uniform_calibration_nonzero", ns_per_op != 0,
                 std::to_string(ns_per_op) + " ns/op")) {
    return fig.finish();
  }
  for (const Arm& arm : kArms) {
    fig.point(arm.label,
              [&](BenchPoint& p) { run_kv_skew(p, arm, ns_per_op); });
  }
  print_summary();
  check_claims(fig);
  return fig.finish();
}
