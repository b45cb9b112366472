// kv_zipf: open-loop serving on one long-lived Host and VM. A 60-DPU
// KvService (hot-key cache and rebalancer on) is preloaded during set-up,
// then seeded Zipf(0.99) traces are replayed at two fixed absolute rates
// (lo, hi) and a deterministic bisection finds the highest rate whose p99
// stays within a fixed limit without a growing backlog. Every result is
// compared with prop::KvOracle outside the timed spans.
#include <algorithm>
#include <memory>

#include "common/proptest/kv_oracle.h"
#include "kv/kv_service.h"
#include "kv/loadgen.h"
#include "vpim/host.h"
#include "vpim/vpim_vm.h"
#include "workloads.h"

namespace perfbench {

namespace {

// Offered rates, fixed in absolute simulated ops/s (about 40% and 68% of
// the service's capacity of about 148 kops/s) so a model change shows as a
// latency change instead of being calibrated away. Closer to capacity the
// queueing turns the seed-to-seed capacity differences (a few percent, from
// where the rebalancer leaves the partitions) into 10-15% swings of the
// hi-rate p99.
constexpr std::uint64_t kRateLo = 60'000;
constexpr std::uint64_t kRateHi = 100'000;
// Ops per fixed-rate replay: the 0.2% scans fan out to every partition and
// set the tail, so a replay needs a few hundred of them for a p99 that does
// not hinge on how many a seed happens to draw.
constexpr std::uint64_t kReplayOps = 160'000;
constexpr std::uint64_t kWarmOps = 40'000;
// Max-rate search: every rate of a fixed grid is replayed (kProbeOps fresh
// ops each, so every seed does the same work); a rate passes when its p99
// stays within kP99Limit and its backlog grows by less than one batch over
// the replay. The reported rate is the highest passing rate, interpolated
// on p99 towards the next grid rate.
constexpr std::uint64_t kGridStart = 80'000;
constexpr std::uint64_t kGridStep = 10'000;
constexpr int kGridPoints = 13;
constexpr std::uint64_t kProbeOps = 20'000;
constexpr SimNs kP99Limit = 5 * vpim::kMs;
constexpr std::size_t kMaxBatch = 256;  // ops one execute() takes
constexpr std::uint64_t kKeySpace = 32'768;

vpim::kv::KvConfig service_config() {
  vpim::kv::KvConfig cfg;
  cfg.partitions = 120;
  cfg.nr_dpus = 60;
  cfg.slots_per_dpu = 4;
  cfg.slot_capacity = 1024;
  cfg.max_batch_ops = 16;
  cfg.hot_key_cache = true;
  cfg.hot_cache_entries = 256;
  cfg.rebalance = true;
  cfg.rebalance_period = 32;
  return cfg;
}

std::vector<vpim::kv::KvOp> make_trace(std::uint64_t seed, std::uint64_t tag,
                                       std::uint64_t ops) {
  vpim::kv::LoadgenConfig lg;
  lg.seed = mix64(seed * 1000 + tag);
  lg.nr_ops = ops;
  lg.key_space = kKeySpace;
  lg.zipf_theta_permille = 990;
  lg.put_permille = 100;
  lg.delete_permille = 10;
  lg.scan_permille = 2;
  lg.scan_span = 512;
  std::vector<vpim::kv::KvOp> out;
  out.reserve(ops);
  for (const auto& t : vpim::kv::generate_trace(lg)) out.push_back(t.op);
  return out;
}

struct Replay {
  std::vector<SimNs> latency;  // completion - due, per op
  double lateness_ns = 0.0;    // mean dispatch - due
  double backlog_slope = 0.0;  // ops per simulated ms (least squares)
  SimNs makespan = 0;
};

// Least-squares slope of backlog over time, in ops per simulated ms.
double slope_per_ms(const std::vector<std::pair<double, double>>& pts) {
  if (pts.size() < 2) return 0.0;
  double st = 0, sb = 0;
  for (auto [t, b] : pts) {
    st += t;
    sb += b;
  }
  const double n = static_cast<double>(pts.size());
  const double mt = st / n, mb = sb / n;
  double num = 0, den = 0;
  for (auto [t, b] : pts) {
    num += (t - mt) * (b - mb);
    den += (t - mt) * (t - mt);
  }
  return den == 0.0 ? 0.0 : num / den * 1e6;
}

}  // namespace

void check_kv_results(vpim::prop::KvOracle& oracle,
                      std::span<const vpim::kv::KvOp> ops,
                      const std::vector<vpim::kv::KvResult>& results,
                      RepResult& r) {
  if (results.size() != ops.size()) {
    r.attempted += ops.size();
    r.fail("KV batch returned the wrong number of results");
    return;
  }
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const vpim::kv::KvOp& op = ops[i];
    vpim::prop::KvOracle::Reply want;
    switch (op.kind) {
      case vpim::kv::KvOpKind::kGet: want = oracle.get(op.key); break;
      case vpim::kv::KvOpKind::kPut: want = oracle.put(op.key, op.value); break;
      case vpim::kv::KvOpKind::kDelete: want = oracle.del(op.key); break;
      case vpim::kv::KvOpKind::kScan: want = oracle.scan(op.key, op.hi); break;
    }
    const vpim::kv::KvResult& got = results[i];
    ++r.attempted;
    if (static_cast<std::uint32_t>(got.status) != want.status ||
        got.value != want.value || got.nresults != want.nresults ||
        got.pairs != want.pairs) {
      r.fail("KV result differs from the oracle (key " +
             std::to_string(op.key) + ")");
    }
    r.sim_digest.u64(static_cast<std::uint64_t>(got.status));
    r.sim_digest.u64(got.value);
    r.sim_digest.u64(got.nresults);
    for (auto [k, v] : got.pairs) {
      r.sim_digest.u64(k);
      r.sim_digest.u64(v);
    }
  }
}

RepResult run_kv_zipf(const RunArgs& args) {
  RepResult r;
  set_layer_defaults(r.layer);
  HostTrace wall_trace(args.host_spans);
  HostTrace untimed_trace(false);
  vpim::obs::Tracer tracer;
  SimLayerAgg sim_agg;
  Stopwatch setup, wall, teardown;
  KvTotals kv;
  const vpim::kv::KvConfig cfg = service_config();

  // ---- set-up: Host, VM, open service, preload, generate traces ---------
  setup.start();
  auto host_ptr = std::make_unique<vpim::core::Host>(
      vpim::upmem::MachineConfig{}, perturbed_cost(), bench_manager());
  vpim::core::Host& host = *host_ptr;
  vpim::core::VpimConfig vcfg = vpim::core::VpimConfig::full();
  vcfg.queue_depth = 32;
  std::int64_t t0 = host_now_ns();
  auto vm = std::make_unique<vpim::core::VpimVm>(
      host,
      vpim::vmm::VmmParams{.name = "kv-vm",
                           .vcpus = 4,
                           .guest_ram_bytes = 1 * vpim::kGiB},
      1, vcfg);
  const double boot_host_s = static_cast<double>(host_now_ns() - t0) * 1e-9;
  if (args.sim_trace) host.attach_tracer(&tracer);
  auto svc = std::make_unique<vpim::kv::KvService>(
      vm->device(0).frontend, vm->vmm().memory(), host.clock, host.cost,
      host.obs, cfg);
  t0 = host_now_ns();
  const bool opened = svc->open();
  kv.open_s += static_cast<double>(host_now_ns() - t0) * 1e-9;
  ++kv.opens;
  vpim::prop::KvOracle oracle(cfg.partitions, cfg.slot_capacity,
                              cfg.scan_limit);
  setup.stop();
  r.setup_units.push_back(setup.lap());
  ++r.attempted;
  if (!opened) {
    r.fail("KV service could not bind a rank");
    return r;
  }
  std::vector<vpim::kv::KvOp> batch;
  for (std::uint64_t k = 0; k < kKeySpace; ++k) {
    batch.push_back({vpim::kv::KvOpKind::kPut, k, mix64(k), 0});
    if (batch.size() == kMaxBatch || k + 1 == kKeySpace) {
      setup.start();
      const auto res = svc->execute(batch);
      setup.stop();
      check_kv_results(oracle, batch, res, r);
      batch.clear();
    }
  }
  r.setup_units.push_back(setup.lap());
  setup.start();
  const auto trace_lo = make_trace(args.seed, 1, kReplayOps);
  const auto trace_hi = make_trace(args.seed, 2, kReplayOps);
  const auto trace_warm = make_trace(args.seed, 3, kWarmOps);
  std::vector<std::vector<vpim::kv::KvOp>> probes;
  for (int i = 0; i < kGridPoints; ++i) {
    probes.push_back(make_trace(args.seed, 10 + i, kProbeOps));
  }
  setup.stop();
  if (args.sim_trace) sim_agg.fold(tracer);

  // ---- timed phase ---------------------------------------------------------
  // `phase` is the stopwatch the replay runs under; only replays under the
  // wall stopwatch record host spans and per-op host time.
  auto replay = [&](const std::vector<vpim::kv::KvOp>& ops,
                    std::uint64_t rate, Stopwatch& phase) {
    const bool timed = &phase == &wall;
    HostTrace& ht = timed ? wall_trace : untimed_trace;
    Replay out;
    out.latency.reserve(ops.size());
    vpim::SimClock& clock = host.clock;
    const SimNs start = clock.now();
    const std::size_t n = ops.size();
    auto due = [&](std::size_t i) {
      return start + static_cast<SimNs>(i) * 1'000'000'000ULL / rate;
    };
    std::vector<std::pair<double, double>> backlog;
    double lateness = 0.0;
    std::size_t i = 0;
    while (i < n) {
      if (due(i) > clock.now()) clock.advance(due(i) - clock.now());
      const SimNs now = clock.now();
      std::size_t arrived = i;
      while (arrived < n && due(arrived) <= now) ++arrived;
      const std::size_t j = std::min(arrived, i + kMaxBatch);
      backlog.emplace_back(static_cast<double>(now - start),
                           static_cast<double>(arrived - i));
      const std::span<const vpim::kv::KvOp> slice(ops.data() + i, j - i);
      ht.next_op();
      std::vector<vpim::kv::KvResult> res;
      {
        const std::int64_t h0 = args.host_spans ? host_now_ns() : 0;
        HostSpan span(ht, HostLayer::kKv);
        res = svc->execute(slice);
        if (args.host_spans && timed) {
          kv.exec_s += static_cast<double>(host_now_ns() - h0) * 1e-9;
        }
      }
      const SimNs done = clock.now();
      for (std::size_t k = i; k < j; ++k) {
        lateness += static_cast<double>(now - due(k));
        out.latency.push_back(done - due(k));
      }
      phase.stop();
      check_kv_results(oracle, slice, res, r);
      if (args.sim_trace) sim_agg.fold(tracer);
      phase.start();
      i = j;
    }
    out.makespan = clock.now() - start;
    out.lateness_ns = lateness / static_cast<double>(n);
    out.backlog_slope = slope_per_ms(backlog);
    std::sort(out.latency.begin(), out.latency.end());
    return out;
  };
  // A rate passes when its p99 meets the limit and the backlog grows by
  // less than one batch over the whole replay.
  auto sustainable = [&](const Replay& p) {
    const double growth =
        p.backlog_slope * static_cast<double>(p.makespan) * 1e-6;
    return percentile(p.latency, 0.99) <= kP99Limit &&
           growth < static_cast<double>(kMaxBatch);
  };

  // Warm-up (set-up): fills the hot-key cache and lets the rebalancer
  // settle on the skew before anything is timed.
  r.setup_units.push_back(setup.lap());
  setup.start();
  replay(trace_warm, kRateLo, setup);
  setup.stop();
  r.setup_units.push_back(setup.lap());
  const vpim::kv::KvStats warmed = svc->stats();
  if (args.sim_trace) {
    // Set-up spans stay in the span digest but not in the per-layer
    // simulated time, which covers the timed phase.
    sim_agg.fold(tracer);
    sim_agg.self_ns = {};
    sim_agg.spans = {};
  }

  wall.start();
  const Replay lo = replay(trace_lo, kRateLo, wall);
  r.wall_units.push_back(wall.lap());
  const Replay hi = replay(trace_hi, kRateHi, wall);
  r.wall_units.push_back(wall.lap());
  std::vector<SimNs> grid_p99;
  int highest_pass = -1;
  for (int step = 0; step < kGridPoints; ++step) {
    const std::uint64_t rate =
        kGridStart + static_cast<std::uint64_t>(step) * kGridStep;
    const Replay p =
        replay(probes[static_cast<std::size_t>(step)], rate, wall);
    r.wall_units.push_back(wall.lap());
    grid_p99.push_back(percentile(p.latency, 0.99));
    if (sustainable(p)) highest_pass = step;
  }
  wall.stop();
  kv.add(svc->stats());
  // Preload and warm-up are set-up: take them out of the per-op accounting.
  kv.ops -= warmed.gets + warmed.puts + warmed.deletes + warmed.scans;
  kv.gets -= warmed.gets;
  kv.cache_hits -= warmed.cache_hits;
  kv.batches -= warmed.batches;
  kv.cycles -= warmed.cycles;
  kv.rebalances -= warmed.rebalances;
  kv.migrated_records -= warmed.migrated_records;
  const vpim::core::DeviceStats dev = vm->device(0).stats;
  const vpim::core::ManagerStats mgr = host.manager.stats();
  const SimNs boot_sim = vm->boot_duration();
  const std::uint64_t resident = machine_resident_bytes(host.machine);

  // ---- teardown ------------------------------------------------------------
  teardown.start();
  t0 = host_now_ns();
  svc->close();
  kv.close_s += static_cast<double>(host_now_ns() - t0) * 1e-9;
  ++kv.closes;
  svc.reset();
  vm.reset();
  host_ptr.reset();
  teardown.stop();
  r.teardown_units.push_back(teardown.lap());
  if (args.sim_trace) sim_agg.fold(tracer);

  r.setup_s = setup.seconds();
  r.wall_s = wall.seconds();
  r.teardown_s = teardown.seconds();

  // ---- simulated end-to-end metrics ------------------------------------
  if (!percentile_supported(lo.latency.size(), 0.99) ||
      !percentile_supported(hi.latency.size(), 0.99)) {
    r.fail("too few ops for a supported p99");
  }
  r.sim.set("sim_s", static_cast<double>(lo.makespan) * 1e-9, "s",
            lo.latency.size());
  r.sim.set("overhead_x", mean(hi.latency) / mean(lo.latency), "x",
            lo.latency.size() + hi.latency.size());
  r.sim.set("p50_lat_us",
            static_cast<double>(percentile(lo.latency, 0.50)) * 1e-3, "us",
            lo.latency.size());
  r.sim.set("p99_lat_us",
            static_cast<double>(percentile(lo.latency, 0.99)) * 1e-3, "us",
            lo.latency.size());
  r.sim.set("p99_lat_us.hi",
            static_cast<double>(percentile(hi.latency, 0.99)) * 1e-3, "us",
            hi.latency.size());
  double max_rate = 0.0;
  if (highest_pass < 0 || highest_pass + 1 == kGridPoints) {
    r.fail("max-rate grid did not bracket the limit");
  } else {
    const auto h = static_cast<std::size_t>(highest_pass);
    const SimNs lo_p99 = grid_p99[h];
    const SimNs hi_p99 = grid_p99[h + 1];
    const double frac =
        hi_p99 > kP99Limit && hi_p99 > lo_p99
            ? static_cast<double>(kP99Limit - lo_p99) /
                  static_cast<double>(hi_p99 - lo_p99)
            : 0.0;
    max_rate = static_cast<double>(kGridStart + h * kGridStep) +
               frac * static_cast<double>(kGridStep);
  }
  r.sim.set("max_rate_kops", max_rate * 1e-3, "kops", kGridPoints);

  // ---- per-layer metrics -------------------------------------------------
  Metrics& m = r.layer;
  FrontendTotals fe;
  fe.add(dev);
  fe.report(m);
  kv.report(m);
  report_manager(m, mgr, 0.0, 0);
  m.set("upmem.resident_mb", static_cast<double>(resident) / 1e6, "MB");
  m.set("upmem.teardown_ms_per_host", r.teardown_s * 1e3, "ms");
  m.set("vmm.boot_host_ms", boot_host_s * 1e3, "ms");
  m.set("vmm.boot_sim_ms", static_cast<double>(boot_sim) * 1e-6, "ms");
  m.set("loadgen.lateness_us.lo", lo.lateness_ns * 1e-3, "us",
        lo.latency.size());
  m.set("loadgen.lateness_us.hi", hi.lateness_ns * 1e-3, "us",
        hi.latency.size());
  m.set("loadgen.backlog_slope.lo", lo.backlog_slope, "ops/ms");
  m.set("loadgen.backlog_slope.hi", hi.backlog_slope, "ops/ms");
  r.host_self_s = wall_trace.self_seconds();
  set_trace_layers(r, sim_agg);
  for (const auto& [name, metric] : r.sim.items()) {
    r.sim_digest.str(name);
    r.sim_digest.bytes(&metric.value, sizeof(metric.value));
  }
  return r;
}

}  // namespace perfbench
