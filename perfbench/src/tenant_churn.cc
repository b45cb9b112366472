// tenant_churn: the control plane under a tenant population larger than
// the machine. One long-lived Host (8 ranks); tenants arrive one after
// another, and when the active set is full the oldest session departs
// first. Each session boots a VpimVm with one oversubscribing vUPMEM
// device, opens an 8-DPU KvService, runs one write-heavy uniform-key batch
// against a cold cache and stays open (holding its rank) until it departs.
// Popular tenants return often, so a returning tenant can get its previous
// rank back without a reset. Observer passes run after every departure and
// reset released ranks every kResetEvery sessions.
//
// Two phases: lo keeps 8 tenants active (the ranks exactly), hi keeps 12
// (four bind host-emulated ranks). The session latency is the simulated
// time from a session's start to its first answered request: VM booted,
// rank bound, service open and the session's batch executed.
#include <algorithm>
#include <deque>
#include <memory>
#include <optional>

#include "common/proptest/kv_oracle.h"
#include "kv/kv_service.h"
#include "kv/loadgen.h"
#include "vpim/host.h"
#include "vpim/vpim_vm.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::uint32_t kTenants = 20;
constexpr std::uint32_t kActiveLo = 8;
constexpr std::uint32_t kActiveHi = 12;
constexpr std::uint32_t kSessionsLo = 1100;
constexpr std::uint32_t kSessionsHi = 1100;
constexpr std::uint32_t kOpsPerSession = 32;
constexpr std::uint32_t kResetEvery = 16;
constexpr std::uint32_t kSessionsPerUnit = 100;  // host-time unit
// Share (per mille) of arrivals that are the tenant who just departed
// coming back, e.g. a VM restarted in place.
constexpr std::uint64_t kReturnPermille = 600;

// Sessions differ in service footprint (DPUs and slots per DPU, drawn from
// the seed), so they open at different costs.
vpim::kv::KvConfig session_config(std::uint64_t h) {
  vpim::kv::KvConfig cfg;
  cfg.nr_dpus = 4 + static_cast<std::uint32_t>(h % 33);
  cfg.slots_per_dpu = 2 + static_cast<std::uint32_t>((h >> 8) % 5);
  cfg.partitions = cfg.nr_dpus * 2;
  cfg.slot_capacity = 256;
  cfg.max_batch_ops = 16;
  return cfg;
}

struct Session {
  std::uint32_t tenant = 0;
  std::unique_ptr<vpim::core::VpimVm> vm;
  std::unique_ptr<vpim::kv::KvService> svc;
};

// The tenant arrival stream.
struct Rng {
  std::uint64_t s;
  std::uint64_t next() { return mix64(s++); }
};

}  // namespace

RepResult run_tenant_churn(const RunArgs& args) {
  RepResult r;
  set_layer_defaults(r.layer);
  HostTrace wall_trace(args.host_spans);
  vpim::obs::Tracer tracer;
  SimLayerAgg sim_agg;
  Stopwatch setup, wall, teardown;
  KvTotals kv;
  FrontendTotals fe;
  const std::uint32_t sessions = kSessionsLo + kSessionsHi;

  // ---- set-up: Host and the seeded session traffic ------------------------
  setup.start();
  auto host_ptr = std::make_unique<vpim::core::Host>(
      vpim::upmem::MachineConfig{}, perturbed_cost(), bench_manager());
  vpim::core::Host& host = *host_ptr;
  vpim::kv::LoadgenConfig lg;
  lg.seed = args.seed * 7919 + 3;
  lg.nr_ops = static_cast<std::uint64_t>(sessions) * kOpsPerSession;
  lg.key_space = 64;
  lg.put_permille = 500;
  lg.delete_permille = 0;
  lg.scan_permille = 0;
  std::vector<vpim::kv::KvOp> ops;
  ops.reserve(lg.nr_ops);
  for (const auto& t : vpim::kv::generate_trace(lg)) ops.push_back(t.op);
  setup.stop();
  r.setup_units.push_back(setup.lap());
  if (args.sim_trace) host.attach_tracer(&tracer);

  vpim::core::VpimConfig vcfg = vpim::core::VpimConfig::full();
  vcfg.oversubscribe = true;
  vcfg.queue_depth = 8;
  Rng rng{args.seed ^ 0x5EEDC0DEULL};

  std::deque<Session> active;
  std::vector<bool> is_active(kTenants, false);
  std::vector<SimNs> lat_lo, lat_hi;
  double boot_host_s = 0.0, observe_host_s = 0.0;
  std::uint64_t observes = 0, boots = 0;
  SimNs boot_sim = 0;

  auto observe = [&](bool resets) {
    const std::int64_t t0 = args.host_spans ? host_now_ns() : 0;
    {
      HostSpan span(wall_trace, HostLayer::kManager);
      host.manager.observe(resets);
    }
    if (args.host_spans) {
      observe_host_s += static_cast<double>(host_now_ns() - t0) * 1e-9;
    }
    ++observes;
  };
  // Departure: close the service, destroy the VM, let the observer see
  // the released rank.
  auto depart = [&](Session& s) {
    std::int64_t t0 = args.host_spans ? host_now_ns() : 0;
    {
      HostSpan span(wall_trace, HostLayer::kKv);
      s.svc->close();
      s.svc.reset();
    }
    if (args.host_spans) {
      kv.close_s += static_cast<double>(host_now_ns() - t0) * 1e-9;
    }
    ++kv.closes;
    fe.add(s.vm->device(0).stats);
    {
      HostSpan span(wall_trace, HostLayer::kVmm);
      s.vm.reset();
    }
    is_active[s.tenant] = false;
  };
  // Popularity 1/(t+1) over the tenants not currently active.
  auto pick_tenant = [&]() {
    double total = 0.0;
    for (std::uint32_t t = 0; t < kTenants; ++t) {
      if (!is_active[t]) total += 1.0 / (t + 1);
    }
    const double u = static_cast<double>(rng.next() >> 11) * 0x1.0p-53 * total;
    double acc = 0.0;
    std::uint32_t last = 0;
    for (std::uint32_t t = 0; t < kTenants; ++t) {
      if (is_active[t]) continue;
      last = t;
      acc += 1.0 / (t + 1);
      if (u < acc) return t;
    }
    return last;
  };

  // ---- timed phase ---------------------------------------------------------
  const SimNs start = host.clock.now();
  SimNs hi_start = start;
  std::uint64_t hi_ops = 0;
  wall.start();
  for (std::uint32_t n = 0; n < sessions; ++n) {
    const bool hi_phase = n >= kSessionsLo;
    if (n == kSessionsLo) hi_start = host.clock.now();
    const std::uint32_t cap = hi_phase ? kActiveHi : kActiveLo;
    wall_trace.next_op();
    std::optional<std::uint32_t> departed;
    if (active.size() >= cap) {
      departed = active.front().tenant;
      depart(active.front());
      active.pop_front();
      observe(/*resets=*/false);
    }
    if (n % kResetEvery == kResetEvery - 1) observe(/*resets=*/true);

    Session s;
    s.tenant = departed && rng.next() % 1000 < kReturnPermille
                   ? *departed
                   : pick_tenant();
    const vpim::kv::KvConfig cfg = session_config(rng.next());
    is_active[s.tenant] = true;
    const SimNs t_start = host.clock.now();
    std::int64_t t0 = host_now_ns();
    {
      HostSpan span(wall_trace, HostLayer::kVmm);
      s.vm = std::make_unique<vpim::core::VpimVm>(
          host,
          vpim::vmm::VmmParams{
              .name = "tenant" + std::to_string(s.tenant),
              .vcpus = 2,
              .guest_ram_bytes = 128 * vpim::kMiB},
          1, vcfg);
    }
    boot_host_s += static_cast<double>(host_now_ns() - t0) * 1e-9;
    boot_sim += s.vm->boot_duration();
    ++boots;
    t0 = args.host_spans ? host_now_ns() : 0;
    bool opened = false;
    {
      HostSpan span(wall_trace, HostLayer::kKv);
      s.svc = std::make_unique<vpim::kv::KvService>(
          s.vm->device(0).frontend, s.vm->vmm().memory(), host.clock,
          host.cost, host.obs, cfg);
      opened = s.svc->open();
    }
    if (args.host_spans) {
      kv.open_s += static_cast<double>(host_now_ns() - t0) * 1e-9;
    }
    ++kv.opens;
    if (!opened) {
      wall.stop();
      ++r.attempted;
      r.fail("session of tenant" + std::to_string(s.tenant) + " refused");
      wall.start();
      s.vm.reset();
      is_active[s.tenant] = false;
      continue;
    }
    ++r.attempted;  // the session itself
    const std::span<const vpim::kv::KvOp> batch(
        ops.data() + static_cast<std::size_t>(n) * kOpsPerSession,
        kOpsPerSession);
    std::vector<vpim::kv::KvResult> res;
    t0 = args.host_spans ? host_now_ns() : 0;
    {
      HostSpan span(wall_trace, HostLayer::kKv);
      res = s.svc->execute(batch);
    }
    if (args.host_spans) {
      kv.exec_s += static_cast<double>(host_now_ns() - t0) * 1e-9;
    }
    (hi_phase ? lat_hi : lat_lo).push_back(host.clock.now() - t_start);
    if (hi_phase) hi_ops += batch.size();
    wall.stop();
    vpim::prop::KvOracle oracle(cfg.partitions, cfg.slot_capacity,
                                cfg.scan_limit);
    check_kv_results(oracle, batch, res, r);
    if (args.sim_trace) sim_agg.fold(tracer);
    wall.start();
    kv.add(s.svc->stats());
    active.push_back(std::move(s));
    if ((n + 1) % kSessionsPerUnit == 0) r.wall_units.push_back(wall.lap());
  }
  wall.stop();
  const SimNs end = host.clock.now();
  const vpim::core::ManagerStats mgr = host.manager.stats();
  const auto wall_self = wall_trace.self_seconds();
  const std::uint64_t resident = machine_resident_bytes(host.machine);

  // ---- teardown: remaining sessions, leak check, Host ---------------------
  teardown.start();
  while (!active.empty()) {
    depart(active.front());
    active.pop_front();
  }
  host.manager.observe(/*do_resets=*/true);
  teardown.stop();
  for (std::uint32_t rank = 0; rank < host.machine.nr_ranks(); ++rank) {
    ++r.attempted;
    if (host.manager.state(rank) != vpim::core::RankState::kNaav ||
        host.drv.is_mapped(rank)) {
      r.fail("rank " + std::to_string(rank) +
             " not allocatable after the churn");
    }
  }
  ++r.attempted;
  if (!host.manager.wranks().empty()) r.fail("leaked wrank allocation");
  teardown.start();
  host_ptr.reset();
  teardown.stop();
  r.teardown_units.push_back(teardown.lap());
  if (args.sim_trace) sim_agg.fold(tracer);

  r.setup_s = setup.seconds();
  r.wall_s = wall.seconds();
  r.teardown_s = teardown.seconds();

  // ---- simulated end-to-end metrics ------------------------------------
  std::sort(lat_lo.begin(), lat_lo.end());
  std::sort(lat_hi.begin(), lat_hi.end());
  if (!percentile_supported(lat_lo.size(), 0.99) ||
      !percentile_supported(lat_hi.size(), 0.99)) {
    r.fail("too few sessions for a supported p99");
  }
  r.sim.set("sim_s", static_cast<double>(end - start) * 1e-9, "s", sessions);
  r.sim.set("overhead_x", mean(lat_hi) / mean(lat_lo), "x", sessions);
  r.sim.set("p50_lat_us", static_cast<double>(percentile(lat_lo, 0.50)) * 1e-3,
            "us", lat_lo.size());
  r.sim.set("p99_lat_us", static_cast<double>(percentile(lat_lo, 0.99)) * 1e-3,
            "us", lat_lo.size());
  r.sim.set("p99_lat_us.hi",
            static_cast<double>(percentile(lat_hi, 0.99)) * 1e-3, "us",
            lat_hi.size());
  r.sim.set("max_rate_kops",
            static_cast<double>(hi_ops) /
                (static_cast<double>(end - hi_start) * 1e-9) * 1e-3,
            "kops", hi_ops);

  // ---- per-layer metrics -------------------------------------------------
  Metrics& m = r.layer;
  fe.report(m);
  kv.report(m);
  report_manager(m, mgr, observe_host_s, observes);
  m.set("upmem.resident_mb", static_cast<double>(resident) / 1e6, "MB");
  m.set("upmem.teardown_ms_per_host", r.teardown_s * 1e3, "ms");
  m.set("vmm.boot_host_ms", boot_host_s * 1e3 / static_cast<double>(boots),
        "ms", boots);
  m.set("vmm.boot_sim_ms",
        static_cast<double>(boot_sim) * 1e-6 / static_cast<double>(boots),
        "ms", boots);
  m.set("backend.emulated_share",
        static_cast<double>(fe.emulated_binds) / static_cast<double>(boots),
        "ratio", boots);
  r.host_self_s = wall_self;
  set_trace_layers(r, sim_agg);
  for (const auto& [name, metric] : r.sim.items()) {
    r.sim_digest.str(name);
    r.sim_digest.bytes(&metric.value, sizeof(metric.value));
  }
  return r;
}

}  // namespace perfbench
