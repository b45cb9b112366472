// Overload sweep (ISSUE 8): open-loop offered load from well under to 4x
// the host's measured capacity, four tenants, two lanes:
//
//   - adm:on  — AdmissionController installed; excess submissions are shed
//     typed (ADMISSION_REJECT / OVERLOADED) at the guest's try_submit
//     boundary for ~300 ns each, before any staging or device work;
//   - adm:off — the control: every submission is staged and the only
//     protection is the backend's deadline shedding, so past the knee the
//     host burns its capacity staging and draining doomed work.
//
// Every request carries an absolute deadline relative to its *intended*
// arrival time (deadline = arrival + 8x mean service), which is what makes
// overload visible: once the clock falls behind the arrival schedule,
// unprotected submissions are dead on arrival. Goodput counts completions
// that were reaped by their deadline.
//
// Emits BENCH_overload.json (goodput_ops, shed_ratio, p99_admitted_ns
// columns next to simulated_ns/wall_ms) and self-gates (exit 1) on the
// tentpole claims:
//   1. adm:on goodput at every overloaded point stays within 10% of the
//      pre-knee plateau;
//   2. at 4x the admission-off control's goodput is strictly worse.
// The admitted-p99 column is gated against the committed baseline by
// tools/bench_diff.py (10% tolerance) in the perf-regression CI job.
#include <algorithm>
#include <array>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace vpim::bench {
namespace {

constexpr std::uint32_t kTenants = 4;

// Offered load as an exact rational multiple of measured capacity, so the
// arrival schedule is integer virtual time (determinism: no float drift).
struct Level {
  const char* label;
  std::uint32_t num;
  std::uint32_t den;
};
// 0.9x rather than 1.0x as the top pre-knee point: capacity is measured
// empirically and offering exactly 1.0x sits on the knife's edge where a
// lateness random walk can tip either way.
constexpr std::array<Level, 4> kLevels = {
    Level{"0.5x", 1, 2}, Level{"0.9x", 9, 10}, Level{"2x", 2, 1},
    Level{"4x", 4, 1}};

struct Row {
  std::string name;
  SimNs simulated_ns = 0;
  double goodput_ops = 0.0;  // deadline-met completions per simulated sec
  double shed_ratio = 0.0;   // typed try_submit sheds / offered
  SimNs p99_admitted_ns = 0; // submit -> reap, admitted requests only
  bool admission_on = false;
  const Level* level = nullptr;
};
std::vector<Row> g_rows;

std::uint32_t offered_requests() {
  const double scaled = 512.0 * env_scale();
  return scaled < 128.0 ? 128 : static_cast<std::uint32_t>(scaled);
}

core::VpimConfig overload_config() {
  core::VpimConfig config = core::VpimConfig::full();
  // Caching and batching off: every request is one wire message, so the
  // measured service time is the thing admission is calibrated against.
  config.prefetch_cache = false;
  config.request_batching = false;
  // Deep SQ: staging never auto-kicks, so submissions stay cheap and the
  // device work happens at the generator's reap points.
  config.queue_depth = 32;
  config.cq_capacity = 64;
  return config;
}

void run_overload(BenchPoint& p, const Level& level, bool admission_on) {
  VmRig rig(overload_config(), /*nr_devices=*/kTenants);
  std::array<core::Frontend*, kTenants> fes{};
  std::array<std::span<std::uint8_t>, kTenants> bufs{};
  for (std::uint32_t t = 0; t < kTenants; ++t) {
    fes[t] = &rig.vm.device(t).frontend;
    VPIM_CHECK(fes[t]->open(), "no rank available");
    bufs[t] = rig.vm.vmm().memory().alloc(4 * kKiB);
  }
  const std::uint32_t nr_dpus = fes[0]->nr_dpus();
  auto matrix_for = [&](std::uint32_t t, std::uint32_t seq) {
    driver::TransferMatrix m;
    m.direction = driver::XferDirection::kToRank;
    m.entries.push_back({seq % nr_dpus, 0, bufs[t].data(), bufs[t].size()});
    return m;
  };

  // Calibration phase 1 — rough estimate from closed-loop bursts of 4
  // through the deep-queue pipelined path, just to size the reap
  // cadence of phase 2.
  constexpr std::uint32_t kCalibRounds = 8;
  constexpr std::uint32_t kCalibBurst = 4;
  const SimNs est_start = rig.host.clock.now();
  for (std::uint32_t r = 0; r < kCalibRounds; ++r) {
    for (std::uint32_t t = 0; t < kTenants; ++t) {
      for (std::uint32_t b = 0; b < kCalibBurst; ++b) {
        fes[t]->submit_write(matrix_for(t, r * kCalibBurst + b));
      }
      while (!fes[t]->poll_completions().empty()) {
      }
    }
  }
  const SimNs service_est = (rig.host.clock.now() - est_start) /
                            (kCalibRounds * kTenants * kCalibBurst);
  VPIM_CHECK(service_est != 0, "calibration measured zero service time");

  // Calibration phase 2 — true capacity of the generator's own shape:
  // run its arrival loop wide open (zero inter-arrival gap, no
  // deadlines, no admission yet) with the same fixed-cadence reaps the
  // measured region uses. This folds the reap/poll overheads into the
  // service time, which a synthetic burst pass understates — and an
  // offered-load multiplier only means anything against the rate this
  // exact loop can actually sustain. Both lanes run it identically.
  constexpr std::uint32_t kSatRequests = 64;
  std::array<SimNs, kTenants> sat_reap{};
  const SimNs sat_period = 8 * service_est;
  const SimNs sat_start = rig.host.clock.now();
  for (std::uint32_t t = 0; t < kTenants; ++t) {
    sat_reap[t] = sat_start + (t + 1) * (sat_period / kTenants);
  }
  std::uint32_t sat_reaped = 0;
  for (std::uint32_t i = 0; i < kSatRequests; ++i) {
    for (std::uint32_t t = 0; t < kTenants; ++t) {
      if (rig.host.clock.now() >= sat_reap[t]) {
        sat_reaped += static_cast<std::uint32_t>(
            fes[t]->poll_completions().size());
        sat_reap[t] = rig.host.clock.now() + sat_period;
      }
    }
    fes[i % kTenants]->submit_write(matrix_for(i % kTenants, i / kTenants));
  }
  for (std::uint32_t t = 0; t < kTenants; ++t) {
    while (sat_reaped < kSatRequests && !fes[t]->poll_completions().empty()) {
      // poll_completions drains the CQ in batches; keep going until dry.
    }
  }
  const SimNs service_ns = (rig.host.clock.now() - sat_start) / kSatRequests;
  VPIM_CHECK(service_ns != 0, "saturation pass measured zero service time");

  if (admission_on) {
    core::AdmissionConfig acfg;
    // The binding control in this sweep is the in-flight budget: at 1x
    // each tenant holds at most ~4 admitted-unreaped requests between
    // reap turns, so 4 per tenant is exactly the pre-knee high-water
    // mark and everything past it is overload. The token rate is each
    // tenant's fair share of measured capacity with slack for the
    // calibration margin.
    acfg.tokens_per_sec =
        2'000'000'000ull / (static_cast<std::uint64_t>(service_ns) * kTenants);
    acfg.bucket_burst = 16;
    // One reap period holds 8 service times of admitted work across 4
    // tenants, so ~2 admitted-unreaped requests per tenant is the
    // pre-knee high-water mark; 10 leaves one period of jitter slack
    // above it and everything beyond is overload.
    acfg.global_inflight_budget = 10;
    rig.host.install_admission(acfg);
  }

  const std::uint32_t offered = offered_requests();
  const SimNs gap = service_ns * level.den / level.num;
  // Reaps run on a fixed virtual-time cadence (below), so a request
  // admitted on time waits at most one reap period plus its batch
  // (~12 service times); the rest of the budget is the lateness
  // headroom overload eats through before submissions go dead on
  // arrival.
  const SimNs reap_period = 8 * service_ns;
  const SimNs deadline_budget = 24 * service_ns;

  struct Pending {
    SimNs submit_t = 0;
    SimNs deadline = 0;
  };
  std::array<std::map<core::Frontend::Ticket, Pending>, kTenants> pend;
  std::uint64_t sheds = 0;
  std::uint64_t good = 0;
  std::uint64_t reaped = 0;
  std::vector<SimNs> latencies;
  latencies.reserve(offered);

  auto drain = [&](std::uint32_t t) {
    for (const core::Frontend::Completion& c : fes[t]->poll_completions()) {
      auto it = pend[t].find(c.ticket);
      if (it == pend[t].end()) continue;
      latencies.push_back(rig.host.clock.now() - it->second.submit_t);
      // The device is the deadline authority: work it could not start
      // by the wire deadline comes back as a typed TIMEOUT shed, so a
      // zero status means the request was served in time.
      if (c.status == 0) ++good;
      ++reaped;
      pend[t].erase(it);
    }
  };

  const SimNs start = rig.host.clock.now();
  // Reaps happen on a fixed virtual-time schedule, staggered per
  // tenant, NOT per submission: that keeps the reap cadence identical
  // across offered loads, so overload shows up as admitted-unreaped
  // work piling up between reap turns rather than as a polling
  // artifact of the generator.
  std::array<SimNs, kTenants> next_reap{};
  for (std::uint32_t t = 0; t < kTenants; ++t) {
    next_reap[t] = start + (t + 1) * (reap_period / kTenants);
  }
  p.start_wall();
  for (std::uint32_t i = 0; i < offered; ++i) {
    const SimNs arrival = start + static_cast<SimNs>(i) * gap;
    if (rig.host.clock.now() < arrival) {
      rig.host.clock.advance(arrival - rig.host.clock.now());
    }
    for (std::uint32_t t = 0; t < kTenants; ++t) {
      if (rig.host.clock.now() >= next_reap[t]) {
        drain(t);
        next_reap[t] = rig.host.clock.now() + reap_period;
      }
    }
    const std::uint32_t t = i % kTenants;
    // The deadline keys off the intended arrival, not the (possibly
    // late) submit: work the host cannot start on time is already dead.
    const SimNs deadline = arrival + deadline_budget;
    const core::Frontend::SubmitResult r =
        fes[t]->try_submit_write(matrix_for(t, i / kTenants), deadline);
    if (!r.ok()) {
      ++sheds;
      continue;
    }
    pend[t][r.ticket] = {rig.host.clock.now(), deadline};
  }
  for (std::uint32_t t = 0; t < kTenants; ++t) {
    int idle = 0;
    while (!pend[t].empty() && idle < 2) {
      const std::size_t before = pend[t].size();
      drain(t);
      idle = pend[t].size() == before ? idle + 1 : 0;
    }
    fes[t]->close();
  }
  p.stop_wall();
  const SimNs elapsed = rig.host.clock.now() - start;

  VPIM_CHECK(reaped + sheds == offered,
             "requests lost: reaped + sheds != offered");
  std::sort(latencies.begin(), latencies.end());
  const SimNs p99 =
      latencies.empty() ? 0
                        : latencies[(latencies.size() * 99 + 99) / 100 - 1];
  const double goodput =
      elapsed == 0 ? 0.0 : static_cast<double>(good) / ns_to_s(elapsed);
  const double shed_ratio =
      static_cast<double>(sheds) / static_cast<double>(offered);

  p.simulated_ns = elapsed;
  p.add("goodput_ops", goodput, 1);
  p.add("shed_ratio", shed_ratio, 4);
  p.add("p99_admitted_ns", p99);
  g_rows.push_back(
      {p.name, elapsed, goodput, shed_ratio, p99, admission_on, &level});
}

const Row& find_row(bool admission_on, const char* label) {
  for (const Row& row : g_rows) {
    if (row.admission_on == admission_on &&
        std::string(row.level->label) == label) {
      return row;
    }
  }
  fail(std::string("no overload point at ") + label);
}

void print_summary() {
  print_header(
      "Overload - offered-load sweep, admission on vs off (4 tenants)",
      "typed admission sheds the overflow before it costs anything; "
      "goodput and admitted p99 hold their pre-knee plateau at 2-4x load");
  std::printf("%-24s | %12s | %12s | %10s | %12s\n", "point", "simulated",
              "goodput/s", "shed", "p99 admitted");
  for (const Row& row : g_rows) {
    std::printf("%-24s | %10.2fms | %12.1f | %9.1f%% | %10.2fms\n",
                row.name.c_str(), ns_to_ms(row.simulated_ns),
                row.goodput_ops, row.shed_ratio * 100.0,
                ns_to_ms(row.p99_admitted_ns));
  }
}

void check_claims(Figure& fig) {
  const double plateau = std::max(find_row(true, "0.9x").goodput_ops,
                                  find_row(true, "0.5x").goodput_ops);
  for (const char* label : {"2x", "4x"}) {
    const double goodput = find_row(true, label).goodput_ops;
    fig.claim(std::string("adm_on_goodput_within_10pct_of_plateau_at_") +
                  label,
              goodput >= 0.9 * plateau,
              std::to_string(goodput) + "/s vs pre-knee plateau " +
                  std::to_string(plateau) + "/s");
  }
  const double on_4x = find_row(true, "4x").goodput_ops;
  const double off_4x = find_row(false, "4x").goodput_ops;
  fig.claim("adm_off_control_degrades_below_adm_on_at_4x", off_4x < on_4x,
            std::to_string(off_4x) + "/s vs " + std::to_string(on_4x) +
                "/s");
}

}  // namespace
}  // namespace vpim::bench

int main() {
  using namespace vpim::bench;
  Figure fig("overload");
  for (const bool admission_on : {true, false}) {
    for (const Level& level : kLevels) {
      fig.point(std::string("overload/adm:") + (admission_on ? "on" : "off") +
                    "/load:" + level.label,
                [&](BenchPoint& p) { run_overload(p, level, admission_on); });
    }
  }
  print_summary();
  check_claims(fig);
  return fig.finish();
}
