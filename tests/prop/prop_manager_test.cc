// Manager quarantine / backoff state-machine properties under random
// fault plans and random tenant churn:
//
//  - no request is ever lost: every operation either completes or raises
//    a typed PimStatus error from the documented fault set — anything
//    else (untyped exception, abort, foreign data) fails the property;
//  - tenants never observe another tenant's bytes;
//  - after every step the Manager's grant ledger (wranks()) lists each
//    open, physically bound device on the rank its backend uses, and any
//    other row is a native seizure or a release sysfs already shows;
//  - after wind-down every rank converges to NAAV-and-unmapped, or to
//    FAIL when the underlying hardware is permanently dead;
//  - manager counters stay mutually consistent.
//
// Failing cases shrink along both axes (fewer churn steps, fewer injected
// faults) and print the one-line VPIM_PROP_SEED reproducer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/proptest/proptest.h"
#include "tests/testutil.h"
#include "vpim/host.h"
#include "vpim/vpim_vm.h"

namespace vpim::prop {
namespace {

constexpr int kTenants = 3;
constexpr std::uint64_t kBufBytes = 16 * kKiB;

// One churn step encodes (tenant, action): tenant = s % 3, action = s / 3
// in 0..5 (verify, rewrite, migrate, suspend, close, observe).
struct ManagerCase {
  std::uint64_t fault_seed = 1;
  std::uint32_t transient = 0;
  std::uint32_t ecc = 0;
  std::uint32_t deaths = 0;
  std::uint32_t seizures = 0;
  std::uint32_t lost = 0;
  std::vector<std::uint64_t> steps;
};

std::string show_case(const ManagerCase& c) {
  std::string s = "fault_seed=" + std::to_string(c.fault_seed) +
                  " tr=" + std::to_string(c.transient) +
                  " ecc=" + std::to_string(c.ecc) +
                  " death=" + std::to_string(c.deaths) +
                  " seize=" + std::to_string(c.seizures) +
                  " lost=" + std::to_string(c.lost) + " steps=";
  for (std::uint64_t v : c.steps) s += std::to_string(v) + ",";
  return s;
}

Gen<ManagerCase> manager_case_gen() {
  Gen<ManagerCase> gen;
  gen.sample = [](Rng& rng) {
    ManagerCase c;
    c.fault_seed = rng.next_u64();
    c.transient = static_cast<std::uint32_t>(rng.uniform(0, 3));
    c.ecc = static_cast<std::uint32_t>(rng.uniform(0, 3));
    c.deaths = static_cast<std::uint32_t>(rng.uniform(0, 1));
    c.seizures = static_cast<std::uint32_t>(rng.uniform(0, 1));
    c.lost = static_cast<std::uint32_t>(rng.uniform(0, 1));
    const int nr_steps = static_cast<int>(rng.uniform(10, 40));
    for (int i = 0; i < nr_steps; ++i) {
      c.steps.push_back(
          static_cast<std::uint64_t>(rng.uniform(0, 3 * 6 - 1)));
    }
    return c;
  };
  gen.shrink = [](const ManagerCase& c) {
    std::vector<ManagerCase> out;
    if (c.steps.size() > 1) {
      ManagerCase front = c;
      front.steps.resize(c.steps.size() / 2);
      out.push_back(std::move(front));
      for (std::size_t i = 0; i < c.steps.size(); ++i) {
        ManagerCase fewer = c;
        fewer.steps.erase(fewer.steps.begin() +
                          static_cast<std::ptrdiff_t>(i));
        out.push_back(std::move(fewer));
      }
    }
    // Remove one fault class at a time: the minimal case keeps only the
    // faults the violation actually needs.
    const auto zap = [&](std::uint32_t ManagerCase::* field) {
      if (c.*field != 0) {
        ManagerCase fewer = c;
        fewer.*field = 0;
        out.push_back(std::move(fewer));
      }
    };
    zap(&ManagerCase::transient);
    zap(&ManagerCase::ecc);
    zap(&ManagerCase::deaths);
    zap(&ManagerCase::seizures);
    zap(&ManagerCase::lost);
    return out;
  };
  return gen;
}

struct Tenant {
  std::unique_ptr<core::VpimVm> vm;
  std::uint8_t tag = 0;
  bool open = false;
  bool suspended = false;
  bool pattern_valid = false;
  std::span<std::uint8_t> buf;
};

void run_churn(const ManagerCase& c) {
  core::ManagerConfig mgr;
  mgr.retry_wait_ns = 1 * kMs;
  mgr.max_attempts = 2;
  core::Host host({.nr_ranks = 3, .functional_dpus_per_rank = 8},
                  CostModel{}, mgr);
  FaultPlanConfig fcfg;
  fcfg.seed = c.fault_seed;
  fcfg.transient_dpu_faults = c.transient;
  fcfg.mram_ecc_faults = c.ecc;
  fcfg.rank_deaths = c.deaths;
  fcfg.rank_seizures = c.seizures;
  fcfg.lost_completions = c.lost;
  fcfg.max_op = 48;
  fcfg.seizure_from_ns = 100 * kMs;
  fcfg.seizure_until_ns = 2 * kSec;
  host.install_fault_plan(
      FaultPlan::generate(fcfg, host.machine.nr_ranks()));

  core::VpimConfig config = core::VpimConfig::full();
  config.oversubscribe = true;

  std::vector<Tenant> tenants(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    tenants[t].vm = std::make_unique<core::VpimVm>(
        host, vmm::VmmParams{.name = "prop-mgr" + std::to_string(t)}, 1,
        config);
    tenants[t].tag = static_cast<std::uint8_t>(0x30 + t);
    tenants[t].buf = tenants[t].vm->vmm().memory().alloc(kBufBytes);
  }
  auto frontend = [&](int t) -> core::Frontend& {
    return tenants[t].vm->device(0).frontend;
  };
  // "No request lost": an operation may only fail with a typed status
  // from the documented fault set; it then ends the tenant's session.
  // Any other exception escapes to the harness and fails the property.
  auto tolerate = [&](int t, auto&& op) -> bool {
    try {
      op();
      return true;
    } catch (const VpimStatusError& e) {
      const auto status = static_cast<virtio::PimStatus>(e.status());
      require(status == virtio::PimStatus::kDeviceFault ||
                  status == virtio::PimStatus::kUnbound ||
                  status == virtio::PimStatus::kTimeout ||
                  status == virtio::PimStatus::kNoCapacity,
              std::string("unexpected typed status: ") + e.what());
      frontend(t).close();
      tenants[t].open = false;
      tenants[t].suspended = false;
      tenants[t].pattern_valid = false;
      return false;
    }
  };
  auto write_pattern = [&](int t) {
    std::memset(tenants[t].buf.data(), tenants[t].tag, tenants[t].buf.size());
    driver::TransferMatrix w;
    w.entries.push_back(
        {2, 4096, tenants[t].buf.data(), tenants[t].buf.size()});
    if (tolerate(t, [&] { frontend(t).write_to_rank(w); })) {
      tenants[t].pattern_valid = true;
    }
  };
  auto verify_pattern = [&](int t) {
    if (!tenants[t].pattern_valid) return;
    auto out = tenants[t].vm->vmm().memory().alloc(kBufBytes);
    driver::TransferMatrix r;
    r.direction = driver::XferDirection::kFromRank;
    r.entries.push_back({2, 4096, out.data(), out.size()});
    if (!tolerate(t, [&] { frontend(t).read_from_rank(r); })) return;
    for (std::size_t i = 0; i < out.size(); ++i) {
      require(out[i] == tenants[t].tag,
              "tenant " + std::to_string(t) + " saw foreign byte at " +
                  std::to_string(i));
    }
  };

  // The grant ledger against the tenants' own view, read-only so the
  // churn keeps meeting a stale table at step boundaries. Every open
  // device on a physical rank has its {tag, rank} row. Any other row is
  // an injected native seizure, or a release that sysfs already shows
  // and the next observe() will absorb.
  auto check_ledger = [&] {
    std::vector<core::WrankInfo> bound;
    for (int t = 0; t < kTenants; ++t) {
      const core::Backend& be = tenants[t].vm->device(0).backend;
      if (tenants[t].open && be.bound() && !be.emulated()) {
        bound.push_back({be.tag(), be.rank_index()});
      }
    }
    const std::vector<core::WrankInfo> rows = host.manager.wranks();
    for (const core::WrankInfo& b : bound) {
      require(std::find(rows.begin(), rows.end(), b) != rows.end(),
              "bound device " + b.owner + "@" + std::to_string(b.rank) +
                  " has no ledger row");
    }
    for (const core::WrankInfo& w : rows) {
      if (w.owner == "native-seizure") continue;
      if (std::find(bound.begin(), bound.end(), w) != bound.end()) continue;
      const driver::RankSysfsEntry sys = host.drv.sysfs().read(w.rank);
      require(!sys.in_use || sys.owner != w.owner,
              "ledger row " + w.owner + "@" + std::to_string(w.rank) +
                  " is held by no open device but still mapped");
    }
  };

  auto apply_step = [&](int t, int action) {
    Tenant& tenant = tenants[t];
    if (!tenant.open && !tenant.suspended) {
      bool opened = false;
      if (tolerate(t, [&] { opened = frontend(t).open(); }) && opened) {
        tenant.open = true;
        write_pattern(t);
      }
      return;
    }
    if (tenant.suspended) {
      bool resumed = false;
      if (tolerate(t, [&] { resumed = frontend(t).resume(); }) && resumed) {
        tenant.suspended = false;
        tenant.open = true;
        verify_pattern(t);
      }
      return;
    }
    switch (action) {
      case 0:
        verify_pattern(t);
        break;
      case 1:
        write_pattern(t);
        break;
      case 2: {
        bool migrated = false;
        if (tolerate(t, [&] { migrated = frontend(t).migrate(); }) &&
            migrated) {
          verify_pattern(t);
        }
        break;
      }
      case 3:
        if (tolerate(t, [&] { frontend(t).suspend(); })) {
          tenant.open = false;
          tenant.suspended = true;
        }
        break;
      case 4:
        frontend(t).close();
        tenant.open = false;
        tenant.pattern_valid = false;
        break;
      default:
        host.manager.observe();
        break;
    }
  };

  for (std::uint64_t step : c.steps) {
    apply_step(static_cast<int>(step % kTenants),
               static_cast<int>((step / kTenants) % 6));
    check_ledger();
  }

  // Wind down and let quarantine backoff (capped at 1600 ms) expire.
  for (int t = 0; t < kTenants; ++t) {
    if (tenants[t].suspended) {
      bool resumed = false;
      if (!tolerate(t, [&] { resumed = frontend(t).resume(); }) ||
          !resumed) {
        continue;
      }
      tenants[t].suspended = false;
      tenants[t].open = true;
    }
    if (tenants[t].open) frontend(t).close();
  }
  for (int pass = 0; pass < 6; ++pass) {
    host.clock.advance(2 * kSec);
    host.manager.observe();
  }

  // Convergence: every wrank's rank is healthy-or-FAIL, never stuck in
  // ALLO/NANA limbo or mapped after release.
  for (std::uint32_t r = 0; r < host.machine.nr_ranks(); ++r) {
    if (host.machine.rank(r).failed()) {
      require(host.manager.state(r) == core::RankState::kFail,
              "dead rank " + std::to_string(r) + " not quarantined");
      continue;
    }
    require(host.manager.state(r) == core::RankState::kNaav,
            "rank " + std::to_string(r) + " did not return to NAAV");
    require(!host.drv.is_mapped(r),
            "rank " + std::to_string(r) + " still mapped after wind-down");
  }

  const core::ManagerStats st = host.manager.stats();
  require(st.recoveries <= st.quarantine_probes,
          "more recoveries than quarantine probes");
  require(st.reuse_hits <= st.allocations,
          "more NANA reuse hits than allocations");
}

TEST(PropManager, ChurnUnderRandomFaultPlansConverges) {
  const Params params = Params::from_env(0x4A6E7D0Fu, 15);
  const auto out = run_property<ManagerCase>(
      "manager.fault_churn", params, manager_case_gen(), run_churn,
      show_case);
  EXPECT_TRUE(out.ok) << out.reproducer;
}

// The same property with faults forced off is a pure allocation
// state-machine check: churn alone must always converge back to all-NAAV.
TEST(PropManager, FaultFreeChurnNeverFails) {
  Gen<ManagerCase> quiet = manager_case_gen();
  auto base_sample = quiet.sample;
  quiet.sample = [base_sample](Rng& rng) {
    ManagerCase c = base_sample(rng);
    c.transient = c.ecc = c.deaths = c.seizures = c.lost = 0;
    return c;
  };
  const Params params = Params::from_env(0x0FAB57A7u, 10);
  const auto out = run_property<ManagerCase>(
      "manager.quiet_churn", params, quiet,
      [](const ManagerCase& c) {
        run_churn(c);
      },
      show_case);
  EXPECT_TRUE(out.ok) << out.reproducer;
}

}  // namespace
}  // namespace vpim::prop
