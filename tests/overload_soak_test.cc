// Chaos harness (ISSUE 8): eight tenants churn open-loop at twice the
// host's admission budget while a seeded fault *storm* (correlated bursts
// of rank death + transients + lost completions) plays out underneath.
// Invariants:
//   - zero lost requests: every admitted ticket reaps exactly once with a
//     typed PimStatus; every shed submission gets a typed reject;
//   - the whole schedule — virtual end time, per-status tallies, admission
//     and device counters — is bit-identical across VPIM_THREADS 1 and 4;
//   - at wind-down every rank is back to NAAV or parked in FAIL.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "tests/testutil.h"
#include "virtio/pim_spec.h"
#include "vpim/host.h"
#include "vpim/vpim_vm.h"

namespace vpim::core {
namespace {

using virtio::PimStatus;

constexpr int kTenants = 8;
constexpr std::uint32_t kBudget = 8;  // global in-flight budget
constexpr int kSteps = 60;

bool typed(std::int32_t status) {
  switch (static_cast<PimStatus>(status)) {
    case PimStatus::kOk:
    case PimStatus::kBadRequest:
    case PimStatus::kUnbound:
    case PimStatus::kNoCapacity:
    case PimStatus::kTimeout:
    case PimStatus::kDeviceFault:
    case PimStatus::kAdmissionReject:
    case PimStatus::kOverloaded:
    case PimStatus::kCancelled:
      return true;
    default:
      return false;
  }
}

// Everything observable about one full soak run; two runs at different
// VPIM_THREADS must produce identical fingerprints.
struct Fingerprint {
  SimNs clock_end = 0;
  std::map<std::int32_t, std::uint64_t> completions_by_status;
  std::uint64_t sheds = 0;          // typed try_submit rejections
  std::uint64_t tickets = 0;        // admitted submissions
  std::uint64_t cancels_won = 0;
  AdmissionStats admission;
  std::uint64_t would_blocks = 0;
  std::uint64_t admission_rejects = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t deadline_shed = 0;
  std::uint64_t poll_timeouts = 0;
  std::uint64_t dropped_completions = 0;
  std::uint64_t faults_fired = 0;

  bool operator==(const Fingerprint& o) const {
    return clock_end == o.clock_end &&
           completions_by_status == o.completions_by_status &&
           sheds == o.sheds && tickets == o.tickets &&
           cancels_won == o.cancels_won &&
           admission.admitted == o.admission.admitted &&
           admission.shed_tenant == o.admission.shed_tenant &&
           admission.shed_global == o.admission.shed_global &&
           admission.completed == o.admission.completed &&
           admission.fairness_deferrals == o.admission.fairness_deferrals &&
           would_blocks == o.would_blocks &&
           admission_rejects == o.admission_rejects &&
           cancelled == o.cancelled && deadline_shed == o.deadline_shed &&
           poll_timeouts == o.poll_timeouts &&
           dropped_completions == o.dropped_completions &&
           faults_fired == o.faults_fired;
  }
};

Fingerprint run_storm_soak(std::uint64_t seed) {
  ManagerConfig mgr;
  mgr.retry_wait_ns = 1 * kMs;
  mgr.max_attempts = 2;
  Host host({.nr_ranks = 3, .functional_dpus_per_rank = 8}, CostModel{},
            mgr);

  AdmissionConfig acfg;
  acfg.tokens_per_sec = 5000;
  acfg.bucket_burst = 16;
  acfg.global_inflight_budget = kBudget;
  host.install_admission(acfg);

  FaultPlanConfig fcfg;
  fcfg.seed = seed * 131 + 7;
  fcfg.lost_completions = 2;
  fcfg.max_op = 64;
  fcfg.storm_bursts = 2;
  fcfg.storm_width = 2;
  host.install_fault_plan(
      FaultPlan::generate(fcfg, host.machine.nr_ranks()));

  VpimConfig config = VpimConfig::full();
  config.oversubscribe = true;
  config.prefetch_cache = false;
  config.request_batching = false;
  // Deep SQ so staged work is never auto-kicked: requests sit in flight
  // until the tenant's drain turn comes around, which is what lets the
  // global in-flight budget actually fill up and shed.
  config.queue_depth = 16;
  config.cq_capacity = 32;
  // Every submission carries an absolute deadline this far ahead.
  constexpr SimNs kDeadline = 100 * kMs;

  struct Tenant {
    std::unique_ptr<VpimVm> vm;
    bool open = false;
    std::span<std::uint8_t> buf;
    std::map<Frontend::Ticket, int> reaps;  // ticket -> completion count
  };
  std::vector<Tenant> tenants(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    tenants[t].vm = std::make_unique<VpimVm>(
        host, vmm::VmmParams{.name = "ovl" + std::to_string(t)}, 1, config);
    tenants[t].buf = tenants[t].vm->vmm().memory().alloc(16 * kKiB);
  }

  Fingerprint fp;
  auto fe = [&](int t) -> Frontend& {
    return tenants[t].vm->device(0).frontend;
  };
  auto drain = [&](int t) {
    for (const Frontend::Completion& done : fe(t).poll_completions()) {
      EXPECT_TRUE(typed(done.status))
          << "untyped completion status " << done.status;
      ++tenants[t].reaps[done.ticket];
      ++fp.completions_by_status[done.status];
    }
  };
  // Injected device faults end the session typed; anything else is a bug.
  auto tolerate = [&](int t, auto&& op) -> bool {
    try {
      op();
      return true;
    } catch (const VpimStatusError& e) {
      EXPECT_TRUE(typed(e.status())) << e.what();
      fe(t).close();
      tenants[t].open = false;
      return false;
    }
  };

  Rng rng(0xC4A05 + seed);
  for (int step = 0; step < kSteps; ++step) {
    for (int t = 0; t < kTenants; ++t) {
      Tenant& tenant = tenants[t];
      if (!tenant.open) {
        bool opened = false;
        if (tolerate(t, [&] { opened = fe(t).open(); }) && opened) {
          tenant.open = true;
        }
        continue;
      }
      // Open-loop load: two submission attempts per tenant per step — with
      // kTenants * 2 attempts against a budget of kBudget, the offered
      // load sits at ~2x what admission will carry. A shed is counted and
      // skipped, never retried inline (that is what open-loop means).
      for (int burst = 0; burst < 2; ++burst) {
        const bool is_write = rng.uniform(0, 1) == 0;
        const std::uint32_t dpu =
            static_cast<std::uint32_t>(rng.uniform(0, 7));
        const std::uint64_t size =
            static_cast<std::uint64_t>(rng.uniform(64, 2048));
        const std::uint64_t cancel_roll = rng.uniform(0, 9);
        driver::TransferMatrix m;
        m.direction = is_write ? driver::XferDirection::kToRank
                               : driver::XferDirection::kFromRank;
        m.entries.push_back({dpu, 4096, tenant.buf.data(), size});
        Frontend::SubmitResult r;
        if (!tolerate(t, [&] {
              const SimNs deadline = host.clock.now() + kDeadline;
              r = is_write ? fe(t).try_submit_write(m, deadline)
                           : fe(t).try_submit_read(m, deadline);
            })) {
          break;
        }
        if (!r.ok()) {
          EXPECT_TRUE(r.status == static_cast<std::int32_t>(
                                      PimStatus::kAdmissionReject) ||
                      r.status == static_cast<std::int32_t>(
                                      PimStatus::kOverloaded))
              << "untyped shed status " << r.status;
          ++fp.sheds;
          continue;
        }
        ++fp.tickets;
        EXPECT_TRUE(tenant.reaps.emplace(r.ticket, 0).second)
            << "duplicate ticket";
        // Occasionally race a cancel against the doorbell.
        if (cancel_roll == 0 && fe(t).cancel(r.ticket)) ++fp.cancels_won;
      }
      if (!tenant.open) continue;
      // Drain lazily — every third step, staggered by tenant — so each
      // tenant holds its admitted slots for a while. Eight tenants times
      // two staged ops against a budget of eight keeps the controller
      // pinned at capacity and the overflow sheds typed.
      if (step % 3 == t % 3) drain(t);
      // Churn: sometimes release the device mid-stream (its in-flight work
      // reaps through close()'s internal drain; tickets it never reaped
      // are checked below only for tenants that stayed open).
      if (rng.uniform(0, 19) == 0) {
        drain(t);
        fe(t).close();
        tenant.open = false;
        tenant.reaps.clear();
      }
    }
    if (step % 8 == 0) host.manager.observe();
  }

  // Wind down: drain every CQ until quiet, then verify nothing was lost
  // and close. Two empty polls in a row mean the pipeline is dry.
  for (int t = 0; t < kTenants; ++t) {
    if (!tenants[t].open) continue;
    int idle = 0;
    while (idle < 2) {
      std::size_t got = 0;
      for (const Frontend::Completion& done : fe(t).poll_completions()) {
        EXPECT_TRUE(typed(done.status));
        ++tenants[t].reaps[done.ticket];
        ++fp.completions_by_status[done.status];
        ++got;
      }
      idle = got == 0 ? idle + 1 : 0;
    }
    for (const auto& [ticket, count] : tenants[t].reaps) {
      EXPECT_EQ(count, 1) << "ticket " << ticket << " of tenant " << t
                          << " reaped " << count << " times";
    }
    fe(t).close();
    tenants[t].open = false;
  }

  // Give seizure holds and quarantine probes time to converge.
  for (int pass = 0; pass < 6; ++pass) {
    host.clock.advance(2 * kSec);
    host.manager.observe();
  }
  for (std::uint32_t r = 0; r < host.machine.nr_ranks(); ++r) {
    if (host.machine.rank(r).failed()) {
      EXPECT_EQ(host.manager.state(r), RankState::kFail) << "rank " << r;
      continue;
    }
    EXPECT_EQ(host.manager.state(r), RankState::kNaav) << "rank " << r;
  }

  fp.clock_end = host.clock.now();
  fp.admission = host.admission->stats();
  for (int t = 0; t < kTenants; ++t) {
    const DeviceStats& s = tenants[t].vm->device(0).stats;
    fp.would_blocks += s.would_blocks;
    fp.admission_rejects += s.admission_rejects;
    fp.cancelled += s.cancelled;
    fp.deadline_shed += s.deadline_shed;
    fp.poll_timeouts += s.poll_timeouts;
    fp.dropped_completions += s.dropped_completions;
  }
  fp.faults_fired = host.fault_plan->fired().size();
  return fp;
}

class OverloadStormSoak : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { original_ = ThreadPool::instance().size(); }
  void TearDown() override { ThreadPool::instance().resize(original_); }
  unsigned original_ = 1;
};

TEST_P(OverloadStormSoak, NoRequestLostAndScheduleIsThreadInvariant) {
  const auto seed = static_cast<std::uint64_t>(GetParam());

  ThreadPool::instance().resize(1);
  const Fingerprint narrow = run_storm_soak(seed);
  ThreadPool::instance().resize(4);
  const Fingerprint wide = run_storm_soak(seed);
  ThreadPool::instance().resize(1);

  // The overload machinery actually engaged: work was admitted, work was
  // shed, and the storm fired.
  EXPECT_GT(narrow.tickets, 0u);
  EXPECT_GT(narrow.sheds, 0u) << "2x offered load never hit the budget?";
  EXPECT_GT(narrow.faults_fired, 0u) << "storm never fired";
  EXPECT_EQ(narrow.admission.admitted,
            narrow.admission.completed)
      << "admission budget leaked: admitted != completed after wind-down";

  EXPECT_TRUE(narrow == wide)
      << "schedule diverged between VPIM_THREADS=1 and 4: clock "
      << narrow.clock_end << " vs " << wide.clock_end << ", tickets "
      << narrow.tickets << " vs " << wide.tickets << ", sheds "
      << narrow.sheds << " vs " << wide.sheds;
}

INSTANTIATE_TEST_SUITE_P(Seeds, OverloadStormSoak, ::testing::Values(1, 2),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace vpim::core
