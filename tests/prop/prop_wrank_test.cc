// Wrank allocator properties (ISSUE 9): random alloc/release/resize
// sequences — interleaved with observer passes and consolidation — driven
// against an occupancy oracle:
//
//  - the manager's wrank table always matches the oracle exactly (no
//    wrank lost, duplicated, or mutated by live migration);
//  - no rank ever hosts more slots than wrank_slots_per_rank;
//  - per-tenant accounting matches the oracle, and quota'd tenants are
//    rejected typed (kQuotaExceeded) exactly when the oracle says the
//    request would exceed the cap;
//  - the reported fragmentation matches a recomputation from the wrank
//    table (hosting ranks beyond the minimal packing, in permille);
//  - the manager maps a rank in its own name exactly while it holds at
//    least one wrank, so every move frees exactly its source.
//
// A sibling property runs the same churn under every placement policy
// with random rank deaths mixed in: wranks may then be displaced, but
// never sit on a quarantined (FAIL) rank.
//
// Failing cases shrink to fewer steps and print the VPIM_PROP_SEED line.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/proptest/proptest.h"
#include "tests/testutil.h"
#include "vpim/manager.h"

namespace vpim::prop {
namespace {

constexpr std::uint32_t kRanks = 4;
constexpr std::uint32_t kSlotsPerRank = 4;
constexpr int kTenants = 3;

// One step packs (op, tenant, slots, victim) into a u64:
//   op = s % 8: 0-3 alloc, 4-5 release, 6 resize, 7 consolidate+observe
//   (with rank deaths on, half of the op-7 steps kill a hosting rank).
struct WrankCase {
  std::uint64_t quota_mask = 0;  // tenant t capped at 5 slots iff bit t
  std::vector<std::uint64_t> steps;
};

std::string show_case(const WrankCase& c) {
  std::string s = "quota_mask=" + std::to_string(c.quota_mask) + " steps=";
  for (std::uint64_t v : c.steps) s += std::to_string(v) + ",";
  return s;
}

Gen<WrankCase> wrank_case_gen() {
  Gen<WrankCase> gen;
  gen.sample = [](Rng& rng) {
    WrankCase c;
    c.quota_mask = rng.uniform(0, (1u << kTenants) - 1);
    const int nr_steps = static_cast<int>(rng.uniform(10, 60));
    for (int i = 0; i < nr_steps; ++i) {
      c.steps.push_back(rng.next_u64());
    }
    return c;
  };
  gen.shrink = [](const WrankCase& c) {
    std::vector<WrankCase> out;
    if (c.steps.size() > 1) {
      WrankCase front = c;
      front.steps.resize(c.steps.size() / 2);
      out.push_back(std::move(front));
      for (std::size_t i = 0; i < c.steps.size(); ++i) {
        WrankCase fewer = c;
        fewer.steps.erase(fewer.steps.begin() +
                          static_cast<std::ptrdiff_t>(i));
        out.push_back(std::move(fewer));
      }
    }
    if (c.quota_mask != 0) {
      WrankCase unquota = c;
      unquota.quota_mask = 0;
      out.push_back(std::move(unquota));
    }
    return out;
  };
  return gen;
}

struct OracleEntry {
  std::string tenant;
  std::uint32_t slots = 0;
};

void check_invariants(const test::TestRig& rig, const core::Manager& mgr,
                      const std::map<std::uint64_t, OracleEntry>& oracle,
                      bool deaths) {
  const std::vector<core::WrankInfo> ws = mgr.wranks();
  require(ws.size() == oracle.size(),
          "manager holds " + std::to_string(ws.size()) + " wranks, oracle " +
              std::to_string(oracle.size()));
  std::map<std::uint32_t, std::uint32_t> used;
  std::map<std::string, std::uint32_t> per_tenant;
  std::set<std::uint64_t> seen;
  for (const core::WrankInfo& w : ws) {
    require(seen.insert(w.id).second, "duplicate wrank id");
    const auto it = oracle.find(w.id);
    require(it != oracle.end(), "wrank id unknown to the oracle");
    require(w.tenant == it->second.tenant, "wrank changed tenant");
    require(w.slots == it->second.slots, "wrank changed slot count");
    per_tenant[w.tenant] += w.slots;
    if (w.rank == core::Manager::kNoRank) {
      require(deaths, "wrank displaced without any fault");
      continue;
    }
    require(mgr.state(w.rank) != core::RankState::kFail,
            "wrank sits on a FAIL rank");
    used[w.rank] += w.slots;
  }
  std::uint32_t total = 0;
  for (const auto& [rank, slots] : used) {
    require(slots <= kSlotsPerRank, "rank overpacked");
    total += slots;
  }
  for (int t = 0; t < kTenants; ++t) {
    const std::string tenant = "t" + std::to_string(t);
    require(mgr.tenant_slots(tenant) == per_tenant[tenant],
            "tenant slot accounting drifted for " + tenant);
  }
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    const auto status = driver::Sysfs::parse(rig.drv.rank_status_line(r));
    require(status.has_value(), "unparseable sysfs status");
    const bool hosting = status->in_use && status->owner == "vpim-manager";
    require(hosting == used.contains(r),
            "rank " + std::to_string(r) +
                (hosting ? " mapped by the manager without a wrank"
                         : " holds wranks but is not mapped by the manager"));
  }
  // Fragmentation must agree with a recomputation from the table.
  const std::uint32_t hosting = static_cast<std::uint32_t>(used.size());
  const std::uint32_t min_needed =
      (total + kSlotsPerRank - 1) / kSlotsPerRank;
  const std::uint32_t expect =
      hosting <= min_needed
          ? 0
          : static_cast<std::uint32_t>(1000u * (hosting - min_needed) /
                                       kRanks);
  require(mgr.fragmentation_permille() == expect,
          "fragmentation_permille disagrees with the wrank table");
}

// Kills the `pick`-th rank (mod count) that hosts wranks and lets the
// observer quarantine it and rescue what fits. False when nothing hosts.
bool kill_hosting_rank(test::TestRig& rig, core::Manager& mgr,
                       std::uint64_t pick) {
  std::set<std::uint32_t> hosting;
  for (const core::WrankInfo& w : mgr.wranks()) {
    if (w.rank != core::Manager::kNoRank) hosting.insert(w.rank);
  }
  if (hosting.empty()) return false;
  auto it = hosting.begin();
  std::advance(it, static_cast<long>(pick % hosting.size()));
  rig.machine.rank(*it).fail();
  rig.drv.log_fault({FaultKind::kRankDeath, *it, 0, rig.clock.now()});
  mgr.observe(/*do_resets=*/true);
  return true;
}

void run_case(const WrankCase& c, core::PlacementPolicyKind policy,
              bool deaths) {
  test::TestRig rig({.nr_ranks = kRanks, .functional_dpus_per_rank = 8});
  core::ManagerConfig cfg;
  cfg.retry_wait_ns = 1 * kMs;
  cfg.max_attempts = 2;
  cfg.charge_time = false;
  cfg.placement = policy;
  core::Manager mgr(rig.drv, cfg);
  constexpr std::uint32_t kQuota = 5;
  for (int t = 0; t < kTenants; ++t) {
    if (c.quota_mask & (1u << t)) {
      mgr.set_tenant_quota("t" + std::to_string(t), kQuota);
    }
  }

  std::map<std::uint64_t, OracleEntry> oracle;
  std::map<std::string, std::uint32_t> tenant_total;
  std::vector<std::uint64_t> live;
  for (const std::uint64_t s : c.steps) {
    const std::uint32_t op = static_cast<std::uint32_t>(s % 8);
    const int t = static_cast<int>((s / 8) % kTenants);
    const std::string tenant = "t" + std::to_string(t);
    const bool capped = (c.quota_mask & (1u << t)) != 0;
    const std::uint32_t slots =
        1 + static_cast<std::uint32_t>((s / 64) % kSlotsPerRank);
    if (op <= 3 || live.empty()) {
      const core::AllocResult r = mgr.allocate_wrank(tenant, slots);
      const bool over_quota = capped && tenant_total[tenant] + slots > kQuota;
      if (over_quota) {
        require(r.status == core::AllocStatus::kQuotaExceeded,
                "over-quota request not rejected kQuotaExceeded (got " +
                    std::string(core::to_string(r.status)) + ")");
      } else {
        require(r.status == core::AllocStatus::kOk ||
                    r.status == core::AllocStatus::kNoCapacity,
                "in-quota request returned unexpected status " +
                    std::string(core::to_string(r.status)));
      }
      if (r.status == core::AllocStatus::kOk) {
        oracle[r.wrank] = {tenant, slots};
        tenant_total[tenant] += slots;
        live.push_back(r.wrank);
      }
    } else if (op <= 5) {
      const std::size_t v = static_cast<std::size_t>((s / 64) % live.size());
      const std::uint64_t id = live[v];
      require(mgr.release_wrank(id) == core::AllocStatus::kOk,
              "release of a live wrank failed");
      tenant_total[oracle[id].tenant] -= oracle[id].slots;
      oracle.erase(id);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(v));
    } else if (op == 6) {
      const std::size_t v = static_cast<std::size_t>((s / 64) % live.size());
      const std::uint64_t id = live[v];
      const OracleEntry& cur = oracle[id];
      const std::uint32_t new_slots =
          1 + static_cast<std::uint32_t>((s / 512) % kSlotsPerRank);
      const bool cur_capped =
          (c.quota_mask & (1u << (cur.tenant.back() - '0'))) != 0;
      const bool over_quota =
          cur_capped && new_slots > cur.slots &&
          tenant_total[cur.tenant] + (new_slots - cur.slots) > kQuota;
      const core::AllocResult r = mgr.resize_wrank(id, new_slots);
      if (over_quota) {
        require(r.status == core::AllocStatus::kQuotaExceeded,
                "over-quota resize not rejected");
      }
      if (r.status == core::AllocStatus::kOk) {
        tenant_total[cur.tenant] += new_slots - cur.slots;
        oracle[id].slots = new_slots;
      }
    } else if (!deaths || (s / 64) % 2 == 0 ||
               !kill_hosting_rank(rig, mgr, s / 128)) {
      mgr.observe(/*do_resets=*/true);
      if (mgr.policy_wants_consolidation()) mgr.consolidate();
    }
    check_invariants(rig, mgr, oracle, deaths);
  }
}

TEST(PropWrank, RandomChurnMatchesOccupancyOracle) {
  const Params params = Params::from_env(0x33A9, 60);
  const auto out = run_property<WrankCase>(
      "wrank.occupancy_oracle", params, wrank_case_gen(),
      [](const WrankCase& c) {
        run_case(c, core::PlacementPolicyKind::kConsolidating,
                 /*deaths=*/false);
      },
      show_case);
  ASSERT_TRUE(out.ok) << out.reproducer;
}

TEST(PropWrank, RankDeathsUnderEveryPolicyKeepOneLedger) {
  for (const core::PlacementPolicyKind policy :
       {core::PlacementPolicyKind::kFirstFit,
        core::PlacementPolicyKind::kBestFit,
        core::PlacementPolicyKind::kConsolidating}) {
    const Params params = Params::from_env(0x33AA, 60);
    const auto out = run_property<WrankCase>(
        std::string("wrank.rank_deaths.") + core::to_string(policy), params,
        wrank_case_gen(),
        [policy](const WrankCase& c) {
          run_case(c, policy, /*deaths=*/true);
        },
        show_case);
    ASSERT_TRUE(out.ok) << core::to_string(policy) << ": " << out.reproducer;
  }
}

}  // namespace
}  // namespace vpim::prop
