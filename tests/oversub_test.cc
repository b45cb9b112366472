// Tests for the §7 consolidation features: suspend/resume (pause a
// device, free its rank, restore later) and oversubscription (emulated
// ranks at reduced performance when physical capacity is exhausted).
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <tuple>
#include <vector>

#include "common/fault.h"
#include "tests/test_kernels.h"
#include "tests/testutil.h"
#include "upmem/layout.h"
#include "vpim/guest_platform.h"
#include "vpim/host.h"
#include "vpim/vpim_vm.h"

namespace vpim::core {
namespace {

ManagerConfig fast_manager() {
  ManagerConfig cfg;
  cfg.retry_wait_ns = 1 * kMs;
  cfg.max_attempts = 2;
  return cfg;
}

VpimConfig oversub_config() {
  VpimConfig cfg = VpimConfig::full();
  cfg.oversubscribe = true;
  return cfg;
}

// ---------------------------------------------------------- suspend/resume

TEST(SuspendResume, StateSurvivesAndRankFreesInBetween) {
  test::register_count_zeros();
  Host host(test::small_machine(), CostModel{}, fast_manager());
  VpimVm vm(host, {.name = "sleeper"}, 1);
  Frontend& fe = vm.device(0).frontend;
  ASSERT_TRUE(fe.open());
  const std::uint32_t rank = vm.device(0).backend.rank_index();

  fe.ci_load("test_count_zeros");
  auto buf = vm.vmm().memory().alloc(32 * kKiB);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::uint8_t>(i % 251);
  }
  driver::TransferMatrix w;
  w.entries.push_back({1, 8192, buf.data(), buf.size()});
  fe.write_to_rank(w);
  std::uint32_t ps = 12345;
  fe.ci_copy_to_symbol(1, "partition_size", 0, test::bytes_u32(ps));

  fe.suspend();
  EXPECT_FALSE(fe.is_open());
  EXPECT_FALSE(host.drv.is_mapped(rank));  // the rank really freed

  // While suspended, another tenant can take (and dirty) the rank.
  host.manager.observe();
  host.manager.observe();
  {
    VpimVm other(host, {.name = "tenant-x"}, 2);
    GuestPlatform p(other);
    auto [zeros, expected] = test::run_count_zeros(p, 16, 1024, 77);
    EXPECT_EQ(zeros, expected);
  }
  host.manager.observe();
  host.manager.observe();

  ASSERT_TRUE(fe.resume());
  EXPECT_TRUE(fe.is_open());
  // MRAM content and WRAM symbol values are back, wherever we landed.
  auto out = vm.vmm().memory().alloc(buf.size());
  driver::TransferMatrix r;
  r.direction = driver::XferDirection::kFromRank;
  r.entries.push_back({1, 8192, out.data(), out.size()});
  fe.read_from_rank(r);
  EXPECT_TRUE(std::memcmp(out.data(), buf.data(), buf.size()) == 0);
  std::uint32_t ps_back = 0;
  fe.ci_copy_from_symbol(1, "partition_size", 0, test::bytes_u32(ps_back));
  EXPECT_EQ(ps_back, 12345u);
}

TEST(SuspendResume, SnapshotCostScalesWithResidentBytes) {
  Host host(test::small_machine(), CostModel{}, fast_manager());
  VpimVm vm(host, {.name = "sizer"}, 1);
  Frontend& fe = vm.device(0).frontend;
  ASSERT_TRUE(fe.open());
  auto buf = vm.vmm().memory().alloc(8 * kMiB);
  driver::TransferMatrix w;
  w.entries.push_back({0, 0, buf.data(), buf.size()});
  fe.write_to_rank(w);

  const SimNs t0 = host.clock.now();
  fe.suspend();
  const SimNs suspend_cost = host.clock.now() - t0;
  // 8 MiB of resident content at the wide bandwidth ~ 1.4 ms; far less
  // than snapshotting the nominal 512 MiB rank.
  EXPECT_GT(suspend_cost, 1 * kMs);
  EXPECT_LT(suspend_cost, 10 * kMs);
  ASSERT_TRUE(fe.resume());
}

// ---------------------------------------------------------- oversubscription

TEST(Oversubscription, EmulatedBindWhenMachineFull) {
  Host host(test::small_machine(), CostModel{}, fast_manager());
  VpimVm vm(host, {.name = "oversub"}, 3, oversub_config());
  ASSERT_TRUE(vm.device(0).frontend.open());
  ASSERT_TRUE(vm.device(1).frontend.open());
  EXPECT_FALSE(vm.device(0).backend.emulated());
  EXPECT_FALSE(vm.device(1).backend.emulated());

  // Third device: no physical rank left -> emulated binding.
  ASSERT_TRUE(vm.device(2).frontend.open());
  EXPECT_TRUE(vm.device(2).backend.emulated());
  EXPECT_EQ(vm.device(2).stats.emulated_binds, 1u);
  EXPECT_EQ(vm.device(2).frontend.nr_dpus(), 8u);  // same geometry
  // The emulated DPUs advertise the reduced clock.
  EXPECT_LT(vm.device(2).frontend.config_space().dpu_freq_mhz, 350u);
}

TEST(Oversubscription, ApplicationsRunCorrectlyButSlower) {
  test::register_count_zeros();
  // Physical run on a fresh machine.
  Host host_p(test::small_machine(), CostModel{}, fast_manager());
  VpimVm vm_p(host_p, {.name = "phys"}, 1, oversub_config());
  GuestPlatform p_phys(vm_p);
  const SimNs p0 = host_p.clock.now();
  auto [pz, pe] = test::run_count_zeros(p_phys, 8, 1 << 20, 21);
  const SimNs phys_time = host_p.clock.now() - p0;
  EXPECT_EQ(pz, pe);

  // Emulated run: exhaust the machine first.
  Host host_e(test::small_machine(), CostModel{}, fast_manager());
  VpimVm hog(host_e, {.name = "hog"}, 2);
  ASSERT_TRUE(hog.device(0).frontend.open());
  ASSERT_TRUE(hog.device(1).frontend.open());
  VpimVm vm_e(host_e, {.name = "emu"}, 1, oversub_config());
  GuestPlatform p_emu(vm_e);
  const SimNs e0 = host_e.clock.now();
  auto [ez, ee] = test::run_count_zeros(p_emu, 8, 1 << 20, 21);
  const SimNs emu_time = host_e.clock.now() - e0;
  EXPECT_EQ(ez, ee);
  EXPECT_EQ(ez, pz);  // same seed, same answer on emulated DPUs
  // The device was released by dpu_free; the bind counter proves the run
  // happened on an emulated rank.
  EXPECT_EQ(vm_e.device(0).stats.emulated_binds, 1u);

  // "Reduced performance" (§7): the DPU-bound part runs ~25x slower.
  EXPECT_GT(static_cast<double>(emu_time),
            2.0 * static_cast<double>(phys_time));
}

TEST(Oversubscription, DisabledByDefault) {
  Host host(test::small_machine(), CostModel{}, fast_manager());
  VpimVm hog(host, {.name = "hog"}, 2);
  ASSERT_TRUE(hog.device(0).frontend.open());
  ASSERT_TRUE(hog.device(1).frontend.open());
  VpimVm vm(host, {.name = "strict"}, 1);  // default config
  EXPECT_FALSE(vm.device(0).frontend.open());
}

TEST(Oversubscription, MigrationUpgradesToPhysical) {
  test::register_count_zeros();
  Host host(test::small_machine(), CostModel{}, fast_manager());
  auto hog = std::make_unique<VpimVm>(host, vmm::VmmParams{.name = "hog"},
                                      2);
  ASSERT_TRUE(hog->device(0).frontend.open());
  ASSERT_TRUE(hog->device(1).frontend.open());

  VpimVm vm(host, {.name = "upgrader"}, 1, oversub_config());
  Frontend& fe = vm.device(0).frontend;
  ASSERT_TRUE(fe.open());
  ASSERT_TRUE(vm.device(0).backend.emulated());
  auto buf = vm.vmm().memory().alloc(64 * kKiB);
  std::memset(buf.data(), 0x42, buf.size());
  driver::TransferMatrix w;
  w.entries.push_back({3, 0, buf.data(), buf.size()});
  fe.write_to_rank(w);

  // Capacity frees up; the device migrates onto real hardware.
  hog.reset();
  host.manager.observe();
  host.manager.observe();
  ASSERT_TRUE(fe.migrate());
  EXPECT_FALSE(vm.device(0).backend.emulated());
  EXPECT_EQ(fe.config_space().dpu_freq_mhz, 350u);

  auto out = vm.vmm().memory().alloc(buf.size());
  driver::TransferMatrix r;
  r.direction = driver::XferDirection::kFromRank;
  r.entries.push_back({3, 0, out.data(), out.size()});
  fe.read_from_rank(r);
  EXPECT_TRUE(std::memcmp(out.data(), buf.data(), buf.size()) == 0);
}

// ------------------------------------------- wrank oversubscription (ISSUE 9)

ManagerConfig wrank_config(PlacementPolicyKind placement,
                           bool charge = false) {
  ManagerConfig cfg = fast_manager();
  cfg.charge_time = charge;
  cfg.placement = placement;
  return cfg;
}

upmem::MachineConfig four_ranks() {
  return {.nr_ranks = 4, .functional_dpus_per_rank = 8};
}

TEST(WrankOversub, ChurnNeverLosesWranksAndNeverOverpacks) {
  test::TestRig rig(four_ranks());
  const ManagerConfig cfg =
      wrank_config(PlacementPolicyKind::kConsolidating);
  Manager mgr(rig.drv, cfg);
  // Oracle: id -> (tenant, slots). The manager must agree with it after
  // every step, including across live-migrating consolidation passes.
  std::map<std::uint64_t, std::pair<std::string, std::uint32_t>> oracle;
  std::uint64_t s = 0x5EED;
  auto rnd = [&s] {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  };
  for (int i = 0; i < 300; ++i) {
    const std::string tenant = "t" + std::to_string(rnd() % 3);
    if (oracle.size() < 10 && (rnd() & 3) != 0) {
      const std::uint32_t slots = 1 + static_cast<std::uint32_t>(rnd() % 2);
      const AllocResult r = mgr.allocate_wrank(tenant, slots);
      if (r.status == AllocStatus::kOk) oracle[r.wrank] = {tenant, slots};
    } else if (!oracle.empty()) {
      auto it = oracle.begin();
      std::advance(it, static_cast<long>(rnd() % oracle.size()));
      ASSERT_EQ(mgr.release_wrank(it->first), AllocStatus::kOk);
      oracle.erase(it);
    }
    if (i % 7 == 3) mgr.observe(/*do_resets=*/true);
    if (i % 5 == 4) mgr.consolidate();

    const std::vector<WrankInfo> ws = mgr.wranks();
    ASSERT_EQ(ws.size(), oracle.size());
    std::map<std::uint32_t, std::uint32_t> used;
    std::map<std::string, std::uint32_t> per_tenant;
    for (const WrankInfo& w : ws) {
      const auto it = oracle.find(w.id);
      ASSERT_NE(it, oracle.end()) << "unknown wrank id " << w.id;
      EXPECT_EQ(w.tenant, it->second.first);
      EXPECT_EQ(w.slots, it->second.second);
      // No faults in this trace, so nothing may stay displaced.
      ASSERT_NE(w.rank, Manager::kNoRank);
      used[w.rank] += w.slots;
      per_tenant[w.tenant] += w.slots;
    }
    for (const auto& [rank, slots] : used) {
      EXPECT_LE(slots, cfg.wrank_slots_per_rank) << "rank " << rank;
    }
    for (const auto& [tenant, slots] : per_tenant) {
      EXPECT_EQ(mgr.tenant_slots(tenant), slots);
    }
  }
}

TEST(WrankOversub, QuarantineDisplacesAndConsolidationAvoidsDeadRank) {
  test::TestRig rig(four_ranks());
  Manager mgr(rig.drv, wrank_config(PlacementPolicyKind::kConsolidating));
  // Fill rank 0 with tenant a (4x1), then rank 1 with tenant b (2x1):
  // best-fit packs the fullest rank first, lowest index on ties.
  std::vector<std::uint64_t> a_ids;
  for (int i = 0; i < 4; ++i) {
    const AllocResult r = mgr.allocate_wrank("a", 1);
    ASSERT_EQ(r.status, AllocStatus::kOk);
    EXPECT_EQ(r.rank, 0u);
    a_ids.push_back(r.wrank);
  }
  for (int i = 0; i < 2; ++i) {
    const AllocResult r = mgr.allocate_wrank("b", 1);
    ASSERT_EQ(r.status, AllocStatus::kOk);
    EXPECT_EQ(r.rank, 1u);
  }

  // Rank 1 dies under tenant b's wranks.
  rig.machine.rank(1).fail();
  rig.drv.log_fault({FaultKind::kRankDeath, 1, 0, rig.clock.now()});
  mgr.observe();
  EXPECT_EQ(mgr.state(1), RankState::kFail);
  EXPECT_EQ(mgr.stats().wranks_displaced, 2u);
  // Rescued within the same observe pass — onto a healthy rank, never
  // back onto the quarantined one, and nothing lost.
  ASSERT_EQ(mgr.wranks().size(), 6u);
  for (const WrankInfo& w : mgr.wranks()) {
    ASSERT_NE(w.rank, Manager::kNoRank) << "wrank " << w.id << " stranded";
    EXPECT_NE(w.rank, 1u) << "wrank " << w.id << " on the dead rank";
  }
  EXPECT_EQ(mgr.tenant_slots("b"), 2u);
  EXPECT_GE(mgr.stats().wrank_migrations, 2u);

  // Open a hole on rank 0 and consolidate: the pass must pack the rescued
  // wranks into the hole, and must never pick the quarantined rank as a
  // target even though it reads as 4 slots free.
  ASSERT_EQ(mgr.release_wrank(a_ids[0]), AllocStatus::kOk);
  ASSERT_EQ(mgr.release_wrank(a_ids[1]), AllocStatus::kOk);
  const std::uint32_t moves = mgr.consolidate();
  EXPECT_GT(moves, 0u);
  for (const WrankInfo& w : mgr.wranks()) {
    EXPECT_NE(w.rank, 1u) << "consolidation moved wrank " << w.id
                          << " onto the quarantined rank";
  }
  EXPECT_EQ(mgr.fragmentation_permille(), 0u);
  EXPECT_GE(mgr.stats().consolidation_migrations, moves);
}

TEST(WrankOversub, GrowingADisplacedWrankIsChargedAsARescue) {
  test::TestRig rig(four_ranks());
  const ManagerConfig cfg =
      wrank_config(PlacementPolicyKind::kFirstFit, /*charge=*/true);
  Manager mgr(rig.drv, cfg);
  // Fill every slot: a 2-slot wrank opens rank 0, 1-slot wranks fill the
  // rest of rank 0 and then ranks 1-3.
  const AllocResult pair = mgr.allocate_wrank("a", 2);
  ASSERT_EQ(pair.status, AllocStatus::kOk);
  ASSERT_EQ(pair.rank, 0u);
  for (int i = 0; i < 14; ++i) {
    ASSERT_EQ(mgr.allocate_wrank("b", 1).status, AllocStatus::kOk);
  }
  ASSERT_EQ(mgr.allocate_wrank("b", 1).status, AllocStatus::kNoCapacity);

  // Rank 3 dies; with no free slot anywhere its wranks stay displaced.
  rig.machine.rank(3).fail();
  rig.drv.log_fault({FaultKind::kRankDeath, 3, 0, rig.clock.now()});
  mgr.observe();
  ASSERT_EQ(mgr.state(3), RankState::kFail);
  std::uint64_t displaced = 0;
  for (const WrankInfo& w : mgr.wranks()) {
    if (w.rank == Manager::kNoRank) displaced = w.id;
  }
  ASSERT_NE(displaced, 0u);

  // Free two slots on rank 0, then grow a displaced 1-slot wrank to 2:
  // it is re-homed there exactly like a rescue, streaming its pre-resize
  // image at the rescue bandwidth, and counted as one migration.
  ASSERT_EQ(mgr.release_wrank(pair.wrank), AllocStatus::kOk);
  const std::uint64_t migrations = mgr.stats().wrank_migrations;
  const SimNs before = rig.clock.now();
  const AllocResult grown = mgr.resize_wrank(displaced, 2);
  ASSERT_EQ(grown.status, AllocStatus::kOk);
  EXPECT_EQ(grown.rank, 0u);
  const std::uint64_t rank_bytes = 2ULL * 8 * upmem::kMramSize;
  EXPECT_EQ(rig.clock.now() - before,
            rig.cost.manager_alloc_rt_ns +
                CostModel::bytes_time(rank_bytes / cfg.wrank_slots_per_rank,
                                      rig.cost.rank_rescue_gbps));
  EXPECT_EQ(mgr.stats().wrank_migrations, migrations + 1);
}

TEST(WrankOversub, PolicyDecisionsAndVirtualTimeAreDeterministic) {
  // Placement policies are pure functions over table snapshots and every
  // latency charge is virtual, so an identical trace must produce
  // bit-identical decisions and clocks on every run (and, because nothing
  // reads thread state, at every VPIM_THREADS setting — CI replays this
  // whole binary at 1 and 4 host threads).
  for (const PlacementPolicyKind kind :
       {PlacementPolicyKind::kFirstFit, PlacementPolicyKind::kBestFit,
        PlacementPolicyKind::kConsolidating}) {
    auto run = [kind] {
      test::TestRig rig(four_ranks());
      Manager mgr(rig.drv, wrank_config(kind, /*charge=*/true));
      std::vector<std::tuple<AllocStatus, std::uint64_t, std::uint32_t>>
          decisions;
      std::vector<std::uint64_t> live;
      std::uint64_t s = 0xD15EA5E;
      auto rnd = [&s] {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        return s;
      };
      for (int i = 0; i < 80; ++i) {
        const std::uint32_t op = static_cast<std::uint32_t>(rnd() % 4);
        if (op < 2 || live.empty()) {
          const AllocResult r = mgr.allocate_wrank(
              "t" + std::to_string(rnd() % 3),
              1 + static_cast<std::uint32_t>(rnd() % 4));
          decisions.emplace_back(r.status, r.wrank, r.rank);
          if (r.status == AllocStatus::kOk) live.push_back(r.wrank);
        } else if (op == 2) {
          const std::size_t v =
              static_cast<std::size_t>(rnd() % live.size());
          const AllocResult r = mgr.resize_wrank(
              live[v], 1 + static_cast<std::uint32_t>(rnd() % 4));
          decisions.emplace_back(r.status, r.wrank, r.rank);
        } else {
          const std::size_t v =
              static_cast<std::size_t>(rnd() % live.size());
          decisions.emplace_back(mgr.release_wrank(live[v]), live[v], 0u);
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(v));
        }
        if (i % 6 == 5) mgr.observe(/*do_resets=*/true);
        if (mgr.policy_wants_consolidation() && i % 4 == 3) {
          mgr.consolidate();
        }
      }
      return std::make_pair(decisions, rig.clock.now());
    };
    const auto first = run();
    const auto second = run();
    EXPECT_EQ(first.first, second.first)
        << "policy " << to_string(kind) << " made different decisions";
    EXPECT_EQ(first.second, second.second)
        << "policy " << to_string(kind) << " charged different time";
  }
}

}  // namespace
}  // namespace vpim::core
