// Tests for the §7 consolidation features: suspend/resume (pause a
// device, free its rank, restore later) and oversubscription (emulated
// ranks at reduced performance when physical capacity is exhausted).
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "tests/test_kernels.h"
#include "tests/testutil.h"
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

// A state move streams whole banks: the host reaches MRAM only through
// rank-wide transfers, so it cannot know which pages a DPU-side write
// touched. One leg is nr_dpus x kMramSize at the wide bandwidth; suspend
// and resume each run one leg, migrate runs both.
TEST(SuspendResume, StateMovesChargeWholeBanksPerLeg) {
  const CostModel cost;
  const std::uint32_t nr_dpus = test::small_machine().functional_dpus_per_rank;
  const SimNs leg = CostModel::bytes_time(
      std::uint64_t{nr_dpus} * upmem::kMramSize, cost.interleave_wide_gbps);

  // Suspend+resume costs the same whether the guest wrote 8 MiB of zeros
  // (pages the simulator materializes) or never wrote at all.
  const auto park_cost = [&](bool write_zeros) {
    Host host(test::small_machine(), cost, fast_manager());
    VpimVm vm(host, {.name = "parker"}, 1);
    Frontend& fe = vm.device(0).frontend;
    EXPECT_TRUE(fe.open());
    if (write_zeros) {
      auto buf = vm.vmm().memory().alloc(8 * kMiB);
      std::memset(buf.data(), 0, buf.size());
      driver::TransferMatrix w;
      w.entries.push_back({0, 0, buf.data(), buf.size()});
      fe.write_to_rank(w);
    }
    const SimNs t0 = host.clock.now();
    fe.suspend();
    const SimNs suspended = host.clock.now();
    EXPECT_TRUE(fe.resume());
    return std::pair{suspended - t0, host.clock.now() - suspended};
  };
  const auto [suspend_zeros, resume_zeros] = park_cost(true);
  const auto [suspend_cost, resume_cost] = park_cost(false);
  EXPECT_EQ(suspend_zeros, suspend_cost);
  EXPECT_EQ(resume_zeros, resume_cost);

  // The same control round trips without a state move: release, re-bind
  // (both land on the free rank 1, as resume and migrate do), and a first
  // bind followed by a migration.
  Host host(test::small_machine(), cost, fast_manager());
  VpimVm vm(host, {.name = "plain"}, 1);
  Frontend& fe = vm.device(0).frontend;
  ASSERT_TRUE(fe.open());
  SimNs t0 = host.clock.now();
  fe.close();
  const SimNs close_cost = host.clock.now() - t0;
  t0 = host.clock.now();
  ASSERT_TRUE(fe.open());
  const SimNs open_cost = host.clock.now() - t0;
  EXPECT_EQ(suspend_cost - close_cost, leg);
  EXPECT_EQ(resume_cost - open_cost, leg);

  Host host_m(test::small_machine(), cost, fast_manager());
  VpimVm vm_m(host_m, {.name = "mover"}, 1);
  Frontend& fe_m = vm_m.device(0).frontend;
  ASSERT_TRUE(fe_m.open());
  t0 = host_m.clock.now();
  ASSERT_TRUE(fe_m.migrate());
  EXPECT_EQ(host_m.clock.now() - t0 - open_cost, 2 * leg);
}

// Banks cannot be streamed out while a DPU still writes them: migrate and
// suspend of a rank whose kernel runs are refused typed, before any leg or
// manager round trip is charged, and leave the binding as it was.
TEST(SuspendResume, MovesOutOfARunningRankAreRefused) {
  test::register_count_zeros();
  Host host(test::small_machine(), CostModel{}, fast_manager());
  VpimVm vm(host, {.name = "busy"}, 1);
  Frontend& fe = vm.device(0).frontend;
  ASSERT_TRUE(fe.open());
  const std::uint32_t rank = vm.device(0).backend.rank_index();
  const std::uint32_t nr_dpus = fe.nr_dpus();

  // 4 MiB per DPU, every fourth word zero.
  constexpr std::uint32_t kBytes = 4 * kMiB;
  auto buf = vm.vmm().memory().alloc(kBytes);
  for (std::uint32_t i = 0; i < kBytes / 4; ++i) {
    const std::uint32_t v = i % 4 == 0 ? 0 : i;
    std::memcpy(buf.data() + std::uint64_t{i} * 4, &v, 4);
  }
  fe.ci_load("test_count_zeros");
  driver::TransferMatrix w;
  for (std::uint32_t d = 0; d < nr_dpus; ++d) {
    w.entries.push_back({d, 0, buf.data(), buf.size()});
    std::uint32_t size = kBytes;
    fe.ci_copy_to_symbol(d, "partition_size", 0, test::bytes_u32(size));
  }
  fe.write_to_rank(w);
  fe.ci_launch((1ULL << nr_dpus) - 1, 16);

  const auto refused = [&](auto move) {
    const SimNs t0 = host.clock.now();
    try {
      move();
      ADD_FAILURE() << "a move out of a running rank succeeded";
    } catch (const VpimStatusError& e) {
      EXPECT_EQ(e.status(),
                static_cast<std::int32_t>(virtio::PimStatus::kBadRequest));
    }
    return host.clock.now() - t0;
  };
  const SimNs migrate_rt = refused([&] { fe.migrate(); });
  const SimNs suspend_rt = refused([&] { fe.suspend(); });
  // Both were refused while the kernel still ran, on the same binding.
  EXPECT_NE(fe.ci_running_mask(), 0u);
  EXPECT_TRUE(fe.is_open());
  EXPECT_EQ(vm.device(0).backend.rank_index(), rank);
  EXPECT_EQ(migrate_rt, suspend_rt);

  while (fe.ci_running_mask() != 0) {  // each poll advances the clock
  }
  std::uint32_t zeros = 0;
  fe.ci_copy_from_symbol(nr_dpus - 1, "zero_count", 0,
                         test::bytes_u32(zeros));
  EXPECT_EQ(zeros, kBytes / 16);
  auto out = vm.vmm().memory().alloc(kBytes);
  driver::TransferMatrix r;
  r.direction = driver::XferDirection::kFromRank;
  r.entries.push_back({nr_dpus - 1, 0, out.data(), out.size()});
  fe.read_from_rank(r);
  EXPECT_TRUE(std::memcmp(out.data(), buf.data(), kBytes) == 0);

  // A refusal costs no more than a control round trip that moves no state.
  const SimNs t0 = host.clock.now();
  fe.close();
  const SimNs release_rt = host.clock.now() - t0;
  EXPECT_LE(migrate_rt, release_rt);
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

}  // namespace
}  // namespace vpim::core
