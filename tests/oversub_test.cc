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

}  // namespace
}  // namespace vpim::core
