#include <gtest/gtest.h>

#include <cstring>

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

struct VmRig {
  explicit VmRig(std::uint32_t nr_devices = 1,
                 VpimConfig config = VpimConfig::full(),
                 upmem::MachineConfig machine = test::small_machine())
      : host(machine, CostModel{}, fast_manager()),
        vm(host, {.name = "vm0"}, nr_devices, config),
        platform(vm) {}

  Host host;
  VpimVm vm;
  GuestPlatform platform;
};

TEST(VpimVm, BootAddsTwoMillisPerDevice) {
  Host host(test::small_machine(), CostModel{}, fast_manager());
  VpimVm plain(host, {.name = "plain"}, 0);
  VpimVm with_dev(host, {.name = "dev"}, 2);
  EXPECT_EQ(with_dev.boot_duration() - plain.boot_duration(),
            2 * host.cost.vupmem_boot_ns);  // +2 ms each
}

TEST(VpimVm, OpenBindsRankThroughManager) {
  VmRig rig;
  Frontend& fe = rig.vm.device(0).frontend;
  EXPECT_FALSE(fe.is_open());
  ASSERT_TRUE(fe.open());
  EXPECT_TRUE(fe.is_open());
  EXPECT_EQ(fe.nr_dpus(), 8u);  // small machine: 8 DPUs per rank

  const auto cfg = fe.config_space();
  EXPECT_EQ(cfg.dpu_freq_mhz, 350u);
  EXPECT_EQ(cfg.mram_bytes_per_dpu, 64 * kMiB);

  const auto rank = rig.vm.device(0).backend.rank_index();
  EXPECT_TRUE(rig.host.drv.sysfs().read(rank).in_use);
  EXPECT_EQ(rig.host.manager.state(rank), RankState::kAllo);

  fe.close();
  EXPECT_FALSE(rig.host.drv.sysfs().read(rank).in_use);
}

TEST(VpimVm, UnlinkedDeviceRejectsOperations) {
  VmRig rig;
  Frontend& fe = rig.vm.device(0).frontend;
  driver::TransferMatrix m;
  EXPECT_THROW(fe.write_to_rank(m), VpimError);
  EXPECT_THROW(fe.ci_running_mask(), VpimError);
  EXPECT_THROW((void)fe.nr_dpus(), VpimError);
}

TEST(VpimVm, CountZerosMatchesNativeExactly) {
  VmRig rig;
  auto [virt, virt_expected] =
      test::run_count_zeros(rig.platform, 8, 8192, 99);
  EXPECT_EQ(virt, virt_expected);

  test::TestRig native_rig(test::small_machine());
  auto [nat, nat_expected] =
      test::run_count_zeros(native_rig.native, 8, 8192, 99);
  EXPECT_EQ(nat, nat_expected);
  EXPECT_EQ(virt, nat);  // same seed, same partitioning, same answer
}

TEST(VpimVm, VirtualizationCostsMoreThanNative) {
  VmRig rig;
  const SimNs v0 = rig.host.clock.now();
  test::run_count_zeros(rig.platform, 8, 65536, 7);
  const SimNs virt_time = rig.host.clock.now() - v0;

  test::TestRig native_rig(test::small_machine());
  const SimNs n0 = native_rig.clock.now();
  test::run_count_zeros(native_rig.native, 8, 65536, 7);
  const SimNs native_time = native_rig.clock.now() - n0;

  EXPECT_GT(virt_time, native_time);
  // With all optimizations the overhead stays moderate (paper: 1.01-2.9x
  // on real workloads; count-zeros is launch-dominated so allow slack, but
  // it must not be catastrophic).
  EXPECT_LT(static_cast<double>(virt_time),
            5.0 * static_cast<double>(native_time) +
                static_cast<double>(rig.host.cost.manager_alloc_rt_ns));
}

TEST(VpimVm, PrefetchCacheServesSmallReads) {
  VmRig rig;
  Frontend& fe = rig.vm.device(0).frontend;
  ASSERT_TRUE(fe.open());

  // Seed DPU 0's MRAM with a pattern (through the frontend).
  auto buf = rig.vm.vmm().memory().alloc(256 * kKiB);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::uint8_t>(i * 7);
  }
  driver::TransferMatrix write;
  write.entries.push_back({0, 0, buf.data(), buf.size()});
  fe.write_to_rank(write);

  auto out = rig.vm.vmm().memory().alloc(4 * kKiB);
  auto read_at = [&](std::uint64_t offset, std::uint64_t size) {
    driver::TransferMatrix read;
    read.direction = driver::XferDirection::kFromRank;
    read.entries.push_back({0, offset, out.data(), size});
    fe.read_from_rank(read);
  };

  // First small read: miss + fill.
  read_at(0, 512);
  EXPECT_EQ(fe.stats().cache_misses, 1u);
  EXPECT_EQ(fe.stats().cache_fills, 1u);
  EXPECT_TRUE(std::memcmp(out.data(), buf.data(), 512) == 0);

  // Sequential small reads within the 64 KiB cached segment: hits, and no
  // further messages.
  const std::uint64_t notifies_before = fe.stats().notifies;
  for (std::uint64_t off = 512; off < 16 * kKiB; off += 512) {
    read_at(off, 512);
    EXPECT_TRUE(std::memcmp(out.data(), buf.data() + off, 512) == 0);
  }
  EXPECT_EQ(fe.stats().notifies, notifies_before);
  EXPECT_GT(fe.stats().cache_hits, 20u);

  // A read past the cached segment misses again.
  read_at(128 * kKiB, 512);
  EXPECT_EQ(fe.stats().cache_fills, 2u);
  EXPECT_TRUE(std::memcmp(out.data(), buf.data() + 128 * kKiB, 512) == 0);
}

TEST(VpimVm, CacheInvalidatedByWriteAndLaunch) {
  VmRig rig;
  Frontend& fe = rig.vm.device(0).frontend;
  ASSERT_TRUE(fe.open());
  test::register_count_zeros();

  auto buf = rig.vm.vmm().memory().alloc(64 * kKiB);
  std::memset(buf.data(), 0xAB, buf.size());
  driver::TransferMatrix write;
  write.entries.push_back({0, 0, buf.data(), buf.size()});
  fe.write_to_rank(write);

  auto out = rig.vm.vmm().memory().alloc(4 * kKiB);
  driver::TransferMatrix read;
  read.direction = driver::XferDirection::kFromRank;
  read.entries.push_back({0, 0, out.data(), 256});
  fe.read_from_rank(read);
  ASSERT_EQ(fe.stats().cache_fills, 1u);

  // Overwrite through the frontend: the cache must not serve stale bytes.
  std::memset(buf.data(), 0xCD, buf.size());
  fe.write_to_rank(write);
  fe.read_from_rank(read);
  EXPECT_EQ(fe.stats().cache_fills, 2u);  // refilled after invalidation
  EXPECT_EQ(out[0], 0xCD);

  // A DPU launch also invalidates.
  fe.ci_load("test_count_zeros");
  std::uint32_t ps = 0;
  fe.ci_copy_to_symbol(0, "partition_size", 0,
                       {reinterpret_cast<std::uint8_t*>(&ps), 4});
  fe.ci_launch(0b1, std::nullopt);
  while (fe.ci_running_mask() != 0) {
    rig.host.clock.advance(100 * kUs);
  }
  fe.read_from_rank(read);
  EXPECT_EQ(fe.stats().cache_fills, 3u);
}

TEST(VpimVm, BatchingAbsorbsSmallWritesUntilFlush) {
  VmRig rig;
  Frontend& fe = rig.vm.device(0).frontend;
  ASSERT_TRUE(fe.open());

  auto buf = rig.vm.vmm().memory().alloc(1 * kMiB);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::uint8_t>(i);
  }

  const std::uint64_t notifies_before = fe.stats().notifies;
  // 200 small writes of 160 B (the NW pattern) to DPU 0.
  for (int i = 0; i < 200; ++i) {
    driver::TransferMatrix w;
    w.entries.push_back({0, static_cast<std::uint64_t>(i) * 160,
                         buf.data() + i * 160, 160});
    fe.write_to_rank(w);
  }
  EXPECT_EQ(fe.stats().batched_writes, 200u);
  EXPECT_EQ(fe.stats().notifies, notifies_before);  // zero messages so far

  // A read forces the flush and must see every batched byte.
  auto out = rig.vm.vmm().memory().alloc(200 * 160);
  driver::TransferMatrix read;
  read.direction = driver::XferDirection::kFromRank;
  read.entries.push_back({0, 0, out.data(), 200 * 160});
  fe.read_from_rank(read);
  EXPECT_EQ(fe.stats().batch_flushes, 1u);
  EXPECT_TRUE(std::memcmp(out.data(), buf.data(), 200 * 160) == 0);
}

TEST(VpimVm, BatchFlushesWhenBufferFills) {
  VmRig rig;
  Frontend& fe = rig.vm.device(0).frontend;
  ASSERT_TRUE(fe.open());

  auto buf = rig.vm.vmm().memory().alloc(4 * kKiB);
  // Write far more than the 256 KiB per-DPU batch buffer in 4 KiB pieces:
  // flushes must happen along the way without any read.
  for (int i = 0; i < 100; ++i) {
    driver::TransferMatrix w;
    w.entries.push_back({0, static_cast<std::uint64_t>(i) * 4096,
                         buf.data(), 4096});
    fe.write_to_rank(w);
  }
  EXPECT_GT(fe.stats().batch_flushes, 0u);
}

TEST(VpimVm, LargeWritesBypassBatching) {
  VmRig rig;
  Frontend& fe = rig.vm.device(0).frontend;
  ASSERT_TRUE(fe.open());
  auto buf = rig.vm.vmm().memory().alloc(1 * kMiB);
  driver::TransferMatrix w;
  w.entries.push_back({0, 0, buf.data(), buf.size()});
  const std::uint64_t notifies_before = fe.stats().notifies;
  fe.write_to_rank(w);
  EXPECT_EQ(fe.stats().batched_writes, 0u);
  EXPECT_EQ(fe.stats().notifies, notifies_before + 1);
}

TEST(VpimVm, ParallelHandlingOverlapsRankOperations) {
  auto run = [&](VpimConfig cfg) {
    VmRig rig(/*nr_devices=*/2, cfg);
    Frontend& fe0 = rig.vm.device(0).frontend;
    Frontend& fe1 = rig.vm.device(1).frontend;
    EXPECT_TRUE(fe0.open());
    EXPECT_TRUE(fe1.open());
    auto buf = rig.vm.vmm().memory().alloc(8 * kMiB);

    auto write_rank = [&](Frontend& fe) {
      driver::TransferMatrix w;
      for (std::uint32_t d = 0; d < 8; ++d) {
        w.entries.push_back({d, 0, buf.data() + d * kMiB, kMiB});
      }
      fe.write_to_rank(w);
    };
    const SimNs t0 = rig.host.clock.now();
    std::vector<std::function<void()>> branches = {
        [&] { write_rank(fe0); }, [&] { write_rank(fe1); }};
    rig.host.clock.run_parallel(branches);
    return rig.host.clock.now() - t0;
  };

  const SimNs seq = run(VpimConfig::sequential());
  const SimNs par = run(VpimConfig::full());
  EXPECT_LT(par, seq);
  // Sequential handling serializes the two 8 MiB copies in the VMM; the
  // parallel version overlaps them almost fully.
  EXPECT_GT(static_cast<double>(seq) / static_cast<double>(par), 1.5);
}

TEST(VpimVm, RankExhaustionFailsCleanly) {
  // 2-rank machine: a VM with 3 devices cannot bind them all.
  VmRig rig(/*nr_devices=*/3);
  EXPECT_TRUE(rig.vm.device(0).frontend.open());
  EXPECT_TRUE(rig.vm.device(1).frontend.open());
  EXPECT_FALSE(rig.vm.device(2).frontend.open());
  EXPECT_EQ(rig.host.manager.stats().failed_requests, 1u);
}

TEST(VpimVm, RanksRecycleBetweenVms) {
  Host host(test::small_machine(), CostModel{}, fast_manager());
  {
    VpimVm vm1(host, {.name = "vm1"}, 2);
    GuestPlatform p1(vm1);
    auto [zeros, expected] = test::run_count_zeros(p1, 16, 1024, 3);
    EXPECT_EQ(zeros, expected);
    // DpuSet::free() released both devices (ranks show free in sysfs).
  }
  // Every grant is a mapping, so one poll sees both ranks free, releases
  // them and erases them.
  host.manager.observe();
  EXPECT_EQ(host.manager.stats().resets, 2u);

  VpimVm vm2(host, {.name = "vm2"}, 2);
  GuestPlatform p2(vm2);
  auto [zeros2, expected2] = test::run_count_zeros(p2, 16, 1024, 4);
  EXPECT_EQ(zeros2, expected2);
}

TEST(VpimVm, WriteStepsBreakdownRecorded) {
  VmRig rig;
  Frontend& fe = rig.vm.device(0).frontend;
  ASSERT_TRUE(fe.open());
  auto buf = rig.vm.vmm().memory().alloc(8 * kMiB);
  driver::TransferMatrix w;
  for (std::uint32_t d = 0; d < 8; ++d) {
    w.entries.push_back({d, 0, buf.data() + d * kMiB, kMiB});
  }
  fe.write_to_rank(w);

  const StepBreakdown& steps = fe.stats().wsteps;
  for (std::size_t s = 0; s < kWrankStepNames.size(); ++s) {
    EXPECT_GT(steps.step_time[s], 0u) << kWrankStepNames[s];
  }
  // T-data dominates bulk writes (Fig 13: 69-98% depending on data path).
  EXPECT_GT(static_cast<double>(steps.time(WrankStep::kTransferData)),
            0.5 * static_cast<double>(steps.total()));
}

TEST(VpimVm, MemoryOverheadIsBounded) {
  VmRig rig;
  Frontend& fe = rig.vm.device(0).frontend;
  EXPECT_EQ(fe.memory_overhead_bytes(), 0u);  // nothing before open
  ASSERT_TRUE(fe.open());
  const double per_dpu =
      static_cast<double>(fe.memory_overhead_bytes()) / 64.0;
  // Page lists (128 KiB) + cache (64 KiB) + batch (256 KiB) per DPU, plus
  // fixed staging: well under the paper's 1.37 MB/DPU bound.
  EXPECT_GT(per_dpu, 400.0 * 1024);
  EXPECT_LT(per_dpu, 1.37 * 1024 * 1024);
}

// Each submission slot is one control page (request, matrix meta, response
// and entry meta) with its page-list area behind it, plus the CI payload.
TEST(VpimVm, EachSqSlotAddsOneControlPagePageListsAndPayload) {
  auto guest_bytes_after_open = [](std::uint32_t depth) {
    VpimConfig cfg = VpimConfig::full();
    cfg.queue_depth = depth;
    VmRig rig(1, cfg);
    const std::uint64_t before = rig.vm.vmm().memory().allocated_bytes();
    EXPECT_TRUE(rig.vm.device(0).frontend.open());
    return rig.vm.vmm().memory().allocated_bytes() - before;
  };
  const std::uint64_t page_lists =
      std::uint64_t{upmem::kDpuSlotsPerRank} * upmem::kMramPages * 8;
  EXPECT_EQ(guest_bytes_after_open(2) - guest_bytes_after_open(1),
            guest::kGuestPageSize + page_lists + 8 * kKiB);
}

TEST(VpimVm, RustConfigSlowerThanC) {
  auto run = [&](VpimConfig cfg) {
    VmRig rig(1, cfg);
    Frontend& fe = rig.vm.device(0).frontend;
    EXPECT_TRUE(fe.open());
    auto buf = rig.vm.vmm().memory().alloc(8 * kMiB);
    driver::TransferMatrix w;
    w.entries.push_back({0, 0, buf.data(), buf.size()});
    const SimNs t0 = rig.host.clock.now();
    fe.write_to_rank(w);
    return rig.host.clock.now() - t0;
  };
  const SimNs rust = run(VpimConfig::rust());
  const SimNs c = run(VpimConfig::c_only());
  // 1.4 vs 5 GB/s data path: C is several times faster on bulk writes.
  EXPECT_GT(static_cast<double>(rust) / static_cast<double>(c), 2.0);
}

}  // namespace
}  // namespace vpim::core
