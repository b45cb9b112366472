#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.h"
#include "tests/test_kernels.h"
#include "tests/testutil.h"

namespace vpim::driver {
namespace {

TEST(Sysfs, TracksUsage) {
  Sysfs sysfs(4);
  EXPECT_FALSE(sysfs.read(2).in_use);
  sysfs.set_in_use(2, "vm-7");
  EXPECT_TRUE(sysfs.read(2).in_use);
  EXPECT_EQ(sysfs.read(2).owner, "vm-7");
  sysfs.set_free(2);
  EXPECT_FALSE(sysfs.read(2).in_use);
  EXPECT_THROW(sysfs.read(4), VpimError);
}

TEST(Driver, PerfModeMappingIsExclusive) {
  test::TestRig rig(test::small_machine());
  auto m = rig.drv.map_rank(0, "app-a");
  EXPECT_TRUE(rig.drv.is_mapped(0));
  EXPECT_TRUE(rig.drv.sysfs().read(0).in_use);
  EXPECT_THROW(rig.drv.map_rank(0, "app-b"), VpimError);
  m.unmap();
  EXPECT_FALSE(rig.drv.is_mapped(0));
  EXPECT_FALSE(rig.drv.sysfs().read(0).in_use);
  auto m2 = rig.drv.map_rank(0, "app-b");  // now allowed
  EXPECT_TRUE(rig.drv.is_mapped(0));
}

TEST(Driver, MappingReleasesOnDestruction) {
  test::TestRig rig(test::small_machine());
  {
    auto m = rig.drv.map_rank(1, "scoped");
    EXPECT_TRUE(rig.drv.is_mapped(1));
  }
  EXPECT_FALSE(rig.drv.is_mapped(1));
}

TEST(Driver, TransferRoundTripAndCost) {
  test::TestRig rig(test::small_machine());
  auto m = rig.drv.map_rank(0, "xfer");

  Rng rng(5);
  std::vector<std::uint8_t> in(1 * kMiB), out(1 * kMiB);
  rng.fill_bytes(in.data(), in.size());

  TransferMatrix to;
  to.direction = XferDirection::kToRank;
  to.entries.push_back({3, 4096, in.data(), in.size()});

  const SimNs before = rig.clock.now();
  m.transfer(to);
  const SimNs write_cost = rig.clock.now() - before;
  // 1 MiB at the wide bandwidth (6 GB/s) ~ 175 us, plus the fixed cost.
  EXPECT_NEAR(static_cast<double>(write_cost),
              rig.cost.native_xfer_fixed_ns + 1048576 / 6.0, 100.0);

  TransferMatrix from;
  from.direction = XferDirection::kFromRank;
  from.entries.push_back({3, 4096, out.data(), out.size()});
  m.transfer(from);
  EXPECT_EQ(in, out);
}

TEST(Driver, NaivePathIsSlower) {
  test::TestRig rig(test::small_machine());
  auto m = rig.drv.map_rank(0, "naive");
  std::vector<std::uint8_t> buf(8 * kMiB, 7);

  TransferMatrix matrix;
  matrix.entries.push_back({0, 0, buf.data(), buf.size()});

  SimNs t0 = rig.clock.now();
  m.transfer(matrix);
  const SimNs wide = rig.clock.now() - t0;

  m.set_gbps(rig.cost.interleave_naive_gbps);
  t0 = rig.clock.now();
  m.transfer(matrix);
  const SimNs naive = rig.clock.now() - t0;

  // The naive/wide gap follows the calibrated bandwidths exactly.
  EXPECT_NEAR(static_cast<double>(naive) / static_cast<double>(wide),
              rig.cost.interleave_wide_gbps / rig.cost.interleave_naive_gbps,
              0.2);
}

TEST(Driver, BroadcastSharesPagesAcrossDpus) {
  test::TestRig rig(test::small_machine());
  auto m = rig.drv.map_rank(0, "bcast");

  Rng rng(7);
  std::vector<std::uint8_t> data(1 * kMiB + 100);  // unaligned tail
  rng.fill_bytes(data.data(), data.size());
  m.broadcast(0, data);

  auto& rank = rig.machine.rank(0);
  std::vector<std::uint8_t> out(data.size());
  for (std::uint32_t d = 0; d < rank.nr_dpus(); ++d) {
    rank.mram(d).read(0, out);
    EXPECT_EQ(out, data) << "dpu " << d;
  }
}

TEST(Driver, BroadcastCostScalesWithDpus) {
  test::TestRig rig(test::small_machine());  // 8 DPUs per rank
  auto m = rig.drv.map_rank(0, "bcast-cost");
  std::vector<std::uint8_t> data(1 * kMiB);

  const SimNs t0 = rig.clock.now();
  m.broadcast(0, data);
  const SimNs cost = rig.clock.now() - t0;
  const double expected =
      rig.cost.native_xfer_fixed_ns + 8.0 * 1048576 / 6.0;
  EXPECT_NEAR(static_cast<double>(cost), expected, 100.0);
}

TEST(Driver, BroadcastOntoABusyDpuThrowsAndLeavesEveryBankUnchanged) {
  // The running DPU is the rank's last, so a broadcast that stored bank by
  // bank would reach every other bank before it failed.
  test::register_busy_kernel();
  test::TestRig rig(test::small_machine());
  auto m = rig.drv.map_rank(0, "bcast-busy");
  auto& rank = rig.machine.rank(0);
  const std::uint32_t last = rank.nr_dpus() - 1;
  const std::vector<std::uint8_t> seed(8 * kKiB, 0x5A);
  m.broadcast(0, seed);
  m.ci_load("test_busy");
  m.ci_launch(std::uint64_t{1} << last);
  ASSERT_EQ(m.ci_running_mask(), std::uint64_t{1} << last);

  const std::vector<std::uint8_t> data(8 * kKiB, 0xC3);
  EXPECT_THROW(m.broadcast(0, data), VpimError);
  while (m.ci_running_mask() != 0) rig.clock.advance(1 * kMs);
  std::vector<std::uint8_t> out(seed.size());
  for (std::uint32_t d = 0; d < rank.nr_dpus(); ++d) {
    rank.mram(d).read(0, out);
    EXPECT_EQ(out, seed) << "dpu " << d;
  }
}

TEST(Driver, OversizedTransferRejected) {
  test::TestRig rig(test::small_machine());
  auto m = rig.drv.map_rank(0, "big");
  TransferMatrix matrix;
  // 65 entries of 64 MiB nominal size = over the 4 GiB cap. Host pointers
  // are never dereferenced because validation fires first.
  static std::uint8_t dummy;
  for (int i = 0; i < 65; ++i) {
    matrix.entries.push_back({0, 0, &dummy, 64 * kMiB});
  }
  EXPECT_THROW(m.transfer(matrix), VpimError);
}

TEST(Driver, FailedTransferKeepsTheRankMapped) {
  // A mapping owns its rank until it is dropped: a transfer that throws
  // (here over the 4 GiB cap) must neither unmap the rank nor free it in
  // sysfs, so a second map_rank of it is still refused.
  test::TestRig rig(test::small_machine());
  auto m = rig.drv.map_rank(0, "holder");
  TransferMatrix matrix;
  static std::uint8_t dummy;
  for (int i = 0; i < 65; ++i) {
    matrix.entries.push_back({0, 0, &dummy, 64 * kMiB});
  }
  EXPECT_THROW(m.transfer(matrix), VpimError);
  EXPECT_TRUE(rig.drv.is_mapped(0));
  EXPECT_TRUE(rig.drv.sysfs().read(0).in_use);
  EXPECT_EQ(rig.drv.sysfs().read(0).owner, "holder");
  EXPECT_THROW(rig.drv.map_rank(0, "intruder"), VpimError);

  m.unmap();
  EXPECT_FALSE(rig.drv.is_mapped(0));
  EXPECT_NO_THROW(rig.drv.map_rank(0, "next"));
}

TEST(Driver, RankResetTakesPaperTime) {
  test::TestRig rig;  // paper geometry
  const SimNs t0 = rig.clock.now();
  rig.drv.reset_rank(0);
  const double ms = ns_to_ms(rig.clock.now() - t0);
  // The paper reports ~597 ms per rank reset; the calibrated memset
  // bandwidth should land within a few percent.
  EXPECT_NEAR(ms, 597.0, 60.0);
}

TEST(Driver, ResetOfMappedRankRejected) {
  test::TestRig rig(test::small_machine());
  auto m = rig.drv.map_rank(0, "holder");
  EXPECT_THROW(rig.drv.reset_rank(0), VpimError);
}

}  // namespace
}  // namespace vpim::driver
