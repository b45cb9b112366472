// Unit tests for rank snapshots (the §7 pause/resume substrate) and their
// copy-on-write semantics.
#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.h"
#include "tests/test_kernels.h"
#include "tests/testutil.h"

namespace vpim::upmem {
namespace {

// MRAM pages a snapshot holds resident, over all its banks.
std::uint64_t resident_pages(const Rank::Snapshot& snap) {
  std::uint64_t n = 0;
  for (const Dpu& d : snap.dpus) n += d.mram().resident_pages();
  return n;
}

TEST(Snapshot, RoundTripsContentBinaryAndSymbols) {
  test::register_count_zeros();
  test::TestRig rig(test::small_machine());
  Rank& src = rig.machine.rank(0);
  Rank& dst = rig.machine.rank(1);

  src.ci_load("test_count_zeros");
  Rng rng(4);
  std::vector<std::uint8_t> data(48 * kKiB);
  rng.fill_bytes(data.data(), data.size());
  src.mram(3).write(12288, data);
  std::uint32_t ps = 777;
  src.ci_copy_to_symbol(3, "partition_size", 0, test::bytes_u32(ps));

  const Rank::Snapshot snap = src.save_snapshot();
  EXPECT_EQ(snap.dpus.size(), src.nr_dpus());
  EXPECT_GE(snap.dpus[3].mram().resident_pages() * kMramPageSize,
            data.size());

  dst.load_snapshot(snap);
  std::vector<std::uint8_t> out(data.size());
  dst.mram(3).read(12288, out);
  EXPECT_EQ(out, data);
  std::uint32_t ps_back = 0;
  dst.ci_copy_from_symbol(3, "partition_size", 0, test::bytes_u32(ps_back));
  EXPECT_EQ(ps_back, 777u);
  EXPECT_EQ(dst.dpu(3).loaded_kernel_name(), "test_count_zeros");
}

TEST(Snapshot, IsolatedFromLaterWritesOnBothSides) {
  test::TestRig rig(test::small_machine());
  Rank& src = rig.machine.rank(0);
  std::vector<std::uint8_t> original(4096, 0x11);
  src.mram(0).write(0, original);

  const Rank::Snapshot snap = src.save_snapshot();

  // Mutate the source after snapshotting: the snapshot must not change.
  std::vector<std::uint8_t> mutation(4096, 0x22);
  src.mram(0).write(0, mutation);

  Rank& dst = rig.machine.rank(1);
  dst.load_snapshot(snap);
  std::vector<std::uint8_t> out(4096);
  dst.mram(0).read(0, out);
  EXPECT_EQ(out, original);

  // And mutating the restored rank must not leak back into the source.
  std::vector<std::uint8_t> mutation2(4096, 0x33);
  dst.mram(0).write(0, mutation2);
  src.mram(0).read(0, out);
  EXPECT_EQ(out, mutation);
}

TEST(Snapshot, ResidentBytesTracksSparseness) {
  test::TestRig rig(test::small_machine());
  Rank& rank = rig.machine.rank(0);
  EXPECT_EQ(resident_pages(rank.save_snapshot()), 0u);
  std::vector<std::uint8_t> page(4096, 1);
  rank.mram(0).write(0, page);             // 1 page
  rank.mram(5).write(10 * kMiB, page);     // 1 page, far away
  const Rank::Snapshot snap = rank.save_snapshot();
  EXPECT_EQ(snap.dpus[0].mram().resident_pages(), 1u);
  EXPECT_EQ(snap.dpus[5].mram().resident_pages(), 1u);
  EXPECT_EQ(resident_pages(snap), 2u);
}

TEST(Snapshot, RunningRankRefusesSnapshot) {
  test::register_count_zeros();
  test::TestRig rig(test::small_machine());
  Rank& rank = rig.machine.rank(0);
  rank.ci_load("test_count_zeros");
  std::uint32_t ps = 1 * kMiB;
  std::vector<std::uint8_t> data(ps, 1);
  rank.mram(0).write(0, data);
  rank.ci_copy_to_symbol(0, "partition_size", 0, test::bytes_u32(ps));
  rank.ci_launch(0b1, 16);
  ASSERT_TRUE(rank.ci_any_running());
  EXPECT_THROW((void)rank.save_snapshot(), VpimError);
  rig.clock.set(rank.busy_until());
  EXPECT_NO_THROW((void)rank.save_snapshot());
}

TEST(Snapshot, RestoreIntoSmallerRankRejected) {
  test::TestRig rig({.nr_ranks = 2, .functional_dpus_per_rank = 8});
  upmem::Rank big(0, 16, rig.clock, rig.cost);
  const auto snap = big.save_snapshot();
  EXPECT_THROW(rig.machine.rank(0).load_snapshot(snap), VpimError);
}

}  // namespace
}  // namespace vpim::upmem
