#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "common/fault.h"
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

// A matrix may name one DPU many times. One whose records each fit the
// DPU's batch buffer but together overrun it is not absorbed: it goes to
// the device directly, and the record already absorbed for the next DPU,
// whose batch buffer follows in guest RAM, reaches MRAM intact.
TEST(VpimVm, BatchRefusesAMatrixThatOverrunsItsDpuBuffer) {
  VmRig rig(1, VpimConfig::with_batching());
  Frontend& fe = rig.vm.device(0).frontend;
  guest::GuestMemory& mem = rig.vm.vmm().memory();
  ASSERT_TRUE(fe.open());
  auto fill = [](std::span<std::uint8_t> buf, std::uint8_t salt) {
    for (std::size_t i = 0; i < buf.size(); ++i) {
      buf[i] = static_cast<std::uint8_t>(i * 13 + salt + (i >> 12));
    }
  };
  auto record = mem.alloc(256);
  fill(record, 1);
  driver::TransferMatrix one;
  one.entries.push_back({1, 4096, record.data(), record.size()});
  fe.write_to_rank(one);
  ASSERT_EQ(fe.stats().batched_writes, 1u);

  // Five 64 KiB records for DPU 0: each fits alone, together they do not.
  constexpr std::uint64_t kPiece = std::uint64_t{kBatchEntryMaxPages} * 4096;
  auto big = mem.alloc(5 * kPiece);
  fill(big, 2);
  driver::TransferMatrix over;
  for (std::uint64_t i = 0; i < 5; ++i) {
    over.entries.push_back({0, i * kPiece, big.data() + i * kPiece, kPiece});
  }
  fe.write_to_rank(over);
  EXPECT_EQ(fe.stats().batched_writes, 1u);

  auto out = mem.alloc(5 * kPiece);
  driver::TransferMatrix read;
  read.direction = driver::XferDirection::kFromRank;
  read.entries.push_back({1, 4096, out.data(), record.size()});
  fe.read_from_rank(read);
  EXPECT_EQ(std::memcmp(out.data(), record.data(), record.size()), 0);
  read.entries = {{0, 0, out.data(), out.size()}};
  fe.read_from_rank(read);
  EXPECT_EQ(std::memcmp(out.data(), big.data(), big.size()), 0);
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

// A device's histogram series (vpim_op_ns, vpim_inflight_depth) leave the
// registry with it, like its collected counters, so tenant churn neither
// exports dead devices nor folds live ones into the overflow series.
TEST(VpimVm, DeviceHistogramsLeaveWithTheirDevice) {
  Host host(test::small_machine(), CostModel{}, fast_manager());
  for (int i = 0; i < 3; ++i) {
    VpimVm gone(host, {.name = "gone" + std::to_string(i)}, 1);
  }
  VpimVm live(host, {.name = "live"}, 1);
  const std::string text = host.obs.metrics.prometheus_text();
  EXPECT_EQ(text.find("gone"), std::string::npos);
  EXPECT_NE(text.find("vpim_inflight_depth_count{device=\"live/"),
            std::string::npos);
  for (const std::string_view op : kRankOpNames) {
    EXPECT_NE(text.find("vpim_op_ns_count{device=\"live/vupmem0\",op=\"" +
                        std::string(op) + "\"}"),
              std::string::npos)
        << op;
  }

  for (int i = 0; i < 30; ++i) {
    VpimVm churn(host, {.name = "churn" + std::to_string(i)}, 1);
  }
  EXPECT_EQ(host.obs.metrics.prometheus_text().find("overflow"),
            std::string::npos);
}

// A one-entry request writes nothing outside its slot's control page: its
// page list sits in the page's head, so slot 1's first request
// first-touches exactly one arena page (slot 0's went with open()).
TEST(VpimVm, OneEntryRequestTouchesOneArenaPage) {
  VpimConfig cfg = VpimConfig::c_only();  // no cache or batch buffers
  cfg.queue_depth = 2;
  VmRig rig(1, cfg);
  Frontend& fe = rig.vm.device(0).frontend;
  guest::GuestMemory& mem = rig.vm.vmm().memory();
  ASSERT_TRUE(fe.open());
  auto buf = mem.alloc(3 * guest::kGuestPageSize);
  std::memset(buf.data(), 0x5A, buf.size());
  const std::uint64_t before = mem.resident_pages();

  driver::TransferMatrix m;
  m.entries.push_back({0, 0, buf.data() + 100, 2 * guest::kGuestPageSize});
  fe.submit_write(m);
  fe.submit_write(m);
  ASSERT_EQ(fe.poll_completions().size(), 2u);
  EXPECT_EQ(mem.resident_pages() - before, 1u);
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

// ------------------------------------------------- pinned prefetch fills
//
// A prefetch fill pins its MRAM pages instead of copying them, and each
// cache hit settles only its own bytes. A hit must still return exactly
// the bytes the fill saw, whatever the rank or the binding did since.

// Prefetch cache on, batching off: every write and every miss is exactly
// one backend transfer, so FaultEvent::at_op counts are predictable.
VpimConfig prefetch_only() {
  VpimConfig cfg = VpimConfig::full();
  cfg.request_batching = false;
  return cfg;
}

std::span<std::uint8_t> pattern(guest::GuestMemory& mem, std::uint64_t bytes,
                                std::uint8_t salt) {
  auto buf = mem.alloc(bytes);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::uint8_t>(i * 13 + salt);
  }
  return buf;
}

void write_at(Frontend& fe, std::uint32_t dpu, std::uint64_t offset,
              std::span<std::uint8_t> buf) {
  driver::TransferMatrix m;
  m.entries.push_back({dpu, offset, buf.data(), buf.size()});
  fe.write_to_rank(m);
}

void read_at(Frontend& fe, std::uint32_t dpu, std::uint64_t offset,
             std::span<std::uint8_t> out) {
  driver::TransferMatrix m;
  m.direction = driver::XferDirection::kFromRank;
  m.entries.push_back({dpu, offset, out.data(), out.size()});
  fe.read_from_rank(m);
}

// Four small reads inside DPU 0's cached segment [0, 64 KiB): each must be
// a hit, ring no doorbell, and return `expect`'s bytes at its offset.
void expect_hits(VupmemDevice& dev, guest::GuestMemory& mem,
                 std::span<const std::uint8_t> expect) {
  auto out = mem.alloc(512);
  const std::uint64_t hits = dev.stats.cache_hits;
  const std::uint64_t doorbells = dev.stats.doorbells;
  for (const std::uint64_t off :
       {std::uint64_t{0}, std::uint64_t{4093}, 30 * kKiB, 64 * kKiB - 512}) {
    std::memset(out.data(), 0xEE, out.size());
    read_at(dev.frontend, 0, off, out);
    EXPECT_EQ(std::memcmp(out.data(), expect.data() + off, out.size()), 0)
        << "hit at offset " << off;
  }
  EXPECT_EQ(dev.stats.cache_hits, hits + 4);
  EXPECT_EQ(dev.stats.doorbells, doorbells);
}

// Drops the device's binding with a raw controlq kReleaseRank. Unlike
// Frontend::close(), this leaves the frontend's cache segments valid.
void release_behind_frontend(VupmemDevice& dev, guest::GuestMemory& mem) {
  auto blocks = mem.alloc(sizeof(WireRequest) + sizeof(WireResponse));
  WireRequest req;
  req.ci_op = static_cast<std::uint32_t>(CiOp::kReleaseRank);
  std::memcpy(blocks.data(), &req, sizeof(req));
  const virtio::DescBuffer chain[] = {
      {mem.gpa_of(blocks.data()), sizeof(WireRequest), false},
      {mem.gpa_of(blocks.data() + sizeof(WireRequest)), sizeof(WireResponse),
       true}};
  dev.controlq.submit(chain);
  dev.backend.handle_controlq();
  ASSERT_TRUE(dev.controlq.poll_used().has_value());
  WireResponse resp;
  std::memcpy(&resp, blocks.data() + sizeof(WireRequest), sizeof(resp));
  ASSERT_EQ(resp.status, 0);
  ASSERT_FALSE(dev.backend.bound());
}

// Seeds DPU 0 with 128 KiB of pattern and fills the cache segment
// [0, 64 KiB) with one small read. Returns the seed.
std::span<std::uint8_t> seed_and_fill(VupmemDevice& dev,
                                      guest::GuestMemory& mem) {
  auto seed = pattern(mem, 128 * kKiB, 1);
  write_at(dev.frontend, 0, 0, seed);
  auto small = mem.alloc(512);
  const std::uint64_t fills = dev.stats.cache_fills;
  read_at(dev.frontend, 0, 0, small);
  EXPECT_EQ(dev.stats.cache_fills, fills + 1);
  EXPECT_EQ(std::memcmp(small.data(), seed.data(), small.size()), 0);
  return seed;
}

// A pinned fill never writes the guest cache segment, and each hit copies
// from the pin straight into the caller's buffer, so the whole miss-and-
// hits sequence first-touches no guest page.
TEST(PinnedPrefetch, PinnedHitsLeaveTheCacheSegmentUntouched) {
  VmRig rig(1, prefetch_only());
  VupmemDevice& dev = rig.vm.device(0);
  guest::GuestMemory& mem = rig.vm.vmm().memory();
  ASSERT_TRUE(dev.frontend.open());
  auto seed = pattern(mem, 128 * kKiB, 1);
  write_at(dev.frontend, 0, 0, seed);
  auto out = mem.alloc(512);
  std::memset(out.data(), 0xEE, out.size());
  const std::uint64_t before = mem.resident_pages();

  for (const std::uint64_t off :
       {std::uint64_t{0}, std::uint64_t{4093}, 30 * kKiB, 64 * kKiB - 512}) {
    read_at(dev.frontend, 0, off, out);
    EXPECT_EQ(std::memcmp(out.data(), seed.data() + off, out.size()), 0)
        << "offset " << off;
  }
  EXPECT_EQ(dev.stats.cache_fills, 1u);
  EXPECT_EQ(dev.stats.cache_hits, 3u);
  EXPECT_EQ(mem.resident_pages(), before);
}

TEST(PinnedPrefetch, HitAfterRankDeathAndRescueReturnsTheFillBytes) {
  Host host({.nr_ranks = 2, .functional_dpus_per_rank = 8}, CostModel{},
            fast_manager());
  // Rank 0's third transfer kills it: 1 = the seed write, 2 = the fill,
  // 3 = a read too large for the cache, which goes direct.
  host.install_fault_plan({{FaultKind::kRankDeath, 0, 0, /*at_op=*/3}});
  VpimVm vm(host, {.name = "pin-rescue"}, 1, prefetch_only());
  VupmemDevice& dev = vm.device(0);
  guest::GuestMemory& mem = vm.vmm().memory();
  ASSERT_TRUE(dev.frontend.open());
  ASSERT_EQ(dev.backend.rank_index(), 0u);
  const auto seed = seed_and_fill(dev, mem);

  auto big = mem.alloc(128 * kKiB);
  read_at(dev.frontend, 0, 0, big);
  ASSERT_EQ(dev.stats.fault_migrations, 1u);
  ASSERT_EQ(dev.backend.rank_index(), 1u);
  EXPECT_EQ(std::memcmp(big.data(), seed.data(), big.size()), 0);
  expect_hits(dev, mem, seed);
}

TEST(PinnedPrefetch, HitAfterRankDeathWithoutRescueReturnsTheFillBytes) {
  Host host({.nr_ranks = 1, .functional_dpus_per_rank = 8}, CostModel{},
            fast_manager());
  host.install_fault_plan({{FaultKind::kRankDeath, 0, 0, /*at_op=*/3}});
  VpimVm vm(host, {.name = "pin-dead"}, 1, prefetch_only());
  VupmemDevice& dev = vm.device(0);
  guest::GuestMemory& mem = vm.vmm().memory();
  ASSERT_TRUE(dev.frontend.open());
  const auto seed = seed_and_fill(dev, mem);

  // No spare rank: the read fails typed and the backend drops the dead
  // binding. The manager's pass then takes the released rank to its
  // reset-verify probe, which a dead rank fails, so it stays quarantined.
  auto big = mem.alloc(128 * kKiB);
  try {
    read_at(dev.frontend, 0, 0, big);
    FAIL() << "a read off a dead rank with no spare capacity must fail";
  } catch (const VpimStatusError& e) {
    EXPECT_EQ(e.status(),
              static_cast<std::int32_t>(virtio::PimStatus::kDeviceFault));
  }
  ASSERT_FALSE(dev.backend.bound());
  host.manager.observe();
  EXPECT_EQ(host.manager.state(0), RankState::kFail);
  EXPECT_EQ(host.manager.stats().quarantine_probes, 1u);
  expect_hits(dev, mem, seed);
}

TEST(PinnedPrefetch, HitAfterTheRankIsResetAndReusedReturnsTheFillBytes) {
  Host host({.nr_ranks = 1, .functional_dpus_per_rank = 8}, CostModel{},
            fast_manager());
  VpimVm vm(host, {.name = "pin-reset"}, 1, prefetch_only());
  VupmemDevice& dev = vm.device(0);
  guest::GuestMemory& mem = vm.vmm().memory();
  ASSERT_TRUE(dev.frontend.open());
  const auto seed = seed_and_fill(dev, mem);

  // The rank goes back to the manager with the cache still valid; the
  // manager resets it and another tenant overwrites DPU 0.
  release_behind_frontend(dev, mem);
  host.manager.observe();
  EXPECT_EQ(host.manager.stats().resets, 1u);
  VpimVm other(host, {.name = "pin-other"}, 1, prefetch_only());
  ASSERT_TRUE(other.device(0).frontend.open());
  write_at(other.device(0).frontend, 0, 0,
           pattern(other.vmm().memory(), 64 * kKiB, 99));
  expect_hits(dev, mem, seed);
}

TEST(PinnedPrefetch, HitOnAnEmulatedBindingOutlivesTheBinding) {
  Host host({.nr_ranks = 1, .functional_dpus_per_rank = 8}, CostModel{},
            fast_manager());
  VpimVm holder(host, {.name = "pin-holder"}, 1, prefetch_only());
  ASSERT_TRUE(holder.device(0).frontend.open());  // takes the only rank
  VpimConfig cfg = prefetch_only();
  cfg.oversubscribe = true;
  VpimVm vm(host, {.name = "pin-emulated"}, 1, cfg);
  VupmemDevice& dev = vm.device(0);
  guest::GuestMemory& mem = vm.vmm().memory();
  ASSERT_TRUE(dev.frontend.open());
  ASSERT_TRUE(dev.backend.emulated());
  const auto seed = seed_and_fill(dev, mem);
  expect_hits(dev, mem, seed);

  // Releasing the binding destroys the emulated rank and its banks.
  release_behind_frontend(dev, mem);
  expect_hits(dev, mem, seed);
}

TEST(PinnedPrefetch, FillSeesAWriteStagedBeforeItInTheSameDoorbell) {
  VpimConfig cfg = prefetch_only();
  cfg.queue_depth = 4;
  VmRig rig(1, cfg);
  VupmemDevice& dev = rig.vm.device(0);
  guest::GuestMemory& mem = rig.vm.vmm().memory();
  ASSERT_TRUE(dev.frontend.open());
  auto seed = pattern(mem, 64 * kKiB, 1);
  write_at(dev.frontend, 0, 0, seed);

  // An async write to DPU 0 waits in the SQ; the miss stages the fill
  // behind it, and one doorbell carries both. The fill must see the write.
  auto update = pattern(mem, 4 * kKiB, 7);
  driver::TransferMatrix w;
  w.entries.push_back({0, 4 * kKiB, update.data(), update.size()});
  dev.frontend.submit_write(w);
  const std::uint64_t doorbells = dev.stats.doorbells;
  auto small = mem.alloc(512);
  read_at(dev.frontend, 0, 0, small);
  EXPECT_EQ(dev.stats.doorbells, doorbells + 1);
  EXPECT_EQ(dev.stats.cache_fills, 1u);
  EXPECT_EQ(std::memcmp(small.data(), seed.data(), small.size()), 0);

  std::vector<std::uint8_t> expect(seed.begin(), seed.end());
  std::memcpy(expect.data() + 4 * kKiB, update.data(), update.size());
  expect_hits(dev, mem, expect);
  const auto done = dev.frontend.poll_completions();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].status, 0);
}

// Raw rank-operation chains serialized into a private arena, for request
// shapes the frontend never sends. Rigs built the same way allocate the
// same guest addresses, so two runs compare byte for byte.
struct RawRig {
  RawRig() : rig(1, prefetch_only()) {
    EXPECT_TRUE(dev().frontend.open());
    arena.request = mem().alloc(sizeof(WireRequest));
    arena.matrix_meta = mem().alloc(sizeof(WireMatrixMeta));
    arena.entry_meta =
        mem().alloc(upmem::kDpuSlotsPerRank * sizeof(WireEntryMeta));
    arena.page_lists = mem().alloc(16 * kKiB);
    arena.response = mem().alloc(sizeof(WireResponse));
  }

  VupmemDevice& dev() { return rig.vm.device(0); }
  guest::GuestMemory& mem() { return rig.vm.vmm().memory(); }

  SerializeResult stage(const driver::TransferMatrix& m,
                        std::uint32_t flags) {
    const bool write = m.direction == driver::XferDirection::kToRank;
    SerializeResult ser = serialize_matrix(
        m, mem(), arena,
        static_cast<std::uint32_t>(
            write ? virtio::PimRequestType::kWriteToRank
                  : virtio::PimRequestType::kReadFromRank));
    WireRequest req;
    std::memcpy(&req, arena.request.data(), sizeof(req));
    req.flags = flags;
    std::memcpy(arena.request.data(), &req, sizeof(req));
    return ser;
  }

  // Points entry 0's page `index` at `page`, so the entry reaches more
  // than one guest segment.
  void repoint_page(std::uint64_t index, const std::uint8_t* page) {
    const std::uint64_t gpa = mem().gpa_of(page);
    std::memcpy(arena.page_lists.data() + index * 8, &gpa, 8);
  }

  WireResponse run(const SerializeResult& ser) {
    dev().transferq.submit(ser.chain);
    dev().backend.handle_transferq();
    EXPECT_TRUE(dev().transferq.poll_used().has_value());
    WireResponse resp;
    std::memcpy(&resp, arena.response.data(), sizeof(resp));
    return resp;
  }

  // The first 64 KiB of every bank of the bound rank.
  std::vector<std::uint8_t> banks() {
    upmem::Rank& rank = rig.host.machine.rank(dev().backend.rank_index());
    std::vector<std::uint8_t> out(rank.nr_dpus() * 64 * kKiB);
    for (std::uint32_t d = 0; d < rank.nr_dpus(); ++d) {
      rank.mram(d).read(0, std::span(out).subspan(d * 64 * kKiB, 64 * kKiB));
    }
    return out;
  }

  VmRig rig;
  WireArena arena;
};

// Runs `run_case(rig, extra_flags)` on two fresh rigs, with extra_flags 0
// and kWireFlagPrefetch. The case returns its completion and the guest
// buffer the request read or wrote; completions, clocks, error counts,
// banks and guest bytes must all be identical.
template <typename Case>
void expect_prefetch_flag_ignored(Case run_case) {
  RawRig plain;
  RawRig flagged;
  const auto [plain_resp, plain_buf] = run_case(plain, 0u);
  const auto [flagged_resp, flagged_buf] =
      run_case(flagged, kWireFlagPrefetch);
  EXPECT_EQ(plain_resp.status, 0);
  EXPECT_EQ(std::memcmp(&plain_resp, &flagged_resp, sizeof(WireResponse)),
            0);
  EXPECT_EQ(plain.rig.host.clock.now(), flagged.rig.host.clock.now());
  EXPECT_EQ(plain.dev().stats.request_errors,
            flagged.dev().stats.request_errors);
  EXPECT_TRUE(plain.banks() == flagged.banks());
  ASSERT_EQ(plain_buf.size(), flagged_buf.size());
  EXPECT_EQ(
      std::memcmp(plain_buf.data(), flagged_buf.data(), plain_buf.size()), 0);
}

TEST(PinnedPrefetch, FlagOnAWriteIsIgnored) {
  expect_prefetch_flag_ignored([](RawRig& r, std::uint32_t flag) {
    auto buf = pattern(r.mem(), 8 * kKiB, 3);
    driver::TransferMatrix m;
    m.entries.push_back({0, 100, buf.data(), 4 * kKiB});
    m.entries.push_back({1, 0, buf.data() + 4 * kKiB, 4 * kKiB});
    return std::pair{r.run(r.stage(m, flag)), buf};
  });
}

TEST(PinnedPrefetch, FlagOnABatchedFlushIsIgnored) {
  expect_prefetch_flag_ignored([](RawRig& r, std::uint32_t flag) {
    // Two {offset, size, data} records for DPU 0.
    auto region = pattern(r.mem(), 2 * sizeof(BatchRecordHeader) + 316, 5);
    const BatchRecordHeader first{100, 300};
    const BatchRecordHeader second{5000, 16};
    std::memcpy(region.data(), &first, sizeof(first));
    std::memcpy(region.data() + sizeof(first) + 300, &second,
                sizeof(second));
    driver::TransferMatrix m;
    m.entries.push_back({0, 0, region.data(), region.size()});
    return std::pair{r.run(r.stage(m, kWireFlagBatched | flag)), region};
  });
}

TEST(BatchedFlush, MalformedBatchIsRejectedWhole) {
  RawRig r;
  const std::vector<std::uint8_t> before = r.banks();
  // A valid first record, then a second whose header claims more payload
  // than the region holds.
  auto region = pattern(r.mem(), 2 * sizeof(BatchRecordHeader) + 316, 13);
  const BatchRecordHeader first{100, 300};
  const BatchRecordHeader second{5000, 64};
  std::memcpy(region.data(), &first, sizeof(first));
  std::memcpy(region.data() + sizeof(first) + 300, &second, sizeof(second));
  driver::TransferMatrix m;
  m.entries.push_back({0, 0, region.data(), region.size()});
  EXPECT_EQ(r.run(r.stage(m, kWireFlagBatched)).status,
            static_cast<std::int32_t>(virtio::PimStatus::kBadRequest));
  EXPECT_TRUE(r.banks() == before);
}

TEST(PinnedPrefetch, FlagOnAMultiSegmentReadIsIgnored) {
  expect_prefetch_flag_ignored([](RawRig& r, std::uint32_t flag) {
    write_at(r.dev().frontend, 0, 0, pattern(r.mem(), 8 * kKiB, 9));
    auto dest = r.mem().alloc(3 * guest::kGuestPageSize);
    std::memset(dest.data(), 0xEE, dest.size());
    driver::TransferMatrix m;
    m.direction = driver::XferDirection::kFromRank;
    m.entries.push_back({0, 0, dest.data(), 2 * guest::kGuestPageSize});
    const SerializeResult ser = r.stage(m, flag);
    r.repoint_page(1, dest.data() + 2 * guest::kGuestPageSize);
    return std::pair{r.run(ser), dest};
  });
}

TEST(PinnedPrefetch, FlaggedReadPinsAndAnEagerFillDropsThePin) {
  RawRig r;
  auto seed = pattern(r.mem(), 8 * kKiB, 11);
  write_at(r.dev().frontend, 0, 0, seed);
  auto dest = r.mem().alloc(3 * guest::kGuestPageSize);
  std::memset(dest.data(), 0xEE, dest.size());
  driver::TransferMatrix m;
  m.direction = driver::XferDirection::kFromRank;
  m.entries.push_back({0, 0, dest.data(), 8 * kKiB});

  // One segment: the device pins instead of writing the guest buffer, and
  // settling copies the pinned bytes into the caller's buffer.
  EXPECT_EQ(r.run(r.stage(m, kWireFlagPrefetch)).status, 0);
  EXPECT_EQ(dest[0], 0xEE);
  std::vector<std::uint8_t> settled(8 * kKiB, 0xEE);
  EXPECT_TRUE(r.dev().backend.settle_prefetch(0, 0, settled));
  EXPECT_EQ(std::memcmp(settled.data(), seed.data(), settled.size()), 0);

  // The same fill over two segments copies eagerly and drops DPU 0's pin:
  // the guest buffer holds the bytes, and settling declines and leaves the
  // caller's buffer alone.
  const SerializeResult split = r.stage(m, kWireFlagPrefetch);
  r.repoint_page(1, dest.data() + 2 * guest::kGuestPageSize);
  EXPECT_EQ(r.run(split).status, 0);
  EXPECT_EQ(std::memcmp(dest.data(), seed.data(), 4 * kKiB), 0);
  EXPECT_EQ(std::memcmp(dest.data() + 8 * kKiB, seed.data() + 4 * kKiB,
                        4 * kKiB),
            0);
  std::vector<std::uint8_t> untouched(8 * kKiB, 0xEE);
  EXPECT_FALSE(r.dev().backend.settle_prefetch(0, 0, untouched));
  EXPECT_TRUE(std::all_of(untouched.begin(), untouched.end(),
                          [](std::uint8_t b) { return b == 0xEE; }));
}

}  // namespace
}  // namespace vpim::core
