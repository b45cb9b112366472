// Seeded fault-injection matrix (ISSUE 3): transient faults retry and
// succeed, or fail typed once the retry budget is spent, permanent rank
// death migrates the wrank with data intact, exhausted capacity surfaces a
// typed DEVICE_FAULT, lost completions hit the frontend's poll deadline,
// a transfer fault at a batched flush recovers like any transfer, and the
// whole fault pipeline stays bit-identical across VPIM_THREADS settings.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/thread_pool.h"
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

// Frontend buffering off: every write/read is exactly one backend transfer,
// so FaultEvent::at_op counts are predictable.
VpimConfig plain_config() {
  VpimConfig cfg = VpimConfig::full();
  cfg.prefetch_cache = false;
  cfg.request_batching = false;
  return cfg;
}

upmem::MachineConfig machine(std::uint32_t ranks) {
  return {.nr_ranks = ranks, .functional_dpus_per_rank = 8};
}

driver::TransferMatrix one_entry(driver::XferDirection dir,
                                 std::span<std::uint8_t> buf) {
  driver::TransferMatrix m;
  m.direction = dir;
  m.entries.push_back({0, 4096, buf.data(), buf.size()});
  return m;
}

TEST(FaultInjection, TransientLaunchFaultIsRetriedTransparently) {
  Host host(machine(1), CostModel{}, fast_manager());
  // The very first kernel launch on rank 0 glitches a DPU.
  host.install_fault_plan({{FaultKind::kTransientDpu, 0, 2, /*at_op=*/1}});
  VpimVm vm(host, {.name = "flt-tr"}, 1, plain_config());
  GuestPlatform platform(vm);

  const auto [got, expected] =
      test::run_count_zeros(platform, 8, 2048, /*seed=*/7);
  EXPECT_EQ(got, expected);

  const DeviceStats& stats = vm.device(0).stats;
  EXPECT_EQ(stats.fault_retries, 1u);
  EXPECT_EQ(stats.fault_failures, 0u);
  EXPECT_EQ(stats.fault_migrations, 0u);
  EXPECT_EQ(host.fault_plan->fired_count(FaultKind::kTransientDpu), 1u);

  // The backend DMAed a typed record into the driver mailbox; the
  // observer's next pass drains and parses it.
  host.manager.observe();
  EXPECT_EQ(host.manager.stats().fault_records_drained, 1u);
}

TEST(FaultInjection, MramEccFaultRetriesWithDataIntact) {
  Host host(machine(1), CostModel{}, fast_manager());
  // First DMA window on rank 0 takes an ECC event.
  host.install_fault_plan({{FaultKind::kMramEcc, 0, 0, /*at_op=*/1}});
  VpimVm vm(host, {.name = "flt-ecc"}, 1, plain_config());
  Frontend& fe = vm.device(0).frontend;
  ASSERT_TRUE(fe.open());

  auto buf = vm.vmm().memory().alloc(4 * kKiB);
  std::memset(buf.data(), 0x5C, buf.size());
  fe.write_to_rank(one_entry(driver::XferDirection::kToRank, buf));

  auto out = vm.vmm().memory().alloc(4 * kKiB);
  fe.read_from_rank(one_entry(driver::XferDirection::kFromRank, out));
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], 0x5C) << "byte " << i;
  }
  EXPECT_EQ(vm.device(0).stats.fault_retries, 1u);
  EXPECT_EQ(vm.device(0).stats.fault_failures, 0u);
}

// MRAM ECC events on rank 0's DMA windows 1..n.
std::vector<FaultEvent> ecc_on_first_transfers(std::uint64_t n) {
  std::vector<FaultEvent> events;
  for (std::uint64_t op = 1; op <= n; ++op) {
    events.push_back({FaultKind::kMramEcc, 0, 0, /*at_op=*/op});
  }
  return events;
}

TEST(FaultInjection, PersistentTransientFaultExhaustsTheRetryBudget) {
  Host host(machine(1), CostModel{}, fast_manager());
  // The first attempt and all four retries of the first write fault.
  host.install_fault_plan(ecc_on_first_transfers(5));
  VpimVm vm(host, {.name = "flt-budget"}, 1, plain_config());
  Frontend& fe = vm.device(0).frontend;
  ASSERT_TRUE(fe.open());

  auto buf = vm.vmm().memory().alloc(4 * kKiB);
  std::memset(buf.data(), 0x3D, buf.size());
  try {
    fe.write_to_rank(one_entry(driver::XferDirection::kToRank, buf));
    FAIL() << "a fault outlasting the retry budget must surface";
  } catch (const VpimStatusError& e) {
    EXPECT_EQ(e.status(),
              static_cast<std::int32_t>(virtio::PimStatus::kDeviceFault));
  }
  EXPECT_EQ(vm.device(0).stats.fault_retries, 4u);
  EXPECT_EQ(vm.device(0).stats.fault_failures, 1u);

  // The budget is per request: the sixth DMA window is clean.
  fe.write_to_rank(one_entry(driver::XferDirection::kToRank, buf));
  auto out = vm.vmm().memory().alloc(4 * kKiB);
  fe.read_from_rank(one_entry(driver::XferDirection::kFromRank, out));
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], 0x3D) << "byte " << i;
  }

  // Twin hosts: one fault-free, one whose four ECC events use up the
  // budget so the last retry lands. A faulted attempt throws before it
  // charges any transfer time, so only the backoffs separate the writes.
  const auto first_write = [](std::uint64_t faults,
                              std::uint64_t& retries) -> SimNs {
    Host twin(machine(1), CostModel{}, fast_manager());
    if (faults > 0) twin.install_fault_plan(ecc_on_first_transfers(faults));
    VpimVm twin_vm(twin, {.name = "flt-twin"}, 1, plain_config());
    Frontend& twin_fe = twin_vm.device(0).frontend;
    EXPECT_TRUE(twin_fe.open());
    auto data = twin_vm.vmm().memory().alloc(4 * kKiB);
    const SimNs t0 = twin.clock.now();
    twin_fe.write_to_rank(one_entry(driver::XferDirection::kToRank, data));
    retries = twin_vm.device(0).stats.fault_retries;
    return twin.clock.now() - t0;
  };
  std::uint64_t clean_retries = 0;
  std::uint64_t faulted_retries = 0;
  const SimNs clean = first_write(0, clean_retries);
  const SimNs faulted = first_write(4, faulted_retries);
  EXPECT_EQ(clean_retries, 0u);
  EXPECT_EQ(faulted_retries, 4u);
  EXPECT_EQ(faulted,
            clean + CostModel{}.fault_retry_backoff_ns * (1 + 2 + 4 + 8));
}

TEST(FaultInjection, RankDeathMigratesWrankWithDataIntact) {
  Host host(machine(2), CostModel{}, fast_manager());
  // Rank 0 dies on its second device op: the write survives, the read
  // triggers the death and the transparent migration.
  host.install_fault_plan({{FaultKind::kRankDeath, 0, 0, /*at_op=*/2}});
  VpimVm vm(host, {.name = "flt-death"}, 1, plain_config());
  Frontend& fe = vm.device(0).frontend;
  ASSERT_TRUE(fe.open());
  ASSERT_EQ(vm.device(0).backend.rank_index(), 0u);

  auto buf = vm.vmm().memory().alloc(4 * kKiB);
  std::memset(buf.data(), 0x7E, buf.size());
  fe.write_to_rank(one_entry(driver::XferDirection::kToRank, buf));

  auto out = vm.vmm().memory().alloc(4 * kKiB);
  fe.read_from_rank(one_entry(driver::XferDirection::kFromRank, out));
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], 0x7E) << "byte " << i;
  }

  // The device now runs on the replacement rank.
  EXPECT_EQ(vm.device(0).backend.rank_index(), 1u);
  EXPECT_EQ(vm.device(0).stats.fault_migrations, 1u);
  EXPECT_EQ(vm.device(0).stats.fault_failures, 0u);
  EXPECT_TRUE(host.machine.rank(0).failed());

  // The observer quarantines the dead rank; probes keep failing (the rank
  // is permanently dead), so it stays out of circulation.
  host.manager.observe();
  const ManagerStats mstats = host.manager.stats();
  EXPECT_EQ(host.manager.state(0), RankState::kFail);
  EXPECT_EQ(mstats.quarantined, 1u);
  EXPECT_GE(mstats.fault_records_drained, 1u);
}

TEST(FaultInjection, RankDeathWithoutSpareCapacityFailsTyped) {
  Host host(machine(1), CostModel{}, fast_manager());
  host.install_fault_plan({{FaultKind::kRankDeath, 0, 0, /*at_op=*/2}});
  VpimVm vm(host, {.name = "flt-cap"}, 1, plain_config());
  Frontend& fe = vm.device(0).frontend;
  ASSERT_TRUE(fe.open());

  auto buf = vm.vmm().memory().alloc(4 * kKiB);
  std::memset(buf.data(), 0x11, buf.size());
  fe.write_to_rank(one_entry(driver::XferDirection::kToRank, buf));

  auto out = vm.vmm().memory().alloc(4 * kKiB);
  try {
    fe.read_from_rank(one_entry(driver::XferDirection::kFromRank, out));
    FAIL() << "read off a dead rank with no spare capacity must fail";
  } catch (const VpimStatusError& e) {
    EXPECT_EQ(e.status(),
              static_cast<std::int32_t>(virtio::PimStatus::kDeviceFault));
  }
  EXPECT_EQ(vm.device(0).stats.fault_failures, 1u);
  // The migration attempt burned one (abandoned) allocation request.
  EXPECT_EQ(host.manager.stats().failed_requests, 1u);

  // The backend unbound the dead rank: later requests complete UNBOUND
  // instead of re-faulting, so the guest can still close down cleanly.
  try {
    fe.read_from_rank(one_entry(driver::XferDirection::kFromRank, out));
    FAIL() << "request on an unbound device must fail";
  } catch (const VpimStatusError& e) {
    EXPECT_EQ(e.status(),
              static_cast<std::int32_t>(virtio::PimStatus::kUnbound));
  }
}

// ---- faults at a batched flush ------------------------------------------

// Batching on, prefetch off: small writes land in the frontend's batch
// buffers, so a rank's first transfer is the batched flush.
VpimConfig batching_config() {
  VpimConfig cfg = plain_config();
  cfg.request_batching = true;
  return cfg;
}

constexpr std::uint32_t kBatchDpus = 4;
constexpr std::uint64_t kBatchSpan = 4 * kKiB;

// Twelve small, partly overlapping writes to DPUs 0..3, absorbed into the
// batch buffers, then flushed by a status read (a CI op lands the batch
// before it runs). Returns what each DPU's first kBatchSpan MRAM bytes must
// hold.
std::vector<std::vector<std::uint8_t>> batched_writes_then_flush(VpimVm& vm) {
  Frontend& fe = vm.device(0).frontend;
  std::vector<std::vector<std::uint8_t>> oracle(
      kBatchDpus, std::vector<std::uint8_t>(kBatchSpan, 0));
  auto buf = vm.vmm().memory().alloc(256);
  for (std::uint32_t i = 0; i < 12; ++i) {
    const std::uint32_t dpu = i % kBatchDpus;
    const std::uint64_t off = (i / kBatchDpus) * 64;
    const std::uint64_t size = 32 + 16 * i;
    for (std::uint64_t b = 0; b < size; ++b) {
      buf[b] = static_cast<std::uint8_t>(i * 37 + b);
    }
    driver::TransferMatrix w;
    w.direction = driver::XferDirection::kToRank;
    w.entries.push_back({dpu, off, buf.data(), size});
    fe.write_to_rank(w);
    std::memcpy(oracle[dpu].data() + off, buf.data(), size);
  }
  EXPECT_EQ(vm.device(0).stats.batched_writes, 12u);
  fe.ci_running_mask();
  return oracle;
}

void expect_banks_hold(VpimVm& vm,
                       const std::vector<std::vector<std::uint8_t>>& oracle) {
  auto out = vm.vmm().memory().alloc(kBatchSpan);
  for (std::uint32_t d = 0; d < kBatchDpus; ++d) {
    driver::TransferMatrix r;
    r.direction = driver::XferDirection::kFromRank;
    r.entries.push_back({d, 0, out.data(), out.size()});
    vm.device(0).frontend.read_from_rank(r);
    EXPECT_EQ(std::memcmp(out.data(), oracle[d].data(), kBatchSpan), 0)
        << "DPU " << d;
  }
}

TEST(FaultInjection, MramEccAtABatchedFlushRetries) {
  Host host(machine(1), CostModel{}, fast_manager());
  host.install_fault_plan({{FaultKind::kMramEcc, 0, 0, /*at_op=*/1}});
  VpimVm vm(host, {.name = "flt-batch-ecc"}, 1, batching_config());
  ASSERT_TRUE(vm.device(0).frontend.open());

  const auto oracle = batched_writes_then_flush(vm);
  EXPECT_EQ(vm.device(0).stats.fault_retries, 1u);
  EXPECT_EQ(vm.device(0).stats.fault_failures, 0u);
  EXPECT_EQ(host.fault_plan->fired_count(FaultKind::kMramEcc), 1u);
  expect_banks_hold(vm, oracle);
}

TEST(FaultInjection, RankDeathAtABatchedFlushMigrates) {
  Host host(machine(2), CostModel{}, fast_manager());
  host.install_fault_plan({{FaultKind::kRankDeath, 0, 0, /*at_op=*/1}});
  VpimVm vm(host, {.name = "flt-batch-death"}, 1, batching_config());
  ASSERT_TRUE(vm.device(0).frontend.open());
  ASSERT_EQ(vm.device(0).backend.rank_index(), 0u);

  const auto oracle = batched_writes_then_flush(vm);
  EXPECT_EQ(vm.device(0).stats.fault_migrations, 1u);
  EXPECT_EQ(vm.device(0).stats.fault_failures, 0u);
  EXPECT_EQ(vm.device(0).backend.rank_index(), 1u);
  EXPECT_TRUE(host.machine.rank(0).failed());
  expect_banks_hold(vm, oracle);
}

TEST(FaultInjection, EmulatedBatchedFlushFiresNoFault) {
  Host host(machine(1), CostModel{}, fast_manager());
  host.install_fault_plan({{FaultKind::kMramEcc, 0, 0, /*at_op=*/1},
                           {FaultKind::kRankDeath, 0, 0, /*at_op=*/1}});
  VpimVm hog(host, {.name = "flt-hog"}, 1);
  ASSERT_TRUE(hog.device(0).frontend.open());
  VpimConfig cfg = batching_config();
  cfg.oversubscribe = true;
  VpimVm vm(host, {.name = "flt-batch-emu"}, 1, cfg);
  ASSERT_TRUE(vm.device(0).frontend.open());
  ASSERT_TRUE(vm.device(0).backend.emulated());

  const auto oracle = batched_writes_then_flush(vm);
  EXPECT_EQ(vm.device(0).stats.fault_retries, 0u);
  EXPECT_EQ(vm.device(0).stats.fault_migrations, 0u);
  EXPECT_TRUE(host.fault_plan->fired().empty());
  expect_banks_hold(vm, oracle);
}

TEST(FaultInjection, LostCompletionHitsThePollDeadline) {
  Host host(machine(1), CostModel{}, fast_manager());
  // The first request dispatched after binding wedges the device.
  host.install_fault_plan({{FaultKind::kLostCompletion, 0, 0, /*at_op=*/1}});
  VpimVm vm(host, {.name = "flt-lost"}, 1, plain_config());
  Frontend& fe = vm.device(0).frontend;
  ASSERT_TRUE(fe.open());

  auto buf = vm.vmm().memory().alloc(4 * kKiB);
  const SimNs t0 = host.clock.now();
  try {
    fe.write_to_rank(one_entry(driver::XferDirection::kToRank, buf));
    FAIL() << "a wedged request must time out";
  } catch (const VpimStatusError& e) {
    EXPECT_EQ(e.status(),
              static_cast<std::int32_t>(virtio::PimStatus::kTimeout));
  }
  // The guest re-polled for the full deadline before abandoning.
  EXPECT_GE(host.clock.now() - t0, kPollDeadlineNs);
  EXPECT_EQ(vm.device(0).stats.poll_timeouts, 1u);
  EXPECT_EQ(vm.device(0).stats.dropped_completions, 1u);
}

TEST(FaultInjection, QuarantineProbesBackOffExponentially) {
  ManagerConfig mgr = fast_manager();
  mgr.charge_time = false;  // drive the clock by hand
  Host host(machine(1), CostModel{}, mgr);
  host.machine.rank(0).fail();
  host.drv.log_fault({FaultKind::kRankDeath, 0, 0, host.clock.now()});

  // First observation quarantines and immediately probes (and fails: the
  // rank is dead for good).
  host.manager.observe();
  EXPECT_EQ(host.manager.state(0), RankState::kFail);
  EXPECT_EQ(host.manager.stats().quarantined, 1u);
  EXPECT_EQ(host.manager.stats().quarantine_probes, 1u);

  // Within the backoff window nothing is probed again.
  host.manager.observe();
  EXPECT_EQ(host.manager.stats().quarantine_probes, 1u);

  // base backoff (100 ms) elapses -> second probe.
  host.clock.advance(100 * kMs);
  host.manager.observe();
  EXPECT_EQ(host.manager.stats().quarantine_probes, 2u);

  // The window doubled: 100 ms is no longer enough, 200 ms is.
  host.clock.advance(100 * kMs);
  host.manager.observe();
  EXPECT_EQ(host.manager.stats().quarantine_probes, 2u);
  host.clock.advance(100 * kMs);
  host.manager.observe();
  EXPECT_EQ(host.manager.stats().quarantine_probes, 3u);

  EXPECT_EQ(host.manager.stats().recoveries, 0u);
  EXPECT_EQ(host.manager.state(0), RankState::kFail);
}

TEST(FaultInjection, SeizedRankIsQuarantinedThenRecovered) {
  ManagerConfig mgr = fast_manager();
  mgr.charge_time = false;
  Host host(machine(2), CostModel{}, mgr);

  // Leave residual tenant data on rank 0 (NANA, reset pending).
  std::uint32_t r = 0;
  {
    auto mapping = host.manager.request_rank("vm-a");
    ASSERT_TRUE(mapping.has_value());
    r = mapping->rank_index();
    host.manager.observe();
    std::vector<std::uint8_t> secret(64, 0xAB);
    host.machine.rank(r).mram(0).write(0, secret);
  }
  host.manager.observe(/*do_resets=*/false);
  ASSERT_EQ(host.manager.state(r), RankState::kNana);

  // A native app seizes the NANA rank and scribbles over it.
  const SimNs grab = host.clock.now() + 10 * kMs;
  host.install_fault_plan(
      {{FaultKind::kRankSeizure, r, 0, 0, grab, /*hold_ns=*/50 * kMs}});
  host.clock.advance(20 * kMs);
  host.manager.observe(/*do_resets=*/false);
  EXPECT_EQ(host.manager.state(r), RankState::kAllo);
  EXPECT_GE(host.manager.stats().seizures_observed, 1u);

  // Squatter lets go -> the rank's content cannot be trusted: quarantine.
  host.clock.advance(60 * kMs);
  host.manager.observe(/*do_resets=*/false);
  EXPECT_EQ(host.manager.state(r), RankState::kFail);

  // Reset-verify probe passes (the rank hardware is fine) and the rank
  // returns to NAAV with zeroed memory.
  host.manager.observe(/*do_resets=*/false);
  EXPECT_EQ(host.manager.state(r), RankState::kNaav);
  EXPECT_EQ(host.manager.stats().recoveries, 1u);
  std::vector<std::uint8_t> probe(64, 1);
  host.machine.rank(r).mram(0).read(0, probe);
  for (auto b : probe) EXPECT_EQ(b, 0);
}

TEST(FaultInjection, RecoveredRankHoldsNoResidentPages) {
  // The reset-verify probe writes a pattern into every bank. A recovered
  // rank must still look like a freshly reset one, with nothing resident,
  // so a later suspend snapshots no probe pages.
  test::TestRig rig(machine(1));
  upmem::Rank& rank = rig.machine.rank(0);
  const std::vector<std::uint8_t> data(64, 0xAB);
  for (std::uint32_t d = 0; d < rank.nr_dpus(); ++d) {
    rank.mram(d).write(0, data);
  }
  ASSERT_TRUE(rig.drv.try_recover_rank(0, /*charge_time=*/false));
  for (std::uint32_t d = 0; d < rank.nr_dpus(); ++d) {
    EXPECT_EQ(rank.mram(d).resident_pages(), 0u) << "bank " << d;
  }
}

// ---- determinism under injected faults ----------------------------------

struct FaultCapture {
  bool correct = false;
  SimNs clock_end = 0;
  std::uint64_t retries = 0;
  std::uint64_t migrations = 0;
  std::uint64_t failures = 0;
  std::vector<FaultRecord> fired;
};

bool operator==(const FaultRecord& a, const FaultRecord& b) {
  return a.kind == b.kind && a.rank == b.rank && a.dpu == b.dpu &&
         a.at_time == b.at_time;
}

FaultCapture run_workload_with_faults(unsigned threads, std::uint64_t seed) {
  ThreadPool::instance().resize(threads);
  Host host(machine(2), CostModel{}, fast_manager());
  FaultPlanConfig cfg;
  cfg.seed = seed;
  cfg.transient_dpu_faults = 3;
  cfg.mram_ecc_faults = 3;
  cfg.rank_deaths = 1;
  cfg.max_op = 6;  // each app round is ~2 device ops; 8 rounds follow
  // nr_ranks=1 aims every generated fault at rank 0 — the rank the single
  // device binds — so the schedule actually fires (and the death migrates
  // the wrank onto rank 1; rank-0 events scheduled past the death are
  // deterministically orphaned).
  host.install_fault_plan(FaultPlan::generate(cfg, /*nr_ranks=*/1));

  VpimVm vm(host, {.name = "flt-det"}, 1, plain_config());
  GuestPlatform platform(vm);
  FaultCapture cap;
  cap.correct = true;
  for (int round = 0; round < 8; ++round) {
    const auto [got, expected] = test::run_count_zeros(
        platform, 8, 1024, /*seed=*/1000 + static_cast<std::uint64_t>(round));
    cap.correct = cap.correct && got == expected;
    // Deterministic (serial) observer drain: the round's release is
    // witnessed and the rank recycled before the next round rebinds.
    host.clock.advance(5 * kMs);
    host.manager.observe();
    host.manager.observe();
  }

  cap.clock_end = host.clock.now();
  cap.retries = vm.device(0).stats.fault_retries;
  cap.migrations = vm.device(0).stats.fault_migrations;
  cap.failures = vm.device(0).stats.fault_failures;
  cap.fired = host.fault_plan->fired();
  return cap;
}

class FaultDeterminism : public ::testing::Test {
 protected:
  void SetUp() override { original_ = ThreadPool::instance().size(); }
  void TearDown() override { ThreadPool::instance().resize(original_); }
  unsigned original_ = 1;
};

TEST_F(FaultDeterminism, FaultScheduleIsThreadCountInvariant) {
  const FaultCapture base = run_workload_with_faults(1, /*seed=*/42);
  EXPECT_TRUE(base.correct);
  EXPECT_FALSE(base.fired.empty());
  EXPECT_GT(base.retries, 0u);
  EXPECT_EQ(base.failures, 0u);

  for (unsigned t : {4u, std::max(1u, std::thread::hardware_concurrency())}) {
    if (t == 1) continue;
    const FaultCapture got = run_workload_with_faults(t, /*seed=*/42);
    EXPECT_EQ(base.correct, got.correct) << "threads=" << t;
    EXPECT_EQ(base.clock_end, got.clock_end) << "threads=" << t;
    EXPECT_EQ(base.retries, got.retries) << "threads=" << t;
    EXPECT_EQ(base.migrations, got.migrations) << "threads=" << t;
    EXPECT_EQ(base.failures, got.failures) << "threads=" << t;
    ASSERT_EQ(base.fired.size(), got.fired.size()) << "threads=" << t;
    for (std::size_t i = 0; i < base.fired.size(); ++i) {
      EXPECT_TRUE(base.fired[i] == got.fired[i])
          << "threads=" << t << " record " << i << ": "
          << base.fired[i].describe() << " vs " << got.fired[i].describe();
    }
  }
}

TEST_F(FaultDeterminism, DifferentSeedsProduceDifferentSchedules) {
  const FaultCapture a = run_workload_with_faults(1, /*seed=*/42);
  const FaultCapture b = run_workload_with_faults(1, /*seed=*/43);
  EXPECT_TRUE(a.correct);
  EXPECT_TRUE(b.correct);
  // Seeds steer where faults land; the fired sequences should diverge.
  const bool same = a.fired.size() == b.fired.size() &&
                    std::equal(a.fired.begin(), a.fired.end(),
                               b.fired.begin(),
                               [](const FaultRecord& x, const FaultRecord& y) {
                                 return x == y;
                               });
  EXPECT_FALSE(same);
}

// ---- fault-record wire format -------------------------------------------

TEST(FaultRecordWire, SerializeParseRoundtrip) {
  const FaultRecord rec{FaultKind::kMramEcc, 3, 17, 123456789};
  const auto bytes = serialize_fault_record(rec);
  ASSERT_EQ(bytes.size(), kFaultRecordBytes);
  const auto back = parse_fault_record(bytes, /*nr_ranks=*/8);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->kind, rec.kind);
  EXPECT_EQ(back->rank, rec.rank);
  EXPECT_EQ(back->dpu, rec.dpu);
  EXPECT_EQ(back->at_time, rec.at_time);
}

TEST(FaultRecordWire, RejectsCorruptRecords) {
  const FaultRecord rec{FaultKind::kRankDeath, 1, 0, 42};
  auto bytes = serialize_fault_record(rec);
  auto corrupt = bytes;
  corrupt[0] ^= 0xFF;  // bad magic
  EXPECT_FALSE(parse_fault_record(corrupt, 8).has_value());
  corrupt = bytes;
  corrupt[4] = 0x55;  // unknown kind
  EXPECT_FALSE(parse_fault_record(corrupt, 8).has_value());
  EXPECT_FALSE(parse_fault_record(bytes, /*nr_ranks=*/1).has_value());
  EXPECT_FALSE(
      parse_fault_record(std::span(bytes).first(12), 8).has_value());
}

}  // namespace
}  // namespace vpim::core
