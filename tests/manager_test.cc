#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "tests/testutil.h"
#include "vpim/manager.h"
#include "vpim/manager_service.h"

namespace vpim::core {
namespace {

ManagerConfig fast_config(bool charge = true) {
  ManagerConfig cfg;
  cfg.retry_wait_ns = 1 * kMs;
  cfg.max_attempts = 2;
  cfg.charge_time = charge;
  return cfg;
}

TEST(Manager, AllocatesRoundRobin) {
  test::TestRig rig(test::small_machine());  // 2 ranks
  Manager mgr(rig.drv, fast_config());
  auto a = mgr.request_rank("vm-a");
  auto b = mgr.request_rank("vm-b");
  ASSERT_TRUE(a && b);
  EXPECT_NE(a->rank_index(), b->rank_index());
  EXPECT_EQ(mgr.state(a->rank_index()), RankState::kAllo);
  EXPECT_EQ(mgr.state(b->rank_index()), RankState::kAllo);
  // The grant is the mapping, held in the requester's name.
  EXPECT_EQ(rig.drv.sysfs().read(a->rank_index()).owner, "vm-a");
  EXPECT_EQ(rig.drv.sysfs().read(b->rank_index()).owner, "vm-b");
}

TEST(Manager, AllocationChargesPaperRoundTrip) {
  test::TestRig rig(test::small_machine());
  Manager mgr(rig.drv, fast_config());
  const SimNs t0 = rig.clock.now();
  ASSERT_TRUE(mgr.request_rank("vm-a"));
  EXPECT_EQ(rig.clock.now() - t0, rig.cost.manager_alloc_rt_ns);  // ~36 ms
}

TEST(Manager, ExhaustionRetriesThenAbandons) {
  test::TestRig rig(test::small_machine());
  Manager mgr(rig.drv, fast_config());
  auto a = mgr.request_rank("vm-a");
  auto b = mgr.request_rank("vm-b");
  ASSERT_TRUE(a && b);
  const SimNs t0 = rig.clock.now();
  EXPECT_FALSE(mgr.request_rank("vm-c").has_value());
  EXPECT_EQ(mgr.stats().failed_requests, 1u);
  // Two attempts separated by the retry wait.
  EXPECT_GE(rig.clock.now() - t0,
            rig.cost.manager_alloc_rt_ns + 2 * kMs);
}

TEST(Manager, ObserverDetectsReleaseAndResets) {
  test::TestRig rig(test::small_machine());
  Manager mgr(rig.drv, fast_config());
  auto mapping = mgr.request_rank("vm-a");
  ASSERT_TRUE(mapping);
  const std::uint32_t r = mapping->rank_index();

  // The holder keeps its mapping; the observer sees the rank in use.
  mgr.observe();
  EXPECT_EQ(mgr.state(r), RankState::kAllo);

  // Put residual data in the rank, then release without telling anyone.
  std::vector<std::uint8_t> secret(64, 0xAA);
  rig.machine.rank(r).mram(0).write(0, secret);
  mapping.reset();

  mgr.observe(/*do_resets=*/false);
  EXPECT_EQ(mgr.state(r), RankState::kNana);
  EXPECT_EQ(mgr.stats().releases_observed, 1u);

  const SimNs t0 = rig.clock.now();
  mgr.observe(/*do_resets=*/true);
  EXPECT_EQ(mgr.state(r), RankState::kNaav);
  EXPECT_EQ(mgr.stats().resets, 1u);
  // Reset takes the ~597 ms memset of the 4 GiB rank region.
  EXPECT_NEAR(ns_to_ms(rig.clock.now() - t0), 597.0, 60.0);

  // No residual data for the next tenant (isolation, R2).
  std::vector<std::uint8_t> probe(64, 1);
  rig.machine.rank(r).mram(0).read(0, probe);
  for (auto b : probe) EXPECT_EQ(b, 0);
}

TEST(Manager, NanaAffinityReusesWithoutReset) {
  test::TestRig rig(test::small_machine());
  Manager mgr(rig.drv, fast_config());
  std::uint32_t r = 0;
  {
    auto mapping = mgr.request_rank("vm-a");
    ASSERT_TRUE(mapping);
    r = mapping->rank_index();
    mgr.observe();
    std::vector<std::uint8_t> data(8, 0x5A);
    rig.machine.rank(r).mram(0).write(0, data);
  }
  mgr.observe(/*do_resets=*/false);  // release seen, reset pending
  ASSERT_EQ(mgr.state(r), RankState::kNana);

  // Same owner asks again before the observer erased the rank: it gets its
  // old rank back, content intact, no reset charged.
  auto again = mgr.request_rank("vm-a");
  ASSERT_TRUE(again);
  EXPECT_EQ(again->rank_index(), r);
  EXPECT_EQ(mgr.stats().reuse_hits, 1u);
  EXPECT_EQ(mgr.stats().resets, 0u);
  std::vector<std::uint8_t> probe(8);
  rig.machine.rank(r).mram(0).read(0, probe);
  EXPECT_EQ(probe[0], 0x5A);
}

TEST(Manager, DifferentOwnerGetsResetNanaRank) {
  test::TestRig rig(test::small_machine());
  Manager mgr(rig.drv, fast_config());
  // Occupy both ranks, then release one as vm-a.
  auto m0 = mgr.request_rank("vm-a");
  auto keep = mgr.request_rank("vm-b");
  ASSERT_TRUE(m0 && keep);
  const std::uint32_t r0 = m0->rank_index();
  mgr.observe();
  std::vector<std::uint8_t> data(8, 0x5A);
  rig.machine.rank(r0).mram(0).write(0, data);
  m0.reset();
  mgr.observe(/*do_resets=*/false);
  ASSERT_EQ(mgr.state(r0), RankState::kNana);

  // vm-c must only ever see zeroed memory.
  auto rc = mgr.request_rank("vm-c");
  ASSERT_TRUE(rc);
  EXPECT_EQ(rc->rank_index(), r0);
  EXPECT_EQ(mgr.stats().resets, 1u);
  std::vector<std::uint8_t> probe(8, 1);
  rig.machine.rank(r0).mram(0).read(0, probe);
  EXPECT_EQ(probe[0], 0);
}

TEST(Manager, NativeApplicationsCoexist) {
  test::TestRig rig(test::small_machine());
  Manager mgr(rig.drv, fast_config());
  // A native app maps rank 0 directly, bypassing the manager.
  auto native = rig.drv.map_rank(0, "native-app");
  mgr.observe();
  EXPECT_EQ(mgr.state(0), RankState::kAllo);

  // The manager only hands out rank 1.
  auto r = mgr.request_rank("vm-a");
  ASSERT_TRUE(r);
  EXPECT_EQ(r->rank_index(), 1u);
  EXPECT_FALSE(mgr.request_rank("vm-b").has_value());

  // When the native app exits, its rank is recycled like any other.
  native.unmap();
  mgr.observe();
  EXPECT_EQ(mgr.state(0), RankState::kNaav);
  EXPECT_TRUE(mgr.request_rank("vm-b").has_value());
}

// ---- fault handling: quarantine, probing, migration accounting ----------

TEST(Manager, DeadRankIsQuarantinedAndProbedWithBackoff) {
  test::TestRig rig(test::small_machine());
  Manager mgr(rig.drv, fast_config(/*charge=*/false));
  // The device layer reports a permanent fault on rank 0; the hardware is
  // truly dead, so every reset-verify probe fails.
  rig.machine.rank(0).fail();
  rig.drv.log_fault({FaultKind::kRankDeath, 0, 0, rig.clock.now()});

  mgr.observe();
  EXPECT_EQ(mgr.state(0), RankState::kFail);
  EXPECT_EQ(mgr.stats().quarantined, 1u);
  EXPECT_EQ(mgr.stats().quarantine_probes, 1u);
  EXPECT_EQ(mgr.stats().fault_records_drained, 1u);

  // Probes respect the exponential backoff: immediately again -> nothing;
  // after the base window -> one more.
  mgr.observe();
  EXPECT_EQ(mgr.stats().quarantine_probes, 1u);
  rig.clock.advance(100 * kMs);
  mgr.observe();
  EXPECT_EQ(mgr.stats().quarantine_probes, 2u);
  EXPECT_EQ(mgr.stats().recoveries, 0u);

  // A quarantined rank is never handed out, even under pressure.
  auto held = mgr.request_rank("vm-a");
  ASSERT_TRUE(held.has_value());
  EXPECT_FALSE(mgr.request_rank("vm-b").has_value());
  EXPECT_EQ(mgr.state(0), RankState::kFail);
}

TEST(Manager, RecoverableRankPassesResetVerifyAndRejoins) {
  test::TestRig rig(test::small_machine());
  Manager mgr(rig.drv, fast_config(/*charge=*/false));
  // Sysfs says failed, but the hardware itself still works (e.g. the fault
  // was a one-off mis-report or the chip came back after power-cycle): the
  // reset-verify probe passes and the rank returns to circulation.
  std::vector<std::uint8_t> residue(32, 0xEE);
  rig.machine.rank(0).mram(0).write(0, residue);
  rig.drv.log_fault({FaultKind::kRankDeath, 0, 0, rig.clock.now()});

  mgr.observe();
  EXPECT_EQ(mgr.state(0), RankState::kNaav);  // probe ran and passed
  EXPECT_EQ(mgr.stats().quarantined, 1u);
  EXPECT_EQ(mgr.stats().quarantine_probes, 1u);
  EXPECT_EQ(mgr.stats().recoveries, 1u);

  // Reset-verify scrubbed the rank: the next tenant sees zeroed memory.
  std::vector<std::uint8_t> probe(32, 1);
  rig.machine.rank(0).mram(0).read(0, probe);
  for (auto b : probe) EXPECT_EQ(b, 0);
  auto a = mgr.request_rank("vm-a");
  auto b = mgr.request_rank("vm-b");
  EXPECT_TRUE(a.has_value());
  EXPECT_TRUE(b.has_value());
}

TEST(Manager, FailedRequestsCountExactlyOnePerAbandonment) {
  test::TestRig rig(test::small_machine());
  Manager mgr(rig.drv, fast_config());
  // Both holders keep their grants mapped, so the observer passes inside
  // the retry loop cannot reclaim them.
  auto ma = mgr.request_rank("vm-a");
  auto mb = mgr.request_rank("vm-b");
  ASSERT_TRUE(ma && mb);
  // Each abandoned request counts once, regardless of its retry attempts.
  EXPECT_FALSE(mgr.request_rank("vm-c").has_value());
  EXPECT_EQ(mgr.stats().failed_requests, 1u);
  EXPECT_FALSE(mgr.request_rank("vm-d").has_value());
  EXPECT_EQ(mgr.stats().failed_requests, 2u);
}

TEST(Manager, RetriedRequestThatSucceedsIsNotCountedFailed) {
  test::TestRig rig(test::small_machine());
  ManagerConfig cfg = fast_config();
  cfg.max_attempts = 3;
  Manager mgr(rig.drv, cfg);
  auto m0 = mgr.request_rank("vm-a");
  auto m1 = mgr.request_rank("vm-b");
  ASSERT_TRUE(m0 && m1);
  const std::uint32_t r0 = m0->rank_index();
  // vm-a works and releases without telling anyone — entirely between
  // observer passes. The first attempt of vm-c's request finds nothing;
  // the observer pass before its retry sees rank r0 free in sysfs and
  // reclaims it. vm-b still holds its grant, so its rank is never taken.
  m0.reset();
  auto rc = mgr.request_rank("vm-c");
  ASSERT_TRUE(rc.has_value());
  EXPECT_EQ(rc->rank_index(), r0);
  EXPECT_EQ(mgr.state(m1->rank_index()), RankState::kAllo);
  EXPECT_EQ(mgr.stats().failed_requests, 0u);
}

// ---- a grant is a mapping: release detection needs no grace -------------

TEST(Manager, HeldGrantSurvivesEveryObserverPass) {
  // A holder that never touches its rank still holds it: the grant mapped
  // it, so no amount of polling or virtual time reclaims it.
  test::TestRig rig(test::small_machine());
  Manager mgr(rig.drv, fast_config());
  auto held = mgr.request_rank("vm-idle");
  ASSERT_TRUE(held.has_value());
  const std::uint32_t r = held->rank_index();
  for (int pass = 0; pass < 20; ++pass) {
    rig.clock.advance(3 * kSec);
    mgr.observe();
    ASSERT_EQ(mgr.state(r), RankState::kAllo) << "pass " << pass;
  }
  EXPECT_EQ(mgr.stats().releases_observed, 0u);
  EXPECT_EQ(mgr.stats().resets, 0u);
}

TEST(Manager, DroppedGrantIsReclaimedByTheNextPass) {
  test::TestRig rig(test::small_machine());
  Manager mgr(rig.drv, fast_config());
  auto held = mgr.request_rank("vm-a");
  ASSERT_TRUE(held.has_value());
  const std::uint32_t r = held->rank_index();
  held.reset();
  EXPECT_EQ(mgr.state(r), RankState::kAllo);  // nobody has polled yet
  mgr.observe(/*do_resets=*/false);
  EXPECT_EQ(mgr.state(r), RankState::kNana);
  EXPECT_EQ(mgr.stats().releases_observed, 1u);
  // Later passes see nothing new to release.
  mgr.observe(/*do_resets=*/false);
  EXPECT_EQ(mgr.stats().releases_observed, 1u);
}

TEST(Manager, MigrationAndSeizureCountersAccumulate) {
  test::TestRig rig(test::small_machine());
  Manager mgr(rig.drv, fast_config());
  // A device migration, as the Manager sees it: a second grant while the
  // first is held, then the first mapping dropped. The Manager counts one
  // more allocation and, on its next pass, one release; the moved bytes
  // are the backend's business (DeviceStats::fault_migrations).
  auto from = mgr.request_rank("vm-m");
  auto to = mgr.request_rank("vm-m");
  ASSERT_TRUE(from && to);
  from.reset();
  mgr.observe();
  EXPECT_EQ(mgr.stats().allocations, 2u);
  EXPECT_EQ(mgr.stats().releases_observed, 1u);
  to.reset();
  mgr.observe();
  EXPECT_EQ(mgr.stats().releases_observed, 2u);

  // Seizure through sysfs alone: the holder unmaps and a squatter maps
  // the rank between two observer passes. The observer sees a different
  // owner, tracks the squatter ALLO, and quarantines the rank once it lets
  // go.
  auto held = mgr.request_rank("vm-a");
  ASSERT_TRUE(held.has_value());
  const std::uint32_t r = held->rank_index();
  held.reset();
  auto squatter = rig.drv.map_rank(r, "native-app");
  mgr.observe();
  EXPECT_EQ(mgr.stats().seizures_observed, 1u);
  EXPECT_EQ(mgr.state(r), RankState::kAllo);
  squatter.unmap();
  mgr.observe();
  EXPECT_EQ(mgr.state(r), RankState::kFail);
  EXPECT_EQ(mgr.stats().quarantined, 1u);
  // Next pass: reset-verify passes (hardware is fine) -> back to NAAV.
  mgr.observe();
  EXPECT_EQ(mgr.state(r), RankState::kNaav);
  EXPECT_EQ(mgr.stats().recoveries, 1u);
}

// ---- the grant ledger ----------------------------------------------------

TEST(Manager, WranksListsEveryHeldGrant) {
  test::TestRig rig(test::small_machine());
  Manager mgr(rig.drv, fast_config());
  EXPECT_TRUE(mgr.wranks().empty());
  auto a = mgr.request_rank("vm-a");
  auto b = mgr.request_rank("vm-b");
  ASSERT_TRUE(a && b);
  const std::uint32_t rank_b = b->rank_index();
  EXPECT_EQ(mgr.wranks().size(), 2u);
  a.reset();  // vm-a drops its grant; the next pass sees it free
  mgr.observe();
  EXPECT_EQ(mgr.wranks(), (std::vector<WrankInfo>{{"vm-b", rank_b}}));
}

TEST(ManagerService, ConcurrentRequestsNeverDoubleAllocate) {
  test::TestRig rig;  // 8 ranks
  ManagerConfig cfg;
  cfg.charge_time = false;
  cfg.max_attempts = 50;
  Manager mgr(rig.drv, cfg);
  ManagerService service(
      mgr, {.threads = 8, .observe_period = std::chrono::milliseconds(1)});

  std::atomic<int> successes{0};
  std::atomic<bool> overlap{false};
  std::vector<std::atomic<int>> holders(rig.machine.nr_ranks());
  for (auto& h : holders) h = 0;

  auto worker = [&](int id) {
    const std::string owner = "vm-" + std::to_string(id);
    for (int round = 0; round < 3; ++round) {
      auto mapping = service.request_rank(owner).get();
      if (!mapping.has_value()) continue;
      const std::uint32_t rank = mapping->rank_index();
      if (holders[rank].fetch_add(1) != 0) overlap = true;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      // Give the rank up before the mapping unmaps: once it is unmapped
      // the observer may legally recycle it, and the next holder must not
      // see this one as a fake overlap.
      holders[rank].fetch_sub(1);
      mapping.reset();
      ++successes;
      // Observer (running every 1 ms) will recycle the rank.
    }
  };

  std::vector<std::thread> threads;
  for (int i = 0; i < 16; ++i) threads.emplace_back(worker, i);
  for (auto& t : threads) t.join();
  service.stop();

  EXPECT_FALSE(overlap.load());
  EXPECT_GT(successes.load(), 16);  // most rounds should succeed
}

// ---- ManagerService priorities and shutdown --------------------------------

TEST(ManagerService, HigherPriorityDrainsFirst) {
  // One rank, one worker, workers paused: both requests sit queued, then
  // the single rank must go to the higher-priority request no matter the
  // submission order.
  test::TestRig rig({.nr_ranks = 1, .functional_dpus_per_rank = 8});
  ManagerConfig cfg = fast_config(/*charge=*/false);
  cfg.max_attempts = 1;
  Manager mgr(rig.drv, cfg);
  ManagerServiceConfig scfg;
  scfg.threads = 1;
  scfg.observe_period = std::chrono::milliseconds(1);
  scfg.start_paused = true;
  ManagerService service(mgr, scfg);

  auto low = service.request_rank("low", /*priority=*/0);
  auto high = service.request_rank("high", /*priority=*/5);
  service.start();
  const auto granted = high.get();
  ASSERT_TRUE(granted.has_value());
  EXPECT_EQ(rig.drv.sysfs().read(granted->rank_index()).owner, "high");
  EXPECT_FALSE(low.get().has_value());
  EXPECT_EQ(mgr.stats().failed_requests, 1u);
}

TEST(ManagerService, StopDrainsQueueWithTypedShutdown) {
  test::TestRig rig(test::small_machine());
  Manager mgr(rig.drv, fast_config(/*charge=*/false));
  ManagerServiceConfig scfg;
  scfg.threads = 1;
  scfg.observe_period = std::chrono::milliseconds(1);
  scfg.start_paused = true;  // nothing dequeues before stop()
  ManagerService service(mgr, scfg);

  std::vector<std::future<std::optional<driver::RankMapping>>> queued;
  for (int i = 0; i < 5; ++i) {
    queued.push_back(service.request_rank("vm-" + std::to_string(i)));
  }
  service.stop();

  // Regression: a stopping service used to discard its queue, so these
  // futures never resolved and callers blocked forever.
  for (auto& f : queued) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(5)),
              std::future_status::ready);
    EXPECT_FALSE(f.get().has_value());
  }
  EXPECT_EQ(service.shutdown_rejections(), 5u);
  EXPECT_TRUE(mgr.wranks().empty());  // nothing was granted
  EXPECT_EQ(mgr.stats().allocations, 0u);

  // Submissions after stop() resolve immediately with the same rejection
  // instead of queueing into the void.
  auto late = service.request_rank("vm-late");
  ASSERT_EQ(late.wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  EXPECT_FALSE(late.get().has_value());
  EXPECT_EQ(service.shutdown_rejections(), 6u);
}

TEST(ManagerService, ManagerErrorResolvesTheCallersFuture) {
  // A request the Manager refuses with an error (here: no owner tag) must
  // reach the caller through its future, not kill the worker thread.
  test::TestRig rig(test::small_machine());
  Manager mgr(rig.drv, fast_config(/*charge=*/false));
  ManagerService service(
      mgr, {.threads = 1, .observe_period = std::chrono::milliseconds(1)});

  auto bad = service.request_rank("");
  EXPECT_THROW(bad.get(), VpimError);
  // The worker survives and serves the next request.
  auto good = service.request_rank("vm-a");
  EXPECT_TRUE(good.get().has_value());
  service.stop();
}

}  // namespace
}  // namespace vpim::core
