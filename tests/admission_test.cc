// Overload protection (ISSUE 8): the AdmissionController's token-bucket /
// global-budget / WRR-fairness decisions in isolation, plus the end-to-end
// try_submit / cancel / deadline / lost-batched-write paths through a real
// device stack. Everything here is pure virtual time — no sleeps, no wall
// clock — so every decision is reproducible by construction.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/fault.h"
#include "common/obs/trace.h"
#include "tests/testutil.h"
#include "virtio/pim_spec.h"
#include "vpim/admission.h"
#include "vpim/host.h"
#include "vpim/vpim_vm.h"

namespace vpim::core {
namespace {

using virtio::PimStatus;

// ---- controller in isolation --------------------------------------------

TEST(AdmissionController, TokenBucketRefillsAtTheContractedRate) {
  AdmissionConfig cfg;
  cfg.tokens_per_sec = 2;
  cfg.bucket_burst = 2;
  AdmissionController adm(cfg);

  // A fresh session starts with a full (burst-sized) bucket.
  EXPECT_EQ(adm.try_admit("t0", 0), PimStatus::kOk);
  EXPECT_EQ(adm.try_admit("t0", 0), PimStatus::kOk);
  EXPECT_EQ(adm.try_admit("t0", 0), PimStatus::kAdmissionReject);

  // 2 tokens/sec: after 499 ms still dry, at 500 ms exactly one earned.
  EXPECT_EQ(adm.try_admit("t0", 499 * kMs), PimStatus::kAdmissionReject);
  EXPECT_EQ(adm.try_admit("t0", 500 * kMs), PimStatus::kOk);
  EXPECT_EQ(adm.try_admit("t0", 500 * kMs), PimStatus::kAdmissionReject);

  // Refill caps at the burst, no matter how long the session idles.
  EXPECT_EQ(adm.try_admit("t0", 100 * kSec), PimStatus::kOk);
  EXPECT_EQ(adm.try_admit("t0", 100 * kSec), PimStatus::kOk);
  EXPECT_EQ(adm.try_admit("t0", 100 * kSec), PimStatus::kAdmissionReject);

  const AdmissionStats s = adm.stats();
  EXPECT_EQ(s.admitted, 5u);
  EXPECT_EQ(s.shed_tenant, 4u);
  EXPECT_EQ(s.shed_global, 0u);
  EXPECT_EQ(s.sessions, 1u);
}

TEST(AdmissionController, GlobalBudgetShedsAndReleasesOnCompletion) {
  AdmissionConfig cfg;
  cfg.tokens_per_sec = 1000;
  cfg.bucket_burst = 100;
  cfg.global_inflight_budget = 2;
  AdmissionController adm(cfg);

  EXPECT_EQ(adm.try_admit("a", 0), PimStatus::kOk);
  EXPECT_EQ(adm.try_admit("b", 0), PimStatus::kOk);
  // Budget full: even a token-rich tenant gets the would-block status.
  EXPECT_EQ(adm.try_admit("c", 0), PimStatus::kOverloaded);
  EXPECT_EQ(adm.stats().inflight, 2u);

  adm.complete(1 * kMs, 1 * kMs);
  EXPECT_EQ(adm.try_admit("c", 1 * kMs), PimStatus::kOk);

  const AdmissionStats s = adm.stats();
  EXPECT_EQ(s.admitted, 3u);
  EXPECT_EQ(s.shed_global, 1u);
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.inflight, 2u);
}

TEST(AdmissionController, RankGrantsRoundRobinAcrossContendingTenants) {
  AdmissionController adm;
  // Register both sessions up front so their shares start level (a session
  // created *after* grants started would begin at the minimum live share).
  adm.set_tenant_weight("a", 1);
  adm.set_tenant_weight("b", 1);
  // Both tenants contend (each asks within the fairness window).
  EXPECT_TRUE(adm.allow_rank_grant("a", 0));
  adm.on_rank_granted("a");
  // "a" is now ahead of "b"'s share: it must defer while "b" contends.
  EXPECT_TRUE(adm.allow_rank_grant("b", 0));
  EXPECT_FALSE(adm.allow_rank_grant("a", 0));
  adm.on_rank_granted("b");
  // Even again: either may take the next one.
  EXPECT_TRUE(adm.allow_rank_grant("a", 0));
  EXPECT_EQ(adm.stats().fairness_deferrals, 1u);
}

TEST(AdmissionController, WeightedTenantsGetProportionallyMoreGrants) {
  AdmissionController adm;
  adm.set_tenant_weight("heavy", 3);
  adm.set_tenant_weight("light", 1);
  int heavy = 0;
  int light = 0;
  for (int i = 0; i < 60; ++i) {
    // Both keep contending; whoever the WRR policy allows takes a rank.
    if (adm.allow_rank_grant("heavy", 0)) {
      adm.on_rank_granted("heavy");
      ++heavy;
    }
    if (adm.allow_rank_grant("light", 0)) {
      adm.on_rank_granted("light");
      ++light;
    }
  }
  // Steady state converges to the 3:1 weighted share (edges smear it a
  // little, so bound the ratio rather than demand it exactly).
  ASSERT_GT(light, 0);
  EXPECT_GE(heavy, 2 * light);
  EXPECT_LE(heavy, 4 * light);
  EXPECT_GT(adm.stats().fairness_deferrals, 0u);
}

TEST(AdmissionController, IdleTenantsDoNotBlockTheOnlyContender) {
  AdmissionController adm;
  // "idle" contended once, long ago; outside the fairness window it must
  // not hold back a live tenant even though its share is smaller.
  EXPECT_TRUE(adm.allow_rank_grant("idle", 0));
  adm.on_rank_granted("idle");
  EXPECT_TRUE(adm.allow_rank_grant("busy", 0));
  adm.on_rank_granted("busy");
  const SimNs later = 10 * kSec;  // far past fairness_window_ns
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(adm.allow_rank_grant("busy", later)) << "grant " << i;
    adm.on_rank_granted("busy");
  }
}

TEST(AdmissionController, SessionsThatNeverContendedNeverDefer) {
  AdmissionController adm;
  // "quiet" exists only through admission and never asks for a rank; its
  // share stays at zero while "busy" takes grants well inside the first
  // fairness window.
  EXPECT_EQ(adm.try_admit("quiet", 0), PimStatus::kOk);
  const SimNs step = adm.config().fairness_window_ns / 8;
  for (int i = 1; i < 8; ++i) {
    EXPECT_TRUE(adm.allow_rank_grant("busy", i * step)) << "grant " << i;
    adm.on_rank_granted("busy");
  }
  EXPECT_EQ(adm.stats().fairness_deferrals, 0u);
}

// ---- end to end through the device stack --------------------------------

VpimConfig pipe_config(std::uint32_t depth) {
  VpimConfig cfg = VpimConfig::full();
  cfg.prefetch_cache = false;
  cfg.request_batching = false;
  cfg.queue_depth = depth;
  return cfg;
}

driver::TransferMatrix one_entry(std::span<std::uint8_t> buf,
                                 driver::XferDirection dir) {
  driver::TransferMatrix m;
  m.direction = dir;
  m.entries.push_back({0, 0, buf.data(), buf.size()});
  return m;
}

TEST(AdmissionEndToEnd, TrySubmitShedsTypedAndNothingIsLost) {
  Host host(test::small_machine());
  AdmissionConfig acfg;
  acfg.tokens_per_sec = 1000;
  acfg.bucket_burst = 100;
  acfg.global_inflight_budget = 2;
  host.install_admission(acfg);
  VpimVm vm(host, {.name = "adm"}, 1, pipe_config(/*depth=*/4));
  Frontend& fe = vm.device(0).frontend;
  ASSERT_TRUE(fe.open());

  auto buf = vm.vmm().memory().alloc(512);
  std::memset(buf.data(), 0x5A, buf.size());
  const auto m = one_entry(buf, driver::XferDirection::kToRank);

  const auto r1 = fe.try_submit_write(m);
  const auto r2 = fe.try_submit_write(m);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_NE(r1.ticket, r2.ticket);
  // Budget exhausted: typed would-block, no ticket, nothing staged extra.
  const auto r3 = fe.try_submit_write(m);
  EXPECT_EQ(r3.status, static_cast<std::int32_t>(PimStatus::kOverloaded));
  EXPECT_EQ(r3.ticket, 0u);
  EXPECT_EQ(vm.device(0).stats.would_blocks, 1u);

  // Reaping the completions releases the budget.
  const auto done = fe.poll_completions();
  ASSERT_EQ(done.size(), 2u);
  for (const auto& c : done) EXPECT_EQ(c.status, 0);
  EXPECT_TRUE(fe.try_submit_write(m).ok());
  EXPECT_EQ(host.admission->stats().completed, 2u);
  fe.close();
}

// The admission span belongs to the request it admits: it carries the
// admitted write's causal id, not the previous op's, and a shed request's
// admission span has a request id of its own.
TEST(AdmissionEndToEnd, AdmissionSpanCarriesTheRequestItAdmits) {
  Host host(test::small_machine());
  AdmissionConfig acfg;
  acfg.global_inflight_budget = 1;
  host.install_admission(acfg);
  obs::Tracer tracer;
  host.attach_tracer(&tracer);
  VpimVm vm(host, {.name = "adm"}, 1, pipe_config(/*depth=*/4));
  Frontend& fe = vm.device(0).frontend;
  ASSERT_TRUE(fe.open());

  auto buf = vm.vmm().memory().alloc(512);
  const auto m = one_entry(buf, driver::XferDirection::kToRank);
  ASSERT_TRUE(fe.try_submit_write(m).ok());
  ASSERT_EQ(fe.try_submit_write(m).status,
            static_cast<std::int32_t>(PimStatus::kOverloaded));

  std::vector<std::uint64_t> admissions;
  std::vector<std::uint64_t> writes;
  for (const obs::Span& s : tracer.spans()) {
    if (s.kind == obs::SpanKind::kAdmission) admissions.push_back(s.request);
    if (s.kind == obs::SpanKind::kWrite && s.parent == 0) {
      writes.push_back(s.request);
    }
  }
  ASSERT_EQ(admissions.size(), 2u);
  ASSERT_EQ(writes.size(), 1u);
  EXPECT_EQ(admissions[0], writes[0]);
  EXPECT_GT(admissions[1], writes[0]);
  fe.close();
}

TEST(AdmissionEndToEnd, TokenBucketRejectIsPerTenant) {
  Host host(test::small_machine());
  AdmissionConfig acfg;
  acfg.tokens_per_sec = 1;  // effectively no refill inside the test
  acfg.bucket_burst = 2;
  host.install_admission(acfg);
  VpimVm vm(host, {.name = "adm-rate"}, 1, pipe_config(/*depth=*/8));
  Frontend& fe = vm.device(0).frontend;
  ASSERT_TRUE(fe.open());

  auto buf = vm.vmm().memory().alloc(256);
  const auto m = one_entry(buf, driver::XferDirection::kToRank);
  ASSERT_TRUE(fe.try_submit_write(m).ok());
  ASSERT_TRUE(fe.try_submit_write(m).ok());
  const auto shed = fe.try_submit_write(m);
  EXPECT_EQ(shed.status,
            static_cast<std::int32_t>(PimStatus::kAdmissionReject));
  EXPECT_EQ(vm.device(0).stats.admission_rejects, 1u);
  // The legacy blocking submit path bypasses admission entirely.
  EXPECT_GT(fe.submit_write(m), 0u);
  fe.poll_completions();
  fe.close();
}

TEST(AdmissionEndToEnd, CqCapacityBackpressuresWithoutGrowingMemory) {
  Host host(test::small_machine());  // no admission controller at all
  VpimConfig cfg = pipe_config(/*depth=*/8);
  cfg.cq_capacity = 2;
  VpimVm vm(host, {.name = "adm-cq"}, 1, cfg);
  Frontend& fe = vm.device(0).frontend;
  ASSERT_TRUE(fe.open());

  auto buf = vm.vmm().memory().alloc(256);
  const auto m = one_entry(buf, driver::XferDirection::kToRank);
  ASSERT_TRUE(fe.try_submit_write(m).ok());
  ASSERT_TRUE(fe.try_submit_write(m).ok());
  const auto r = fe.try_submit_write(m);
  EXPECT_EQ(r.status, static_cast<std::int32_t>(PimStatus::kOverloaded));
  EXPECT_EQ(vm.device(0).stats.would_blocks, 1u);
  // Draining the CQ reopens the window.
  EXPECT_EQ(fe.poll_completions().size(), 2u);
  EXPECT_TRUE(fe.try_submit_write(m).ok());
  fe.poll_completions();
  fe.close();
}

TEST(AdmissionEndToEnd, CancelWinsOnlyWhileStagedAndReapsTyped) {
  Host host(test::small_machine());
  VpimVm vm(host, {.name = "adm-cancel"}, 1, pipe_config(/*depth=*/4));
  Frontend& fe = vm.device(0).frontend;
  ASSERT_TRUE(fe.open());

  auto buf = vm.vmm().memory().alloc(512);
  std::memset(buf.data(), 0x77, buf.size());
  const auto m = one_entry(buf, driver::XferDirection::kToRank);

  const auto r = fe.try_submit_write(m);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(fe.cancel(r.ticket));
  EXPECT_FALSE(fe.cancel(r.ticket)) << "double cancel must lose";
  EXPECT_FALSE(fe.cancel(r.ticket + 100)) << "unknown ticket must lose";

  const auto done = fe.poll_completions();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].ticket, r.ticket);
  EXPECT_EQ(done[0].status, static_cast<std::int32_t>(PimStatus::kCancelled));
  EXPECT_EQ(vm.device(0).stats.cancelled, 1u);

  // The cancelled write never executed: the target range is still zero.
  auto out = vm.vmm().memory().alloc(512);
  fe.read_from_rank(one_entry(out, driver::XferDirection::kFromRank));
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], 0) << "cancelled write reached MRAM at byte " << i;
  }

  // Past the doorbell the race is lost: the ticket reaps its real status.
  const auto r2 = fe.try_submit_write(m);
  ASSERT_TRUE(r2.ok());
  fe.poll_completions();  // kicks + reaps; nothing staged anymore
  EXPECT_FALSE(fe.cancel(r2.ticket));
  fe.close();
}

TEST(AdmissionEndToEnd, ExpiredDeadlineIsShedByTheBackendTyped) {
  Host host(test::small_machine());
  VpimVm vm(host, {.name = "adm-dl"}, 1, pipe_config(/*depth=*/4));
  Frontend& fe = vm.device(0).frontend;
  ASSERT_TRUE(fe.open());

  auto buf = vm.vmm().memory().alloc(512);
  std::memset(buf.data(), 0x33, buf.size());
  const auto m = one_entry(buf, driver::XferDirection::kToRank);

  // A deadline of now+1ns is unmeetable: staging alone advances virtual
  // time past it, so the backend's drain-time check sheds the work.
  const auto doomed = fe.try_submit_write(m, host.clock.now() + 1);
  ASSERT_TRUE(doomed.ok());
  // A generous deadline sails through.
  const auto fine = fe.try_submit_write(m, host.clock.now() + 10 * kSec);
  ASSERT_TRUE(fine.ok());

  const auto done = fe.poll_completions();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].ticket, doomed.ticket);
  EXPECT_EQ(done[0].status, static_cast<std::int32_t>(PimStatus::kTimeout));
  EXPECT_EQ(done[1].ticket, fine.ticket);
  EXPECT_EQ(done[1].status, 0);
  EXPECT_EQ(vm.device(0).stats.deadline_shed, 1u);
  fe.close();
}

// Satellite regression: a posted flush that fails at depth > 1 must
// surface a typed per-slot record for every batched write it absorbed —
// the old behavior silently dropped them on the timed-out roundtrip.
TEST(AdmissionEndToEnd, FailedFlushSurfacesEveryLostBatchedWrite) {
  Host host(test::small_machine());
  // The flush is the first transferq request on the bound rank: lose its
  // completion and nothing else.
  host.install_fault_plan(
      {{FaultKind::kLostCompletion, /*rank=*/0, 0, /*at_op=*/1, 0, 0}});
  VpimConfig cfg = VpimConfig::full();
  cfg.prefetch_cache = false;
  cfg.request_batching = true;
  cfg.queue_depth = 4;
  VpimVm vm(host, {.name = "adm-lost"}, 1, cfg);
  Frontend& fe = vm.device(0).frontend;
  ASSERT_TRUE(fe.open());

  // Two small writes absorbed into the batch buffers of DPUs 0 and 1.
  auto b0 = vm.vmm().memory().alloc(64);
  auto b1 = vm.vmm().memory().alloc(96);
  driver::TransferMatrix w;
  w.direction = driver::XferDirection::kToRank;
  w.entries.push_back({0, 4096, b0.data(), b0.size()});
  fe.write_to_rank(w);
  w.entries.clear();
  w.entries.push_back({1, 8192, b1.data(), b1.size()});
  fe.write_to_rank(w);
  ASSERT_EQ(vm.device(0).stats.batched_writes, 2u);

  // An async submit posts the flush ahead of itself; the injected fault
  // swallows the flush's completion, so its roundtrip times out.
  auto big = vm.vmm().memory().alloc(8 * kKiB);
  const auto r = fe.try_submit_write(
      one_entry(big, driver::XferDirection::kToRank));
  ASSERT_TRUE(r.ok());
  const auto done = fe.poll_completions();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].status, 0) << "the non-flush write must still land";

  const auto lost = fe.lost_writes();
  ASSERT_EQ(lost.size(), 2u);
  EXPECT_EQ(vm.device(0).stats.lost_batched_writes, 2u);
  EXPECT_EQ(lost[0].dpu, 0u);
  EXPECT_EQ(lost[0].mram_offset, 4096u);
  EXPECT_EQ(lost[0].size, 64u);
  EXPECT_EQ(lost[1].dpu, 1u);
  EXPECT_EQ(lost[1].mram_offset, 8192u);
  EXPECT_EQ(lost[1].size, 96u);
  for (const auto& lw : lost) {
    EXPECT_EQ(lw.status, static_cast<std::int32_t>(PimStatus::kTimeout));
  }
  fe.clear_lost_writes();
  EXPECT_TRUE(fe.lost_writes().empty());

  // The flush failure still reaches the next blocking op as before.
  auto probe = vm.vmm().memory().alloc(64);
  driver::TransferMatrix rd;
  rd.direction = driver::XferDirection::kFromRank;
  rd.entries.push_back({0, 4096, probe.data(), probe.size()});
  EXPECT_THROW(fe.read_from_rank(rd), VpimStatusError);
  fe.close();
}

// A failed flush that holds one DPU's records still in its head slot and
// another's already moved to its full batch buffer reports every record
// lost exactly once, in each DPU's program order, wherever it lived.
TEST(AdmissionEndToEnd, FailedFlushLosesHeadAndMovedRecordsOnce) {
  Host host(test::small_machine());
  host.install_fault_plan(
      {{FaultKind::kLostCompletion, /*rank=*/0, 0, /*at_op=*/1, 0, 0}});
  VpimConfig cfg = VpimConfig::full();
  cfg.prefetch_cache = false;
  cfg.request_batching = true;
  cfg.queue_depth = 4;
  VpimVm vm(host, {.name = "adm-lost-head"}, 1, cfg);
  Frontend& fe = vm.device(0).frontend;
  ASSERT_TRUE(fe.open());

  // DPU 0: two records in its head. DPU 1: one record in its head, then a
  // 300-byte one that moves both to its full buffer.
  auto src = vm.vmm().memory().alloc(8 * kKiB);
  struct Expect {
    std::uint32_t dpu;
    std::uint64_t offset;
    std::uint64_t size;
  };
  const std::vector<Expect> writes = {
      {1, 0, 32}, {0, 4096, 64}, {1, 512, 300}, {0, 64, 96}};
  for (const Expect& x : writes) {
    driver::TransferMatrix w;
    w.direction = driver::XferDirection::kToRank;
    w.entries.push_back({x.dpu, x.offset, src.data(), x.size});
    fe.write_to_rank(w);
  }
  ASSERT_EQ(vm.device(0).stats.batched_writes, writes.size());

  // The async submit posts the flush ahead of itself; the fault swallows
  // the flush's completion.
  auto big = vm.vmm().memory().alloc(8 * kKiB);
  ASSERT_TRUE(
      fe.try_submit_write(one_entry(big, driver::XferDirection::kToRank))
          .ok());
  ASSERT_EQ(fe.poll_completions().size(), 1u);

  const std::vector<Expect> expect = {writes[1], writes[3], writes[0],
                                      writes[2]};
  const auto lost = fe.lost_writes();
  ASSERT_EQ(lost.size(), expect.size());
  EXPECT_EQ(vm.device(0).stats.lost_batched_writes, expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(lost[i].dpu, expect[i].dpu) << i;
    EXPECT_EQ(lost[i].mram_offset, expect[i].offset) << i;
    EXPECT_EQ(lost[i].size, expect[i].size) << i;
    EXPECT_EQ(lost[i].status, static_cast<std::int32_t>(PimStatus::kTimeout));
  }

  // The next blocking op surfaces the failure; later batched writes to
  // both DPUs flush cleanly and nothing is reported lost a second time.
  auto probe = vm.vmm().memory().alloc(64);
  driver::TransferMatrix rd;
  rd.direction = driver::XferDirection::kFromRank;
  rd.entries.push_back({0, 4096, probe.data(), probe.size()});
  EXPECT_THROW(fe.read_from_rank(rd), VpimStatusError);
  for (const std::uint32_t dpu : {0u, 1u}) {
    driver::TransferMatrix w;
    w.direction = driver::XferDirection::kToRank;
    w.entries.push_back({dpu, 4096, src.data(), 64});
    fe.write_to_rank(w);
  }
  fe.read_from_rank(rd);
  EXPECT_EQ(std::memcmp(probe.data(), src.data(), probe.size()), 0);
  EXPECT_EQ(fe.lost_writes().size(), expect.size());
  EXPECT_EQ(vm.device(0).stats.lost_batched_writes, expect.size());
  fe.close();
}

}  // namespace
}  // namespace vpim::core
