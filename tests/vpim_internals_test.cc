// White-box tests of vPIM's wire-level mechanisms: batch flush records,
// broadcast detection + copy-on-write storage, packed symbol transfers,
// oversized-transfer rejection, and message accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
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

struct Rig {
  explicit Rig(VpimConfig config = VpimConfig::full(),
               upmem::MachineConfig machine = test::small_machine())
      : host(machine, CostModel{}, fast_manager()),
        vm(host, {.name = "internals"}, 1, config) {
    EXPECT_TRUE(vm.device(0).frontend.open());
  }
  Frontend& fe() { return vm.device(0).frontend; }
  upmem::Rank& rank() {
    return host.machine.rank(vm.device(0).backend.rank_index());
  }

  Host host;
  VpimVm vm;
};

TEST(BatchFlush, RecordsApplyInOrderAcrossDpus) {
  Rig rig;
  auto buf = rig.vm.vmm().memory().alloc(4096);
  // Overlapping small writes to the same DPU: the flush must replay them
  // in order, so the later write wins on the overlap.
  std::memset(buf.data(), 0xAA, 256);
  driver::TransferMatrix w1;
  w1.entries.push_back({0, 100, buf.data(), 256});
  rig.fe().write_to_rank(w1);
  std::memset(buf.data() + 1024, 0xBB, 64);
  driver::TransferMatrix w2;
  w2.entries.push_back({0, 200, buf.data() + 1024, 64});
  rig.fe().write_to_rank(w2);
  EXPECT_EQ(rig.fe().stats().batched_writes, 2u);

  auto out = rig.vm.vmm().memory().alloc(356);
  driver::TransferMatrix r;
  r.direction = driver::XferDirection::kFromRank;
  r.entries.push_back({0, 100, out.data(), 356});
  rig.fe().read_from_rank(r);  // forces the flush
  EXPECT_EQ(out[0], 0xAA);
  EXPECT_EQ(out[99], 0xAA);    // offset 199: first write only
  EXPECT_EQ(out[100], 0xBB);   // offset 200: second write overrides
  EXPECT_EQ(out[163], 0xBB);   // offset 263
  EXPECT_EQ(out[164], 0xAA);   // offset 264: back to the first write
}

TEST(BroadcastDetection, SharesPagesCopyOnWrite) {
  Rig rig;
  const std::uint64_t bytes = 1 * kMiB;
  auto payload = rig.vm.vmm().memory().alloc(bytes);
  Rng rng(9);
  rng.fill_bytes(payload.data(), payload.size());

  // A write matrix whose entries all reference the same guest pages at
  // the same offset — the backend must detect the broadcast and share
  // pages across banks instead of copying per DPU.
  driver::TransferMatrix w;
  for (std::uint32_t d = 0; d < rig.rank().nr_dpus(); ++d) {
    w.entries.push_back({d, 0, payload.data(), bytes});
  }
  rig.fe().write_to_rank(w);

  std::size_t resident = 0;
  for (std::uint32_t d = 0; d < rig.rank().nr_dpus(); ++d) {
    resident += rig.rank().mram(d).resident_pages();
  }
  // 8 DPUs referencing one shared 256-page set: per-bank refs count as
  // resident, but the *pages* are shared, proven by copy-on-write below.
  EXPECT_EQ(resident, 8u * (bytes / upmem::kMramPageSize));
  std::vector<std::uint8_t> patch = {9, 9, 9};
  rig.rank().mram(0).write(0, patch);
  std::vector<std::uint8_t> probe(3);
  rig.rank().mram(1).read(0, probe);
  EXPECT_EQ(probe[0], payload[0]);  // bank 1 unaffected
}

TEST(BroadcastDetection, MismatchedEntriesFallBackToScatter) {
  Rig rig;
  const std::uint64_t bytes = 64 * kKiB;
  auto payload = rig.vm.vmm().memory().alloc(bytes);
  std::memset(payload.data(), 0x5C, bytes);
  driver::TransferMatrix w;
  for (std::uint32_t d = 0; d < rig.rank().nr_dpus(); ++d) {
    // Different offsets per DPU: not a broadcast.
    w.entries.push_back({d, d * 4096ULL, payload.data(), bytes});
  }
  rig.fe().write_to_rank(w);
  // Read through the frontend (flushes the batch), then inspect the banks.
  auto out = rig.vm.vmm().memory().alloc(8);
  driver::TransferMatrix r;
  r.direction = driver::XferDirection::kFromRank;
  r.entries.push_back({0, 0, out.data(), 8});
  rig.fe().read_from_rank(r);
  for (std::uint32_t d = 0; d < rig.rank().nr_dpus(); ++d) {
    std::vector<std::uint8_t> probe(8);
    rig.rank().mram(d).read(d * 4096ULL, probe);
    EXPECT_EQ(probe[0], 0x5C) << d;
  }
}

TEST(PackedSymbols, OneMessageMovesPerDpuValues) {
  test::register_count_zeros();
  Rig rig;
  rig.fe().ci_load("test_count_zeros");
  const std::uint32_t n = rig.rank().nr_dpus();
  auto packed = rig.vm.vmm().memory().alloc(std::uint64_t{n} * 4);
  for (std::uint32_t d = 0; d < n; ++d) {
    const std::uint32_t v = 1000 + d;
    std::memcpy(packed.data() + d * 4, &v, 4);
  }
  const std::uint64_t notifies_before = rig.fe().stats().notifies;
  rig.fe().ci_push_symbols(driver::XferDirection::kToRank,
                           "partition_size", 0, packed, 4);
  EXPECT_EQ(rig.fe().stats().notifies, notifies_before + 1);  // one message

  // Read back through the packed path too, into a fresh buffer.
  auto out = rig.vm.vmm().memory().alloc(std::uint64_t{n} * 4);
  rig.fe().ci_push_symbols(driver::XferDirection::kFromRank,
                           "partition_size", 0, out, 4);
  for (std::uint32_t d = 0; d < n; ++d) {
    std::uint32_t v = 0;
    std::memcpy(&v, out.data() + d * 4, 4);
    EXPECT_EQ(v, 1000 + d);
  }
}

TEST(Limits, OversizedTransferRejectedEndToEnd) {
  Rig rig;
  auto buf = rig.vm.vmm().memory().alloc(4096);
  driver::TransferMatrix w;
  static std::uint8_t dummy;
  (void)dummy;
  for (std::uint32_t d = 0; d < 8; ++d) {
    // 8 entries claiming ~600 MiB each: 4.7 GiB total, over the 4 GiB
    // per-operation hardware cap (§3.1). Validation fires before any
    // pointer is dereferenced.
    w.entries.push_back({d, 0, buf.data(), 600 * kMiB});
  }
  EXPECT_THROW(rig.fe().write_to_rank(w), VpimError);
}

TEST(Limits, SymbolNameTooLongRejected) {
  Rig rig;
  const std::string long_name(80, 'x');
  std::uint32_t v = 0;
  EXPECT_THROW(rig.fe().ci_copy_to_symbol(0, long_name, 0,
                                          test::bytes_u32(v)),
               VpimError);
}

TEST(Messages, BulkWriteIsExactlyOneMessage) {
  Rig rig;
  auto buf = rig.vm.vmm().memory().alloc(1 * kMiB);
  const std::uint64_t before = rig.fe().stats().notifies;
  driver::TransferMatrix w;
  w.entries.push_back({0, 0, buf.data(), buf.size()});
  rig.fe().write_to_rank(w);
  EXPECT_EQ(rig.fe().stats().notifies, before + 1);
}

TEST(Messages, MixedCacheHitAndMissIsOneFillMessage) {
  Rig rig;
  auto buf = rig.vm.vmm().memory().alloc(128 * kKiB);
  std::memset(buf.data(), 0x3D, buf.size());
  driver::TransferMatrix w;
  for (std::uint32_t d = 0; d < 4; ++d) {
    w.entries.push_back({d, 0, buf.data(), 128 * kKiB});
  }
  rig.fe().write_to_rank(w);

  // Read 512 B from four DPUs at once: four misses, ONE fill message.
  auto out = rig.vm.vmm().memory().alloc(4 * 512);
  driver::TransferMatrix r;
  r.direction = driver::XferDirection::kFromRank;
  for (std::uint32_t d = 0; d < 4; ++d) {
    r.entries.push_back({d, 0, out.data() + d * 512, 512});
  }
  const std::uint64_t before = rig.fe().stats().notifies;
  rig.fe().read_from_rank(r);
  EXPECT_EQ(rig.fe().stats().notifies, before + 1);
  EXPECT_EQ(rig.fe().stats().cache_fills, 1u);
  EXPECT_EQ(rig.fe().stats().cache_misses, 4u);
}

TEST(Trace, RecordsEveryDeviceOperation) {
  Rig rig;
  obs::Tracer tracer;
  rig.host.attach_tracer(&tracer);

  auto buf = rig.vm.vmm().memory().alloc(128 * kKiB);
  driver::TransferMatrix w;
  w.entries.push_back({0, 0, buf.data(), buf.size()});
  rig.fe().write_to_rank(w);  // bulk -> "write"
  driver::TransferMatrix small;
  small.entries.push_back({0, 0, buf.data(), 256});
  rig.fe().write_to_rank(small);  // -> "write.batched"
  auto out = rig.vm.vmm().memory().alloc(256);
  driver::TransferMatrix r;
  r.direction = driver::XferDirection::kFromRank;
  r.entries.push_back({0, 0, out.data(), 256});
  rig.fe().read_from_rank(r);  // flush + fill + cached read

  std::map<obs::SpanKind, int> kinds;
  for (const auto& s : tracer.spans()) kinds[s.kind]++;
  EXPECT_EQ(kinds[obs::SpanKind::kWrite], 1);
  EXPECT_EQ(kinds[obs::SpanKind::kWriteBatched], 1);
  EXPECT_EQ(kinds[obs::SpanKind::kWriteFlush], 1);
  EXPECT_EQ(kinds[obs::SpanKind::kReadFill], 1);
  EXPECT_EQ(kinds[obs::SpanKind::kReadCached], 1);
  EXPECT_GT(tracer.total_for(obs::SpanKind::kWrite), 0u);

  // Every span ends no later than the current clock, the parent stack is
  // fully drained, and the CSV renders one row per span plus the header.
  EXPECT_FALSE(tracer.has_open());
  for (const auto& s : tracer.spans()) {
    EXPECT_LE(s.start + s.duration, rig.host.clock.now());
  }
  std::ostringstream csv;
  tracer.dump_csv(csv);
  const std::string text = csv.str();
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(text.begin(), text.end(), '\n')),
            tracer.spans().size() + 1);

  rig.host.attach_tracer(nullptr);  // detach: no further spans
  const std::size_t before = tracer.spans().size();
  rig.fe().write_to_rank(small);
  EXPECT_EQ(tracer.spans().size(), before);
}

// Calls `op`, which the device must refuse with BAD_REQUEST.
template <typename Op>
void expect_bad_request(Op op) {
  try {
    op();
    ADD_FAILURE() << "the device accepted a request it must refuse";
  } catch (const VpimStatusError& e) {
    EXPECT_EQ(e.status(),
              static_cast<std::int32_t>(virtio::PimStatus::kBadRequest));
  }
}

TEST(Trace, CategoryTotalsMatchDeviceStatsExactly) {
  // Every device-file op is accounted once, when it ends, however it ends:
  // per Fig 12 class, the root spans, DeviceStats::ops and the vpim_op_ns
  // histogram agree in time and count, rejected ops included. "read" must
  // not absorb "read.fill" (a nested internal span), and control and CQ
  // ops open root spans but are no Fig 12 op.
  test::register_count_zeros();
  test::register_busy_kernel();
  Rig rig;
  obs::Tracer tracer;
  rig.host.attach_tracer(&tracer);
  Frontend& fe = rig.fe();
  const DeviceStats& stats = fe.stats();
  guest::GuestMemory& mem = rig.vm.vmm().memory();
  constexpr auto kTo = driver::XferDirection::kToRank;
  constexpr auto kFrom = driver::XferDirection::kFromRank;

  // Control ops.
  ASSERT_TRUE(fe.migrate());
  fe.suspend();
  rig.host.manager.observe();
  ASSERT_TRUE(fe.resume());
  fe.close();
  rig.host.manager.observe();
  ASSERT_TRUE(fe.open());
  EXPECT_EQ(tracer.count_for(obs::Category::kControl), 5u);
  EXPECT_EQ(stats.ops.op_count, (std::array<std::uint64_t, 3>{}));
  EXPECT_EQ(stats.ops.op_time, (std::array<SimNs, 3>{}));

  // W-rank and R-rank: bulk, batched, cached (a fill, then a hit),
  // uncached, and one async submit each, reaped by a CQ drain.
  auto buf = mem.alloc(128 * kKiB);
  fe.write_to_rank({kTo, {{0, 0, buf.data(), buf.size()}}});
  fe.write_to_rank({kTo, {{0, 0, buf.data(), 256}}});
  fe.read_from_rank({kFrom, {{0, 0, buf.data(), 256}}});
  fe.read_from_rank({kFrom, {{0, 0, buf.data(), 256}}});
  fe.read_from_rank({kFrom, {{1, 0, buf.data(), buf.size()}}});
  fe.submit_write({kTo, {{2, 0, buf.data(), 4096}}});
  fe.submit_read({kFrom, {{2, 0, buf.data(), 4096}}});
  EXPECT_EQ(fe.poll_completions().size(), 2u);

  // Every CI op.
  fe.ci_load("test_count_zeros");
  std::uint32_t value = 4096;
  fe.ci_copy_to_symbol(0, "partition_size", 0, test::bytes_u32(value));
  const std::span<std::uint8_t> packed =
      mem.alloc(std::uint64_t{fe.nr_dpus()} * 4);
  fe.ci_push_symbols(kTo, "partition_size", 0, packed, 4);
  fe.ci_launch(0x1, std::nullopt);
  while (fe.ci_running_mask() != 0) rig.host.clock.advance(20 * kUs);
  fe.ci_push_symbols(kFrom, "zero_count", 0, packed, 4);
  fe.ci_copy_from_symbol(0, "zero_count", 0, test::bytes_u32(value));

  // Rejected ops: two CI ops, then a write and a read to a running DPU.
  expect_bad_request([&] {
    fe.ci_copy_from_symbol(0, "no_such_symbol", 0, test::bytes_u32(value));
  });
  expect_bad_request([&] { fe.ci_load("no_such_kernel"); });
  fe.ci_load("test_busy");
  fe.ci_launch(0x1, std::nullopt);
  expect_bad_request(
      [&] { fe.write_to_rank({kTo, {{0, 0, buf.data(), buf.size()}}}); });
  expect_bad_request(
      [&] { fe.read_from_rank({kFrom, {{0, 0, buf.data(), buf.size()}}}); });
  while (fe.ci_running_mask() != 0) rig.host.clock.advance(1 * kMs);
  EXPECT_EQ(stats.request_errors, 4u);

  EXPECT_EQ(stats.ops.count(RankOp::kWriteToRank), 4u);
  EXPECT_EQ(stats.ops.count(RankOp::kReadFromRank), 5u);
  struct Class {
    obs::Category cat;
    RankOp op;
  };
  for (const Class c : {Class{obs::Category::kCi, RankOp::kCi},
                        Class{obs::Category::kRead, RankOp::kReadFromRank},
                        Class{obs::Category::kWrite, RankOp::kWriteToRank}}) {
    const std::string name(kRankOpNames[static_cast<std::size_t>(c.op)]);
    const obs::Histogram& hist = rig.host.obs.metrics.histogram(
        "vpim_op_ns", {{"device", "internals/vupmem0"}, {"op", name}});
    EXPECT_GT(stats.ops.count(c.op), 0u) << name;
    EXPECT_EQ(tracer.total_for(c.cat), stats.ops.time(c.op)) << name;
    EXPECT_EQ(tracer.count_for(c.cat), stats.ops.count(c.op)) << name;
    EXPECT_EQ(hist.sum(), stats.ops.time(c.op)) << name;
    EXPECT_EQ(hist.count(), stats.ops.count(c.op)) << name;
  }
  std::size_t cq_roots = 0;
  for (const obs::Span& s : tracer.spans()) {
    cq_roots += s.parent == 0 && s.kind == obs::SpanKind::kCqDrain;
  }
  EXPECT_EQ(cq_roots, 1u);

  // The fill really recorded — and really is excluded from the read total
  // (under the old prefix match it aliased into "read").
  const SimNs fill = tracer.total_for(obs::SpanKind::kReadFill);
  EXPECT_GT(fill, 0u);
  EXPECT_GT(tracer.total_for(obs::SpanKind::kRead) +
                tracer.total_for(obs::SpanKind::kReadCached) + fill,
            tracer.total_for(obs::Category::kRead));
}

TEST(Trace, WriteStepsAreTheTimeOfTheirSpans) {
  // In a write-only session every Fig 13 step but Int (which has no span)
  // is exactly the time its spans cover, rejected writes included. T-data
  // is one span whose kind the request's shape refines to a batch apply
  // or a broadcast.
  test::register_busy_kernel();
  Rig rig;
  obs::Tracer tracer;
  rig.host.attach_tracer(&tracer);
  Frontend& fe = rig.fe();
  constexpr auto kTo = driver::XferDirection::kToRank;
  auto buf = rig.vm.vmm().memory().alloc(128 * kKiB);

  fe.write_to_rank({kTo, {{0, 0, buf.data(), buf.size()}}});
  driver::TransferMatrix bcast{kTo, {}};
  for (std::uint32_t d = 0; d < fe.nr_dpus(); ++d) {
    bcast.entries.push_back({d, 1 * kMiB, buf.data(), buf.size()});
  }
  fe.write_to_rank(bcast);
  for (std::uint32_t d = 0; d < 4; ++d) {
    fe.write_to_rank({kTo, {{d, 4096, buf.data(), 512}}});
  }
  fe.submit_write({kTo, {{1, 0, buf.data(), 4096}}});  // flushes the batch
  EXPECT_EQ(fe.poll_completions().size(), 1u);
  fe.ci_load("test_busy");
  fe.ci_launch(0x1, std::nullopt);
  expect_bad_request(
      [&] { fe.write_to_rank({kTo, {{0, 0, buf.data(), buf.size()}}}); });
  while (fe.ci_running_mask() != 0) rig.host.clock.advance(1 * kMs);

  const StepBreakdown& steps = fe.stats().wsteps;
  EXPECT_GT(tracer.total_for(obs::SpanKind::kBatchApply), 0u);
  EXPECT_GT(tracer.total_for(obs::SpanKind::kBroadcast), 0u);
  EXPECT_EQ(steps.time(WrankStep::kPageMgmt),
            tracer.total_for(obs::SpanKind::kPageMgmt));
  EXPECT_EQ(steps.time(WrankStep::kSerialize),
            tracer.total_for(obs::SpanKind::kSerialize));
  EXPECT_EQ(steps.time(WrankStep::kDeserialize),
            tracer.total_for(obs::SpanKind::kDeserialize));
  EXPECT_EQ(steps.time(WrankStep::kTransferData),
            tracer.total_for(obs::SpanKind::kTransferData) +
                tracer.total_for(obs::SpanKind::kBatchApply) +
                tracer.total_for(obs::SpanKind::kBroadcast));
}

TEST(Trace, CancelChargesItsSyscallInsideOneControlRootSpan) {
  // cancel() is a device-file op like the other entry points: the ioctl it
  // charges is exactly one control-class root span, won or lost, and as
  // no Fig 12 op it leaves DeviceStats::ops untouched.
  VpimConfig config = VpimConfig::full();
  config.queue_depth = 4;  // the submit stays staged, so cancel can win
  Rig rig(config);
  obs::Tracer tracer;
  rig.host.attach_tracer(&tracer);
  Frontend& fe = rig.fe();
  auto buf = rig.vm.vmm().memory().alloc(4096);
  const Frontend::Ticket ticket = fe.submit_write(
      {driver::XferDirection::kToRank, {{0, 0, buf.data(), buf.size()}}});
  const OpBreakdown ops_before = fe.stats().ops;

  for (const bool wins : {true, false}) {
    const std::size_t spans_before = tracer.spans().size();
    const SimNs start = rig.host.clock.now();
    EXPECT_EQ(fe.cancel(ticket), wins);
    const SimNs advance = rig.host.clock.now() - start;
    EXPECT_EQ(advance, rig.host.cost.ioctl_ns);
    ASSERT_EQ(tracer.spans().size(), spans_before + 1) << "wins=" << wins;
    const obs::Span& root = tracer.spans().back();
    EXPECT_EQ(root.parent, 0u);
    EXPECT_EQ(root.kind, obs::SpanKind::kControl);
    EXPECT_EQ(root.start, start);
    EXPECT_EQ(root.duration, advance);
  }
  EXPECT_EQ(fe.stats().ops.op_count, ops_before.op_count);
  EXPECT_EQ(fe.stats().ops.op_time, ops_before.op_time);
  EXPECT_EQ(fe.stats().cancelled, 0u);  // counted when the backend sheds it
  EXPECT_EQ(fe.poll_completions().size(), 1u);
  EXPECT_EQ(fe.stats().cancelled, 1u);
}

TEST(Trace, RootSpansKeepTheirTenantAcrossATracerClear) {
  // Two VMs share one tracer. Clearing it empties the tenant table, so a
  // tag must be interned again at the next op rather than reused by index.
  Host host(test::small_machine(), CostModel{}, fast_manager());
  VpimVm a(host, {.name = "vmA"}, 1);
  VpimVm b(host, {.name = "vmB"}, 1);
  obs::Tracer tracer;
  host.attach_tracer(&tracer);
  ASSERT_TRUE(a.device(0).frontend.open());
  tracer.clear();
  ASSERT_TRUE(b.device(0).frontend.open());
  a.device(0).frontend.ci_running_mask();

  std::vector<std::string> roots;
  for (const obs::Span& s : tracer.spans()) {
    if (s.parent != 0) continue;
    ASSERT_LT(s.tenant, tracer.tenants().size());
    roots.push_back(tracer.tenants()[s.tenant]);
  }
  EXPECT_EQ(roots,
            (std::vector<std::string>{"vmB/vupmem0", "vmA/vupmem0"}));
}

TEST(Config, Table2PresetsMatchTheirColumns) {
  EXPECT_FALSE(VpimConfig::rust().c_enhancement);
  EXPECT_TRUE(VpimConfig::c_only().c_enhancement);
  EXPECT_FALSE(VpimConfig::c_only().prefetch_cache);
  EXPECT_TRUE(VpimConfig::with_prefetch().prefetch_cache);
  EXPECT_FALSE(VpimConfig::with_prefetch().request_batching);
  EXPECT_TRUE(VpimConfig::with_batching().request_batching);
  EXPECT_FALSE(VpimConfig::with_batching().prefetch_cache);
  EXPECT_TRUE(VpimConfig::with_prefetch_batching().prefetch_cache);
  EXPECT_TRUE(VpimConfig::with_prefetch_batching().request_batching);
  EXPECT_FALSE(VpimConfig::sequential().parallel_handling);
  EXPECT_TRUE(VpimConfig::full().parallel_handling);
  EXPECT_TRUE(VpimConfig::vhost().vhost_transitions);
  EXPECT_FALSE(VpimConfig::full().vhost_transitions);
}

}  // namespace
}  // namespace vpim::core
