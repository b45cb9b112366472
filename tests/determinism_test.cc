// Host-parallelism determinism suite: the hard requirement of the
// thread-pooled execution engine is that VPIM_THREADS must be invisible to
// everything except wall-clock time. These tests run real workloads through
// the full vPIM path (guest SDK -> frontend -> virtio -> backend -> rank)
// at pool sizes 1 / 4 / hardware_concurrency and require byte-identical
// results, identical virtual-time breakdowns, and identical trace logs.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/obs/trace.h"
#include "common/thread_pool.h"
#include "prim/app.h"
#include "prim/micro.h"
#include "tests/test_kernels.h"
#include "tests/testutil.h"
#include "vpim/guest_platform.h"
#include "vpim/host.h"
#include "vpim/vpim_vm.h"

namespace vpim {
namespace {

core::ManagerConfig fast_manager() {
  core::ManagerConfig cfg;
  cfg.retry_wait_ns = 1 * kMs;
  cfg.max_attempts = 2;
  return cfg;
}

std::vector<unsigned> thread_sweep() {
  std::vector<unsigned> sweep = {1, 4};
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  if (hw != 1 && hw != 4) sweep.push_back(hw);
  return sweep;
}

// Everything observable about a run except wall-clock time.
struct Capture {
  bool correct = false;
  std::array<SimNs, 4> segments{};        // TimeBreakdown
  std::array<SimNs, 3> op_time{};         // DeviceStats.ops
  std::array<std::uint64_t, 3> op_count{};
  std::array<SimNs, 5> step_time{};       // DeviceStats.wsteps
  SimNs clock_end = 0;
  std::string trace_csv;      // full span stream, in completion order
  std::string span_digest;    // one-line-per-span digest (ids, causality)
  std::string metrics_text;   // full Prometheus snapshot
};

void expect_identical(const Capture& base, const Capture& got,
                      unsigned threads) {
  EXPECT_EQ(base.correct, got.correct) << "threads=" << threads;
  EXPECT_EQ(base.segments, got.segments) << "threads=" << threads;
  EXPECT_EQ(base.op_time, got.op_time) << "threads=" << threads;
  EXPECT_EQ(base.op_count, got.op_count) << "threads=" << threads;
  EXPECT_EQ(base.step_time, got.step_time) << "threads=" << threads;
  EXPECT_EQ(base.clock_end, got.clock_end) << "threads=" << threads;
  EXPECT_EQ(base.trace_csv, got.trace_csv) << "threads=" << threads;
  EXPECT_EQ(base.span_digest, got.span_digest) << "threads=" << threads;
  EXPECT_EQ(base.metrics_text, got.metrics_text) << "threads=" << threads;
}

class DeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override { original_ = ThreadPool::instance().size(); }
  void TearDown() override { ThreadPool::instance().resize(original_); }
  unsigned original_ = 1;
};

Capture run_prim_app(const std::string& app, unsigned threads) {
  ThreadPool::instance().resize(threads);
  core::Host host(test::small_machine(), CostModel{}, fast_manager());
  core::VpimVm vm(host, {.name = "det-vm"}, 1);
  core::GuestPlatform platform(vm);
  obs::Tracer tracer;
  host.attach_tracer(&tracer);

  prim::AppParams prm;
  prm.nr_dpus = 8;
  prm.scale = 0.02;
  const prim::AppResult res = prim::make_app(app)->run(platform, prm);

  Capture cap;
  cap.correct = res.correct;
  cap.segments = res.breakdown.segment;
  const core::DeviceStats& stats = vm.device(0).stats;
  cap.op_time = stats.ops.op_time;
  cap.op_count = stats.ops.op_count;
  cap.step_time = stats.wsteps.step_time;
  cap.clock_end = host.clock.now();
  std::ostringstream csv;
  tracer.dump_csv(csv);
  cap.trace_csv = csv.str();
  cap.span_digest = tracer.digest();
  cap.metrics_text = host.obs.metrics.prometheus_text();
  return cap;
}

Capture run_checksum_app(unsigned threads) {
  ThreadPool::instance().resize(threads);
  core::Host host(test::small_machine(), CostModel{}, fast_manager());
  core::VpimVm vm(host, {.name = "det-cs"}, 1);
  core::GuestPlatform platform(vm);
  obs::Tracer tracer;
  host.attach_tracer(&tracer);

  prim::ChecksumParams prm;
  prm.nr_dpus = 8;
  prm.file_bytes = 512 * kKiB;
  const prim::ChecksumResult res = prim::run_checksum(platform, prm);

  Capture cap;
  cap.correct = res.correct;
  cap.segments = {res.total, 0, 0, 0};
  const core::DeviceStats& stats = vm.device(0).stats;
  cap.op_time = stats.ops.op_time;
  cap.op_count = stats.ops.op_count;
  cap.step_time = stats.wsteps.step_time;
  cap.clock_end = host.clock.now();
  std::ostringstream csv;
  tracer.dump_csv(csv);
  cap.trace_csv = csv.str();
  cap.span_digest = tracer.digest();
  cap.metrics_text = host.obs.metrics.prometheus_text();
  return cap;
}

TEST_F(DeterminismTest, ChecksumIsThreadCountInvariant) {
  const Capture base = run_checksum_app(1);
  EXPECT_TRUE(base.correct);
  EXPECT_GT(base.trace_csv.size(), 0u);
  EXPECT_GT(base.span_digest.size(), 0u);
  EXPECT_GT(base.metrics_text.size(), 0u);
  for (unsigned t : thread_sweep()) {
    if (t == 1) continue;
    expect_identical(base, run_checksum_app(t), t);
  }
}

class PrimDeterminism : public DeterminismTest,
                        public ::testing::WithParamInterface<std::string> {};

TEST_P(PrimDeterminism, FullVpimPathIsThreadCountInvariant) {
  const Capture base = run_prim_app(GetParam(), 1);
  EXPECT_TRUE(base.correct);
  for (unsigned t : thread_sweep()) {
    if (t == 1) continue;
    expect_identical(base, run_prim_app(GetParam(), t), t);
  }
}

// NW is the transfer-bound app (boundary exchanges stress the parallel
// data path); RED reduces across DPUs (stresses the launch fan-out).
INSTANTIATE_TEST_SUITE_P(Apps, PrimDeterminism,
                         ::testing::Values("NW", "RED"));

// ---- async SQ/CQ pipeline (ISSUE 7) -------------------------------------

// A write pass and a read pass of small matrices through the frontend's
// async API: the whole pipeline — staging, doorbell coalescing, batched
// backend drain, completion reaping — must be bit-identical at any
// VPIM_THREADS for every queue depth.
Capture run_async_pipeline(unsigned threads, std::uint32_t depth) {
  ThreadPool::instance().resize(threads);
  core::Host host(test::small_machine(), CostModel{}, fast_manager());
  core::VpimConfig config = core::VpimConfig::full();
  config.queue_depth = depth;
  core::VpimVm vm(host, {.name = "det-sqcq"}, 1, config);
  obs::Tracer tracer;
  host.attach_tracer(&tracer);

  core::Frontend& fe = vm.device(0).frontend;
  Capture cap;
  cap.correct = fe.open();
  if (cap.correct) {
    constexpr std::uint32_t kRequests = 48;
    constexpr std::uint32_t kEntries = 2;
    constexpr std::uint64_t kBytes = 256;
    const std::uint32_t nr_dpus = fe.nr_dpus();
    std::vector<std::span<std::uint8_t>> wbufs(kRequests);
    std::vector<std::span<std::uint8_t>> rbufs(kRequests);
    auto matrix_for = [&](std::uint32_t r, std::span<std::uint8_t> buf,
                          driver::XferDirection dir) {
      driver::TransferMatrix m;
      m.direction = dir;
      for (std::uint32_t e = 0; e < kEntries; ++e) {
        const std::uint32_t linear = r * kEntries + e;
        m.entries.push_back({linear % nr_dpus,
                             (linear / nr_dpus) * kBytes,
                             buf.data() + std::uint64_t{e} * kBytes,
                             kBytes});
      }
      return m;
    };
    for (std::uint32_t r = 0; r < kRequests; ++r) {
      wbufs[r] = vm.vmm().memory().alloc(kEntries * kBytes);
      rbufs[r] = vm.vmm().memory().alloc(kEntries * kBytes);
      for (std::uint64_t i = 0; i < kEntries * kBytes; ++i) {
        wbufs[r][i] = static_cast<std::uint8_t>(r * 37 + i * 11);
      }
      fe.submit_write(matrix_for(r, wbufs[r],
                                 driver::XferDirection::kToRank));
    }
    std::size_t reaped = 0;
    while (reaped < kRequests) {
      const auto batch = fe.poll_completions();
      if (batch.empty()) break;
      reaped += batch.size();
    }
    cap.correct = reaped == kRequests;
    for (std::uint32_t r = 0; r < kRequests; ++r) {
      fe.submit_read(matrix_for(r, rbufs[r],
                                driver::XferDirection::kFromRank));
    }
    reaped = 0;
    while (reaped < kRequests) {
      const auto batch = fe.poll_completions();
      if (batch.empty()) break;
      for (const core::Frontend::Completion& c : batch) {
        cap.correct = cap.correct && c.status == 0;
      }
      reaped += batch.size();
    }
    cap.correct = cap.correct && reaped == kRequests;
    for (std::uint32_t r = 0; cap.correct && r < kRequests; ++r) {
      cap.correct = std::equal(rbufs[r].begin(), rbufs[r].end(),
                               wbufs[r].begin());
    }
    fe.close();
  }

  const core::DeviceStats& stats = vm.device(0).stats;
  cap.op_time = stats.ops.op_time;
  cap.op_count = stats.ops.op_count;
  cap.step_time = stats.wsteps.step_time;
  cap.clock_end = host.clock.now();
  std::ostringstream csv;
  tracer.dump_csv(csv);
  cap.trace_csv = csv.str();
  cap.span_digest = tracer.digest();
  cap.metrics_text = host.obs.metrics.prometheus_text();
  return cap;
}

class PipelineDeterminism : public DeterminismTest,
                            public ::testing::WithParamInterface<int> {};

TEST_P(PipelineDeterminism, AsyncPipelineIsThreadCountInvariant) {
  const auto depth = static_cast<std::uint32_t>(GetParam());
  const Capture base = run_async_pipeline(1, depth);
  EXPECT_TRUE(base.correct);
  EXPECT_GT(base.span_digest.size(), 0u);
  for (unsigned t : thread_sweep()) {
    if (t == 1) continue;
    expect_identical(base, run_async_pipeline(t, depth), t);
  }
}

INSTANTIATE_TEST_SUITE_P(Depths, PipelineDeterminism,
                         ::testing::Values(1, 2, 8));

// ---- golden device path -------------------------------------------------

// FNV-1a, so a whole span stream or metrics snapshot pins to one constant.
std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string stats_text(const core::DeviceStats& s) {
  std::ostringstream out;
  for (std::size_t i = 0; i < s.ops.op_time.size(); ++i) {
    out << s.ops.op_time[i] << '/' << s.ops.op_count[i] << ' ';
  }
  for (const SimNs t : s.wsteps.step_time) out << t << ' ';
  const std::uint64_t counters[] = {
      s.notifies,
      s.cache_hits,
      s.cache_misses,
      s.cache_fills,
      s.batched_writes,
      s.batch_flushes,
      s.emulated_binds,
      s.request_errors,
      s.doorbells,
      s.coalesced_notifies,
      s.fault_retries,
      s.fault_migrations,
      s.fault_failures,
      s.dropped_completions,
      s.poll_timeouts,
      s.admission_rejects,
      s.would_blocks,
      s.cancelled,
      s.deadline_shed,
      s.lost_batched_writes,
  };
  for (const std::uint64_t v : counters) out << v << ' ';
  out << '\n';
  return out.str();
}

struct GoldenCapture {
  bool correct = true;
  std::uint64_t span_digest = 0;
  std::uint64_t metrics = 0;
  std::uint64_t stats = 0;
  SimNs clock_end = 0;
};

// One scripted session over every hop of the guest-to-bank request path:
// bind, batched and bulk writes, broadcasts, cached and uncached reads,
// every CI op, async submits with a cancel, migrate, suspend/resume,
// release, and an oversubscribed device on an emulated rank.
GoldenCapture run_device_session(unsigned threads) {
  ThreadPool::instance().resize(threads);
  test::register_count_zeros();
  core::Host host(test::small_machine(), CostModel{}, fast_manager());
  core::VpimConfig config = core::VpimConfig::full();
  config.queue_depth = 8;
  config.oversubscribe = true;
  core::VpimVm vm(host, {.name = "golden"}, 1, config);
  obs::Tracer tracer;
  host.attach_tracer(&tracer);
  GoldenCapture cap;
  auto check = [&cap](bool ok) { cap.correct = cap.correct && ok; };
  guest::GuestMemory& mem = vm.vmm().memory();
  auto pattern = [](std::span<std::uint8_t> buf, std::uint32_t seed) {
    for (std::size_t i = 0; i < buf.size(); ++i) {
      buf[i] = static_cast<std::uint8_t>(seed * 131 + i * 7 + (i >> 12));
    }
  };
  auto read_back = [&](core::Frontend& fe, std::uint32_t dpu, std::uint64_t off,
                       std::span<const std::uint8_t> want) {
    auto out = vm.vmm().memory().alloc(want.size());
    driver::TransferMatrix r;
    r.direction = driver::XferDirection::kFromRank;
    r.entries.push_back({dpu, off, out.data(), out.size()});
    fe.read_from_rank(r);
    return std::equal(out.begin(), out.end(), want.begin());
  };
  auto broadcast = [](core::Frontend& fe, std::uint32_t nr_dpus,
                      std::uint64_t off, std::span<std::uint8_t> buf) {
    driver::TransferMatrix w;
    for (std::uint32_t d = 0; d < nr_dpus; ++d) {
      w.entries.push_back({d, off, buf.data(), buf.size()});
    }
    fe.write_to_rank(w);
  };
  core::Frontend& fe = vm.device(0).frontend;
  check(fe.open());
  const std::uint32_t n = fe.nr_dpus();
  // Small writes land in the batch buffers; the bulk one goes straight
  // through the transferq.
  auto small = mem.alloc(8 * 512);
  pattern(small, 1);
  for (std::uint32_t i = 0; i < 8; ++i) {
    driver::TransferMatrix w;
    const std::uint64_t off = 4096 + 512 * (i / n);
    w.entries.push_back({i % n, off, small.data() + i * 512, 512});
    fe.write_to_rank(w);
  }
  constexpr std::uint64_t kBulk = 96 * kKiB;
  auto bulk = mem.alloc(4 * kBulk);
  pattern(bulk, 2);
  {
    driver::TransferMatrix w;
    for (std::uint32_t d = 0; d < 4; ++d) {
      w.entries.push_back({d, 64 * kKiB, bulk.data() + d * kBulk, kBulk});
    }
    fe.write_to_rank(w);
  }
  // Aligned broadcast (shared pages plus a tail) and an unaligned one.
  auto bcast = mem.alloc(2 * 4096 * 16 + 100);
  pattern(bcast, 3);
  broadcast(fe, n, 1 * kMiB, bcast);
  broadcast(fe, n, 2 * kMiB + 8, bcast.first(70 * kKiB));
  // Cached reads (a fill, then a hit) and an uncached bulk read.
  check(read_back(fe, 1, 4096, small.subspan(512, 256)));
  check(read_back(fe, 1, 4096 + 256, small.subspan(768, 256)));
  check(read_back(fe, 2, 64 * kKiB, bulk.subspan(2 * kBulk, kBulk)));
  check(read_back(fe, 5, 1 * kMiB, bcast));
  // Every CI op: load, single and packed symbol writes, launch, status
  // polls, packed and single symbol reads.
  fe.ci_load("test_count_zeros");
  std::uint32_t ps = 4096;
  fe.ci_copy_to_symbol(0, "partition_size", 0, test::bytes_u32(ps));
  auto packed = mem.alloc(std::uint64_t{n} * 4);
  for (std::uint32_t d = 0; d < n; ++d) {
    const std::uint32_t bytes = 1024 * (d + 1);
    std::memcpy(packed.data() + std::uint64_t{d} * 4, &bytes, 4);
  }
  fe.ci_push_symbols(driver::XferDirection::kToRank, "partition_size", 0,
                     packed.first(std::uint64_t{n} * 4), 4);
  fe.ci_launch((std::uint64_t{1} << n) - 1, 11);
  while (fe.ci_running_mask() != 0) host.clock.advance(20 * kUs);
  fe.ci_push_symbols(driver::XferDirection::kFromRank, "zero_count", 0,
                     packed.first(std::uint64_t{n} * 4), 4);
  std::uint32_t zeros = 0;
  fe.ci_copy_from_symbol(1, "zero_count", 0, test::bytes_u32(zeros));
  std::uint32_t packed_zeros = 0;
  std::memcpy(&packed_zeros, packed.data() + 4, 4);
  check(zeros == packed_zeros);

  // Async submits at depth 8; the third is cancelled before the doorbell.
  auto abuf = mem.alloc(9 * 256);
  pattern(abuf, 4);
  std::vector<core::Frontend::Ticket> tickets;
  for (std::uint32_t i = 0; i < 9; ++i) {
    driver::TransferMatrix m;
    m.direction = i < 6 ? driver::XferDirection::kToRank
                        : driver::XferDirection::kFromRank;
    const std::uint64_t off = 8 * kMiB + 256 * i;
    m.entries.push_back({i % n, off, abuf.data() + 256 * i, 256});
    tickets.push_back(i < 6 ? fe.submit_write(m) : fe.submit_read(m));
    if (i == 3) check(fe.cancel(tickets[2]));
  }
  constexpr auto kCancelled =
      static_cast<std::int32_t>(virtio::PimStatus::kCancelled);
  std::size_t reaped = 0;
  std::size_t cancelled = 0;
  for (int round = 0; round < 4 && reaped < tickets.size(); ++round) {
    for (const core::Frontend::Completion& c : fe.poll_completions()) {
      ++reaped;
      if (c.status == kCancelled) ++cancelled;
    }
  }
  check(reaped == tickets.size() && cancelled == 1);

  check(fe.migrate());
  check(read_back(fe, 3, 64 * kKiB, bulk.subspan(3 * kBulk, kBulk)));
  fe.suspend();
  host.manager.observe();
  host.manager.observe();
  check(fe.resume());
  check(read_back(fe, 0, 4096, small.first(512)));
  fe.close();
  host.manager.observe();
  host.manager.observe();

  // Oversubscription: two devices take both ranks, the third binds to an
  // emulated rank and runs the same transfer, broadcast and CI traffic.
  core::VpimVm hog(host, {.name = "golden-hog"}, 2, config);
  check(hog.device(0).frontend.open() && hog.device(1).frontend.open());
  core::VpimVm over(host, {.name = "golden-emu"}, 1, config);
  core::Frontend& efe = over.device(0).frontend;
  check(efe.open() && over.device(0).backend.emulated());
  guest::GuestMemory& emem = over.vmm().memory();
  auto ebulk = emem.alloc(2 * 80 * kKiB);
  pattern(ebulk, 5);
  {
    driver::TransferMatrix w;
    w.entries.push_back({1, 0, ebulk.data(), 80 * kKiB});
    w.entries.push_back({1, 80 * kKiB, ebulk.data() + 80 * kKiB, 80 * kKiB});
    w.entries.push_back({6, 4096, ebulk.data(), 80 * kKiB});
    efe.write_to_rank(w);
  }
  auto ebcast = emem.alloc(3 * 4096 * 8 + 40);
  pattern(ebcast, 6);
  broadcast(efe, efe.nr_dpus(), 4 * kMiB, ebcast);
  broadcast(efe, efe.nr_dpus(), 5 * kMiB + 4, ebcast.first(68 * kKiB));
  auto eout = emem.alloc(ebcast.size());
  {
    driver::TransferMatrix r;
    r.direction = driver::XferDirection::kFromRank;
    r.entries.push_back({7, 4 * kMiB, eout.data(), eout.size()});
    efe.read_from_rank(r);
  }
  check(std::equal(eout.begin(), eout.end(), ebcast.begin()));
  auto eout2 = emem.alloc(80 * kKiB);
  {
    driver::TransferMatrix r;
    r.direction = driver::XferDirection::kFromRank;
    r.entries.push_back({1, 80 * kKiB, eout2.data(), eout2.size()});
    efe.read_from_rank(r);
  }
  check(std::equal(eout2.begin(), eout2.end(), ebulk.begin() + 80 * kKiB));
  efe.ci_load("test_count_zeros");
  efe.ci_launch(0xFF, std::nullopt);
  while (efe.ci_running_mask() != 0) host.clock.advance(20 * kUs);
  efe.close();
  hog.device(0).frontend.close();
  hog.device(1).frontend.close();

  std::string stats;
  for (core::VpimVm* v : {&vm, &hog, &over}) {
    for (std::uint32_t d = 0; d < v->nr_devices(); ++d) {
      stats += stats_text(v->device(d).stats);
    }
  }
  cap.span_digest = fnv1a(tracer.digest());
  cap.metrics = fnv1a(host.obs.metrics.prometheus_text());
  cap.stats = fnv1a(stats);
  cap.clock_end = host.clock.now();
  return cap;
}

// Pins the whole device path to absolute values: a change to any hop that
// moves a span, metric, counter or virtual-time charge fails here, at
// every pool size. The constants change only with a deliberate model
// change.
TEST_F(DeterminismTest, GoldenDevicePathCapture) {
  for (unsigned t : thread_sweep()) {
    const GoldenCapture got = run_device_session(t);
    EXPECT_TRUE(got.correct) << "threads=" << t;
    EXPECT_EQ(got.span_digest, 0xe4a4d8607f78883dULL) << "threads=" << t;
    EXPECT_EQ(got.metrics, 0x9218c4e31cfaf2d0ULL) << "threads=" << t;
    EXPECT_EQ(got.stats, 0xf631b6c3fa8dc3ceULL) << "threads=" << t;
    EXPECT_EQ(got.clock_end, SimNs{2751031760}) << "threads=" << t;
  }
}

}  // namespace
}  // namespace vpim
