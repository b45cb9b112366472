// Pipeline depth sweep (ISSUE 7): the async SQ/CQ path amortizes doorbell
// VMEXITs and completion IRQs over a whole submission batch, and the
// backend replays a batch's host<->MRAM copies in one thread fan-out.
//
// Two lanes, each swept over queue depth 1 -> 32:
//   - checksum-style raw transfers driven through the frontend's async API
//     (submit_write/submit_read/poll_completions) with distinct per-request
//     guest buffers — the pipelining best case;
//   - NW through the unmodified blocking SDK, where only posted batch
//     flushes ride along with the next operation's doorbell.
//
// Emits BENCH_pipeline.json with a vmexits_per_op column next to the
// standard simulated_ns/wall_ms pair, and fails (exit 1) if modeled
// vmexits/op on the async lane is not strictly decreasing with depth.
#include <benchmark/benchmark.h>

#include <array>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace vpim::bench {
namespace {

constexpr std::array<std::uint32_t, 6> kDepths = {1, 2, 4, 8, 16, 32};

struct Row {
  std::string name;
  SimNs simulated_ns = 0;
  double wall_ms = 0.0;
  double vmexits_per_op = 0.0;
  bool checksum_lane = false;
};
std::vector<Row> g_rows;  // registration order = depth order per lane

core::VpimConfig depth_config(std::uint32_t depth) {
  core::VpimConfig config = core::VpimConfig::full();
  config.queue_depth = depth;
  return config;
}

// Raw-transfer lane: one write pass and one read pass of `requests()`
// small matrices, each request on its own guest buffer (the async API's
// buffer-stability contract), verified after the read pass. Requests stay
// narrow (4 DPUs, ~11 descriptors) so depth 32 fits the 512-slot transfer
// ring; request count dominates, which is the latency-bound shape the
// pipeline is for.
std::uint32_t requests() {
  const double scaled = 512.0 * env_scale();
  return scaled < 256.0 ? 256 : static_cast<std::uint32_t>(scaled);
}
constexpr std::uint32_t kDpusPerRequest = 4;
constexpr std::uint64_t kPerDpuBytes = 256;

void run_checksum_depth(benchmark::State& state, std::uint32_t depth) {
  for (auto _ : state) {
    VmRig rig(depth_config(depth), /*nr_devices=*/1);
    core::VupmemDevice& dev = rig.vm.device(0);
    core::Frontend& fe = dev.frontend;
    if (!fe.open()) {
      state.SkipWithError("no rank available");
      return;
    }
    const std::uint32_t nr_dpus = fe.nr_dpus();
    const std::uint32_t nr_requests = requests();
    const std::uint64_t req_bytes = kPerDpuBytes * kDpusPerRequest;
    std::vector<std::span<std::uint8_t>> wbufs(nr_requests);
    std::vector<std::span<std::uint8_t>> rbufs(nr_requests);
    for (std::uint32_t r = 0; r < nr_requests; ++r) {
      wbufs[r] = rig.vm.vmm().memory().alloc(req_bytes);
      rbufs[r] = rig.vm.vmm().memory().alloc(req_bytes);
      for (std::uint64_t i = 0; i < req_bytes; ++i) {
        wbufs[r][i] = static_cast<std::uint8_t>(r * 131 + i * 7);
      }
    }
    auto matrix_for = [&](std::uint32_t r, std::span<std::uint8_t> buf,
                          driver::XferDirection dir) {
      driver::TransferMatrix m;
      m.direction = dir;
      for (std::uint32_t d = 0; d < kDpusPerRequest; ++d) {
        // Entries stripe round-robin over the rank; the linear entry index
        // makes every (request, entry) pair own a disjoint MRAM window, so
        // each read verifies against exactly its own write.
        const std::uint32_t linear = r * kDpusPerRequest + d;
        m.entries.push_back({linear % nr_dpus,
                             (linear / nr_dpus) * kPerDpuBytes,
                             buf.data() + std::uint64_t{d} * kPerDpuBytes,
                             kPerDpuBytes});
      }
      return m;
    };

    // Matrices are prepared up front: the timed region is submission,
    // device handling, and completion reaping only.
    std::vector<driver::TransferMatrix> wmats(nr_requests);
    std::vector<driver::TransferMatrix> rmats(nr_requests);
    for (std::uint32_t r = 0; r < nr_requests; ++r) {
      wmats[r] = matrix_for(r, wbufs[r], driver::XferDirection::kToRank);
      rmats[r] = matrix_for(r, rbufs[r], driver::XferDirection::kFromRank);
    }

    std::uint64_t failures = 0;
    auto drain = [&](std::uint32_t expect) {
      std::uint32_t reaped = 0;
      while (reaped < expect) {
        const auto batch = fe.poll_completions();
        for (const core::Frontend::Completion& c : batch) {
          if (c.status != 0) ++failures;
        }
        reaped += static_cast<std::uint32_t>(batch.size());
        if (batch.empty()) break;  // nothing in flight: avoid spinning
      }
      return reaped;
    };
    // Untimed warmup pass: first-touch faults on the guest buffers, arena
    // and ring growth, and pool-worker spin-up are one-time costs shared
    // by every depth; the timed region below measures the steady state
    // where the per-batch doorbell/IRQ amortization is the variable.
    for (std::uint32_t r = 0; r < nr_requests; ++r) {
      fe.submit_write(wmats[r]);
    }
    std::uint32_t done = drain(nr_requests);
    if (done != nr_requests) {
      state.SkipWithError("warmup pass lost completions");
      return;
    }
    done = 0;

    const core::DeviceStats before = dev.stats;
    const SimNs sim_start = rig.host.clock.now();
    WallTimer timer;
    for (std::uint32_t r = 0; r < nr_requests; ++r) {
      fe.submit_write(wmats[r]);
    }
    done += drain(nr_requests);
    for (std::uint32_t r = 0; r < nr_requests; ++r) {
      fe.submit_read(rmats[r]);
    }
    done += drain(nr_requests);
    const double wall = timer.elapsed_ms();
    const SimNs simulated = rig.host.clock.now() - sim_start;

    bool correct = done == 2 * nr_requests && failures == 0;
    for (std::uint32_t r = 0; correct && r < nr_requests; ++r) {
      correct =
          std::memcmp(rbufs[r].data(), wbufs[r].data(), req_bytes) == 0;
    }
    fe.close();

    const std::uint64_t doorbells = dev.stats.doorbells - before.doorbells;
    const double per_op =
        static_cast<double>(doorbells) / (2.0 * nr_requests);
    state.SetIterationTime(ns_to_s(simulated));
    state.counters["correct"] = correct ? 1 : 0;
    state.counters["doorbells"] = static_cast<double>(doorbells);
    state.counters["vmexits_per_op"] = per_op;
    g_rows.push_back({"pipeline/checksum/depth:" + std::to_string(depth),
                      simulated, wall, per_op, true});
  }
}

// Blocking-SDK lane: same NW shape as Fig 14's +PB row. Only posted batch
// flushes coalesce here, so the win saturates immediately past depth 1.
prim::AppParams nw_params() {
  prim::AppParams prm;
  prm.nr_dpus = 60;
  prm.scale = env_scale();
  prm.xfer_grain = 0.25;
  return prm;
}

void run_nw_depth(benchmark::State& state, std::uint32_t depth) {
  for (auto _ : state) {
    VmRig rig(depth_config(depth), /*nr_devices=*/1);
    WallTimer timer;
    const auto res = prim::make_app("NW")->run(rig.platform, nw_params());
    const double wall = timer.elapsed_ms();
    const core::DeviceStats& stats = rig.vm.device(0).stats;
    const std::uint64_t messages =
        stats.notifies + stats.coalesced_notifies;
    const double per_op =
        messages == 0 ? 0.0
                      : static_cast<double>(stats.doorbells) /
                            static_cast<double>(messages);
    state.SetIterationTime(ns_to_s(res.total()));
    state.counters["correct"] = res.correct ? 1 : 0;
    state.counters["vmexits_per_op"] = per_op;
    g_rows.push_back({"pipeline/NW/depth:" + std::to_string(depth),
                      res.total(), wall, per_op, false});
  }
}

void write_pipeline_json() {
  std::vector<BenchPoint> points;
  for (const Row& row : g_rows) {
    BenchPoint& p =
        points.emplace_back(row.name, row.simulated_ns, row.wall_ms);
    p.add("vmexits_per_op", row.vmexits_per_op, 4);
  }
  write_bench_json("pipeline", points);
}

// Returns false if the async lane's vmexits/op does not strictly decrease
// as depth grows — the tentpole's core modeled claim.
bool print_summary() {
  print_header(
      "Pipeline - SQ/CQ depth sweep (single rank)",
      "N staged submissions cost one doorbell VMEXIT and one completion "
      "IRQ; modeled vmexits/op shrinks ~1/depth on the async path");
  std::printf("%-28s | %12s | %10s | %12s\n", "point", "simulated",
              "wall", "vmexits/op");
  for (const Row& row : g_rows) {
    std::printf("%-28s | %10.2fms | %8.2fms | %12.4f\n", row.name.c_str(),
                ns_to_ms(row.simulated_ns), row.wall_ms,
                row.vmexits_per_op);
  }
  const Row* d1 = nullptr;
  const Row* d8 = nullptr;
  bool monotonic = true;
  const Row* prev = nullptr;
  for (const Row& row : g_rows) {
    if (!row.checksum_lane) continue;
    if (prev != nullptr && row.vmexits_per_op >= prev->vmexits_per_op) {
      monotonic = false;
    }
    if (row.name.ends_with("depth:1")) d1 = &row;
    if (row.name.ends_with("depth:8")) d8 = &row;
    prev = &row;
  }
  if (d1 != nullptr && d8 != nullptr && d8->wall_ms > 0) {
    std::printf("checksum wall speedup depth 8 vs 1: %.2fx\n",
                d1->wall_ms / d8->wall_ms);
  }
  if (!monotonic) {
    std::fprintf(stderr,
                 "FAIL: async-lane vmexits/op is not strictly decreasing "
                 "with depth\n");
  }
  return monotonic;
}

}  // namespace
}  // namespace vpim::bench

int main(int argc, char** argv) {
  using namespace vpim::bench;
  benchmark::Initialize(&argc, argv);
  for (std::uint32_t depth : kDepths) {
    const std::string name =
        "pipeline/checksum/depth:" + std::to_string(depth);
    benchmark::RegisterBenchmark(name.c_str(),
                                 [depth](benchmark::State& state) {
                                   run_checksum_depth(state, depth);
                                 })
        ->UseManualTime()
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
  for (std::uint32_t depth : kDepths) {
    const std::string name = "pipeline/NW/depth:" + std::to_string(depth);
    benchmark::RegisterBenchmark(name.c_str(),
                                 [depth](benchmark::State& state) {
                                   run_nw_depth(state, depth);
                                 })
        ->UseManualTime()
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::RunSpecifiedBenchmarks();
  const bool ok = print_summary();
  write_pipeline_json();
  benchmark::Shutdown();
  return ok ? 0 : 1;
}
