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
std::vector<Row> g_rows;  // point order = depth order per lane

// Records a finished point as a summary row and a vmexits_per_op column.
void record(BenchPoint& p, double vmexits_per_op, bool checksum_lane) {
  p.add("vmexits_per_op", vmexits_per_op, 4);
  g_rows.push_back(
      {p.name, p.simulated_ns, p.wall_ms, vmexits_per_op, checksum_lane});
}

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

void run_checksum_depth(BenchPoint& p, std::uint32_t depth) {
  VmRig rig(depth_config(depth), /*nr_devices=*/1);
  core::VupmemDevice& dev = rig.vm.device(0);
  core::Frontend& fe = dev.frontend;
  VPIM_CHECK(fe.open(), "no rank available");
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
      m.entries.push_back({linear % nr_dpus, (linear / nr_dpus) * kPerDpuBytes,
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
  VPIM_CHECK(drain(nr_requests) == nr_requests,
             "warmup pass lost completions");

  const core::DeviceStats before = dev.stats;
  const SimNs sim_start = rig.host.clock.now();
  p.start_wall();
  for (std::uint32_t r = 0; r < nr_requests; ++r) {
    fe.submit_write(wmats[r]);
  }
  std::uint32_t done = drain(nr_requests);
  for (std::uint32_t r = 0; r < nr_requests; ++r) {
    fe.submit_read(rmats[r]);
  }
  done += drain(nr_requests);
  p.stop_wall();
  p.simulated_ns = rig.host.clock.now() - sim_start;

  bool correct = done == 2 * nr_requests && failures == 0;
  for (std::uint32_t r = 0; correct && r < nr_requests; ++r) {
    correct = std::memcmp(rbufs[r].data(), wbufs[r].data(), req_bytes) == 0;
  }
  VPIM_CHECK(correct, "async round trip lost or corrupted data");
  fe.close();

  const std::uint64_t doorbells = dev.stats.doorbells - before.doorbells;
  record(p, static_cast<double>(doorbells) / (2.0 * nr_requests),
         /*checksum_lane=*/true);
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

void run_nw_depth(BenchPoint& p, std::uint32_t depth) {
  VmRig rig(depth_config(depth), /*nr_devices=*/1);
  p.start_wall();
  const auto res = prim::make_app("NW")->run(rig.platform, nw_params());
  p.stop_wall();
  VPIM_CHECK(res.correct, "NW produced a wrong result");
  const core::DeviceStats& stats = rig.vm.device(0).stats;
  const std::uint64_t messages = stats.doorbells + stats.coalesced_notifies;
  const double per_op = messages == 0 ? 0.0
                                      : static_cast<double>(stats.doorbells) /
                                            static_cast<double>(messages);
  p.simulated_ns = res.total();
  record(p, per_op, /*checksum_lane=*/false);
}

void print_summary() {
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
  for (const Row& row : g_rows) {
    if (row.name.ends_with("checksum/depth:1")) d1 = &row;
    if (row.name.ends_with("checksum/depth:8")) d8 = &row;
  }
  if (d8->wall_ms > 0) {
    std::printf("checksum wall speedup depth 8 vs 1: %.2fx\n",
                d1->wall_ms / d8->wall_ms);
  }
}

// The tentpole's core modeled claim: the async lane's vmexits/op strictly
// decreases as depth grows.
void check_claims(Figure& fig) {
  bool monotonic = true;
  std::string detail;
  const Row* prev = nullptr;
  for (const Row& row : g_rows) {
    if (!row.checksum_lane) continue;
    if (prev != nullptr && row.vmexits_per_op >= prev->vmexits_per_op) {
      monotonic = false;
    }
    detail += (prev == nullptr ? "" : " -> ") +
              std::to_string(row.vmexits_per_op);
    prev = &row;
  }
  fig.claim("async_vmexits_per_op_strictly_decreasing_with_depth", monotonic,
            detail);
}

}  // namespace
}  // namespace vpim::bench

int main() {
  using namespace vpim::bench;
  Figure fig("pipeline");
  for (std::uint32_t depth : kDepths) {
    fig.point("pipeline/checksum/depth:" + std::to_string(depth),
              [depth](BenchPoint& p) { run_checksum_depth(p, depth); });
  }
  for (std::uint32_t depth : kDepths) {
    fig.point("pipeline/NW/depth:" + std::to_string(depth),
              [depth](BenchPoint& p) { run_nw_depth(p, depth); });
  }
  print_summary();
  check_claims(fig);
  return fig.finish();
}
