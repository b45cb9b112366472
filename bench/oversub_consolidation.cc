// §7 (future work): "a VMM module similar to the UPMEM simulator could
// support oversubscription by running applications at reduced
// performance." Quantifies that trade-off: N tenants each want one rank
// of a machine that has 8. Without oversubscription, tenants beyond
// capacity fail; with it, they run on emulated ranks and finish slower.
// Both outcomes are asserted with claim(); the bench exits 1 when one
// fails.
#include <cstring>
#include <map>

#include "common/rng.h"

#include "bench/bench_util.h"

namespace vpim::bench {
namespace {

struct Cell {
  std::uint32_t completed = 0;
  std::uint32_t failed = 0;
  std::uint32_t emulated = 0;
  SimNs physical_time = 0;  // representative per-tenant times
  SimNs emulated_time = 0;
};
std::map<std::pair<std::uint32_t, bool>, Cell> g_cells;

// The tenant workload, driven through an already-bound device so every
// tenant holds its rank for the whole experiment (true contention).
SimNs run_tenant(core::Host& host, core::VpimVm& vm,
                 std::uint64_t file_bytes) {
  prim::register_micro_kernels();
  core::Frontend& fe = vm.device(0).frontend;
  auto file = vm.vmm().memory().alloc(file_bytes);
  Rng rng(7);
  rng.fill_bytes(file.data(), file.size());

  const SimNs t0 = host.clock.now();
  fe.ci_load("micro_checksum");
  driver::TransferMatrix w;
  for (std::uint32_t d = 0; d < fe.nr_dpus(); ++d) {
    w.entries.push_back({d, 0, file.data(), file_bytes});
  }
  fe.write_to_rank(w);
  struct CkArgs {
    std::uint64_t n_bytes, in_off, res_off;
  } args{file_bytes, 0, (file_bytes + 7) / 8 * 8};
  auto packed = vm.vmm().memory().alloc(std::uint64_t{fe.nr_dpus()} *
                                        sizeof(CkArgs));
  for (std::uint32_t d = 0; d < fe.nr_dpus(); ++d) {
    std::memcpy(packed.data() + d * sizeof(CkArgs), &args, sizeof(CkArgs));
  }
  fe.ci_push_symbols(driver::XferDirection::kToRank, "ck_args", 0, packed,
                     sizeof(CkArgs));
  fe.ci_launch(fe.nr_dpus() == 64 ? ~0ULL : ((1ULL << fe.nr_dpus()) - 1),
               16);
  while (fe.ci_running_mask() != 0) host.clock.advance(100 * kUs);
  auto out = vm.vmm().memory().alloc(8);
  driver::TransferMatrix r;
  r.direction = driver::XferDirection::kFromRank;
  r.entries.push_back({0, args.res_off, out.data(), 8});
  fe.read_from_rank(r);
  return host.clock.now() - t0;
}

void run_cell(BenchPoint& p, std::uint32_t tenants, bool oversubscribe) {
  const auto file_bytes = static_cast<std::uint64_t>(
      static_cast<double>(8 * kMiB) * env_scale());
  core::Host host(upmem::MachineConfig{}, bench_cost(), bench_manager());
  core::VpimConfig config = core::VpimConfig::full();
  config.oversubscribe = oversubscribe;

  Cell cell;
  std::vector<std::unique_ptr<core::VpimVm>> vms;
  // Bind phase: every tenant claims its device up front and holds it.
  for (std::uint32_t t = 0; t < tenants; ++t) {
    vms.push_back(std::make_unique<core::VpimVm>(
        host, vmm::VmmParams{.name = "tenant" + std::to_string(t)}, 1,
        config));
    if (!vms.back()->device(0).frontend.open()) ++cell.failed;
  }
  // Run phase.
  const SimNs run_start = host.clock.now();
  for (std::uint32_t t = 0; t < tenants; ++t) {
    core::VpimVm& vm = *vms[t];
    if (!vm.device(0).frontend.is_open()) continue;
    const SimNs took = run_tenant(host, vm, file_bytes);
    ++cell.completed;
    if (vm.device(0).backend.emulated()) {
      ++cell.emulated;
      cell.emulated_time = took;
    } else {
      cell.physical_time = took;
    }
  }
  g_cells[{tenants, oversubscribe}] = cell;
  p.simulated_ns = host.clock.now() - run_start;
  p.add("completed", cell.completed);
  p.add("failed", cell.failed);
  p.add("emulated", cell.emulated);
}

void print_summary() {
  print_header("Oversubscription consolidation (§7 future work)",
               "beyond 8 physical ranks, tenants either fail (strict) or "
               "run on emulated ranks at reduced performance");
  std::printf("%8s %10s | %9s %6s %8s | %12s %12s\n", "tenants", "mode",
              "completed", "failed", "emulated", "phys tenant",
              "emu tenant");
  for (const auto& [key, cell] : g_cells) {
    std::printf("%8u %10s | %9u %6u %8u | %10.1fms %10.1fms\n", key.first,
                key.second ? "oversub" : "strict", cell.completed,
                cell.failed, cell.emulated, ns_to_ms(cell.physical_time),
                ns_to_ms(cell.emulated_time));
  }
}

void check_claims(Figure& fig) {
  const std::uint32_t ranks = upmem::MachineConfig{}.nr_ranks;
  for (const auto& [key, cell] : g_cells) {
    const auto [tenants, oversub] = key;
    const std::uint32_t beyond = tenants > ranks ? tenants - ranks : 0;
    const std::string name = "tenants_" + std::to_string(tenants);
    if (!oversub) {
      fig.claim(name + "_strict_fails_beyond_capacity",
                cell.failed == beyond && cell.completed == tenants - beyond,
                std::to_string(cell.failed) + " failed, " +
                    std::to_string(beyond) + " beyond " +
                    std::to_string(ranks) + " ranks");
      continue;
    }
    fig.claim(name + "_oversub_completes_all",
              cell.failed == 0 && cell.completed == tenants &&
                  cell.emulated == beyond,
              std::to_string(cell.completed) + " completed, " +
                  std::to_string(cell.emulated) + " emulated");
    if (cell.emulated > 0) {
      const double slowdown = ratio(cell.emulated_time, cell.physical_time);
      fig.claim(name + "_emulated_at_least_2x_slower", slowdown >= 2.0,
                std::to_string(slowdown) + "x");
    }
  }
}

}  // namespace
}  // namespace vpim::bench

int main() {
  using namespace vpim::bench;
  Figure fig("oversub_consolidation");
  for (std::uint32_t tenants : {8u, 12u, 16u}) {
    for (const bool oversubscribe : {false, true}) {
      fig.point("oversub/tenants:" + std::to_string(tenants) +
                    (oversubscribe ? "/oversub" : "/strict"),
                [&](BenchPoint& p) { run_cell(p, tenants, oversubscribe); });
    }
  }
  print_summary();
  check_claims(fig);
  return fig.finish();
}
