// Multi-tenancy walkthrough (§3.5): two VMs and a native host application
// share the machine's 8 ranks through the vPIM manager. Shows the rank
// life cycle (NAAV -> ALLO -> NANA -> NAAV), the previous-owner fast path
// that skips the reset, and the isolation guarantee (a new tenant never
// sees residual data).
//
// Build & run:  ./build/examples/multi_tenant
#include <chrono>
#include <cstdio>
#include <optional>
#include <vector>

#include "prim/app.h"
#include "sdk/native.h"
#include "vpim/guest_platform.h"
#include "vpim/host.h"
#include "vpim/manager_service.h"
#include "vpim/vpim_vm.h"

using namespace vpim;

namespace {

const char* state_name(core::RankState s) {
  switch (s) {
    case core::RankState::kNaav:
      return "NAAV";
    case core::RankState::kAllo:
      return "ALLO";
    case core::RankState::kNana:
      return "NANA";
    case core::RankState::kFail:
      return "FAIL";
  }
  return "?";
}

void print_ranks(core::Host& host, const char* when) {
  std::printf("%-34s ranks:", when);
  for (std::uint32_t r = 0; r < host.machine.nr_ranks(); ++r) {
    std::printf(" %s", state_name(host.manager.state(r)));
  }
  std::printf("\n");
}

}  // namespace

int main() {
  core::Host host;
  print_ranks(host, "boot");

  // A native application grabs a rank directly (no manager involved); the
  // observer notices it via sysfs and fences it off from VMs.
  auto native_mapping = host.drv.map_rank(0, "native-analytics");
  host.manager.observe();
  print_ranks(host, "native app mapped rank 0");

  // Two tenants, three vUPMEM devices each.
  core::VpimVm vm_a(host, {.name = "tenant-a"}, 3);
  core::VpimVm vm_b(host, {.name = "tenant-b"}, 3);
  core::GuestPlatform guest_a(vm_a);
  core::GuestPlatform guest_b(vm_b);

  // Tenant A runs a PrIM workload on 2 ranks; tenant B on 1 rank.
  prim::AppParams prm_a{.nr_dpus = 120, .scale = 0.05};
  prim::AppParams prm_b{.nr_dpus = 60, .scale = 0.05};
  auto res_a = prim::make_app("VA")->run(guest_a, prm_a);
  print_ranks(host, "tenant-a ran VA on 120 DPUs");
  auto res_b = prim::make_app("RED")->run(guest_b, prm_b);
  print_ranks(host, "tenant-b ran RED on 60 DPUs");
  std::printf("  VA correct: %s, RED correct: %s\n",
              res_a.correct ? "yes" : "NO", res_b.correct ? "yes" : "NO");

  // DpuSet::free released the ranks; one observer pass sees them free in
  // sysfs and flags the silent releases (-> NANA), leaving the erase for
  // later.
  host.manager.observe(/*do_resets=*/false);
  print_ranks(host, "observer saw the releases");

  // Tenant A asks again before the erase: the manager hands back one of
  // its own NANA ranks without paying the ~597 ms reset.
  auto again = prim::make_app("VA")->run(guest_a, prm_b);
  std::printf("  tenant-a reallocation reuse hits so far: %lu\n",
              static_cast<unsigned long>(host.manager.stats().reuse_hits));
  print_ranks(host, "tenant-a re-ran on a reused rank");
  (void)again;

  // Everything released again; now let the observer erase.
  host.manager.observe(/*do_resets=*/true);
  print_ranks(host, "observer erased released ranks");

  // The native app exits too; its rank goes through the same recycling.
  native_mapping.unmap();
  host.manager.observe(/*do_resets=*/true);
  print_ranks(host, "native app exited");

  // --- The manager as a concurrent allocation service (§3.5) ---
  // Whole-rank requests queue by priority: while the workers are paused a
  // low- and a high-priority tenant each ask for a rank, and with only one
  // rank left free the high-priority request is served first. stop()
  // resolves anything still queued with "no rank" instead of dropping it.
  std::vector<std::optional<driver::RankMapping>> fillers;
  while (fillers.size() + 1 < host.machine.nr_ranks()) {
    fillers.push_back(host.manager.request_rank("filler"));
  }
  core::ManagerService service(
      host.manager,
      {.threads = 1, .observe_period = std::chrono::milliseconds(1),
       .start_paused = true});
  auto low = service.request_rank("tenant-c", /*priority=*/0);
  auto high = service.request_rank("tenant-d", /*priority=*/5);
  service.start();
  const auto r_high = high.get();
  const auto r_low = low.get();
  if (r_high.has_value()) {
    std::printf("\nservice: prio5 tenant-d -> rank %u\n",
                r_high->rank_index());
  }
  std::printf("  prio0 tenant-c -> %s\n",
              r_low.has_value() ? "a rank" : "no rank (machine full)");
  service.stop();  // queued work would resolve "no rank" here, never hang
  const bool late = service.request_rank("tenant-c").get().has_value();
  std::printf("  post-stop request: %s (%lu shutdown rejections)\n",
              late ? "granted" : "no rank",
              static_cast<unsigned long>(service.shutdown_rejections()));

  const auto stats = host.manager.stats();
  std::printf(
      "\nmanager summary: %lu allocations, %lu reuse hits, %lu resets, "
      "%lu releases observed, %lu failed requests\n",
      static_cast<unsigned long>(stats.allocations),
      static_cast<unsigned long>(stats.reuse_hits),
      static_cast<unsigned long>(stats.resets),
      static_cast<unsigned long>(stats.releases_observed),
      static_cast<unsigned long>(stats.failed_requests));
  std::printf("simulated time elapsed: %.1f ms\n", ns_to_ms(host.clock.now()));
  return res_a.correct && res_b.correct ? 0 : 1;
}
