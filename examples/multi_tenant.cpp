// Multi-tenancy walkthrough (§3.5): two VMs and a native host application
// share the machine's 8 ranks through the vPIM manager. Shows the rank
// life cycle (NAAV -> ALLO -> NANA -> NAAV), the previous-owner fast path
// that skips the reset, and the isolation guarantee (a new tenant never
// sees residual data).
//
// Build & run:  ./build/examples/multi_tenant
#include <chrono>
#include <cstdio>

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

  // --- The manager as a concurrent allocation service (§3.5, ISSUE 9) ---
  // Typed request vocabulary over sub-rank "wrank slots": priorities pick
  // the drain order, per-tenant quotas bound footprint, and stop() resolves
  // anything still queued with a typed kShutdown instead of dropping it.
  host.manager.set_tenant_quota("tenant-d", 2);
  core::ManagerService service(
      host.manager,
      {.threads = 1, .observe_period = std::chrono::milliseconds(1),
       .start_paused = true});
  // Queued while paused: the priority-5 request is served first even
  // though it was submitted last (lower wrank id = served earlier).
  auto low = service.allocate("tenant-c", 1, /*priority=*/0);
  auto high = service.allocate("tenant-c", 2, /*priority=*/5);
  auto d_ok = service.allocate("tenant-d", 2);
  auto d_over = service.allocate("tenant-d", 1);  // quota is 2: rejected
  service.start();
  const auto r_low = low.get();
  const auto r_high = high.get();
  std::printf(
      "\nservice: prio5 -> wrank %lu (%s), prio0 -> wrank %lu (%s)\n",
      static_cast<unsigned long>(r_high.wrank), core::to_string(r_high.status),
      static_cast<unsigned long>(r_low.wrank), core::to_string(r_low.status));
  std::printf("  tenant-d: first alloc %s, over-quota alloc %s\n",
              core::to_string(d_ok.get().status),
              core::to_string(d_over.get().status));
  std::printf("  resize prio5 wrank to 3 slots: %s\n",
              core::to_string(service.resize(r_high.wrank, 3).get().status));
  std::printf("  occupancy: tenant-c %u slots, tenant-d %u slots, "
              "fragmentation %u permille\n",
              host.manager.tenant_slots("tenant-c"),
              host.manager.tenant_slots("tenant-d"),
              host.manager.fragmentation_permille());
  service.stop();  // queued work would resolve kShutdown here, never hang
  std::printf("  post-stop allocate: %s\n",
              core::to_string(service.allocate("tenant-c", 1).get().status));

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
