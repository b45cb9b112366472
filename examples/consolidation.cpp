// Consolidation walkthrough (§7 future work): suspend/resume and
// oversubscription working together. A batch tenant gets suspended to
// make room for an interactive tenant, then resumes with its state
// intact; a third tenant arrives on a full machine and runs on an
// emulated rank until capacity frees up and it migrates onto silicon.
//
// Build & run:  ./build/examples/consolidation
// Exits 1 if a pattern is LOST or a step fails; ctest runs it.
#include <cstdio>
#include <cstring>

#include "vpim/guest_platform.h"
#include "vpim/host.h"
#include "vpim/vpim_vm.h"

using namespace vpim;

namespace {

// Writes a recognizable pattern through the device and verifies it later.
void seed_pattern(core::Frontend& fe, vmm::Vmm& vm, std::uint8_t tag) {
  auto buf = vm.memory().alloc(256 * kKiB);
  std::memset(buf.data(), tag, buf.size());
  driver::TransferMatrix w;
  w.entries.push_back({0, 0, buf.data(), buf.size()});
  fe.write_to_rank(w);
}

bool check_pattern(core::Frontend& fe, vmm::Vmm& vm, std::uint8_t tag) {
  auto out = vm.memory().alloc(256 * kKiB);
  driver::TransferMatrix r;
  r.direction = driver::XferDirection::kFromRank;
  r.entries.push_back({0, 0, out.data(), out.size()});
  fe.read_from_rank(r);
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (out[i] != tag) return false;
  }
  return true;
}

}  // namespace

int main() {
  // A small host: 2 ranks, so contention appears quickly.
  core::Host host(upmem::MachineConfig{.nr_ranks = 2,
                                       .functional_dpus_per_rank = 60});
  core::VpimConfig elastic = core::VpimConfig::full();
  elastic.oversubscribe = true;

  // Tenant A (batch) and tenant B (interactive) take the two ranks.
  core::VpimVm batch(host, {.name = "batch"}, 1);
  core::VpimVm inter(host, {.name = "interactive"}, 1);
  core::Frontend& fe_a = batch.device(0).frontend;
  core::Frontend& fe_b = inter.device(0).frontend;
  if (!fe_a.open() || !fe_b.open()) return 1;
  seed_pattern(fe_a, batch.vmm(), 0xA1);
  seed_pattern(fe_b, inter.vmm(), 0xB2);
  std::printf("batch on rank %u, interactive on rank %u\n",
              batch.device(0).backend.rank_index(),
              inter.device(0).backend.rank_index());

  // Tenant C arrives; the machine is full. With oversubscription it gets
  // an emulated rank instead of a failed allocation.
  core::VpimVm newcomer(host, {.name = "newcomer"}, 1, elastic);
  core::Frontend& fe_c = newcomer.device(0).frontend;
  if (!fe_c.open()) return 1;
  std::printf("newcomer bound: %s (DPUs at %u MHz)\n",
              newcomer.device(0).backend.emulated() ? "EMULATED"
                                                    : "physical",
              fe_c.config_space().dpu_freq_mhz);
  seed_pattern(fe_c, newcomer.vmm(), 0xC3);

  // The batch tenant is preempted: suspend parks its state host-side and
  // frees its rank for others.
  fe_a.suspend();
  host.manager.observe();
  host.manager.observe();
  std::printf("batch suspended; its rank is %s\n",
              host.drv.sysfs().read(0).in_use ? "still busy"
                                              : "free again");

  // The newcomer upgrades from emulation onto the freed silicon, keeping
  // its data.
  if (!fe_c.migrate()) {
    std::printf("newcomer migration FAILED\n");
    return 1;
  }
  const bool c_intact = check_pattern(fe_c, newcomer.vmm(), 0xC3);
  std::printf("newcomer migrated to physical rank %u; pattern %s\n",
              newcomer.device(0).backend.rank_index(),
              c_intact ? "intact" : "LOST");

  // Later the interactive tenant leaves; the batch tenant resumes — on
  // whatever rank is free — with its 0xA1 pattern restored.
  fe_b.close();
  host.manager.observe();
  host.manager.observe();
  if (!fe_a.resume()) return 1;
  const bool a_intact = check_pattern(fe_a, batch.vmm(), 0xA1);
  std::printf("batch resumed; pattern %s\n", a_intact ? "intact" : "LOST");

  std::printf("simulated time: %.1f ms\n", ns_to_ms(host.clock.now()));
  return c_intact && a_intact ? 0 : 1;
}
