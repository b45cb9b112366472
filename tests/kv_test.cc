// KvService hot-key cache (configuration checks and eviction order), the
// MRAM pages a service materializes and the guest pages a session touches.
#include <gtest/gtest.h>

#include <vector>

#include "common/error.h"
#include "kv/kv_service.h"
#include "kv/loadgen.h"
#include "tests/testutil.h"
#include "upmem/rank.h"
#include "vpim/host.h"
#include "vpim/vpim_vm.h"

namespace vpim::kv {
namespace {

core::ManagerConfig fast_manager() {
  core::ManagerConfig cfg;
  cfg.retry_wait_ns = 1 * kMs;
  cfg.max_attempts = 2;
  return cfg;
}

KvConfig small_config() {
  KvConfig cfg;
  cfg.partitions = 4;
  cfg.nr_dpus = 2;
  cfg.slots_per_dpu = 4;
  cfg.slot_capacity = 16;
  cfg.max_batch_ops = 8;
  cfg.rebalance = false;
  return cfg;
}

struct KvRig {
  KvRig()
      : host(test::small_machine(), CostModel{}, fast_manager()),
        vm(host, {.name = "kv-test"}, 1) {}

  core::Host host;
  core::VpimVm vm;
};

// A cache with no room would have to evict from an empty cache on its
// first insert; the constructor rejects the configuration instead.
TEST(KvCache, ZeroEntryCacheIsRejected) {
  KvRig rig;
  auto construct = [&rig](const KvConfig& cfg) {
    KvService svc(rig.vm.device(0).frontend, rig.vm.vmm().memory(),
                  rig.host.clock, rig.host.cost, rig.host.obs, cfg);
  };
  KvConfig cfg = small_config();
  cfg.hot_cache_entries = 0;
  EXPECT_THROW(construct(cfg), VpimError);
  cfg.hot_key_cache = false;  // no cache, so no size to check
  EXPECT_NO_THROW(construct(cfg));
}

// A hit refreshes an entry's recency, so the victim is the least recently
// touched key, not the first inserted one.
TEST(KvCache, EvictsLeastRecentlyUsedNotFirstInserted) {
  KvRig rig;
  KvConfig cfg = small_config();
  cfg.hot_cache_entries = 2;
  KvService svc(rig.vm.device(0).frontend, rig.vm.vmm().memory(),
                rig.host.clock, rig.host.cost, rig.host.obs, cfg);
  ASSERT_TRUE(svc.open());
  constexpr std::uint64_t a = 11, b = 22, c = 33;
  std::vector<KvOp> puts;
  puts.push_back({KvOpKind::kPut, a, 1, 0});
  puts.push_back({KvOpKind::kPut, b, 2, 0});
  puts.push_back({KvOpKind::kPut, c, 3, 0});
  for (const KvResult& r : svc.execute(puts)) {
    ASSERT_EQ(r.status, KvStatus::kOk);
  }

  auto get = [&](std::uint64_t key) {
    const std::vector<KvOp> op = {{KvOpKind::kGet, key, 0, 0}};
    const std::vector<KvResult> r = svc.execute(op);
    EXPECT_EQ(r[0].status, KvStatus::kOk) << "key " << key;
    return r[0].cache_hit;
  };
  EXPECT_FALSE(get(a));
  EXPECT_FALSE(get(b));
  EXPECT_TRUE(get(a));   // a is now more recent than b
  EXPECT_FALSE(get(c));  // evicts b, the least recently used
  EXPECT_TRUE(get(a)) << "evicted by insertion order instead of recency";
  EXPECT_FALSE(get(b)) << "b should have been evicted";
  EXPECT_EQ(svc.stats().cache_hits, 2u);
  svc.close();
}

// open() zeroes every slot header. On a freshly reset rank those bytes
// already read as zero, so the open materializes no MRAM page; a PUT then
// materializes its own slot's page and no other slot's.
TEST(KvService, ZeroedSlotHeadersMaterializeNoPage) {
  KvRig rig;
  KvConfig cfg = small_config();
  cfg.slot_capacity = 256;  // every slot header on a page of its own
  KvService svc(rig.vm.device(0).frontend, rig.vm.vmm().memory(),
                rig.host.clock, rig.host.cost, rig.host.obs, cfg);
  ASSERT_TRUE(svc.open());
  upmem::Rank& rank =
      rig.host.machine.rank(rig.vm.device(0).backend.rank_index());
  std::size_t resident = 0;
  for (std::uint32_t d = 0; d < rank.nr_dpus(); ++d) {
    resident += rank.mram(d).resident_pages();
  }
  EXPECT_EQ(resident, 0u) << "open materialized zero slot headers";

  constexpr std::uint64_t kKey = 7;
  const std::vector<KvOp> put = {{KvOpKind::kPut, kKey, 1, 0}};
  ASSERT_EQ(svc.execute(put)[0].status, KvStatus::kOk);

  // Partitions start round-robin: partition p lives in slot p / nr_dpus.
  const KvLayout layout = KvLayout::of(cfg);
  const std::uint32_t partition = partition_of(kKey, cfg.partitions);
  const std::uint32_t put_dpu = svc.partition_dpu(partition);
  const std::uint64_t put_page =
      (partition / cfg.nr_dpus) * layout.region / upmem::kMramPageSize;
  const std::uint64_t slot_pages = layout.inbox_off / upmem::kMramPageSize;
  for (std::uint32_t d = 0; d < rank.nr_dpus(); ++d) {
    for (std::uint64_t page = 0; page < slot_pages; ++page) {
      EXPECT_EQ(rank.mram(d).resident(page), d == put_dpu && page == put_page)
          << "dpu " << d << " slot page " << page;
    }
  }
  svc.close();
}

// A short KV session on a fresh VM, shaped like one tenant_churn session
// (36 DPUs, 6 slots each, 32 ops at queue depth 8), first-touches a fixed
// budget of guest pages, each a real host fault and unmap per VM: the 8 SQ
// slots' control pages (side by side, small page lists inside), slot 0's
// CI payload page, the 3 pages holding 36 DPUs' 256-byte batch head slots
// (open()'s zeroed slot headers, 144 bytes of records per DPU, go through
// them), and 26 pages of inboxes and outboxes packed several to a page.
// A first page per DPU batch buffer instead of the head slots would be 71.
TEST(KvService, ShortSessionTouchesABoundedSetOfGuestPages) {
  core::Host host({.nr_ranks = 1}, CostModel{}, fast_manager());
  core::VpimConfig vcfg = core::VpimConfig::full();
  vcfg.queue_depth = 8;
  core::VpimVm vm(host,
                  {.name = "kv-pages", .vcpus = 2,
                   .guest_ram_bytes = 128 * kMiB},
                  1, vcfg);
  guest::GuestMemory& mem = vm.vmm().memory();
  const std::uint64_t before = mem.resident_pages();

  KvConfig cfg;
  cfg.nr_dpus = 36;
  cfg.slots_per_dpu = 6;
  cfg.partitions = 2 * cfg.nr_dpus;
  cfg.slot_capacity = 256;
  cfg.max_batch_ops = 16;
  LoadgenConfig lg;
  lg.nr_ops = 32;
  lg.key_space = 64;
  lg.put_permille = 500;
  lg.delete_permille = 0;
  lg.scan_permille = 0;
  std::vector<KvOp> ops;
  for (const KvTraceOp& t : generate_trace(lg)) ops.push_back(t.op);

  KvService svc(vm.device(0).frontend, mem, host.clock, host.cost, host.obs,
                cfg);
  ASSERT_TRUE(svc.open());
  for (const KvResult& r : svc.execute(ops)) {
    ASSERT_TRUE(r.status == KvStatus::kOk || r.status == KvStatus::kNotFound);
  }
  EXPECT_LE(mem.resident_pages() - before, 8u + 1u + 3u + 26u);
  svc.close();
}

}  // namespace
}  // namespace vpim::kv
