// KvService hot-key cache: configuration checks and eviction order.
#include <gtest/gtest.h>

#include <vector>

#include "common/error.h"
#include "kv/kv_service.h"
#include "tests/testutil.h"
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

}  // namespace
}  // namespace vpim::kv
