// KV service walkthrough (ISSUE 10): a partitioned key-value store on a
// vUPMEM device, driven with batched GET/PUT/DELETE/SCAN through the
// SQ/CQ pipeline, then hammered with a Zipfian hot-key trace so the
// skew-mitigation tier (hot-key cache + partition rebalancer) has
// something to do.
//
// Build & run:  ./build/examples/kv_service
#include <cstdio>

#include "kv/kv_service.h"
#include "kv/loadgen.h"
#include "vpim/host.h"
#include "vpim/vpim_vm.h"

using namespace vpim;

int main() {
  core::Host host;
  core::VpimVm vm(host, {.name = "kv-demo"}, 1);
  core::Frontend& fe = vm.device(0).frontend;

  kv::KvConfig cfg;
  cfg.partitions = 32;
  cfg.nr_dpus = 8;
  kv::KvService svc(fe, vm.vmm().memory(), host.clock, host.cost, host.obs,
                    cfg);
  if (!svc.open()) {
    std::printf("no rank available\n");
    return 1;
  }
  std::printf("kv service open: %u partitions over %u DPUs\n",
              cfg.partitions, cfg.nr_dpus);

  // ---- 1. batched point ops --------------------------------------------
  std::vector<kv::KvOp> batch;
  for (std::uint64_t k = 0; k < 64; ++k) {
    batch.push_back({kv::KvOpKind::kPut, k, 1000 + k, 0});
  }
  auto results = svc.execute(batch);
  std::printf("put %zu keys, first status=%s\n", results.size(),
              kv::to_string(results[0].status));

  batch.clear();
  batch.push_back({kv::KvOpKind::kGet, 7, 0, 0});
  batch.push_back({kv::KvOpKind::kDelete, 8, 0, 0});
  batch.push_back({kv::KvOpKind::kGet, 8, 0, 0});
  batch.push_back({kv::KvOpKind::kScan, 0, 0, 16});
  results = svc.execute(batch);
  std::printf("get(7)  -> %s value=%llu\n", kv::to_string(results[0].status),
              static_cast<unsigned long long>(results[0].value));
  std::printf("del(8)  -> %s\n", kv::to_string(results[1].status));
  std::printf("get(8)  -> %s (deleted)\n", kv::to_string(results[2].status));
  std::printf("scan[0,16) -> %u rows\n", results[3].nresults);

  // ---- 2. a skewed trace to trigger the mitigation tier ----------------
  kv::LoadgenConfig lg;
  lg.seed = 42;
  lg.nr_ops = 6000;
  lg.key_space = 4096;
  lg.zipf_theta_permille = 990;  // YCSB theta=0.99
  const auto trace = kv::generate_trace(lg);

  std::vector<kv::KvOp> window;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    window.push_back(trace[i].op);
    if (window.size() == 64 || i + 1 == trace.size()) {
      svc.execute(window);
      window.clear();
    }
  }

  const kv::KvStats& st = svc.stats();
  std::printf("\nafter %llu skewed ops:\n",
              static_cast<unsigned long long>(st.gets + st.puts +
                                              st.deletes + st.scans));
  std::printf("  cache hits      %llu (%.1f%% of gets)\n",
              static_cast<unsigned long long>(st.cache_hits),
              st.gets > 0 ? 100.0 * static_cast<double>(st.cache_hits) /
                                static_cast<double>(st.gets)
                          : 0.0);
  std::printf("  rebalances      %llu (%llu records moved)\n",
              static_cast<unsigned long long>(st.rebalances),
              static_cast<unsigned long long>(st.migrated_records));
  std::printf("  device cycles   %llu for %llu batches\n",
              static_cast<unsigned long long>(st.cycles),
              static_cast<unsigned long long>(st.batches));
  std::printf("  virtual time    %.3f ms\n",
              static_cast<double>(host.clock.now()) / 1e6);

  svc.close();
  std::printf("done\n");
  return 0;
}
