// Manager placement-policy ablation (ISSUE 9): one churning multi-tenant
// trace of wrank allocate/release ops, replayed identically against each
// placement policy (first_fit, best_fit, consolidating).
//
// The trace mixes 1- and 2-slot wrank allocations with a 4-slot (whole
// co-located rank) request every 8th op, under enough occupancy pressure
// (~22 of 32 slots) that where the small wranks land decides whether a
// whole-rank-sized hole exists when the big request arrives:
//
//   - first_fit scatters: 2-slot requests skip 1-slot holes, so holes
//     accumulate low and occupancy creeps across every rank — the 4-slot
//     request finds no hole, eats the full retry/timeout path, and the
//     allocation tail grows;
//   - best_fit packs on placement but never repairs fragmentation that
//     releases have already created;
//   - consolidating = best_fit placement + a background consolidation
//     pass (every 4 ops here, modeling the observer tick) that migrates
//     wranks off underfull ranks and frees whole ranks.
//
// Latency is the virtual-clock delta across each allocate_wrank call
// (36 ms socket round trip + any retry waits and in-line resets), so the
// percentiles are bit-identical at any VPIM_THREADS setting. Emits
// BENCH_manager_policies.json (p50_alloc_ns / p99_alloc_ns / frag_permille
// columns next to simulated_ns/wall_ms; gated by tools/bench_diff.py) and
// self-gates (exit 1) on the tentpole claim: consolidating beats first_fit
// on p99 allocation latency or fragmentation, without losing on the other.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace vpim::bench {
namespace {

constexpr std::uint32_t kTenants = 4;
constexpr std::uint32_t kSlotsPerRank = 4;
// Small-wrank occupancy the churn hovers at: 22 of 32 slots across 8
// ranks, so only a packed machine has a whole rank free for the big
// requests.
constexpr std::uint32_t kTargetSmallSlots = 22;

struct Row {
  std::string name;
  SimNs simulated_ns = 0;
  double wall_ms = 0.0;
  SimNs p50_alloc_ns = 0;
  SimNs p99_alloc_ns = 0;
  std::uint32_t frag_permille = 0;  // mean over post-op samples
  std::uint64_t failed_allocs = 0;
  std::uint64_t consolidation_migrations = 0;
  core::PlacementPolicyKind kind = core::PlacementPolicyKind::kFirstFit;
};
std::vector<Row> g_rows;

std::uint32_t trace_ops() {
  const double scaled = 2400.0 * env_scale();
  return scaled < 120.0 ? 120 : static_cast<std::uint32_t>(scaled);
}

core::ManagerConfig policies_manager() {
  core::ManagerConfig cfg = bench_manager();
  cfg.wrank_slots_per_rank = kSlotsPerRank;
  return cfg;
}

// Deterministic per-run PRNG: xorshift64 from a fixed seed, so every
// policy replays the exact same trace decisions.
struct Rng {
  std::uint64_t s = 0x9E3779B97F4A7C15ull;
  std::uint64_t next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
};

SimNs percentile(std::vector<SimNs>& v, std::uint32_t p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t idx = (v.size() * p + 99) / 100;  // ceil(size * p / 100)
  if (idx == 0) idx = 1;
  if (idx > v.size()) idx = v.size();
  return v[idx - 1];
}

void run_policy(benchmark::State& state, core::PlacementPolicyKind kind) {
  for (auto _ : state) {
    core::ManagerConfig mcfg = policies_manager();
    mcfg.placement = kind;
    core::Host host{upmem::MachineConfig{}, bench_cost(), mcfg};
    core::Manager& mgr = host.manager;

    Rng rng;
    std::vector<std::uint64_t> small_live;
    std::uint64_t big_live = 0;  // at most one 4-slot wrank in flight
    std::uint32_t small_slots = 0;
    std::vector<SimNs> latencies;
    std::uint64_t failed = 0;
    std::uint64_t frag_sum = 0;
    std::uint32_t frag_n = 0;
    const std::uint32_t ops = trace_ops();
    latencies.reserve(ops);

    auto timed_alloc = [&](std::uint32_t tenant_idx, std::uint32_t slots) {
      const SimNs t0 = host.clock.now();
      const core::AllocResult r = mgr.allocate_wrank(
          "tenant-" + std::to_string(tenant_idx), slots);
      latencies.push_back(host.clock.now() - t0);
      if (r.status != core::AllocStatus::kOk) {
        ++failed;
        return std::uint64_t{0};
      }
      return r.wrank;
    };

    WallTimer timer;
    const SimNs start = host.clock.now();
    for (std::uint32_t i = 0; i < ops; ++i) {
      // Background observer tick: drains NANA ranks back to fresh NAAV so
      // in-line 597 ms erases stay off the allocation path for every
      // policy alike.
      mgr.observe(/*do_resets=*/true);
      if (i % 8 == 7) {
        // Whole-co-located-rank request: the tail-latency probe.
        if (big_live != 0) {
          mgr.release_wrank(big_live);
          big_live = 0;
        }
        big_live = timed_alloc(static_cast<std::uint32_t>(rng.next()) %
                                   kTenants,
                               kSlotsPerRank);
      } else if (small_slots < kTargetSmallSlots) {
        const std::uint32_t slots =
            1 + (static_cast<std::uint32_t>(rng.next()) & 1);
        const std::uint64_t id = timed_alloc(
            static_cast<std::uint32_t>(rng.next()) % kTenants, slots);
        if (id != 0) {
          small_live.push_back(id);
          small_slots += slots;
        }
      } else {
        const std::size_t victim =
            static_cast<std::size_t>(rng.next() % small_live.size());
        const std::uint64_t id = small_live[victim];
        std::uint32_t victim_slots = 0;
        for (const core::WrankInfo& w : mgr.wranks()) {
          if (w.id == id) victim_slots = w.slots;
        }
        mgr.release_wrank(id);
        small_live.erase(small_live.begin() +
                         static_cast<std::ptrdiff_t>(victim));
        small_slots -= victim_slots;
      }
      if (mgr.policy_wants_consolidation() && i % 4 == 3) {
        mgr.consolidate();
      }
      frag_sum += mgr.fragmentation_permille();
      ++frag_n;
    }
    const double wall = timer.elapsed_ms();
    const SimNs elapsed = host.clock.now() - start;

    // Invariant: nothing lost — live wranks match what the manager holds.
    const std::size_t live =
        small_live.size() + (big_live != 0 ? 1 : 0);
    if (mgr.wranks().size() != live) {
      state.SkipWithError("wrank lost or duplicated during churn");
      return;
    }

    Row row;
    row.name = std::string("policies/") + core::to_string(kind);
    row.simulated_ns = elapsed;
    row.wall_ms = wall;
    row.p50_alloc_ns = percentile(latencies, 50);
    row.p99_alloc_ns = percentile(latencies, 99);
    row.frag_permille =
        frag_n == 0 ? 0 : static_cast<std::uint32_t>(frag_sum / frag_n);
    row.failed_allocs = failed;
    row.consolidation_migrations =
        mgr.stats().consolidation_migrations;
    row.kind = kind;
    g_rows.push_back(row);

    state.SetIterationTime(ns_to_s(elapsed));
    state.counters["p99_alloc_ms"] = ns_to_ms(row.p99_alloc_ns);
    state.counters["frag_permille"] = row.frag_permille;
    state.counters["failed_allocs"] = static_cast<double>(failed);
  }
}

void write_policies_json() {
  std::vector<BenchPoint> points;
  for (const Row& row : g_rows) {
    BenchPoint& p =
        points.emplace_back(row.name, row.simulated_ns, row.wall_ms);
    p.add("p50_alloc_ns", row.p50_alloc_ns);
    p.add("p99_alloc_ns", row.p99_alloc_ns);
    p.add("frag_permille", row.frag_permille);
    p.add("failed_allocs", row.failed_allocs);
    p.add("consolidation_migrations", row.consolidation_migrations);
  }
  write_bench_json("manager_policies", points);
}

const Row* find_row(core::PlacementPolicyKind kind) {
  for (const Row& row : g_rows) {
    if (row.kind == kind) return &row;
  }
  return nullptr;
}

bool print_summary() {
  print_header(
      "Manager placement-policy ablation (churning multi-tenant trace)",
      "consolidation keeps whole-rank holes available: the consolidating "
      "policy beats first-fit on p99 allocation latency or fragmentation");
  std::printf("%-24s | %12s | %12s | %12s | %6s | %6s\n", "policy",
              "simulated", "p50 alloc", "p99 alloc", "frag", "failed");
  for (const Row& row : g_rows) {
    std::printf("%-24s | %10.2fms | %10.2fms | %10.2fms | %5u%% | %6llu\n",
                row.name.c_str(), ns_to_ms(row.simulated_ns),
                ns_to_ms(row.p50_alloc_ns), ns_to_ms(row.p99_alloc_ns),
                row.frag_permille / 10,
                static_cast<unsigned long long>(row.failed_allocs));
  }
  const Row* ff = find_row(core::PlacementPolicyKind::kFirstFit);
  const Row* cons = find_row(core::PlacementPolicyKind::kConsolidating);
  if (ff == nullptr || cons == nullptr) {
    std::fprintf(stderr, "FAIL: missing ablation rows\n");
    return false;
  }
  // Tentpole claim: consolidating strictly wins on at least one axis and
  // loses on neither.
  const bool p99_win = cons->p99_alloc_ns < ff->p99_alloc_ns;
  const bool frag_win = cons->frag_permille < ff->frag_permille;
  const bool no_loss = cons->p99_alloc_ns <= ff->p99_alloc_ns &&
                       cons->frag_permille <= ff->frag_permille;
  if (!((p99_win || frag_win) && no_loss)) {
    std::fprintf(stderr,
                 "FAIL: consolidating (p99 %.2fms, frag %u) does not beat "
                 "first_fit (p99 %.2fms, frag %u)\n",
                 ns_to_ms(cons->p99_alloc_ns), cons->frag_permille,
                 ns_to_ms(ff->p99_alloc_ns), ff->frag_permille);
    return false;
  }
  return true;
}

}  // namespace
}  // namespace vpim::bench

int main(int argc, char** argv) {
  using namespace vpim::bench;
  benchmark::Initialize(&argc, argv);
  for (const vpim::core::PlacementPolicyKind kind :
       {vpim::core::PlacementPolicyKind::kFirstFit,
        vpim::core::PlacementPolicyKind::kBestFit,
        vpim::core::PlacementPolicyKind::kConsolidating}) {
    const std::string name =
        std::string("policies/") + vpim::core::to_string(kind);
    benchmark::RegisterBenchmark(name.c_str(),
                                 [kind](benchmark::State& state) {
                                   run_policy(state, kind);
                                 })
        ->UseManualTime()
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::RunSpecifiedBenchmarks();
  const bool ok = print_summary();
  write_policies_json();
  benchmark::Shutdown();
  return ok ? 0 : 1;
}
