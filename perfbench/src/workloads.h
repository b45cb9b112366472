// The three workloads. Each run_* builds its fixture (set-up), runs the
// timed phase, tears the fixture down and returns one repetition's result;
// main.cc repeats them for the requested number of seconds.
#pragma once

#include <cstdint>

#include "common.h"
#include "vpim/device_stats.h"
#include "vpim/manager.h"

namespace vpim::kv {
struct KvStats;
struct KvOp;
struct KvResult;
}  // namespace vpim::kv
namespace vpim::prop {
class KvOracle;
}  // namespace vpim::prop

namespace perfbench {

// A repetition runs untraced, with the benchmark's host-clock spans
// (host_spans), or with the simulator's span tracer attached (sim_trace).
struct RunArgs {
  std::uint64_t seed = 1;
  bool host_spans = false;
  bool sim_trace = false;
  PlantedDelay delay;
};

RepResult run_prim_fig8(const RunArgs& args);
RepResult run_kv_zipf(const RunArgs& args);
RepResult run_tenant_churn(const RunArgs& args);

// ---- per-layer accounting shared by the workloads ----------------------

// Every per-layer metric name with its unit, set to zero, so each
// workload reports the full set (layers a workload does not use read 0).
void set_layer_defaults(Metrics& m);

// Simulated per-layer self time and span counts (sim_trace repetitions) and
// the host self times of the timed phase (host_spans repetitions).
void set_trace_layers(RepResult& r, const SimLayerAgg& agg);

struct FrontendTotals {
  std::uint64_t ops = 0;
  std::uint64_t notifies = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t batched_writes = 0;
  std::uint64_t batch_flushes = 0;
  std::uint64_t doorbells = 0;
  std::uint64_t request_errors = 0;
  std::uint64_t emulated_binds = 0;
  void add(const vpim::core::DeviceStats& s);
  void report(Metrics& m) const;
};

struct KvTotals {
  std::uint64_t ops = 0;  // ops executed (all kinds)
  std::uint64_t gets = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t batches = 0;
  std::uint64_t cycles = 0;
  std::uint64_t rebalances = 0;
  std::uint64_t migrated_records = 0;
  std::uint64_t device_errors = 0;
  // Host time (traced repetitions only).
  double exec_s = 0.0;
  double open_s = 0.0;
  double close_s = 0.0;
  std::uint64_t opens = 0;
  std::uint64_t closes = 0;
  void add(const vpim::kv::KvStats& s);
  void report(Metrics& m) const;
};

void report_manager(Metrics& m, const vpim::core::ManagerStats& s,
                    double observe_host_s, std::uint64_t observes);

// Compares one executed batch with the oracle (counting each op as one
// attempt) and folds the results into the repetition's digest.
void check_kv_results(vpim::prop::KvOracle& oracle,
                      std::span<const vpim::kv::KvOp> ops,
                      const std::vector<vpim::kv::KvResult>& results,
                      RepResult& r);

// Cost model and manager settings every Host of the benchmark uses (the
// figure benches' settings: 10 ms retry wait, 3 attempts).
vpim::core::ManagerConfig bench_manager();

// Bytes of MRAM the machine's ranks hold materialised.
std::uint64_t machine_resident_bytes(vpim::upmem::PimMachine& machine);

}  // namespace perfbench
