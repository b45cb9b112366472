// Shared pieces of the two-clock benchmark driver: host-clock stopwatches
// and spans, the simulated-time span aggregator, the SDK boundary
// decorator, percentiles, digests and the per-repetition result record.
//
// Two clocks are kept strictly apart. Host time (std::chrono::steady_clock)
// is what the simulator costs to run; simulated time (SimClock ns) is what
// the modelled hardware would take. Nothing read from the host clock is
// ever fed into the simulation or into a digest.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/cost_model.h"
#include "common/obs/trace.h"
#include "common/sim_clock.h"
#include "sdk/platform.h"
#include "sdk/rank_device.h"

namespace perfbench {

using vpim::SimNs;

// ---- host clock -----------------------------------------------------------

inline std::int64_t host_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Accumulates host time over any number of start/stop intervals; lap()
// returns the time accumulated since the previous lap (running or not).
class Stopwatch {
 public:
  void start() {
    started_ = host_now_ns();
    running_ = true;
  }
  void stop() {
    total_ += host_now_ns() - started_;
    running_ = false;
  }
  double seconds() const { return static_cast<double>(total_) * 1e-9; }
  double lap() {
    const std::int64_t now_total =
        total_ + (running_ ? host_now_ns() - started_ : 0);
    const std::int64_t d = now_total - lapped_;
    lapped_ = now_total;
    return static_cast<double>(d) * 1e-9;
  }

 private:
  std::int64_t started_ = 0;
  std::int64_t total_ = 0;
  std::int64_t lapped_ = 0;
  bool running_ = false;
};

// Host-clock layers the benchmark times from outside the program in the
// timed phase. Names follow the repository's modules; `bench` is the
// driver's own code. (The upmem machine model runs inside the sdk_* calls;
// Host construction and destruction are set-up and teardown.)
enum class HostLayer : std::uint8_t {
  kBench = 0,  // root of a phase; its self time is the unattributed rest
  kSdkNative,  // RankDevice calls on the native arm (driver + upmem)
  kSdkVpim,    // RankDevice calls on the vPIM arm (frontend .. upmem)
  kPrim,       // PrIM app code outside device calls
  kKv,         // KvService execute/open/close
  kVmm,        // VpimVm construction and destruction
  kManager,    // Manager::observe passes
};
inline constexpr std::array<std::string_view, 7> kHostLayerNames = {
    "bench", "sdk_native", "sdk_vpim", "prim", "kv", "vmm", "manager"};
inline constexpr std::size_t kNumHostLayers = kHostLayerNames.size();

// Host-clock span recorder: name (layer), start, end, parent link and the
// id of the benchmark-level operation the span belongs to. Disabled
// recorders cost one branch per span.
class HostTrace {
 public:
  struct Span {
    HostLayer layer = HostLayer::kBench;
    std::int32_t parent = -1;
    std::uint64_t op = 0;
    std::int64_t start = 0;
    std::int64_t end = 0;
  };

  explicit HostTrace(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  std::int32_t begin(HostLayer layer) {
    if (!enabled_) return -1;
    Span s;
    s.layer = layer;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.op = op_;
    s.start = host_now_ns();
    spans_.push_back(s);
    stack_.push_back(static_cast<std::int32_t>(spans_.size() - 1));
    return stack_.back();
  }
  void end(std::int32_t id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = host_now_ns();
    stack_.pop_back();
  }
  // Starts a new benchmark-level operation (app run, KV batch, session).
  void next_op() { ++op_; }

  // Self time per layer: each span's duration minus its direct children.
  std::array<double, kNumHostLayers> self_seconds() const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::uint64_t op_ = 0;
};

class HostSpan {
 public:
  HostSpan(HostTrace& trace, HostLayer layer)
      : trace_(trace), id_(trace.begin(layer)) {}
  HostSpan(const HostSpan&) = delete;
  HostSpan& operator=(const HostSpan&) = delete;
  ~HostSpan() { trace_.end(id_); }

 private:
  HostTrace& trace_;
  std::int32_t id_;
};

// ---- digests, percentiles, seeds ------------------------------------------

// splitmix64 finaliser: derives independent input seeds from --seed.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// FNV-1a over the simulated outputs; printed as 16 hex digits.
class Digest {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001B3ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
  void str(std::string_view s) { bytes(s.data(), s.size()); }
  std::uint64_t value() const { return h_; }
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

// Nearest-rank percentile of `sorted` (ascending); q in (0, 1].
SimNs percentile(const std::vector<SimNs>& sorted, double q);
// True when at least 10 samples lie above the q-th percentile, the rule
// for reporting a percentile at all.
bool percentile_supported(std::size_t samples, double q);
double median(std::vector<double> values);
double mean(const std::vector<SimNs>& values);

// ---- simulated time per layer ---------------------------------------------

// Folds the obs::Tracer's spans into per-layer self time, span counts and a
// span digest, then clears the tracer so memory stays bounded. Call only
// between device operations (no span open).
class SimLayerAgg {
 public:
  static constexpr std::size_t kLayers = 8;  // obs::kLayerNames
  void fold(vpim::obs::Tracer& tracer);

  std::array<SimNs, kLayers> self_ns{};
  std::array<std::uint64_t, kLayers> spans{};
  Digest digest;
};

// ---- result of one repetition --------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;
};

class Metrics {
 public:
  void set(const std::string& name, double value, std::string unit,
           std::uint64_t samples = 1);
  const std::vector<std::pair<std::string, Metric>>& items() const {
    return items_;
  }
  const Metric* find(const std::string& name) const;

 private:
  std::vector<std::pair<std::string, Metric>> items_;
};

// Host times are kept per unit of work (an app run, a replay, a block of
// sessions) so the driver can take each unit's median over repetitions and
// sum them, which keeps one disturbed stretch of one repetition out of the
// result.
struct RepResult {
  std::vector<double> setup_units;
  std::vector<double> wall_units;
  std::vector<double> teardown_units;
  double setup_s = 0.0;
  double wall_s = 0.0;
  double teardown_s = 0.0;
  // Host speed index around the repetition (machine_probe.h); end-to-end
  // host times are divided by it.
  double speed_index = 1.0;
  Metrics sim;    // simulated end-to-end metrics (exact across reps)
  Metrics layer;  // per-layer metrics of this repetition
  std::array<double, kNumHostLayers> host_self_s{};  // wall phase, traced
  Digest sim_digest;   // simulated outputs
  Digest span_digest;  // simulated span stream (traced reps only)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few, for the log
  void fail(std::string what);
};

// ---- SDK boundary decorator -------------------------------------------------

// Call classes at the SDK -> RankDevice boundary. `open` is rank allocation
// and release (device open/close through the manager).
enum class CallClass : std::uint8_t {
  kTransfer = 0,
  kBroadcast,
  kLaunch,  // load, launch and run-status polls
  kSymbol,  // WRAM symbol copies
  kOpen,
};
inline constexpr std::array<std::string_view, 5> kCallClassNames = {
    "transfer", "broadcast", "launch", "symbol", "open"};
inline constexpr std::size_t kNumCallClasses = kCallClassNames.size();

// Calls moving at least this many bytes (one MRAM page) are bulk calls.
inline constexpr std::uint64_t kBulkBytes = 4096;

struct ArmStats {
  std::array<double, kNumCallClasses> host_s{};
  std::array<std::uint64_t, kNumCallClasses> calls{};
  std::vector<SimNs> call_latency;  // simulated ns per device call
  std::vector<SimNs> bulk_latency;  // the same, bulk transfers/broadcasts
  SimNs device_sim_ns = 0;          // simulated ns inside device calls
};

// Test-only host delay: PERFBENCH_PLANT_DELAY=<class>:<microseconds>
// busy-waits that long in every vPIM-arm call of the class. Host time only;
// the simulation never sees it.
struct PlantedDelay {
  std::optional<CallClass> cls;
  std::int64_t ns = 0;
  static PlantedDelay from_env();
};

// sdk::Platform decorator: every RankDevice it hands out is wrapped so each
// call is timed on both clocks and counted by class; with host spans on it
// is also recorded as a host span, and with a tracer attached the tracer is
// folded after each call.
class TimedPlatform : public vpim::sdk::Platform {
 public:
  TimedPlatform(vpim::sdk::Platform& inner, ArmStats& stats,
                HostTrace& trace, HostLayer layer, SimLayerAgg* sim_agg,
                vpim::obs::Tracer* tracer, PlantedDelay delay);

  std::vector<std::unique_ptr<vpim::sdk::RankDevice>> alloc_ranks(
      std::uint32_t nr_ranks) override;
  std::span<std::uint8_t> alloc(std::size_t bytes) override {
    return inner_.alloc(bytes);
  }
  vpim::SimClock& clock() override { return inner_.clock(); }
  const vpim::CostModel& cost() const override { return inner_.cost(); }

  // Runs `fn` as one timed call of class `cls` moving `bytes`.
  template <typename Fn>
  auto timed(CallClass cls, Fn&& fn, std::uint64_t bytes = 0)
      -> decltype(fn());

 private:
  void after_call(CallClass cls, std::int64_t host_start, SimNs sim_start,
                  std::int32_t span, std::uint64_t bytes);

  vpim::sdk::Platform& inner_;
  ArmStats& stats_;
  HostTrace& trace_;
  HostLayer layer_;
  SimLayerAgg* sim_agg_;
  vpim::obs::Tracer* tracer_;
  PlantedDelay delay_;
};

template <typename Fn>
auto TimedPlatform::timed(CallClass cls, Fn&& fn, std::uint64_t bytes)
    -> decltype(fn()) {
  const std::int64_t host_start = trace_.enabled() ? host_now_ns() : 0;
  const std::int32_t span = trace_.begin(layer_);
  const SimNs sim_start = inner_.clock().now();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    after_call(cls, host_start, sim_start, span, bytes);
  } else {
    auto out = fn();
    after_call(cls, host_start, sim_start, span, bytes);
    return out;
  }
}

// ---- misc ----------------------------------------------------------------

// VPIM_COST_PERTURB=<f> slows every cost of the model by f (fixed costs
// times f, bandwidths divided by f), exactly as the figure benches do, so
// the sensitivity self-test can show every simulated metric moves.
vpim::CostModel perturbed_cost();

double peak_rss_mb();

}  // namespace perfbench
