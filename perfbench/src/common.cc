#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unordered_map>

#include "common/obs/span.h"

namespace perfbench {

std::array<double, kNumHostLayers> HostTrace::self_seconds() const {
  std::vector<std::int64_t> child(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
  }
  std::array<double, kNumHostLayers> out{};
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::int64_t self = spans_[i].end - spans_[i].start - child[i];
    out[static_cast<std::size_t>(spans_[i].layer)] +=
        static_cast<double>(std::max<std::int64_t>(self, 0)) * 1e-9;
  }
  return out;
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

SimNs percentile(const std::vector<SimNs>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

bool percentile_supported(std::size_t samples, double q) {
  return static_cast<double>(samples) * (1.0 - q) >= 10.0 - 1e-9;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double mean(const std::vector<SimNs>& values) {
  if (values.empty()) return 0.0;
  long double total = 0;
  for (SimNs v : values) total += static_cast<long double>(v);
  return static_cast<double>(total / static_cast<long double>(values.size()));
}

void SimLayerAgg::fold(vpim::obs::Tracer& tracer) {
  const auto& all = tracer.spans();
  if (all.empty()) {
    tracer.clear();
    return;
  }
  // A layer's self time is its span minus the union of the intervals its
  // direct children cover (children may overlap: per-DPU compute spans
  // run in parallel inside one rank launch).
  std::unordered_map<vpim::obs::SpanId, std::size_t> index;
  index.reserve(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) index.emplace(all[i].id, i);
  std::vector<std::vector<std::pair<SimNs, SimNs>>> kids(all.size());
  for (const auto& s : all) {
    if (s.parent == 0) continue;
    auto it = index.find(s.parent);
    if (it == index.end()) continue;
    kids[it->second].emplace_back(s.start, s.start + s.duration);
  }
  for (std::size_t i = 0; i < all.size(); ++i) {
    const auto& s = all[i];
    const SimNs lo = s.start;
    const SimNs hi = s.start + s.duration;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    SimNs covered = 0;
    SimNs cur_lo = 0;
    SimNs cur_hi = 0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::clamp(a, lo, hi);
      b = std::clamp(b, lo, hi);
      if (b <= a) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = a;
      cur_hi = b;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    const auto layer = static_cast<std::size_t>(vpim::obs::layer_of(s.kind));
    self_ns[layer] += s.duration - std::min(covered, s.duration);
    ++spans[layer];
    digest.u64(static_cast<std::uint64_t>(s.kind));
    digest.u64(s.id);
    digest.u64(s.parent);
    digest.u64(s.start);
    digest.u64(s.duration);
    digest.u64(s.bytes);
    digest.u64(s.entries);
    digest.u64(s.rank);
  }
  tracer.clear();
}

void Metrics::set(const std::string& name, double value, std::string unit,
                  std::uint64_t samples) {
  for (auto& [n, m] : items_) {
    if (n == name) {
      m = {value, std::move(unit), samples};
      return;
    }
  }
  items_.push_back({name, {value, std::move(unit), samples}});
}

const Metric* Metrics::find(const std::string& name) const {
  for (const auto& [n, m] : items_) {
    if (n == name) return &m;
  }
  return nullptr;
}

void RepResult::fail(std::string what) {
  ++failed;
  if (failures.size() < 8) failures.push_back(std::move(what));
}

PlantedDelay PlantedDelay::from_env() {
  PlantedDelay d;
  const char* s = std::getenv("PERFBENCH_PLANT_DELAY");
  if (s == nullptr || *s == '\0') return d;
  const char* colon = std::strchr(s, ':');
  if (colon == nullptr) return d;
  const std::string_view cls(s, static_cast<std::size_t>(colon - s));
  for (std::size_t i = 0; i < kNumCallClasses; ++i) {
    if (kCallClassNames[i] == cls) d.cls = static_cast<CallClass>(i);
  }
  d.ns = static_cast<std::int64_t>(std::atof(colon + 1) * 1e3);
  return d;
}

namespace {

class TimedRankDevice : public vpim::sdk::RankDevice {
 public:
  TimedRankDevice(std::unique_ptr<vpim::sdk::RankDevice> inner,
                  TimedPlatform& platform)
      : inner_(std::move(inner)), p_(platform) {}
  // Releasing the device closes it (the vPIM arm's frontend close).
  ~TimedRankDevice() override {
    p_.timed(CallClass::kOpen, [&] { inner_.reset(); });
  }

  std::uint32_t nr_dpus() override { return inner_->nr_dpus(); }
  void load(std::string_view kernel) override {
    p_.timed(CallClass::kLaunch, [&] { inner_->load(kernel); });
  }
  void launch(std::uint64_t mask,
              std::optional<std::uint32_t> tasklets) override {
    p_.timed(CallClass::kLaunch, [&] { inner_->launch(mask, tasklets); });
  }
  std::uint64_t running_mask() override {
    return p_.timed(CallClass::kLaunch,
                    [&] { return inner_->running_mask(); });
  }
  void transfer(const vpim::driver::TransferMatrix& matrix) override {
    p_.timed(CallClass::kTransfer, [&] { inner_->transfer(matrix); },
             matrix.total_bytes());
  }
  void broadcast(std::uint64_t off,
                 std::span<const std::uint8_t> data) override {
    p_.timed(CallClass::kBroadcast, [&] { inner_->broadcast(off, data); },
             data.size() * inner_->nr_dpus());
  }
  void copy_to_symbol(std::uint32_t dpu, std::string_view symbol,
                      std::uint32_t offset,
                      std::span<const std::uint8_t> data) override {
    p_.timed(CallClass::kSymbol, [&] {
      inner_->copy_to_symbol(dpu, symbol, offset, data);
    });
  }
  void copy_from_symbol(std::uint32_t dpu, std::string_view symbol,
                        std::uint32_t offset,
                        std::span<std::uint8_t> out) override {
    p_.timed(CallClass::kSymbol, [&] {
      inner_->copy_from_symbol(dpu, symbol, offset, out);
    });
  }
  void push_symbols(vpim::driver::XferDirection dir, std::string_view symbol,
                    std::uint32_t offset, std::span<std::uint8_t> packed,
                    std::uint32_t bytes_per_dpu) override {
    p_.timed(CallClass::kSymbol, [&] {
      inner_->push_symbols(dir, symbol, offset, packed, bytes_per_dpu);
    });
  }

 private:
  std::unique_ptr<vpim::sdk::RankDevice> inner_;
  TimedPlatform& p_;
};

void spin_for(std::int64_t ns) {
  const std::int64_t until = host_now_ns() + ns;
  while (host_now_ns() < until) {
  }
}

}  // namespace

TimedPlatform::TimedPlatform(vpim::sdk::Platform& inner, ArmStats& stats,
                             HostTrace& trace, HostLayer layer,
                             SimLayerAgg* sim_agg,
                             vpim::obs::Tracer* tracer, PlantedDelay delay)
    : inner_(inner),
      stats_(stats),
      trace_(trace),
      layer_(layer),
      sim_agg_(sim_agg),
      tracer_(tracer),
      delay_(delay) {
  poll_period_ns = inner.poll_period_ns;
}

std::vector<std::unique_ptr<vpim::sdk::RankDevice>>
TimedPlatform::alloc_ranks(std::uint32_t nr_ranks) {
  auto inner = timed(CallClass::kOpen,
                     [&] { return inner_.alloc_ranks(nr_ranks); });
  std::vector<std::unique_ptr<vpim::sdk::RankDevice>> out;
  out.reserve(inner.size());
  for (auto& dev : inner) {
    out.push_back(std::make_unique<TimedRankDevice>(std::move(dev), *this));
  }
  return out;
}

void TimedPlatform::after_call(CallClass cls, std::int64_t host_start,
                               SimNs sim_start, std::int32_t span,
                               std::uint64_t bytes) {
  const auto c = static_cast<std::size_t>(cls);
  if (layer_ == HostLayer::kSdkVpim && delay_.cls == cls) spin_for(delay_.ns);
  trace_.end(span);
  const SimNs sim = inner_.clock().now() - sim_start;
  ++stats_.calls[c];
  stats_.device_sim_ns += sim;
  if (cls != CallClass::kOpen) stats_.call_latency.push_back(sim);
  if (bytes >= kBulkBytes) stats_.bulk_latency.push_back(sim);
  if (trace_.enabled()) {
    stats_.host_s[c] += static_cast<double>(host_now_ns() - host_start) * 1e-9;
  }
  if (tracer_ != nullptr && !tracer_->has_open()) sim_agg_->fold(*tracer_);
}

vpim::CostModel perturbed_cost() {
  vpim::CostModel cost;
  const char* s = std::getenv("VPIM_COST_PERTURB");
  const double f = s == nullptr ? 0.0 : std::atof(s);
  if (f <= 0.0) return cost;
  auto slow = [f](SimNs& ns) {
    ns = static_cast<SimNs>(static_cast<double>(ns) * f);
  };
  auto throttle = [f](double& gbps) { gbps /= f; };
  for (SimNs* ns :
       {&cost.ci_op_native_ns, &cost.ci_op_backend_ns, &cost.ioctl_ns,
        &cost.native_xfer_fixed_ns, &cost.vmexit_notify_ns,
        &cost.irq_inject_ns, &cost.frontend_request_fixed_ns,
        &cost.vhost_notify_ns, &cost.vhost_complete_ns,
        &cost.page_mgmt_ns_per_page, &cost.serialize_ns_per_page,
        &cost.per_dpu_metadata_ns, &cost.deserialize_ns_per_page,
        &cost.gpa_translate_ns_per_page, &cost.thread_dispatch_ns,
        &cost.backend_per_entry_ns, &cost.cache_hit_fixed_ns,
        &cost.manager_alloc_rt_ns, &cost.fault_retry_backoff_ns,
        &cost.rank_probe_ns, &cost.vm_boot_base_ns, &cost.vupmem_boot_ns,
        &cost.admission_check_ns, &cost.kv_cache_hit_ns}) {
    slow(*ns);
  }
  for (double* gbps :
       {&cost.mram_dma_gbps, &cost.interleave_wide_gbps,
        &cost.interleave_naive_gbps, &cost.scattered_copy_gbps,
        &cost.memset_gbps, &cost.guest_memcpy_gbps, &cost.emulated_copy_gbps,
        &cost.rank_rescue_gbps}) {
    throttle(*gbps);
  }
  cost.dpu_hz /= f;
  return cost;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
