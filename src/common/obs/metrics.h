// Process-wide metrics registry (DESIGN.md §"Observability").
//
// Virtual-time histograms are the one registered instrument: fixed log2
// bucket boundaries (bucket index = bit_width of the value), series keyed
// by explicit label sets and enumerated in registration order. Nothing
// reads the wall clock, so two runs of the same workload export
// byte-identical text at any VPIM_THREADS. Histograms must only be touched
// from the serial control path (the SimClock contract); thread-pool bodies
// aggregate locally and publish on the serial path.
//
// Collectors are the one path for counters and gauges. The live stats
// structs (DeviceStats, ManagerStats, KvStats, ...) are published through
// a callback registered with add_collector() that contributes
// point-in-time samples at export, so the hot path keeps one plain field
// per counter and no second bookkeeping. Each exporter writes every family
// once: the registered histograms first, then the collected families in
// first-appearance order, each with all of its samples together whichever
// collector emitted them.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/units.h"

namespace vpim::obs {

using Labels = std::vector<std::pair<std::string, std::string>>;

// Fixed log2-bucket histogram for virtual-time (or byte-size) samples.
// Bucket i counts values with bit_width(v) == i, i.e. upper bounds
// 0, 1, 3, 7, ..., 2^39-1; the last bucket is +Inf. 2^39 ns ≈ 9.2 min of
// virtual time, far beyond any single modeled operation.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 41;  // bit widths 0..40, then +Inf

  void observe(std::uint64_t v) {
    std::size_t b = 0;
    for (std::uint64_t x = v; x != 0; x >>= 1) ++b;  // bit_width
    if (b >= kBuckets) b = kBuckets;                 // +Inf bucket
    ++counts_[b];
    ++count_;
    sum_ += v;
  }

  // Inclusive upper bound of bucket i (the +Inf bucket has none).
  static std::uint64_t upper_bound(std::size_t i) {
    return i == 0 ? 0 : ((std::uint64_t{1} << i) - 1);
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t bucket_count(std::size_t i) const { return counts_[i]; }

 private:
  std::uint64_t counts_[kBuckets + 1] = {};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
};

// A point-in-time sample sink passed to collectors at export time. Samples
// group by family name as they arrive: a family keeps the position of its
// first sample, and later samples of it join that group.
class Collection {
 public:
  void counter(std::string_view name, const Labels& labels,
               std::uint64_t value);
  void gauge(std::string_view name, const Labels& labels, std::int64_t value);

 private:
  friend class MetricsRegistry;
  struct Sample {
    Labels labels;
    std::int64_t value = 0;
  };
  struct Family {
    std::string name;
    bool is_counter = true;  // the first sample's kind names the family's
    std::vector<Sample> samples;
  };
  void add(std::string_view name, bool is_counter, const Labels& labels,
           std::int64_t value);
  std::vector<Family> families_;  // first-appearance order
};

class MetricsRegistry {
 public:
  // A histogram family keeps at most this many labeled series; further label
  // combinations all fold into one overflow series labeled
  // {"overflow"="true"} so a label-cardinality bug cannot eat memory.
  static constexpr std::size_t kMaxSeriesPerFamily = 64;

  Histogram& histogram(std::string_view name, const Labels& labels = {});

  // Registers a live-stats collector; the returned handle unregisters on
  // destruction. Collectors run (in registration order) at every export.
  using Collector = std::function<void(Collection&)>;
  class CollectorHandle {
   public:
    CollectorHandle() = default;
    CollectorHandle(MetricsRegistry* reg, std::uint64_t id)
        : reg_(reg), id_(id) {}
    CollectorHandle(CollectorHandle&& o) noexcept
        : reg_(o.reg_), id_(o.id_) {
      o.reg_ = nullptr;
    }
    CollectorHandle& operator=(CollectorHandle&& o) noexcept {
      release();
      reg_ = o.reg_;
      id_ = o.id_;
      o.reg_ = nullptr;
      return *this;
    }
    CollectorHandle(const CollectorHandle&) = delete;
    CollectorHandle& operator=(const CollectorHandle&) = delete;
    ~CollectorHandle() { release(); }
    void release();

   private:
    MetricsRegistry* reg_ = nullptr;
    std::uint64_t id_ = 0;
  };
  CollectorHandle add_collector(Collector fn);

  // Prometheus text exposition format, deterministic ordering: one
  // "# TYPE" line per family, followed by all of its samples.
  std::string prometheus_text() const;
  // JSON snapshot of the same data, in the same family order.
  std::string json_snapshot() const;

  // Families in one export: registered histograms plus collected ones.
  std::size_t family_count() const;

 private:
  friend class CollectorHandle;
  struct Series {
    Labels labels;
    Histogram histogram;
  };
  // Deques keep references returned by histogram() stable while later
  // registrations grow the registry.
  struct Family {
    std::string name;
    std::deque<Series> series;  // registration order
  };
  struct CollectorEntry {
    std::uint64_t id;
    Collector fn;
  };

  Family& family(std::string_view name);
  Series& series(Family& fam, const Labels& labels);
  Collection collect() const;
  void remove_collector(std::uint64_t id);

  std::deque<Family> families_;  // registration order
  std::vector<CollectorEntry> collectors_;
  std::uint64_t next_collector_id_ = 1;
};

}  // namespace vpim::obs
