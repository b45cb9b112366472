// Span-based tracer (see span.h for the model and DESIGN.md for the rules).
//
// Recording discipline — the three invariants that keep span streams
// bit-identical at any VPIM_THREADS:
//   1. begin_request()/begin_span()/end_span() are only legal on the serial
//      control path (the same contract SimClock already imposes). Thread-pool
//      bodies must never touch the tracer directly.
//   2. Work fanned out across the pool records through a FanoutScope: each
//      index writes its own pre-sized slot (indices are partitioned by the
//      pool, so no two workers share a slot), and the scope merges the slots
//      in index order back on the serial path when it closes.
//   3. Ids derive from the request sequence number — never from wall clock,
//      thread ids, or addresses.
//
// When no tracer is attached (the common case), every recording site is a
// single null-pointer test.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/obs/span.h"
#include "common/sim_clock.h"
#include "common/units.h"

namespace vpim::obs {

class Tracer {
 public:
  // Opens a new request scope: subsequent spans carry the returned causal
  // id until the next begin_request(). Called once per device-file op.
  std::uint64_t begin_request() {
    ++request_;
    seq_ = 0;
    return request_;
  }

  std::uint64_t current_request() const { return request_; }

  // Starts a span at `start` and pushes it on the parent stack. The span is
  // appended to the stream when end_span() pops it (completion order).
  SpanId begin_span(SpanKind kind, SimNs start) {
    Span s;
    s.id = next_id();
    s.parent = open_.empty() ? 0 : open_.back().id;
    s.request = request_;
    s.kind = kind;
    s.start = start;
    open_.push_back(s);
    return s.id;
  }

  // Ends the innermost open span. Clamped to zero if the clock was rewound
  // below the span's start (parallel-replay branches may do that).
  Span& end_span(SimNs end) {
    Span s = open_.back();
    open_.pop_back();
    s.duration = end >= s.start ? end - s.start : 0;
    spans_.push_back(s);
    return spans_.back();
  }

  // Mutators for the innermost open span (e.g. a frontend op discovering
  // late that it was batched, or a backend span adopting the causal id it
  // read off the wire).
  Span& top() { return open_.back(); }
  bool has_open() const { return !open_.empty(); }

  // Records an already-measured span (no nesting) under the current parent.
  void record(SpanKind kind, SimNs start, SimNs duration,
              std::uint64_t bytes = 0, std::uint32_t entries = 0,
              std::uint32_t rank = kNoRank, std::uint32_t tenant = kNoTenant) {
    Span s;
    s.id = next_id();
    s.parent = open_.empty() ? 0 : open_.back().id;
    s.request = request_;
    s.kind = kind;
    s.start = start;
    s.duration = duration;
    s.bytes = bytes;
    s.entries = entries;
    s.rank = rank;
    s.tenant = tenant;
    spans_.push_back(s);
  }

  // Interns a tenant/device tag, returning its stable index. Tags are
  // interned on the serial path in first-use order, so indices are
  // deterministic for a given workload.
  std::uint32_t intern(std::string_view tag) {
    for (std::uint32_t i = 0; i < tenants_.size(); ++i) {
      if (tenants_[i] == tag) return i;
    }
    tenants_.emplace_back(tag);
    return static_cast<std::uint32_t>(tenants_.size() - 1);
  }

  const std::vector<std::string>& tenants() const { return tenants_; }
  const std::vector<Span>& spans() const { return spans_; }

  void clear() {
    spans_.clear();
    open_.clear();
    tenants_.clear();
    request_ = 0;
    seq_ = 0;
  }

  // Total virtual time in spans of exactly `kind` (any nesting depth).
  SimNs total_for(SpanKind kind) const {
    SimNs total = 0;
    for (const Span& s : spans_) {
      if (s.kind == kind) total += s.duration;
    }
    return total;
  }

  // Total virtual time in *root* spans of the category — i.e. whole
  // device-file operations, matching DeviceStats::ops and Fig 12. Nested
  // spans (fills, flushes, wire/virtio/backend segments) are already part
  // of their root's duration and are deliberately not double counted.
  SimNs total_for(Category cat) const {
    SimNs total = 0;
    for (const Span& s : spans_) {
      if (s.parent == 0 && category_of(s.kind) == cat) total += s.duration;
    }
    return total;
  }

  std::uint64_t count_for(Category cat) const {
    std::uint64_t n = 0;
    for (const Span& s : spans_) {
      if (s.parent == 0 && category_of(s.kind) == cat) ++n;
    }
    return n;
  }

  // CSV exporter, column-compatible with the old flat tracer plus the new
  // causal columns: start_us,duration_us,kind,bytes,entries,id,parent,
  // request,layer,rank,tenant.
  void dump_csv(std::ostream& os) const;

  // Deterministic one-line-per-span digest used by determinism_test to
  // diff streams across thread counts (and handy in goldens).
  std::string digest() const;

  // Per-index span slots for thread-pool fan-out. Workers call record()
  // with their index; the destructor (or merge()) replays the slots in
  // index order on the serial path. A null tracer makes every call a no-op.
  class FanoutScope {
   public:
    FanoutScope(Tracer* t, std::size_t slots) : t_(t) {
      if (t_ != nullptr) slots_.resize(slots);
    }
    FanoutScope(const FanoutScope&) = delete;
    FanoutScope& operator=(const FanoutScope&) = delete;
    ~FanoutScope() { merge(); }

    bool active() const { return t_ != nullptr; }

    // Safe to call concurrently for distinct indices.
    void record(std::size_t index, SpanKind kind, SimNs start, SimNs duration,
                std::uint64_t bytes = 0, std::uint32_t entries = 0,
                std::uint32_t rank = kNoRank) {
      if (t_ == nullptr) return;
      Slot& slot = slots_[index];
      slot.used = true;
      slot.span.kind = kind;
      slot.span.start = start;
      slot.span.duration = duration;
      slot.span.bytes = bytes;
      slot.span.entries = entries;
      slot.span.rank = rank;
    }

    void merge() {
      if (t_ == nullptr) return;
      for (const Slot& slot : slots_) {
        if (!slot.used) continue;
        t_->record(slot.span.kind, slot.span.start, slot.span.duration,
                   slot.span.bytes, slot.span.entries, slot.span.rank);
      }
      slots_.clear();
      t_ = nullptr;
    }

   private:
    struct Slot {
      bool used = false;
      Span span;
    };
    Tracer* t_;
    std::vector<Slot> slots_;
  };

 private:
  SpanId next_id() {
    ++seq_;
    return (request_ << kRequestShift) | seq_;
  }

  std::vector<Span> spans_;
  std::vector<Span> open_;  // parent stack
  std::vector<std::string> tenants_;
  std::uint64_t request_ = 0;
  std::uint64_t seq_ = 0;  // span sequence within the current request
};

// RAII span tied to a SimClock: begins at clock.now() on construction, ends
// at clock.now() on destruction. All tracer operations are no-ops when
// `tracer` is null, so instrumented code needs no branches of its own.
// A non-null `total` receives the span's duration when it closes, traced
// or not, so a step timed by its span (a Fig 13 W-rank step) is accounted
// by that one scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const SimClock& clock, SpanKind kind,
             SimNs* total = nullptr)
      : tracer_(tracer), clock_(clock), total_(total), start_(clock.now()) {
    if (tracer_ != nullptr) tracer_->begin_span(kind, start_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { close(); }

  // Ends the span now instead of at scope exit (e.g. to open a sibling
  // span in the same scope). Idempotent; the destructor becomes a no-op.
  void close() {
    const SimNs end = clock_.now();
    if (total_ != nullptr) *total_ += end >= start_ ? end - start_ : 0;
    if (tracer_ != nullptr) tracer_->end_span(end);
    total_ = nullptr;
    tracer_ = nullptr;
  }

  void set_kind(SpanKind kind) {
    if (tracer_ != nullptr) tracer_->top().kind = kind;
  }
  void set_bytes(std::uint64_t bytes) {
    if (tracer_ != nullptr) tracer_->top().bytes = bytes;
  }
  void set_entries(std::uint32_t entries) {
    if (tracer_ != nullptr) tracer_->top().entries = entries;
  }
  void set_rank(std::uint32_t rank) {
    if (tracer_ != nullptr) tracer_->top().rank = rank;
  }
  // Adopts a causal id carried in-band (e.g. WireRequest::request_id) when
  // the span was opened outside the originating request scope.
  void set_request(std::uint64_t request) {
    if (tracer_ != nullptr) tracer_->top().request = request;
  }

 private:
  Tracer* tracer_;
  const SimClock& clock_;
  SimNs* total_;
  SimNs start_;
};

}  // namespace vpim::obs
