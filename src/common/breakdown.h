// Time-accounting buckets matching the paper's two breakdowns (§5.1):
//  - application-centric: CPU-DPU / DPU / Inter-DPU / DPU-CPU (Fig 8);
//  - driver-centric: CI / read-from-rank / write-to-rank ops (Fig 12) and
//    the write-to-rank step breakdown (Fig 13).
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "common/sim_clock.h"
#include "common/units.h"

namespace vpim {

// Application-centric segments.
enum class Segment : std::uint8_t { kCpuDpu = 0, kDpu, kInterDpu, kDpuCpu };
inline constexpr std::array<std::string_view, 4> kSegmentNames = {
    "CPU-DPU", "DPU", "Inter-DPU", "DPU-CPU"};

struct TimeBreakdown {
  std::array<SimNs, 4> segment{};

  SimNs& operator[](Segment s) { return segment[static_cast<std::size_t>(s)]; }
  SimNs operator[](Segment s) const {
    return segment[static_cast<std::size_t>(s)];
  }
  SimNs total() const {
    SimNs t = 0;
    for (SimNs s : segment) t += s;
    return t;
  }
  TimeBreakdown& operator+=(const TimeBreakdown& o) {
    for (std::size_t i = 0; i < segment.size(); ++i) segment[i] += o.segment[i];
    return *this;
  }
};

// Tags virtual-time spent inside a scope with an application segment.
class SegmentScope {
 public:
  SegmentScope(const SimClock& clock, TimeBreakdown& breakdown, Segment seg)
      : timer_(clock, breakdown[seg]) {}

 private:
  ScopedTimer timer_;
};

// Driver-centric operation classes (Fig 12).
enum class RankOp : std::uint8_t { kCi = 0, kReadFromRank, kWriteToRank };
inline constexpr std::size_t kNumRankOps = 3;
inline constexpr std::array<std::string_view, kNumRankOps> kRankOpNames = {
    "CI", "R-rank", "W-rank"};

struct OpBreakdown {
  std::array<SimNs, 3> op_time{};
  std::array<std::uint64_t, 3> op_count{};

  void add(RankOp op, SimNs t) {
    op_time[static_cast<std::size_t>(op)] += t;
    op_count[static_cast<std::size_t>(op)] += 1;
  }
  SimNs time(RankOp op) const { return op_time[static_cast<std::size_t>(op)]; }
  std::uint64_t count(RankOp op) const {
    return op_count[static_cast<std::size_t>(op)];
  }
};

// Steps of a write-to-rank operation (Fig 13): page management, matrix
// serialization, virtio interrupt handling, matrix deserialization, and the
// data transfer to UPMEM.
enum class WrankStep : std::uint8_t {
  kPageMgmt = 0,
  kSerialize,
  kInterrupt,
  kDeserialize,
  kTransferData
};
inline constexpr std::array<std::string_view, 5> kWrankStepNames = {
    "Page", "Ser", "Int", "Deser", "T-data"};

struct StepBreakdown {
  std::array<SimNs, 5> step_time{};

  SimNs& operator[](WrankStep s) {
    return step_time[static_cast<std::size_t>(s)];
  }
  void add(WrankStep s, SimNs t) {
    step_time[static_cast<std::size_t>(s)] += t;
  }
  SimNs time(WrankStep s) const {
    return step_time[static_cast<std::size_t>(s)];
  }
  SimNs total() const {
    SimNs t = 0;
    for (SimNs s : step_time) t += s;
    return t;
  }
};

}  // namespace vpim
