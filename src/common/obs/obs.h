// Observability hub: the one object the whole stack shares.
//
// A Hub owns the process-wide MetricsRegistry and an attachable Tracer
// sink. The Host creates one and plumbs a pointer down through
// machine/ranks/devices (mirroring the FaultPlan plumbing); layers record
// through it. `tracer == nullptr` (the default) is the fast path: every
// span site reduces to one pointer test.
#pragma once

#include "common/obs/metrics.h"
#include "common/obs/trace.h"

namespace vpim::obs {

struct Hub {
  Tracer* tracer = nullptr;
  MetricsRegistry metrics;
};

}  // namespace vpim::obs
