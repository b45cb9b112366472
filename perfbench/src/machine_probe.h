// Host-speed probe. A shared runner's speed drifts by tens of percent over
// minutes (other tenants' load on the host's cores, caches and page-fault
// path), and the drift moves every host time of a run together. The probe
// times five fixed kernels of the benchmark's own code, independent of the
// simulator, and condenses them into one speed index; dividing a
// repetition's host times by the index measured around it reports them in
// reference-machine seconds, so runs taken while the host was slow or fast
// compare with each other. Raw host times are reported alongside.
#pragma once

#include <array>

namespace perfbench {

struct ProbeSample {
  // Host seconds per kernel: alu, memcpy, page_fault, pointer_chase, malloc.
  std::array<double, 5> kernel_s{};
  // Geometric mean over kernels of kernel_s / reference time: 1.0 on the
  // reference machine, 1.25 when the host runs these kernels 25% slower.
  double index = 1.0;
};

// Runs the five kernels once (about 50 ms on the reference machine). Every
// buffer is mapped and unmapped inside the call, so the probe leaves no
// resident memory behind and adds nothing to a repetition's peak.
ProbeSample probe_machine();

}  // namespace perfbench
