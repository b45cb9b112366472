// Everything that exists once per physical host: the UPMEM machine, its
// kernel driver, and the vPIM manager. Benches and examples build one Host
// and boot VMs against it.
#pragma once

#include <memory>
#include <vector>

#include "common/cost_model.h"
#include "common/fault.h"
#include "common/obs/obs.h"
#include "common/sim_clock.h"
#include "driver/driver.h"
#include "upmem/machine.h"
#include "vpim/admission.h"
#include "vpim/manager.h"

namespace vpim::core {

struct Host {
  explicit Host(upmem::MachineConfig machine_config = {},
                CostModel cost_model = {},
                ManagerConfig manager_config = {})
      : cost(cost_model),
        machine(machine_config, clock, cost),
        drv(machine),
        manager(drv, manager_config) {
    machine.set_obs(&obs);
    manager_collector = obs.metrics.add_collector(
        [this](obs::Collection& out) { collect_manager_metrics(out); });
  }

  // Installs a fault schedule on the machine (see common/fault.h). With no
  // plan installed the fault paths are dead code and the simulation is
  // byte-identical to a fault-free build.
  void install_fault_plan(std::vector<FaultEvent> events) {
    fault_plan = std::make_unique<FaultPlan>(std::move(events));
    machine.set_fault_plan(fault_plan.get());
  }

  // Installs overload protection (ISSUE 8): per-tenant token buckets, the
  // global in-flight budget and the WRR rank-grant fairness policy. With
  // no controller installed every admission hook is a null-pointer test
  // and the stack behaves bit-for-bit like the pre-admission build.
  void install_admission(AdmissionConfig config = {}) {
    admission = std::make_unique<AdmissionController>(config);
    admission->attach_histograms(
        &obs.metrics.histogram("vpim_admission_queued_ns", {}),
        &obs.metrics.histogram("vpim_admission_shed_lateness_ns", {}));
    manager.set_admission(admission.get());
    admission_collector = obs.metrics.add_collector(
        [this](obs::Collection& out) { collect_admission_metrics(out); });
  }

  // Attaches (or detaches, with nullptr) a span sink for the whole stack:
  // frontend request roots through wire/virtio/backend/driver down to
  // per-DPU compute segments all record into it. With no tracer attached
  // every span site is a single pointer test.
  void attach_tracer(obs::Tracer* tracer) { obs.tracer = tracer; }

  SimClock clock;
  CostModel cost;
  obs::Hub obs;
  upmem::PimMachine machine;
  driver::UpmemDriver drv;
  Manager manager;
  std::unique_ptr<FaultPlan> fault_plan;
  std::unique_ptr<AdmissionController> admission;
  obs::MetricsRegistry::CollectorHandle manager_collector;
  obs::MetricsRegistry::CollectorHandle admission_collector;

 private:
  void collect_admission_metrics(obs::Collection& out) {
    if (admission == nullptr) return;
    const AdmissionStats as = admission->stats();
    out.counter("vpim_admission_admitted_total", {}, as.admitted);
    out.counter("vpim_admission_shed_tenant_total", {}, as.shed_tenant);
    out.counter("vpim_admission_shed_global_total", {}, as.shed_global);
    out.counter("vpim_admission_completed_total", {}, as.completed);
    out.counter("vpim_admission_fairness_deferrals_total", {},
                as.fairness_deferrals);
    out.counter("vpim_admission_sessions_total", {}, as.sessions);
    out.gauge("vpim_admission_inflight", {},
              static_cast<std::int64_t>(as.inflight));
  }

  void collect_manager_metrics(obs::Collection& out) {
    const ManagerStats& ms = manager.stats();
    out.counter("vpim_manager_allocations_total", {}, ms.allocations);
    out.counter("vpim_manager_reuse_hits_total", {}, ms.reuse_hits);
    out.counter("vpim_manager_resets_total", {}, ms.resets);
    out.counter("vpim_manager_failed_requests_total", {},
                ms.failed_requests);
    out.counter("vpim_manager_releases_observed_total", {},
                ms.releases_observed);
    out.counter("vpim_manager_quarantined_total", {}, ms.quarantined);
    out.counter("vpim_manager_quarantine_probes_total", {},
                ms.quarantine_probes);
    out.counter("vpim_manager_recoveries_total", {}, ms.recoveries);
    out.counter("vpim_manager_seizures_observed_total", {},
                ms.seizures_observed);
    out.counter("vpim_manager_fault_records_drained_total", {},
                ms.fault_records_drained);
    out.counter("vpim_manager_status_parse_errors_total", {},
                ms.status_parse_errors);
  }
};

}  // namespace vpim::core
