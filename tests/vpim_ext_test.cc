// Tests for the extension features: virtio device lifecycle, vhost-style
// transitions (§7 future work), and dynamic rank migration (§3.3).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <tuple>

#include "tests/test_kernels.h"
#include "tests/testutil.h"
#include "upmem/kernel.h"
#include "virtio/device_state.h"
#include "vpim/guest_platform.h"
#include "vpim/host.h"
#include "vpim/vpim_vm.h"

namespace vpim::core {
namespace {

ManagerConfig fast_manager() {
  ManagerConfig cfg;
  cfg.retry_wait_ns = 1 * kMs;
  cfg.max_attempts = 2;
  return cfg;
}

// ------------------------------------------------------ device lifecycle

TEST(DeviceState, HappyPathNegotiation) {
  virtio::DeviceState state(0);
  EXPECT_FALSE(state.driver_ok());
  state.write_status(virtio::kStatusAcknowledge);
  state.write_status(virtio::kStatusAcknowledge | virtio::kStatusDriver);
  state.write_driver_features(0);
  state.write_status(virtio::kStatusAcknowledge | virtio::kStatusDriver |
                     virtio::kStatusFeaturesOk);
  state.write_status(virtio::kStatusAcknowledge | virtio::kStatusDriver |
                     virtio::kStatusFeaturesOk | virtio::kStatusDriverOk);
  EXPECT_TRUE(state.driver_ok());
  EXPECT_EQ(state.negotiated_features(), 0u);
}

TEST(DeviceState, OutOfOrderTransitionsRejected) {
  virtio::DeviceState state(0);
  // DRIVER before ACKNOWLEDGE.
  EXPECT_THROW(state.write_status(virtio::kStatusDriver), VpimError);
  state.reset();
  // FEATURES_OK before writing features.
  state.write_status(virtio::kStatusAcknowledge);
  state.write_status(virtio::kStatusAcknowledge | virtio::kStatusDriver);
  EXPECT_THROW(
      state.write_status(virtio::kStatusAcknowledge |
                         virtio::kStatusDriver |
                         virtio::kStatusFeaturesOk),
      VpimError);
  // Removing bits is not allowed.
  EXPECT_THROW(state.write_status(virtio::kStatusAcknowledge), VpimError);
}

TEST(DeviceState, UnofferedFeaturesFailTheDevice) {
  virtio::DeviceState state(0);  // PIM offers no feature bits
  state.write_status(virtio::kStatusAcknowledge);
  state.write_status(virtio::kStatusAcknowledge | virtio::kStatusDriver);
  state.write_driver_features(0x4);  // driver asks for something bogus
  EXPECT_THROW(
      state.write_status(virtio::kStatusAcknowledge |
                         virtio::kStatusDriver |
                         virtio::kStatusFeaturesOk),
      VpimError);
  EXPECT_EQ(state.status() & virtio::kStatusFailed, virtio::kStatusFailed);
  // FAILED sticks until a reset.
  EXPECT_THROW(state.write_status(virtio::kStatusAcknowledge), VpimError);
  state.reset();
  EXPECT_EQ(state.status(), 0);
}

TEST(DeviceState, NotifyBeforeDriverOkRejected) {
  test::TestRig unused(test::small_machine());
  Host host(test::small_machine(), CostModel{}, fast_manager());
  VpimVm vm(host, {.name = "lifecycle"}, 1);
  // Poke the backend directly, bypassing the frontend's init dance.
  EXPECT_THROW(vm.device(0).backend.handle_transferq(), VpimError);
  // After a proper open, notifications flow.
  ASSERT_TRUE(vm.device(0).frontend.open());
  EXPECT_NO_THROW(vm.device(0).backend.handle_transferq());
}

// ----------------------------------------------------------------- vhost

TEST(Vhost, CutsTransitionCostOnSmallOps) {
  auto run = [&](VpimConfig cfg) {
    Host host(test::small_machine(), CostModel{}, fast_manager());
    VpimVm vm(host, {.name = "vhost"}, 1, cfg);
    Frontend& fe = vm.device(0).frontend;
    EXPECT_TRUE(fe.open());
    auto buf = vm.vmm().memory().alloc(4 * kKiB);
    const SimNs t0 = host.clock.now();
    // Small-op workload: CI status reads are pure round trips.
    for (int i = 0; i < 100; ++i) (void)fe.ci_running_mask();
    driver::TransferMatrix w;
    w.entries.push_back({0, 0, buf.data(), buf.size()});
    fe.write_to_rank(w);
    return host.clock.now() - t0;
  };
  const SimNs classic = run(VpimConfig::full());
  const SimNs vhost = run(VpimConfig::vhost());
  EXPECT_LT(vhost, classic);
  // Round trip drops from ~35 us to ~9 us: better than 2x on this mix.
  EXPECT_GT(static_cast<double>(classic) / static_cast<double>(vhost),
            2.0);
}

TEST(Vhost, ResultsStayCorrect) {
  Host host(test::small_machine(), CostModel{}, fast_manager());
  VpimVm vm(host, {.name = "vhost-app"}, 1, VpimConfig::vhost());
  GuestPlatform platform(vm);
  auto [zeros, expected] = test::run_count_zeros(platform, 8, 4096, 5);
  EXPECT_EQ(zeros, expected);
}

// ------------------------------------------------------- rank migration

TEST(Migration, ContentSurvivesAndOldRankRecycles) {
  Host host(test::small_machine(), CostModel{}, fast_manager());
  VpimVm vm(host, {.name = "migrator"}, 1);
  Frontend& fe = vm.device(0).frontend;
  ASSERT_TRUE(fe.open());
  const std::uint32_t old_rank = vm.device(0).backend.rank_index();

  auto buf = vm.vmm().memory().alloc(64 * kKiB);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::uint8_t>(i * 13);
  }
  driver::TransferMatrix w;
  w.entries.push_back({2, 4096, buf.data(), buf.size()});
  fe.write_to_rank(w);

  const SimNs t0 = host.clock.now();
  ASSERT_TRUE(fe.migrate());
  const std::uint32_t new_rank = vm.device(0).backend.rank_index();
  EXPECT_NE(new_rank, old_rank);
  // Migration pays the manager round trip plus the rank-to-rank copy.
  EXPECT_GT(host.clock.now() - t0, host.cost.manager_alloc_rt_ns);

  // The device still serves the same data, now from the new rank.
  auto out = vm.vmm().memory().alloc(buf.size());
  driver::TransferMatrix r;
  r.direction = driver::XferDirection::kFromRank;
  r.entries.push_back({2, 4096, out.data(), out.size()});
  fe.read_from_rank(r);
  EXPECT_TRUE(std::memcmp(out.data(), buf.data(), buf.size()) == 0);

  // The old rank was released; the observer reclaims and erases it.
  EXPECT_FALSE(host.drv.is_mapped(old_rank));
  host.manager.observe();
  host.manager.observe();
  EXPECT_EQ(host.manager.state(old_rank), RankState::kNaav);
  std::vector<std::uint8_t> probe(16, 1);
  host.machine.rank(old_rank).mram(2).read(4096, probe);
  for (auto b : probe) EXPECT_EQ(b, 0);  // no residual data (R2)
}

TEST(Migration, LoadedProgramSurvives) {
  test::register_count_zeros();
  Host host(test::small_machine(), CostModel{}, fast_manager());
  VpimVm vm(host, {.name = "migrator2"}, 1);
  Frontend& fe = vm.device(0).frontend;
  ASSERT_TRUE(fe.open());

  fe.ci_load("test_count_zeros");
  auto buf = vm.vmm().memory().alloc(16 * kKiB);
  std::memset(buf.data(), 0, buf.size());  // all zeros -> count = n
  driver::TransferMatrix w;
  w.entries.push_back({0, 0, buf.data(), buf.size()});
  fe.write_to_rank(w);
  std::uint32_t ps = 16 * kKiB;
  fe.ci_copy_to_symbol(0, "partition_size", 0, test::bytes_u32(ps));

  ASSERT_TRUE(fe.migrate());

  // Launch *after* migration: binary and symbols must have moved too.
  fe.ci_launch(0b1, 16);
  while (fe.ci_running_mask() != 0) host.clock.advance(100 * kUs);
  std::uint32_t count = 0;
  fe.ci_copy_from_symbol(0, "zero_count", 0, test::bytes_u32(count));
  EXPECT_EQ(count, 16 * kKiB / 4);
}

TEST(Migration, FailsCleanlyWhenMachineFull) {
  Host host(test::small_machine(), CostModel{}, fast_manager());
  VpimVm vm(host, {.name = "full"}, 2);
  ASSERT_TRUE(vm.device(0).frontend.open());
  ASSERT_TRUE(vm.device(1).frontend.open());  // both ranks taken
  const std::uint32_t rank_before = vm.device(0).backend.rank_index();
  EXPECT_FALSE(vm.device(0).frontend.migrate());
  // Still bound to the original rank and fully usable.
  EXPECT_EQ(vm.device(0).backend.rank_index(), rank_before);
  auto buf = vm.vmm().memory().alloc(4096);
  driver::TransferMatrix w;
  w.entries.push_back({0, 0, buf.data(), buf.size()});
  EXPECT_NO_THROW(vm.device(0).frontend.write_to_rank(w));
}

// ----------------------------------------------- control-queue statuses
//
// State errors on the control queue (suspend twice, resume without a
// suspension, operations on an unbound device, unknown opcodes) must
// complete with a typed WireResponse status, never abort the host.

std::int32_t control_status(VupmemDevice& dev, guest::GuestMemory& mem,
                            std::uint32_t ci_op) {
  auto req_buf = mem.alloc(sizeof(WireRequest));
  auto resp_buf = mem.alloc(sizeof(WireResponse));
  WireRequest req;
  req.ci_op = ci_op;
  std::memcpy(req_buf.data(), &req, sizeof(req));
  std::memset(resp_buf.data(), 0xAA, resp_buf.size());
  const virtio::DescBuffer chain[] = {
      {mem.gpa_of(req_buf.data()), sizeof(WireRequest), false},
      {mem.gpa_of(resp_buf.data()), sizeof(WireResponse), true}};
  const std::uint16_t free_before = dev.controlq.free_descriptors();
  dev.controlq.submit(chain);
  dev.backend.handle_controlq();
  EXPECT_TRUE(dev.controlq.poll_used().has_value());
  EXPECT_EQ(dev.controlq.free_descriptors(), free_before);
  WireResponse resp;
  std::memcpy(&resp, resp_buf.data(), sizeof(resp));
  return resp.status;
}

TEST(ControlStatus, SuspendResumeStateErrors) {
  using virtio::PimStatus;
  Host host(test::small_machine(), CostModel{}, fast_manager());
  VpimVm vm(host, {.name = "ctlstate"}, 1);
  VupmemDevice& dev = vm.device(0);
  guest::GuestMemory& mem = vm.vmm().memory();
  ASSERT_TRUE(dev.frontend.open());
  const auto op = [](CiOp o) { return static_cast<std::uint32_t>(o); };

  // Resume with nothing suspended is a state error.
  EXPECT_EQ(control_status(dev, mem, op(CiOp::kResumeRank)),
            static_cast<std::int32_t>(PimStatus::kBadRequest));

  // Suspend succeeds once, then the second attempt is rejected.
  EXPECT_EQ(control_status(dev, mem, op(CiOp::kSuspendRank)),
            static_cast<std::int32_t>(PimStatus::kOk));
  EXPECT_EQ(control_status(dev, mem, op(CiOp::kSuspendRank)),
            static_cast<std::int32_t>(PimStatus::kBadRequest));

  // Resume restores the binding; the device works again.
  EXPECT_EQ(control_status(dev, mem, op(CiOp::kResumeRank)),
            static_cast<std::int32_t>(PimStatus::kOk));
  auto buf = mem.alloc(4096);
  driver::TransferMatrix w;
  w.entries.push_back({0, 0, buf.data(), buf.size()});
  EXPECT_NO_THROW(dev.frontend.write_to_rank(w));

  // Unknown control opcode.
  EXPECT_EQ(control_status(dev, mem, 1234),
            static_cast<std::int32_t>(PimStatus::kUnsupported));

  // After a release, suspend and migrate report the unbound state.
  EXPECT_EQ(control_status(dev, mem, op(CiOp::kReleaseRank)),
            static_cast<std::int32_t>(PimStatus::kOk));
  EXPECT_EQ(control_status(dev, mem, op(CiOp::kSuspendRank)),
            static_cast<std::int32_t>(PimStatus::kUnbound));
  EXPECT_EQ(control_status(dev, mem, op(CiOp::kMigrateRank)),
            static_cast<std::int32_t>(PimStatus::kUnbound));
}

TEST(ControlStatus, BindReportsNoCapacityWhenMachineFull) {
  using virtio::PimStatus;
  Host host(test::small_machine(), CostModel{}, fast_manager());
  VpimVm vm(host, {.name = "ctlfull"}, 2);
  ASSERT_TRUE(vm.device(0).frontend.open());
  ASSERT_TRUE(vm.device(1).frontend.open());  // both ranks taken
  guest::GuestMemory& mem = vm.vmm().memory();
  // A raw migrate request on a full machine completes with kNoCapacity —
  // the same status the frontend folds into migrate()'s false return.
  EXPECT_EQ(control_status(
                vm.device(0), mem,
                static_cast<std::uint32_t>(CiOp::kMigrateRank)),
            static_cast<std::int32_t>(PimStatus::kNoCapacity));
}

TEST(ControlStatus, FrontendSurfacesTypedErrors) {
  Host host(test::small_machine(), CostModel{}, fast_manager());
  VpimVm vm(host, {.name = "typed"}, 1);
  Frontend& fe = vm.device(0).frontend;
  ASSERT_TRUE(fe.open());
  try {
    fe.ci_load("no_such_kernel_registered");
    FAIL() << "expected VpimStatusError";
  } catch (const VpimStatusError& e) {
    EXPECT_EQ(e.status(),
              static_cast<std::int32_t>(virtio::PimStatus::kBadRequest));
  }
}

// ------------------------------------------------ host access to a busy DPU
//
// A write, read or broadcast that reaches a DPU whose kernel is still
// running is a guest error: it must complete typed kBadRequest, move no
// byte into any bank or out of one, count one request error, and leave the
// device usable once the kernel finishes — on either binding, with or
// without a FaultPlan, at any queue depth. The busy DPU is the rank's last,
// so a broadcast that stored bank by bank would reach the others first.

enum class Access { kRead, kWrite, kBroadcast };

const char* access_name(Access access) {
  switch (access) {
    case Access::kRead:
      return "Read";
    case Access::kWrite:
      return "Write";
    case Access::kBroadcast:
      return "Broadcast";
  }
  return "?";
}

// (emulated binding, empty FaultPlan installed, queue depth, access)
using BusyDpuCase = std::tuple<bool, bool, std::uint32_t, Access>;

class BusyDpu : public ::testing::TestWithParam<BusyDpuCase> {};

TEST_P(BusyDpu, AccessCompletesBadRequestAndTheDeviceRecovers) {
  const auto [emulated, plan, depth, access] = GetParam();
  test::register_busy_kernel();
  Host host(test::small_machine(), CostModel{}, fast_manager());
  if (plan) host.install_fault_plan({});
  std::unique_ptr<VpimVm> hog;
  if (emulated) {
    hog = std::make_unique<VpimVm>(host, vmm::VmmParams{.name = "hog"}, 2);
    ASSERT_TRUE(hog->device(0).frontend.open());
    ASSERT_TRUE(hog->device(1).frontend.open());
  }
  VpimConfig cfg = VpimConfig::full();
  cfg.prefetch_cache = false;  // every read reaches the backend
  cfg.request_batching = false;
  cfg.oversubscribe = true;
  cfg.queue_depth = depth;
  VpimVm vm(host, {.name = "busy"}, 1, cfg);
  VupmemDevice& dev = vm.device(0);
  Frontend& fe = dev.frontend;
  guest::GuestMemory& mem = vm.vmm().memory();
  ASSERT_TRUE(fe.open());
  ASSERT_EQ(dev.backend.emulated(), emulated);
  const std::uint32_t busy_dpu = fe.nr_dpus() - 1;

  // One entry per buffer, for DPU busy_dpu - n + 1 + i; a single buffer
  // given `all` goes to every DPU.
  const auto matrix = [&](driver::XferDirection dir,
                          std::span<const std::span<std::uint8_t>> bufs,
                          bool all = false) {
    driver::TransferMatrix m;
    m.direction = dir;
    const std::uint32_t first = all ? 0 : busy_dpu + 1 - bufs.size();
    for (std::uint32_t d = first; d <= busy_dpu; ++d) {
      const std::span<std::uint8_t> buf = bufs[all ? 0 : d - first];
      m.entries.push_back({d, 0, buf.data(), buf.size()});
    }
    return m;
  };
  const auto write = [&](std::span<std::uint8_t> buf) {
    fe.write_to_rank(matrix(driver::XferDirection::kToRank, {{buf}}));
  };
  const auto read = [&](std::span<std::uint8_t> buf) {
    fe.read_from_rank(matrix(driver::XferDirection::kFromRank, {{buf}}));
  };
  const auto filled = [&](std::uint8_t byte) {
    std::span<std::uint8_t> buf = mem.alloc(8 * kKiB);
    std::memset(buf.data(), byte, buf.size());
    return buf;
  };
  // Every bank's first 8 KiB, one buffer per DPU.
  const auto read_banks = [&] {
    std::vector<std::span<std::uint8_t>> banks;
    for (std::uint32_t d = 0; d <= busy_dpu; ++d) banks.push_back(filled(0));
    fe.read_from_rank(matrix(driver::XferDirection::kFromRank, banks));
    return banks;
  };
  std::vector<std::span<std::uint8_t>> before;
  for (std::uint32_t d = 0; d <= busy_dpu; ++d) {
    before.push_back(filled(static_cast<std::uint8_t>(0x50 + d)));
  }
  fe.write_to_rank(matrix(driver::XferDirection::kToRank, before));
  fe.ci_load("test_busy");
  fe.ci_launch(std::uint64_t{1} << busy_dpu, std::nullopt);
  ASSERT_EQ(fe.ci_running_mask(), std::uint64_t{1} << busy_dpu);

  // The rejected request moves no byte in either direction.
  const std::span<std::uint8_t> busy = filled(0xC3);
  const std::uint64_t errors = dev.stats.request_errors;
  try {
    switch (access) {
      case Access::kRead:
        read(busy);
        break;
      case Access::kWrite:
        write(busy);
        break;
      case Access::kBroadcast:
        fe.write_to_rank(
            matrix(driver::XferDirection::kToRank, {{busy}}, /*all=*/true));
        break;
    }
    ADD_FAILURE() << "host access to a running DPU completed OK";
  } catch (const VpimStatusError& e) {
    EXPECT_EQ(e.status(),
              static_cast<std::int32_t>(virtio::PimStatus::kBadRequest));
  }
  EXPECT_EQ(dev.stats.request_errors, errors + 1);
  EXPECT_TRUE(std::all_of(busy.begin(), busy.end(),
                          [](std::uint8_t b) { return b == 0xC3; }));

  while (fe.ci_running_mask() != 0) host.clock.advance(1 * kMs);
  const auto after = read_banks();
  for (std::uint32_t d = 0; d <= busy_dpu; ++d) {
    EXPECT_TRUE(std::equal(after[d].begin(), after[d].end(),
                           before[d].begin()))
        << "DPU " << d << " changed";
  }
  write(busy);
  const std::span<std::uint8_t> last = filled(0);
  read(last);
  EXPECT_TRUE(std::equal(last.begin(), last.end(), busy.begin()));
  fe.close();
}

INSTANTIATE_TEST_SUITE_P(
    BindingsPlansDepths, BusyDpu,
    ::testing::Combine(::testing::Bool(), ::testing::Bool(),
                       ::testing::Values(1u, 8u),
                       ::testing::Values(Access::kRead, Access::kWrite,
                                         Access::kBroadcast)),
    [](const ::testing::TestParamInfo<BusyDpuCase>& info) {
      return std::string(std::get<0>(info.param) ? "Emulated" : "Physical") +
             (std::get<1>(info.param) ? "EmptyPlan" : "NoPlan") + "Depth" +
             std::to_string(std::get<2>(info.param)) +
             access_name(std::get<3>(info.param));
    });

}  // namespace
}  // namespace vpim::core
