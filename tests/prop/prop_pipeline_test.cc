// Async-pipeline differential properties (ISSUE 7): for random op
// sequences the SQ/CQ path (submit_write / submit_read /
// poll_completions) must be observably equivalent to the blocking
// device-file path — read-back bytes, final MRAM image, and (at depth 1)
// the full stats/virtual-time fingerprint are bit-identical — at every
// queue depth and VPIM_THREADS setting. Under a seeded FaultPlan every
// submitted ticket is still reaped exactly once with a typed PimStatus;
// the pipeline may degrade but never loses or duplicates a completion,
// and a depth-8 queue reads and keeps exactly the bytes a depth-1 one does.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/fault.h"
#include "common/proptest/proptest.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "tests/testutil.h"
#include "virtio/pim_spec.h"
#include "vpim/host.h"
#include "vpim/vpim_vm.h"

namespace vpim::prop {
namespace {

using core::Frontend;
using core::VpimVm;

core::ManagerConfig fast_manager() {
  core::ManagerConfig cfg;
  cfg.retry_wait_ns = 1 * kMs;
  cfg.max_attempts = 2;
  return cfg;
}

// Frontend buffering off so the blocking reference issues exactly one
// message per op — the shape the async path must reproduce at depth 1.
// `batching` turns the batch buffers back on (property 3's batching axis).
core::VpimConfig depth_config(std::uint32_t depth, bool batching = false) {
  core::VpimConfig cfg = core::VpimConfig::full();
  cfg.prefetch_cache = false;
  cfg.request_batching = batching;
  cfg.queue_depth = depth;
  return cfg;
}

// Ops target one of kWindows disjoint MRAM windows; window w entry e maps
// to DPU w with a private kMaxEntryBytes-sized range, so concurrent
// in-flight requests never overlap each other's guest buffers or device
// ranges unless the sequence deliberately rewrites a window.
constexpr std::uint32_t kWindows = 8;  // == functional DPUs per rank
constexpr std::uint32_t kMaxEntries = 3;
constexpr std::uint64_t kMaxEntryBytes = 2048;

struct OpShape {
  bool is_write = false;
  std::uint32_t window = 0;
  std::vector<std::uint64_t> sizes;  // one per entry, 1..kMaxEntryBytes
  std::uint64_t data_seed = 1;       // write payload generator
};

struct OpSeqCase {
  std::vector<OpShape> ops;
};

std::string show_case(const OpSeqCase& c) {
  std::string s = "ops=[";
  for (const OpShape& op : c.ops) {
    s += op.is_write ? "W" : "R";
    s += std::to_string(op.window) + "(";
    for (std::uint64_t sz : op.sizes) s += std::to_string(sz) + ",";
    s += ")";
  }
  return s + "]";
}

Gen<OpSeqCase> op_seq_gen() {
  Gen<OpSeqCase> gen;
  gen.sample = [](Rng& rng) {
    OpSeqCase c;
    const auto n = rng.uniform(4, 24);
    for (std::int64_t i = 0; i < n; ++i) {
      OpShape op;
      op.is_write = rng.uniform(0, 1) == 0;
      op.window = static_cast<std::uint32_t>(rng.uniform(0, kWindows - 1));
      const auto entries = rng.uniform(1, kMaxEntries);
      for (std::int64_t e = 0; e < entries; ++e) {
        op.sizes.push_back(static_cast<std::uint64_t>(
            rng.uniform(1, static_cast<std::int64_t>(kMaxEntryBytes))));
      }
      op.data_seed = rng.next_u64();
      c.ops.push_back(std::move(op));
    }
    return c;
  };
  gen.shrink = [](const OpSeqCase& c) {
    std::vector<OpSeqCase> out;
    if (c.ops.size() > 1) {
      OpSeqCase head = c;
      head.ops.resize(c.ops.size() / 2);
      out.push_back(std::move(head));
    }
    for (std::size_t i = 0; c.ops.size() > 1 && i < c.ops.size(); ++i) {
      OpSeqCase fewer = c;
      fewer.ops.erase(fewer.ops.begin() + static_cast<std::ptrdiff_t>(i));
      out.push_back(std::move(fewer));
    }
    for (std::size_t i = 0; i < c.ops.size(); ++i) {
      for (std::size_t e = 0; e < c.ops[i].sizes.size(); ++e) {
        if (c.ops[i].sizes[e] > 1) {
          OpSeqCase smaller = c;
          smaller.ops[i].sizes[e] = c.ops[i].sizes[e] / 2 + 1;
          out.push_back(std::move(smaller));
        }
      }
    }
    return out;
  };
  return gen;
}

driver::TransferMatrix matrix_for(const OpShape& op,
                                  std::span<std::uint8_t> buf,
                                  driver::XferDirection dir) {
  driver::TransferMatrix m;
  m.direction = dir;
  std::uint64_t cursor = 0;
  for (std::size_t e = 0; e < op.sizes.size(); ++e) {
    m.entries.push_back({op.window, e * kMaxEntryBytes, buf.data() + cursor,
                         op.sizes[e]});
    cursor += op.sizes[e];
  }
  return m;
}

std::uint64_t op_bytes(const OpShape& op) {
  std::uint64_t total = 0;
  for (std::uint64_t sz : op.sizes) total += sz;
  return total;
}

// Everything observable about one execution of an op sequence.
struct RunResult {
  std::vector<std::vector<std::uint8_t>> reads;  // per read-op, in order
  std::vector<std::uint8_t> final_image;         // window-ordered read-back
  SimNs clock_end = 0;
  std::uint64_t poll_calls = 0;  // each charges one guest poll syscall
  std::uint64_t notifies = 0;
  std::uint64_t doorbells = 0;
  std::uint64_t coalesced_notifies = 0;
};

struct Rig {
  explicit Rig(std::uint32_t depth)
      : host(test::small_machine(), CostModel{}, fast_manager()),
        vm(host, {.name = "prop-pipe"}, 1, depth_config(depth)) {}

  guest::GuestMemory& mem() { return vm.vmm().memory(); }
  Frontend& fe() { return vm.device(0).frontend; }

  std::span<std::uint8_t> buffer_for(const OpShape& op) {
    std::span<std::uint8_t> buf = mem().alloc(op_bytes(op));
    if (op.is_write) {
      Rng data(op.data_seed);
      data.fill_bytes(buf.data(), buf.size());
    } else {
      std::memset(buf.data(), 0, buf.size());
    }
    return buf;
  }

  void capture_tail(RunResult& out) {
    // Full window read-back through the blocking path: one image that any
    // divergence in write ordering or payload placement must perturb.
    for (std::uint32_t w = 0; w < kWindows; ++w) {
      OpShape probe;
      probe.is_write = false;
      probe.window = w;
      probe.sizes.assign(kMaxEntries, kMaxEntryBytes);
      std::span<std::uint8_t> buf = buffer_for(probe);
      fe().read_from_rank(
          matrix_for(probe, buf, driver::XferDirection::kFromRank));
      out.final_image.insert(out.final_image.end(), buf.begin(), buf.end());
    }
    fe().close();
    out.clock_end = host.clock.now();
    const core::DeviceStats& stats = vm.device(0).stats;
    out.notifies = stats.notifies;
    out.doorbells = stats.doorbells;
    out.coalesced_notifies = stats.coalesced_notifies;
  }

  core::Host host;
  VpimVm vm;
};

RunResult run_sync(const OpSeqCase& c) {
  Rig rig(/*depth=*/1);
  require(rig.fe().open(), "sync rig: no rank available");
  RunResult out;
  for (const OpShape& op : c.ops) {
    std::span<std::uint8_t> buf = rig.buffer_for(op);
    if (op.is_write) {
      rig.fe().write_to_rank(
          matrix_for(op, buf, driver::XferDirection::kToRank));
    } else {
      rig.fe().read_from_rank(
          matrix_for(op, buf, driver::XferDirection::kFromRank));
      out.reads.emplace_back(buf.begin(), buf.end());
    }
  }
  rig.capture_tail(out);
  return out;
}

RunResult run_async(const OpSeqCase& c, std::uint32_t depth) {
  Rig rig(depth);
  require(rig.fe().open(), "async rig: no rank available");
  RunResult out;

  struct Pending {
    const OpShape* op;
    std::span<std::uint8_t> buf;
    bool reaped = false;
  };
  std::map<Frontend::Ticket, Pending> pending;
  for (const OpShape& op : c.ops) {
    std::span<std::uint8_t> buf = rig.buffer_for(op);
    const driver::TransferMatrix m = matrix_for(
        op, buf,
        op.is_write ? driver::XferDirection::kToRank
                    : driver::XferDirection::kFromRank);
    const Frontend::Ticket t =
        op.is_write ? rig.fe().submit_write(m) : rig.fe().submit_read(m);
    require(pending.emplace(t, Pending{&op, buf}).second,
            "duplicate ticket issued");
  }

  std::size_t reaped = 0;
  int idle_polls = 0;
  while (reaped < c.ops.size() && idle_polls < 2) {
    const auto batch = rig.fe().poll_completions();
    ++out.poll_calls;
    if (batch.empty()) {
      ++idle_polls;
      continue;
    }
    idle_polls = 0;
    for (const Frontend::Completion& done : batch) {
      auto it = pending.find(done.ticket);
      require(it != pending.end(), "completion for unknown ticket");
      require(!it->second.reaped, "ticket completed twice");
      it->second.reaped = true;
      ++reaped;
      require(done.status == 0,
              "completion status " + std::to_string(done.status));
      require(done.is_write == it->second.op->is_write,
              "completion direction mismatch");
      require(done.bytes == op_bytes(*it->second.op),
              "completion byte count mismatch");
    }
  }
  require(reaped == c.ops.size(), "pipeline lost completions");

  // Read results land in submission order: tickets are issued
  // monotonically, so walking the map walks the original sequence.
  for (const auto& [ticket, p] : pending) {
    if (!p.op->is_write) out.reads.emplace_back(p.buf.begin(), p.buf.end());
  }
  rig.capture_tail(out);
  return out;
}

void require_same_data(const RunResult& sync, const RunResult& async,
                       std::uint32_t depth) {
  const std::string tag = " (depth " + std::to_string(depth) + ")";
  require(sync.reads.size() == async.reads.size(),
          "read-op count diverged" + tag);
  for (std::size_t i = 0; i < sync.reads.size(); ++i) {
    require(sync.reads[i] == async.reads[i],
            "read " + std::to_string(i) + " bytes diverged" + tag);
  }
  require(sync.final_image == async.final_image,
          "final MRAM image diverged" + tag);
}

// ---- property 1: async == sync at every depth ---------------------------

TEST(PropPipeline, AsyncPathMatchesBlockingPathAtEveryDepth) {
  const Params params = Params::from_env(0xA51DC, 40);
  const auto out = run_property<OpSeqCase>(
      "pipeline.async_vs_sync", params, op_seq_gen(),
      [&](const OpSeqCase& c) {
        const RunResult sync = run_sync(c);
        for (std::uint32_t depth : {1u, 2u, 8u}) {
          const RunResult async = run_async(c, depth);
          require_same_data(sync, async, depth);
          // The async path's only extra virtual-time cost is the guest
          // poll syscall itself (one ioctl_ns per poll_completions call);
          // everything device-side must cost exactly the same at depth 1
          // and strictly no more at deeper queues.
          const SimNs poll_cost =
              static_cast<SimNs>(async.poll_calls) * CostModel{}.ioctl_ns;
          if (depth == 1) {
            // Depth 1 is the classic synchronous device in disguise: the
            // whole stats/virtual-time fingerprint must be bit-identical.
            require(sync.clock_end + poll_cost == async.clock_end,
                    "virtual time diverged at depth 1");
            require(sync.notifies == async.notifies &&
                        sync.doorbells == async.doorbells &&
                        sync.coalesced_notifies == async.coalesced_notifies,
                    "doorbell/notify stats diverged at depth 1");
          } else {
            // Deeper queues must save messages, never add them.
            require(async.doorbells <= sync.doorbells,
                    "deep queue inflated doorbells");
            require(async.clock_end <= sync.clock_end + poll_cost,
                    "deep queue inflated virtual time");
          }
        }
      },
      show_case);
  EXPECT_TRUE(out.ok) << out.reproducer;
}

// ---- property 2: the deep pipeline is thread-count invariant ------------

class PropPipelineThreads : public ::testing::Test {
 protected:
  void SetUp() override { original_ = ThreadPool::instance().size(); }
  void TearDown() override { ThreadPool::instance().resize(original_); }
  unsigned original_ = 1;
};

TEST_F(PropPipelineThreads, DeepQueueIsThreadCountInvariant) {
  const Params params = Params::from_env(0xA51DD, 15);
  const auto out = run_property<OpSeqCase>(
      "pipeline.thread_invariance", params, op_seq_gen(),
      [&](const OpSeqCase& c) {
        ThreadPool::instance().resize(1);
        const RunResult base = run_async(c, /*depth=*/8);
        ThreadPool::instance().resize(4);
        const RunResult wide = run_async(c, /*depth=*/8);
        ThreadPool::instance().resize(1);
        require_same_data(base, wide, 8);
        require(base.clock_end == wide.clock_end,
                "virtual time depends on VPIM_THREADS");
        require(base.notifies == wide.notifies &&
                    base.doorbells == wide.doorbells &&
                    base.coalesced_notifies == wide.coalesced_notifies,
                "doorbell/notify stats depend on VPIM_THREADS");
      },
      show_case);
  EXPECT_TRUE(out.ok) << out.reproducer;
}

// ---- property 3: no ticket lost or duplicated under injected faults -----

struct FaultSeqCase {
  OpSeqCase seq;
  std::uint64_t fault_seed = 1;
};

std::string show_fault_case(const FaultSeqCase& c) {
  return "fault_seed=" + std::to_string(c.fault_seed) + " " +
         show_case(c.seq);
}

Gen<FaultSeqCase> fault_seq_gen() {
  auto seqs = op_seq_gen();
  auto shared = std::make_shared<Gen<OpSeqCase>>(std::move(seqs));
  Gen<FaultSeqCase> gen;
  gen.sample = [shared](Rng& rng) {
    FaultSeqCase c;
    c.seq = shared->sample(rng);
    c.fault_seed = rng.next_u64();
    return c;
  };
  gen.shrink = [shared](const FaultSeqCase& c) {
    std::vector<FaultSeqCase> out;
    for (OpSeqCase& fewer : shared->shrink(c.seq)) {
      out.push_back({std::move(fewer), c.fault_seed});
    }
    return out;
  };
  return gen;
}

bool typed_status(std::int32_t status) {
  switch (static_cast<virtio::PimStatus>(status)) {
    case virtio::PimStatus::kOk:
    case virtio::PimStatus::kBadRequest:
    case virtio::PimStatus::kUnbound:
    case virtio::PimStatus::kNoCapacity:
    case virtio::PimStatus::kTimeout:
    case virtio::PimStatus::kDeviceFault:
    case virtio::PimStatus::kAdmissionReject:
    case virtio::PimStatus::kOverloaded:
    case virtio::PimStatus::kCancelled:
      return true;
    default:
      return false;
  }
}

// Everything observable about one async execution under a fault schedule.
struct FaultRunResult {
  std::vector<std::int32_t> statuses;            // per ticket, in order
  std::vector<std::int32_t> absorbed;  // per blocking batched write, in order
  std::vector<std::vector<std::uint8_t>> reads;  // per read op, in order
  // Blocking read-back of every written region after the run, per write op
  // in order: the status, and the bytes when it succeeded.
  std::vector<std::int32_t> readback_statuses;
  std::vector<std::vector<std::uint8_t>> readback;
  SimNs clock_end = 0;
};

// One async execution under the generated fault schedule. With
// `batching`, every other write is a blocking write_to_rank instead of a
// ticket: the frontend absorbs it into its batch buffers, and the next op
// flushes them, so injected faults can land on batched flushes. Those
// writes are checked by the read-back.
FaultRunResult run_async_with_faults(const FaultSeqCase& c,
                                     std::uint32_t depth = 8,
                                     bool batching = false) {
  core::Host host(test::small_machine(), CostModel{}, fast_manager());
  FaultPlanConfig cfg;
  cfg.seed = c.fault_seed;
  cfg.transient_dpu_faults = 2;
  cfg.mram_ecc_faults = 2;
  cfg.rank_deaths = 1;
  cfg.max_op = 8;
  // nr_ranks=1 aims every event at rank 0 — the rank the device binds —
  // so the schedule actually fires; a death migrates onto rank 1.
  host.install_fault_plan(FaultPlan::generate(cfg, /*nr_ranks=*/1));
  VpimVm vm(host, {.name = "prop-pipe-flt"}, 1, depth_config(depth, batching));
  Frontend& fe = vm.device(0).frontend;
  require(fe.open(), "fault rig: no rank available");

  struct Slot {
    std::span<std::uint8_t> buf;
    int completions = 0;
    std::int32_t status = -1;
  };
  guest::GuestMemory& mem = vm.vmm().memory();
  std::map<Frontend::Ticket, Slot> pending;
  std::vector<std::pair<Frontend::Ticket, bool>> order;  // (ticket, write)
  FaultRunResult out;
  bool absorb = false;
  for (const OpShape& op : c.seq.ops) {
    std::span<std::uint8_t> buf = mem.alloc(op_bytes(op));
    if (op.is_write) {
      Rng data(op.data_seed);
      data.fill_bytes(buf.data(), buf.size());
    } else {
      std::memset(buf.data(), 0, buf.size());
    }
    const driver::TransferMatrix m = matrix_for(
        op, buf,
        op.is_write ? driver::XferDirection::kToRank
                    : driver::XferDirection::kFromRank);
    if (op.is_write && batching) absorb = !absorb;
    if (op.is_write && absorb) {
      std::int32_t status = 0;
      try {
        fe.write_to_rank(m);
      } catch (const VpimStatusError& e) {
        status = e.status();  // a failed earlier posted flush surfaces here
      }
      require(typed_status(status),
              "untyped blocking write status " + std::to_string(status));
      out.absorbed.push_back(status);
      continue;
    }
    const Frontend::Ticket t =
        op.is_write ? fe.submit_write(m) : fe.submit_read(m);
    require(pending.emplace(t, Slot{buf}).second, "duplicate ticket");
    order.emplace_back(t, op.is_write);
  }

  std::size_t reaped = 0;
  int idle_polls = 0;
  while (reaped < order.size() && idle_polls < 3) {
    const auto batch = fe.poll_completions();
    if (batch.empty()) {
      ++idle_polls;
      continue;
    }
    idle_polls = 0;
    for (const Frontend::Completion& done : batch) {
      auto it = pending.find(done.ticket);
      require(it != pending.end(), "completion for unknown ticket");
      it->second.completions++;
      it->second.status = done.status;
    }
    reaped = 0;
    for (const auto& [t, slot] : pending) {
      reaped += slot.completions > 0 ? 1 : 0;
    }
  }

  for (const auto& [t, is_write] : order) {
    const Slot& slot = pending.at(t);
    require(slot.completions == 1,
            "ticket reaped " + std::to_string(slot.completions) +
                " times under faults");
    require(typed_status(slot.status),
            "untyped completion status " + std::to_string(slot.status));
    out.statuses.push_back(slot.status);
    if (!is_write) {
      out.reads.emplace_back(slot.buf.begin(), slot.buf.end());
    }
  }
  // What the device holds at the end: an acknowledged write must be in it.
  for (const OpShape& op : c.seq.ops) {
    if (!op.is_write) continue;
    std::span<std::uint8_t> buf = mem.alloc(op_bytes(op));
    std::int32_t status = 0;
    try {
      fe.read_from_rank(
          matrix_for(op, buf, driver::XferDirection::kFromRank));
      out.readback.emplace_back(buf.begin(), buf.end());
    } catch (const VpimStatusError& e) {
      status = e.status();
      out.readback.emplace_back();
    }
    out.readback_statuses.push_back(status);
  }
  fe.close();
  out.clock_end = host.clock.now();
  return out;
}

void require_same_fault_run(const FaultRunResult& a, const FaultRunResult& b,
                            const std::string& what) {
  require(a.statuses == b.statuses, "fault statuses " + what);
  require(a.absorbed == b.absorbed, "batched write statuses " + what);
  require(a.reads == b.reads, "read bytes under faults " + what);
  require(a.readback_statuses == b.readback_statuses,
          "read-back statuses under faults " + what);
  require(a.readback == b.readback,
          "written regions under faults " + what);
}

TEST(PropPipeline, EveryTicketReapsExactlyOnceUnderFaults) {
  const Params params = Params::from_env(0xA51DE, 30);
  const auto out = run_property<FaultSeqCase>(
      "pipeline.fault_ticket_accounting", params, fault_seq_gen(),
      [&](const FaultSeqCase& c) {
        for (const bool batching : {false, true}) {
          const std::string axis = batching ? " (batching on)" : "";
          const FaultRunResult first = run_async_with_faults(c, 8, batching);
          const FaultRunResult second = run_async_with_faults(c, 8, batching);
          require_same_fault_run(
              first, second, "are not reproducible for a fixed seed" + axis);
          require(first.clock_end == second.clock_end,
                  "virtual time under faults is not reproducible" + axis);
        }
      },
      show_fault_case);
  EXPECT_TRUE(out.ok) << out.reproducer;
}

// ---- property 3b: a read sees a posted batched flush in its drain --------
//
// Batching axis without faults: every write is a blocking write_to_rank
// the frontend absorbs into its batch buffers, and every read is a ticket.
// At depth 8 the read's submission posts the batch flush and stages the
// read behind it, so one drain carries both; the device parks the flush's
// records and the read in one backlog. Every read must return what a
// program-order model of the windows holds.

TEST(PropPipeline, ReadsInTheDrainOfAPostedBatchedFlushSeeItsRecords) {
  const Params params = Params::from_env(0xA51E1, 30);
  const auto out = run_property<OpSeqCase>(
      "pipeline.posted_flush_reads", params, op_seq_gen(),
      [&](const OpSeqCase& c) {
        core::Host host(test::small_machine(), CostModel{}, fast_manager());
        VpimVm vm(host, {.name = "prop-pipe-batch"}, 1,
                  depth_config(/*depth=*/8, /*batching=*/true));
        Frontend& fe = vm.device(0).frontend;
        require(fe.open(), "batch rig: no rank available");
        guest::GuestMemory& mem = vm.vmm().memory();
        std::vector<std::vector<std::uint8_t>> model(
            kWindows,
            std::vector<std::uint8_t>(kMaxEntries * kMaxEntryBytes, 0));
        struct Read {
          std::span<std::uint8_t> buf;
          std::vector<std::uint8_t> expect;
        };
        std::map<Frontend::Ticket, Read> reads;
        const std::uint64_t absorbed = vm.device(0).stats.batched_writes;
        for (const OpShape& op : c.ops) {
          std::span<std::uint8_t> buf = mem.alloc(op_bytes(op));
          std::vector<std::uint8_t>& window = model[op.window];
          if (op.is_write) {
            Rng data(op.data_seed);
            data.fill_bytes(buf.data(), buf.size());
            std::uint64_t cursor = 0;
            for (std::size_t e = 0; e < op.sizes.size(); ++e) {
              std::memcpy(window.data() + e * kMaxEntryBytes,
                          buf.data() + cursor, op.sizes[e]);
              cursor += op.sizes[e];
            }
            fe.write_to_rank(
                matrix_for(op, buf, driver::XferDirection::kToRank));
            continue;
          }
          std::memset(buf.data(), 0, buf.size());
          Read r{buf, {}};
          for (std::size_t e = 0; e < op.sizes.size(); ++e) {
            const auto* at = window.data() + e * kMaxEntryBytes;
            r.expect.insert(r.expect.end(), at, at + op.sizes[e]);
          }
          reads.emplace(fe.submit_read(matrix_for(
                            op, buf, driver::XferDirection::kFromRank)),
                        std::move(r));
        }
        std::size_t reaped = 0;
        for (int idle = 0; reaped < reads.size() && idle < 2;) {
          const auto done = fe.poll_completions();
          idle = done.empty() ? idle + 1 : 0;
          for (const Frontend::Completion& d : done) {
            require(d.status == 0,
                    "read status " + std::to_string(d.status));
            ++reaped;
          }
        }
        require(reaped == reads.size(), "pipeline lost completions");
        for (const auto& [ticket, r] : reads) {
          require(std::equal(r.buf.begin(), r.buf.end(), r.expect.begin()),
                  "read " + std::to_string(ticket) +
                      " missed a batched write");
        }
        require(vm.device(0).stats.batched_writes > absorbed ||
                    reads.size() == c.ops.size(),
                "no write was absorbed into the batch buffers");
        fe.close();
      },
      show_case);
  EXPECT_TRUE(out.ok) << out.reproducer;
}

// ---- property 4: random deadlines race random completion times ----------
//
// ISSUE 8: every op carries an absolute deadline drawn from "certainly
// expired by drain time" up to "comfortably in the future". Whatever the
// race's outcome — backend sheds the work, or it completes first — every
// ticket reaps exactly once with kTimeout or success, reproducibly.

struct DeadlineSeqCase {
  OpSeqCase seq;
  std::vector<SimNs> deadline_offsets;  // relative to submit time, 1:1 ops
};

std::string show_deadline_case(const DeadlineSeqCase& c) {
  std::string s = show_case(c.seq) + " deadlines=[";
  for (SimNs d : c.deadline_offsets) s += std::to_string(d) + ",";
  return s + "]";
}

Gen<DeadlineSeqCase> deadline_seq_gen() {
  auto seqs = op_seq_gen();
  auto shared = std::make_shared<Gen<OpSeqCase>>(std::move(seqs));
  Gen<DeadlineSeqCase> gen;
  gen.sample = [shared](Rng& rng) {
    DeadlineSeqCase c;
    c.seq = shared->sample(rng);
    for (std::size_t i = 0; i < c.seq.ops.size(); ++i) {
      // Log-uniform-ish spread: 1 ns (hopeless — expires before the
      // backend can drain) up to ~160 us (comfortably met), so both
      // outcomes of the race occur across a batch of iterations.
      const auto mag = rng.uniform(0, 7);
      c.deadline_offsets.push_back(
          static_cast<SimNs>(rng.uniform(1, 10)) *
          (SimNs{1} << (2 * mag)));
    }
    return c;
  };
  gen.shrink = [shared](const DeadlineSeqCase& c) {
    std::vector<DeadlineSeqCase> out;
    for (OpSeqCase& fewer : shared->shrink(c.seq)) {
      DeadlineSeqCase d;
      d.deadline_offsets.assign(
          c.deadline_offsets.begin(),
          c.deadline_offsets.begin() +
              static_cast<std::ptrdiff_t>(fewer.ops.size()));
      d.seq = std::move(fewer);
      out.push_back(std::move(d));
    }
    return out;
  };
  return gen;
}

std::pair<std::vector<std::int32_t>, SimNs> run_async_with_deadlines(
    const DeadlineSeqCase& c, std::uint32_t depth) {
  Rig rig(depth);
  require(rig.fe().open(), "deadline rig: no rank available");
  Frontend& fe = rig.fe();

  struct Slot {
    int completions = 0;
    std::int32_t status = -1;
  };
  std::map<Frontend::Ticket, Slot> pending;
  std::vector<Frontend::Ticket> order;
  for (std::size_t i = 0; i < c.seq.ops.size(); ++i) {
    const OpShape& op = c.seq.ops[i];
    std::span<std::uint8_t> buf = rig.buffer_for(op);
    const driver::TransferMatrix m = matrix_for(
        op, buf,
        op.is_write ? driver::XferDirection::kToRank
                    : driver::XferDirection::kFromRank);
    const SimNs deadline = rig.host.clock.now() + c.deadline_offsets[i];
    const Frontend::SubmitResult r =
        op.is_write ? fe.try_submit_write(m, deadline)
                    : fe.try_submit_read(m, deadline);
    // No admission controller and no CQ cap: every submission admits.
    require(r.ok(), "unexpected shed without overload");
    require(pending.emplace(r.ticket, Slot{}).second, "duplicate ticket");
    order.push_back(r.ticket);
  }

  std::size_t reaped = 0;
  int idle_polls = 0;
  while (reaped < order.size() && idle_polls < 3) {
    const auto batch = fe.poll_completions();
    if (batch.empty()) {
      ++idle_polls;
      continue;
    }
    idle_polls = 0;
    for (const Frontend::Completion& done : batch) {
      auto it = pending.find(done.ticket);
      require(it != pending.end(), "completion for unknown ticket");
      it->second.completions++;
      it->second.status = done.status;
      reaped += it->second.completions == 1 ? 1 : 0;
    }
  }

  std::vector<std::int32_t> statuses;
  for (Frontend::Ticket t : order) {
    const Slot& slot = pending.at(t);
    require(slot.completions == 1,
            "ticket reaped " + std::to_string(slot.completions) +
                " times in a deadline race");
    require(slot.status == 0 ||
                slot.status ==
                    static_cast<std::int32_t>(virtio::PimStatus::kTimeout),
            "deadline race produced status " + std::to_string(slot.status) +
                " (want success or kTimeout)");
    statuses.push_back(slot.status);
  }
  fe.close();
  return {std::move(statuses), rig.host.clock.now()};
}

TEST(PropPipeline, DeadlinesRacingCompletionsAlwaysReapTyped) {
  const Params params = Params::from_env(0xA51DF, 30);
  const auto out = run_property<DeadlineSeqCase>(
      "pipeline.deadline_race", params, deadline_seq_gen(),
      [&](const DeadlineSeqCase& c) {
        for (std::uint32_t depth : {1u, 8u}) {
          const auto first = run_async_with_deadlines(c, depth);
          const auto second = run_async_with_deadlines(c, depth);
          require(first.first == second.first,
                  "deadline race outcome not reproducible at depth " +
                      std::to_string(depth));
          require(first.second == second.second,
                  "virtual time under deadlines not reproducible");
        }
      },
      show_deadline_case);
  EXPECT_TRUE(out.ok) << out.reproducer;
}

// ---- property 5: fault semantics do not depend on the queue depth -------
//
// The backend parks every bank copy in one backlog and replays it at the
// end of each drain, with or without a FaultPlan. Injected faults fire at
// serial entry points before any copy is parked, and the backlog is
// replayed before any binding change (a rank-death rescue included), so a
// deep depth-8 pipeline must observe exactly what the classic depth-1
// queue does: the same per-ticket statuses, the same bytes in every read,
// and the same final contents in every written region.

TEST(PropPipeline, FaultSemanticsAreIdenticalAtDepth1And8) {
  const Params params = Params::from_env(0xA51E0, 25);
  const auto out = run_property<FaultSeqCase>(
      "pipeline.fault_depth_equivalence", params, fault_seq_gen(),
      [&](const FaultSeqCase& c) {
        const FaultRunResult shallow = run_async_with_faults(c, /*depth=*/1);
        const FaultRunResult deep = run_async_with_faults(c, /*depth=*/8);
        require_same_fault_run(shallow, deep,
                               "diverge between depth 1 and depth 8");
      },
      show_fault_case);
  EXPECT_TRUE(out.ok) << out.reproducer;
}

}  // namespace
}  // namespace vpim::prop
