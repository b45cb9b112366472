// DPU DMA window property: a test kernel replays a seeded sequence of
// mram_read/mram_write calls on every DPU of one rank, launched through
// Rank::ci_launch so the banks run on the host pool, and everything the
// window could get wrong is compared against a dense per-bank oracle:
//
//  - DMAs are 1 B to 8 KiB at unaligned MRAM and WRAM offsets, inside one
//    page (the window path) or across pages (the bank path), around the
//    leaf boundary (pages 127/128) and at the bank's last pages; a quarter
//    of the writes store only zeros;
//  - every DPU first reads, writes and re-reads one page of a broadcast
//    page set that all banks adopted, then reads a page, writes across its
//    end and reads it again, all in one stage;
//  - before the launch each bank holds a live pin and the rank a parked
//    snapshot, so every page the kernel writes is shared when it starts.
//
// After the launch: each DPU's WRAM read results, its bank bytes and
// materialized pages, the shared page set, every pin and the snapshot
// match the oracle, and each DPU's modelled duration matches the DMA cost
// formula (64 fixed cycles plus the streaming cycles per transfer, under
// the pipeline rule of Dpu::run).
//
// Failing cases shrink to fewer steps and print the VPIM_PROP_SEED line.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "common/obs/obs.h"
#include "common/proptest/proptest.h"
#include "upmem/dpu.h"
#include "upmem/kernel.h"
#include "upmem/mram.h"
#include "upmem/rank.h"

namespace vpim::prop {
namespace {

using upmem::Dpu;
using upmem::DpuCtx;
using upmem::DpuKernel;
using upmem::kMramPages;
using upmem::kMramPageSize;
using upmem::kMramSize;
using upmem::MramBank;
using upmem::MramPageRef;
using upmem::Rank;

constexpr std::uint32_t kDpus = 8;
constexpr std::uint32_t kTasklets = 4;
constexpr std::uint32_t kStages = 2;
constexpr std::uint64_t kMaxDma = 8 * kKiB;
constexpr std::uint64_t kDmaFixedCycles = 64;

// Every DMA stays inside one of two windows, so the oracle can be dense:
// pages 126-130 straddle the first directory leaf boundary, and the last
// three pages end the bank.
struct Window {
  std::uint64_t first_page;
  std::uint64_t pages;
  std::uint64_t bytes() const { return pages * kMramPageSize; }
  std::uint64_t base() const { return first_page * kMramPageSize; }
};
constexpr Window kLeafEdge{126, 5};
constexpr Window kBankEnd{kMramPages - 3, 3};
constexpr std::array<Window, 2> kWindows = {kLeafEdge, kBankEnd};
// The broadcast page set starts here, inside kLeafEdge.
constexpr std::uint64_t kSharedPage = 127;

struct Oracle {
  std::array<std::vector<std::uint8_t>, kWindows.size()> bytes;
  std::set<std::uint64_t> materialized;  // pages the bank must hold

  Oracle() {
    for (std::size_t w = 0; w < kWindows.size(); ++w) {
      bytes[w].assign(kWindows[w].bytes(), 0);
    }
  }
  std::uint8_t* at(std::uint64_t addr) {
    for (std::size_t w = 0; w < kWindows.size(); ++w) {
      if (addr >= kWindows[w].base() &&
          addr < kWindows[w].base() + kWindows[w].bytes()) {
        return bytes[w].data() + (addr - kWindows[w].base());
      }
    }
    throw PropViolation("address outside the oracle windows");
  }
  // A store through the bank path (MramBank::write) materializes only the
  // pages it puts a non-zero byte in; `every_page` is for the DMA window
  // and adoption, which materialize every page they cover.
  void write(std::uint64_t addr, const std::vector<std::uint8_t>& data,
             bool every_page = false) {
    std::memcpy(at(addr), data.data(), data.size());
    for (std::uint64_t i = 0; i < data.size(); ++i) {
      if (every_page || data[i] != 0) {
        materialized.insert((addr + i) / kMramPageSize);
      }
    }
  }
  std::vector<std::uint8_t> read(std::uint64_t addr, std::uint64_t size) {
    const std::uint8_t* p = at(addr);
    return {p, p + size};
  }
};

struct DmaOp {
  bool write = false;
  std::uint64_t addr = 0;
  std::uint64_t size = 0;
  std::uint64_t wram_off = 0;       // offset into the tasklet's WRAM buffer
  std::vector<std::uint8_t> data;  // a write's payload
};
// plan[dpu][stage][tasklet]: the DMAs one tasklet issues in one stage.
using Plan = std::array<
    std::array<std::array<std::vector<DmaOp>, kTasklets>, kStages>, kDpus>;

// A DMA of `size` bytes at `window` offset `off`, with random payload and
// WRAM offset.
DmaOp make_op(Rng& r, bool write, const Window& window, std::uint64_t off,
              std::uint64_t size) {
  DmaOp op;
  op.write = write;
  op.addr = window.base() + off;
  op.size = size;
  op.wram_off = static_cast<std::uint64_t>(r.uniform(0, 7));
  if (write) {
    op.data.resize(size);  // zero-filled
    if (r.uniform(0, 3) != 0) r.fill_bytes(op.data.data(), size);
  }
  return op;
}

// A DMA that stays inside page `page` of `window`.
DmaOp in_page_op(Rng& r, bool write, const Window& window,
                 std::uint64_t page) {
  const auto size = static_cast<std::uint64_t>(r.uniform(1, 64));
  const auto in_page = static_cast<std::uint64_t>(
      r.uniform(0, static_cast<std::int64_t>(kMramPageSize - size)));
  return make_op(r, write, window, page * kMramPageSize + in_page, size);
}

// One random DMA: mostly small, sometimes up to 8 KiB; a third of them
// start within 32 bytes of a page boundary so small DMAs cross pages too.
DmaOp random_op(Rng& r) {
  const Window& window = kWindows[static_cast<std::size_t>(
      r.uniform(0, kWindows.size() - 1))];
  const int size_class = static_cast<int>(r.uniform(0, 9));
  const std::uint64_t max_size = size_class < 6   ? 32
                                 : size_class < 9 ? 600
                                                  : kMaxDma;
  std::uint64_t off = 0;
  if (r.uniform(0, 2) == 0) {
    const auto boundary = static_cast<std::uint64_t>(
        r.uniform(1, static_cast<std::int64_t>(window.pages) - 1));
    off = boundary * kMramPageSize - static_cast<std::uint64_t>(
                                         r.uniform(1, 32));
  } else {
    off = static_cast<std::uint64_t>(
        r.uniform(0, static_cast<std::int64_t>(window.bytes()) - 1));
  }
  const auto size = static_cast<std::uint64_t>(r.uniform(
      1, static_cast<std::int64_t>(std::min(max_size, window.bytes() - off))));
  return make_op(r, r.uniform(0, 1) == 1, window, off, size);
}

struct DmaCase {
  std::uint64_t setup_seed = 0;
  std::vector<std::uint64_t> steps;  // each seeds one random DMA
};

std::string show_case(const DmaCase& c) {
  std::string s = "setup_seed=" + std::to_string(c.setup_seed) + " steps=";
  for (std::uint64_t v : c.steps) s += std::to_string(v) + ",";
  return s;
}

Gen<DmaCase> dma_case_gen() {
  Gen<DmaCase> gen;
  gen.sample = [](Rng& rng) {
    DmaCase c;
    c.setup_seed = rng.next_u64();
    const int nr_steps = static_cast<int>(rng.uniform(10, 200));
    for (int i = 0; i < nr_steps; ++i) c.steps.push_back(rng.next_u64());
    return c;
  };
  gen.shrink = [](const DmaCase& c) {
    std::vector<DmaCase> out;
    if (c.steps.size() > 1) {
      DmaCase front = c;
      front.steps.resize(c.steps.size() / 2);
      out.push_back(std::move(front));
      for (std::size_t i = 0; i < c.steps.size(); ++i) {
        DmaCase fewer = c;
        fewer.steps.erase(fewer.steps.begin() +
                          static_cast<std::ptrdiff_t>(i));
        out.push_back(std::move(fewer));
      }
    }
    return out;
  };
  return gen;
}

// Runs stage `stage` of `plan` for the calling tasklet, appending every
// read's WRAM bytes to `reads[dpu]`.
void run_plan_stage(DpuCtx& ctx, const Plan& plan, std::uint32_t stage,
                    std::vector<std::vector<std::vector<std::uint8_t>>>& reads) {
  const auto dpu = ctx.var<std::uint32_t>("dpu_id");
  const std::vector<DmaOp>& ops = plan[dpu][stage][ctx.me()];
  if (ops.empty()) return;
  auto wram = ctx.mem_alloc(static_cast<std::uint32_t>(kMaxDma + 8));
  for (const DmaOp& op : ops) {
    auto buf = wram.subspan(op.wram_off, op.size);
    if (op.write) {
      std::memcpy(buf.data(), op.data.data(), op.size);
      ctx.mram_write(buf, op.addr);
    } else {
      ctx.mram_read(op.addr, buf);
      reads[dpu].emplace_back(buf.begin(), buf.end());
    }
  }
}

// Compares `bank`'s window bytes and materialized pages with `oracle`.
void check_bank(const MramBank& bank, const Oracle& oracle,
                const std::string& who) {
  for (std::size_t w = 0; w < kWindows.size(); ++w) {
    std::vector<std::uint8_t> got(kWindows[w].bytes(), 0xEE);
    bank.read(kWindows[w].base(), got);
    if (got == oracle.bytes[w]) continue;
    std::size_t i = 0;
    while (got[i] == oracle.bytes[w][i]) ++i;
    require(false, who + " window " + std::to_string(w) + " byte " +
                       std::to_string(i) + " reads " +
                       std::to_string(got[i]) + ", oracle " +
                       std::to_string(oracle.bytes[w][i]));
  }
  require(bank.resident_pages() == oracle.materialized.size(),
          who + " resident_pages " + std::to_string(bank.resident_pages()) +
              ", oracle " + std::to_string(oracle.materialized.size()));
  for (const Window& win : kWindows) {
    for (std::uint64_t p = win.first_page; p < win.first_page + win.pages;
         ++p) {
      require(bank.resident(p) == oracle.materialized.contains(p),
              who + " page " + std::to_string(p) +
                  (bank.resident(p) ? " materialized, oracle absent"
                                    : " absent, oracle materialized"));
    }
  }
}

// `lose_a_write` plants a bug in the oracle: it drops DPU 0's first kernel
// write, which the teeth test requires the property to catch.
void run_case(const DmaCase& c, bool lose_a_write) {
  SimClock clock;
  CostModel cost;
  Rank rank(0, kDpus, clock, cost);
  obs::Tracer tracer;
  obs::Hub hub;
  hub.tracer = &tracer;
  rank.set_obs(&hub);

  DpuKernel kernel;
  kernel.name = "prop_dma_window";
  kernel.symbols = {{"dpu_id", 4}};
  Plan plan;
  std::vector<std::vector<std::vector<std::uint8_t>>> reads(kDpus);
  for (std::uint32_t s = 0; s < kStages; ++s) {
    kernel.stages.push_back(
        [&, s](DpuCtx& ctx) { run_plan_stage(ctx, plan, s, reads); });
  }

  Rng setup(c.setup_seed);
  // One broadcast page set of one or two pages, zero-padded.
  std::vector<std::uint8_t> shared_data(static_cast<std::size_t>(
      setup.uniform(1, 2 * kMramPageSize)));
  setup.fill_bytes(shared_data.data(), shared_data.size());
  const std::vector<MramPageRef> shared = MramBank::build_pages(shared_data);
  std::vector<std::uint8_t> shared_image(shared.size() * kMramPageSize, 0);
  std::memcpy(shared_image.data(), shared_data.data(), shared_data.size());

  std::vector<Oracle> oracle(kDpus);
  std::vector<MramBank::Pin> pins;
  std::vector<std::uint64_t> pin_offsets;
  std::vector<std::vector<std::uint8_t>> pinned;
  for (std::uint32_t d = 0; d < kDpus; ++d) {
    rank.dpu(d).load(kernel);
    rank.ci_copy_to_symbol(
        d, "dpu_id", 0, {reinterpret_cast<const std::uint8_t*>(&d), 4});
    // Host writes first, so the adopted pages are still shared at launch.
    for (int i = 0; i < 3; ++i) {
      const DmaOp op = random_op(setup);
      if (!op.write) continue;
      rank.mram(d).write(op.addr, op.data);
      oracle[d].write(op.addr, op.data);
    }
    rank.mram(d).adopt_pages(kSharedPage * kMramPageSize, shared);
    oracle[d].write(kSharedPage * kMramPageSize, shared_image,
                    /*every_page=*/true);
    // A live pin over a random range of either window.
    const Window& w = kWindows[static_cast<std::size_t>(setup.uniform(0, 1))];
    const auto off = static_cast<std::uint64_t>(
        setup.uniform(0, static_cast<std::int64_t>(w.bytes()) - 1));
    const auto len = static_cast<std::uint64_t>(
        setup.uniform(1, static_cast<std::int64_t>(w.bytes() - off)));
    pins.push_back(rank.mram(d).pin(w.base() + off, len));
    pin_offsets.push_back(w.base() + off);
    pinned.push_back(oracle[d].read(w.base() + off, len));
  }
  const Rank::Snapshot snapshot = rank.save_snapshot();
  const std::vector<Oracle> snapshot_oracle = oracle;

  // Every DPU opens stage 0 on tasklet 0 with: a read, a write and a read
  // inside the adopted page; then a read of one page, a write across its
  // end and a read of the bytes that write changed.
  for (std::uint32_t d = 0; d < kDpus; ++d) {
    std::vector<DmaOp>& ops = plan[d][0][0];
    const std::uint64_t adopted = kSharedPage - kLeafEdge.first_page;
    ops.push_back(in_page_op(setup, false, kLeafEdge, adopted));
    ops.push_back(in_page_op(setup, true, kLeafEdge, adopted));
    ops.push_back(in_page_op(setup, false, kLeafEdge, adopted));
    const std::uint64_t page =
        static_cast<std::uint64_t>(setup.uniform(0, kLeafEdge.pages - 2));
    const std::uint64_t end = (page + 1) * kMramPageSize;
    ops.push_back(in_page_op(setup, false, kLeafEdge, page));
    ops.push_back(make_op(setup, true, kLeafEdge, end - 8, 16));
    ops.push_back(make_op(setup, false, kLeafEdge, end - 8, 8));
  }
  for (const std::uint64_t s : c.steps) {
    Rng r(s);
    const auto d = static_cast<std::size_t>(r.uniform(0, kDpus - 1));
    const auto stage = static_cast<std::size_t>(r.uniform(0, kStages - 1));
    const auto t = static_cast<std::size_t>(r.uniform(0, kTasklets - 1));
    plan[d][stage][t].push_back(random_op(r));
  }

  // Replay the plan on the oracle in execution order (stage, tasklet, op)
  // and price it: each DMA costs the fixed cycles plus its streaming
  // cycles, and a stage takes max(sum, kPipelineDepth x slowest tasklet).
  const double cycles_per_byte = cost.dpu_hz / (cost.mram_dma_gbps * 1e9);
  std::vector<std::vector<std::vector<std::uint8_t>>> expected_reads(kDpus);
  std::vector<SimNs> expected_ns(kDpus);
  bool lose_next_write = lose_a_write;
  for (std::uint32_t d = 0; d < kDpus; ++d) {
    std::uint64_t cycles = 0;
    for (std::uint32_t s = 0; s < kStages; ++s) {
      std::uint64_t sum = 0;
      std::uint64_t slowest = 0;
      for (std::uint32_t t = 0; t < kTasklets; ++t) {
        std::uint64_t tasklet = 0;
        for (const DmaOp& op : plan[d][s][t]) {
          if (op.write && lose_next_write) {
            lose_next_write = false;
          } else if (op.write) {
            const bool window =
                op.addr % kMramPageSize + op.size <= kMramPageSize;
            oracle[d].write(op.addr, op.data, window);
          } else {
            expected_reads[d].push_back(oracle[d].read(op.addr, op.size));
          }
          tasklet += kDmaFixedCycles +
                     static_cast<std::uint64_t>(
                         cycles_per_byte * static_cast<double>(op.size));
        }
        sum += tasklet;
        slowest = std::max(slowest, tasklet);
      }
      cycles += std::max(sum, upmem::kPipelineDepth * slowest);
    }
    expected_ns[d] = cost.dpu_cycles_time(cycles);
  }

  rank.ci_launch(rank.all_dpus_mask(), kTasklets);
  clock.set(rank.busy_until());

  std::vector<SimNs> durations;
  for (const obs::Span& span : tracer.spans()) {
    if (span.kind == obs::SpanKind::kDpuCompute) {
      durations.push_back(span.duration);
    }
  }
  require(durations == expected_ns,
          "DPU durations differ from the DMA cost formula");
  for (std::uint32_t d = 0; d < kDpus; ++d) {
    const std::string who = "dpu " + std::to_string(d);
    require(reads[d].size() == expected_reads[d].size(),
            who + " issued a different number of reads");
    for (std::size_t i = 0; i < reads[d].size(); ++i) {
      require(reads[d][i] == expected_reads[d][i],
              who + " read " + std::to_string(i) +
                  " disagrees with the oracle");
    }
    check_bank(rank.mram(d), oracle[d], who);
    check_bank(snapshot.dpus[d].mram(), snapshot_oracle[d],
               who + " snapshot");
    std::vector<std::uint8_t> got(pinned[d].size(), 0xEE);
    pins[d].read(pin_offsets[d], got);
    require(got == pinned[d], who + " pin changed during the launch");
  }
  for (std::size_t p = 0; p < shared.size(); ++p) {
    require(std::memcmp(shared[p]->bytes.data(),
                        shared_image.data() + p * kMramPageSize,
                        kMramPageSize) == 0,
            "a DMA wrote through shared page " + std::to_string(p));
  }
}

TEST(PropDmaWindow, RandomDmasMatchDenseOracle) {
  const Params params = Params::from_env(0xD3A, 200);
  const auto out = run_property<DmaCase>(
      "dma_window.dense_oracle", params, dma_case_gen(),
      [](const DmaCase& c) { run_case(c, false); }, show_case);
  ASSERT_TRUE(out.ok) << out.reproducer;
}

TEST(PropDmaWindow, TeethOracleThatLosesAWriteIsCaught) {
  Params params = Params::from_env(0xD3B, 5);
  params.quiet = true;
  const auto out = run_property<DmaCase>(
      "dma_window.teeth", params, dma_case_gen(),
      [](const DmaCase& c) { run_case(c, true); }, show_case);
  EXPECT_FALSE(out.ok);
}

// A DMA that runs past the bank's end throws, also right after the window
// cached the last page, and a failed write leaves the bank as it was.
TEST(PropDmaWindow, OutOfBoundsDmaAtTheLastPageThrows) {
  constexpr std::uint64_t kLastPage = kMramSize - kMramPageSize;
  struct Probe {
    bool write;
    std::uint64_t addr;
    std::uint64_t size;
  };
  const std::vector<Probe> probes = {
      {false, kMramSize - 8, 16}, {true, kMramSize - 4, 8},
      {false, kMramSize, 1},      {true, kMramSize, 1},
      {false, ~0ULL - 3, 1},      {true, ~0ULL - 3, 2},
  };
  const std::vector<std::uint8_t> pattern(kMramPageSize, 0x5A);
  for (const Probe& probe : probes) {
    Dpu dpu;
    DpuKernel kernel;
    kernel.name = "prop_dma_window_oob";
    kernel.stages.push_back([&](DpuCtx& ctx) {
      auto buf = ctx.mem_alloc(64);
      // Cache the last page in the window, readable and then writable.
      ctx.mram_read(kMramSize - 8, buf.first(8));
      std::fill_n(buf.begin(), 16, 0x11);
      ctx.mram_write(buf.first(8), kLastPage);
      if (probe.write) {
        ctx.mram_write(buf.first(probe.size), probe.addr);
      } else {
        ctx.mram_read(probe.addr, buf.first(probe.size));
      }
    });
    dpu.load(kernel);
    dpu.mram().write(kLastPage, pattern);
    EXPECT_THROW(dpu.run(1, CostModel{}), VpimError)
        << (probe.write ? "write" : "read") << " at " << probe.addr;
    std::vector<std::uint8_t> last(kMramPageSize);
    dpu.mram().read(kLastPage, last);
    std::vector<std::uint8_t> expected = pattern;
    std::fill_n(expected.begin(), 8, 0x11);  // the in-bounds write above
    EXPECT_EQ(last, expected);
  }

  // An empty DMA at the very end of the bank is in bounds, as it is for
  // MramBank.
  Dpu dpu;
  DpuKernel kernel;
  kernel.name = "prop_dma_window_empty";
  kernel.stages.push_back([](DpuCtx& ctx) {
    ctx.mram_read(kMramSize, {});
    ctx.mram_write({}, kMramSize);
  });
  dpu.load(kernel);
  EXPECT_NO_THROW(dpu.run(1, CostModel{}));
}

}  // namespace
}  // namespace vpim::prop
