#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <string>

#include "common/rng.h"
#include "tests/testutil.h"
#include "upmem/dpu.h"
#include "upmem/kernel.h"
#include "upmem/mram.h"

namespace vpim::upmem {
namespace {

// ------------------------------------------------------------------ MRAM

TEST(Mram, ReadsZeroWhenUntouched) {
  MramBank bank;
  std::vector<std::uint8_t> buf(64, 0xFF);
  bank.read(1 * kMiB, buf);
  for (auto b : buf) EXPECT_EQ(b, 0);
  EXPECT_EQ(bank.resident_pages(), 0u);
}

TEST(Mram, RoundTripAcrossPageBoundary) {
  MramBank bank;
  Rng rng(1);
  std::vector<std::uint8_t> in(10000);
  rng.fill_bytes(in.data(), in.size());
  const std::uint64_t offset = kMramPageSize - 123;  // straddles pages
  bank.write(offset, in);
  std::vector<std::uint8_t> out(in.size());
  bank.read(offset, out);
  EXPECT_EQ(in, out);
}

TEST(Mram, OutOfBoundsThrows) {
  MramBank bank;
  std::vector<std::uint8_t> buf(16);
  EXPECT_THROW(bank.write(kMramSize - 8, buf), VpimError);
  EXPECT_THROW(bank.read(kMramSize, {buf.data(), 1}), VpimError);
}

TEST(Mram, SharedPagesAreCopyOnWrite) {
  MramBank a, b;
  std::vector<std::uint8_t> data(2 * kMramPageSize, 0xAB);
  auto pages = MramBank::build_pages(data);
  a.adopt_pages(0, pages);
  b.adopt_pages(0, pages);

  // Mutating bank a must not leak into bank b.
  std::vector<std::uint8_t> patch = {1, 2, 3};
  a.write(10, patch);
  std::vector<std::uint8_t> out(3);
  b.read(10, out);
  EXPECT_EQ(out, std::vector<std::uint8_t>({0xAB, 0xAB, 0xAB}));
  a.read(10, out);
  EXPECT_EQ(out, patch);
}

TEST(Mram, ClearDropsPages) {
  MramBank bank;
  std::vector<std::uint8_t> data(kMramPageSize, 1);
  bank.write(0, data);
  EXPECT_GT(bank.resident_pages(), 0u);
  bank.clear();
  EXPECT_EQ(bank.resident_pages(), 0u);
  std::vector<std::uint8_t> out(8);
  bank.read(0, out);
  for (auto b : out) EXPECT_EQ(b, 0);
}

// ------------------------------------------------------------ DPU kernels

DpuKernel make_sum_kernel() {
  DpuKernel k;
  k.name = "test_sum";
  k.symbols = {{"result", 8}, {"n_words", 4}};
  k.stages.push_back([](DpuCtx& ctx) {
    if (ctx.me() != 0) return;
    ctx.var<std::uint64_t>("result") = 0;
  });
  k.stages.push_back([](DpuCtx& ctx) {
    const std::uint32_t n_words = ctx.var<std::uint32_t>("n_words");
    const std::uint32_t per =
        (n_words + ctx.nr_tasklets() - 1) / ctx.nr_tasklets();
    const std::uint32_t begin = ctx.me() * per;
    const std::uint32_t end = std::min(n_words, begin + per);
    if (begin >= end) return;
    // Stream the partition through a 2 KiB WRAM block, as real DPU
    // kernels do (WRAM is only 64 KiB).
    constexpr std::uint32_t kBlockWords = 256;
    auto buf = ctx.mem_alloc(kBlockWords * 8);
    std::uint64_t local = 0;
    for (std::uint32_t w = begin; w < end; w += kBlockWords) {
      const std::uint32_t n = std::min(kBlockWords, end - w);
      ctx.mram_read(w * 8, buf.first(n * 8));
      for (std::uint32_t i = 0; i < n; ++i) {
        std::uint64_t v;
        std::memcpy(&v, buf.data() + i * 8, 8);
        local += v;
      }
    }
    ctx.exec(end - begin);
    // Stage-sequential tasklets make this accumulation race-free, the
    // same way UPMEM kernels guard it with a mutex or handshake.
    ctx.var<std::uint64_t>("result") += local;
  });
  return k;
}

TEST(DpuKernel, RegistryRejectsBadKernels) {
  DpuKernel empty;
  empty.name = "no_stages";
  EXPECT_THROW(KernelRegistry::instance().add(empty), VpimError);

  DpuKernel big = make_sum_kernel();
  big.name = "too_big";
  big.iram_bytes = kIramSize + 1;
  EXPECT_THROW(KernelRegistry::instance().add(big), VpimError);
}

TEST(DpuKernel, SumKernelComputesAndTakesTime) {
  KernelRegistry::instance().add(make_sum_kernel());
  test::TestRig rig(test::small_machine());
  auto& rank = rig.machine.rank(0);
  rank.ci_load("test_sum");

  // Fill DPU 0's MRAM with 1000 words of value 3.
  std::vector<std::uint8_t> data(8000);
  for (int i = 0; i < 1000; ++i) {
    std::uint64_t v = 3;
    std::memcpy(data.data() + i * 8, &v, 8);
  }
  rank.mram(0).write(0, data);
  std::uint32_t n_words = 1000;
  rank.ci_copy_to_symbol(0, "n_words", 0,
                         {reinterpret_cast<std::uint8_t*>(&n_words), 4});

  rank.ci_launch(0b1, 16);
  EXPECT_TRUE(rank.ci_any_running());
  EXPECT_THROW((void)rank.mram(0), VpimError);  // busy DPU is off limits

  rig.clock.set(rank.busy_until());
  EXPECT_FALSE(rank.ci_any_running());

  std::uint64_t result = 0;
  rank.ci_copy_from_symbol(0, "result", 0,
                           {reinterpret_cast<std::uint8_t*>(&result), 8});
  EXPECT_EQ(result, 3000u);
  EXPECT_GT(rank.busy_until(), 0u);
}

TEST(DpuKernel, PipelineModelPenalizesFewTasklets) {
  KernelRegistry::instance().add(make_sum_kernel());
  test::TestRig rig(test::small_machine());
  auto& rank0 = rig.machine.rank(0);
  auto& rank1 = rig.machine.rank(1);

  std::vector<std::uint8_t> data(80000, 1);
  rank0.mram(0).write(0, data);
  rank1.mram(0).write(0, data);
  std::uint32_t n_words = 10000;

  rank0.ci_load("test_sum");
  rank0.ci_copy_to_symbol(0, "n_words", 0,
                          {reinterpret_cast<std::uint8_t*>(&n_words), 4});
  rank0.ci_launch(0b1, 1);  // single tasklet: pipeline underutilized
  const SimNs t1 = rank0.busy_until();

  rank1.ci_load("test_sum");
  rank1.ci_copy_to_symbol(0, "n_words", 0,
                          {reinterpret_cast<std::uint8_t*>(&n_words), 4});
  rank1.ci_launch(0b1, 16);  // >= 11 tasklets: full pipeline
  const SimNs t16 = rank1.busy_until();

  // The 11-cycle issue constraint makes the single-tasklet run several
  // times slower.
  EXPECT_GT(t1, 5 * t16);
}

TEST(DpuKernel, WramHeapExhaustionThrows) {
  DpuKernel k;
  k.name = "test_hog";
  k.stages.push_back([](DpuCtx& ctx) {
    if (ctx.me() == 0) ctx.mem_alloc(kWramSize + 1);
  });
  KernelRegistry::instance().add(k);

  test::TestRig rig(test::small_machine());
  auto& rank = rig.machine.rank(0);
  rank.ci_load("test_hog");
  EXPECT_THROW(rank.ci_launch(0b1, 1), VpimError);
}

TEST(DpuKernel, RegistryRejectsBadSymbols) {
  DpuKernel zero = make_sum_kernel();
  zero.name = "zero_symbol";
  zero.symbols.push_back({"empty", 0});
  EXPECT_THROW(KernelRegistry::instance().add(zero), VpimError);

  DpuKernel dup = make_sum_kernel();
  dup.name = "dup_symbol";
  dup.symbols.push_back({"result", 8});
  EXPECT_THROW(KernelRegistry::instance().add(dup), VpimError);

  DpuKernel fat = make_sum_kernel();
  fat.name = "fat_symbols";
  fat.symbols.push_back({"table", static_cast<std::uint32_t>(kWramSize)});
  EXPECT_THROW(KernelRegistry::instance().add(fat), VpimError);
  EXPECT_FALSE(KernelRegistry::instance().contains("fat_symbols"));
}

TEST(DpuKernel, FailedLoadKeepsThePreviousBinary) {
  const DpuKernel sum = make_sum_kernel();
  Dpu dpu;
  dpu.load(sum);
  dpu.symbol_bytes("n_words")[0] = 42;
  const std::uint32_t heap = dpu.wram_heap_size();

  DpuKernel fat = make_sum_kernel();
  fat.name = "fat_symbols";
  fat.symbols.push_back({"table", static_cast<std::uint32_t>(kWramSize)});
  EXPECT_THROW(dpu.load(fat), VpimError);
  EXPECT_EQ(dpu.loaded_kernel_name(), "test_sum");
  EXPECT_EQ(dpu.symbol_bytes("n_words")[0], 42);
  EXPECT_EQ(dpu.wram_heap_size(), heap);
  EXPECT_THROW(dpu.symbol_bytes("table"), VpimError);
}

// Runs a kernel with test_sum's symbols and the given stages on a lone
// DPU, on the calling thread, so consecutive launches share one WRAM heap
// buffer.
SimNs run_on(Dpu& dpu, std::vector<StageFn> stages,
             std::uint32_t tasklets = 1) {
  static DpuKernel kernel;
  kernel = make_sum_kernel();
  kernel.name = "test_wram";
  kernel.stages = std::move(stages);
  dpu.load(kernel);
  return dpu.run(tasklets, CostModel{});
}

TEST(DpuKernel, MemAllocSlicesAreZeroedAlignedDisjointPerStage) {
  Dpu dpu;
  std::vector<std::span<std::uint8_t>> seen;
  auto dirty = [&](DpuCtx& ctx) {
    for (std::uint32_t n : {1u, 3u, 8u, 13u, 64u}) {
      auto s = ctx.mem_alloc(n);
      std::fill(s.begin(), s.end(), 0xFF);
      seen.push_back(s);
    }
  };
  std::vector<std::span<std::uint8_t>> first_stage;
  run_on(dpu, {dirty, [&](DpuCtx& ctx) {
                 first_stage = seen;
                 seen.clear();
                 dirty(ctx);
               }});
  // The barrier released the first stage's slices: the second stage got
  // the same addresses back.
  ASSERT_EQ(first_stage.size(), seen.size());
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(first_stage[i].data(), seen[i].data()) << i;
  }
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(seen[i].data()) % 8, 0u) << i;
    for (std::size_t j = 0; j < i; ++j) {
      EXPECT_TRUE(seen[j].data() + seen[j].size() <= seen[i].data() ||
                  seen[i].data() + seen[i].size() <= seen[j].data())
          << i << " overlaps " << j;
    }
  }

  // A later launch reuses the dirtied buffer and still sees zeros.
  bool zeroed = true;
  run_on(dpu, {[&](DpuCtx& ctx) {
    for (std::uint32_t n : {1u, 3u, 8u, 13u, 64u}) {
      for (std::uint8_t b : ctx.mem_alloc(n)) zeroed &= b == 0;
    }
  }});
  EXPECT_TRUE(zeroed);
}

TEST(DpuKernel, WramHeapExhaustsAtExactlyOnePastItsSize) {
  Dpu dpu;
  bool last_fit = false;
  bool overflow_threw = false;
  run_on(dpu, {[&](DpuCtx& ctx) {
    const std::uint32_t heap = dpu.wram_heap_size();
    EXPECT_EQ(heap, kWramSize - 12);  // test_sum declares 8 + 4 bytes
    ctx.mem_alloc(heap - 1);
    last_fit = ctx.mem_alloc(1).size() == 1;
    try {
      ctx.mem_alloc(1);
    } catch (const VpimError&) {
      overflow_threw = true;
    }
  }});
  EXPECT_TRUE(last_fit);
  EXPECT_TRUE(overflow_threw);
}

TEST(DpuKernel, SymbolsHaveTheirDeclaredSizes) {
  Dpu dpu;
  const DpuKernel kernel = make_sum_kernel();
  dpu.load(kernel);
  for (const SymbolDecl& decl : kernel.symbols) {
    auto bytes = dpu.symbol_bytes(decl.name);
    EXPECT_EQ(bytes.size(), decl.size) << decl.name;
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(bytes.data()) % 8, 0u);
    for (std::uint8_t b : bytes) EXPECT_EQ(b, 0);
  }
  EXPECT_THROW(dpu.symbol_bytes("no_such_symbol"), VpimError);
  dpu.reset();
  EXPECT_THROW(dpu.symbol_bytes("result"), VpimError);
}

// A launch resolves each name once and then matches it by the literal's
// address. Two literals of one name at different addresses still reach
// one symbol, a kernel with more symbols than DpuCtx keeps resolves every
// one, and an undeclared name throws on every use.
TEST(DpuKernel, KernelSymbolLookupsMatchByName) {
  static constexpr char kFirst[] = "s0";
  static constexpr char kSameName[] = "s0";
  ASSERT_NE(static_cast<const void*>(kFirst),
            static_cast<const void*>(kSameName));
  DpuKernel kernel;
  kernel.name = "symbol_lookups";
  kernel.symbols = {{"s0", 4}, {"s1", 4}, {"s2", 4},
                    {"s3", 4}, {"s4", 4}, {"s5", 4}};
  int unknown_throws = 0;
  kernel.stages.push_back([&](DpuCtx& ctx) {
    if (ctx.me() != 0) return;
    for (int round = 0; round < 2; ++round) {
      ctx.var<std::uint32_t>("s5") += 6;
      ctx.var<std::uint32_t>("s4") += 5;
      ctx.var<std::uint32_t>("s3") += 4;
      ctx.var<std::uint32_t>("s2") += 3;
      ctx.var<std::uint32_t>("s1") += 2;
      ctx.var<std::uint32_t>(kFirst) += 1;
      ctx.var<std::uint32_t>(kSameName) += 10;
      try {
        ctx.var<std::uint32_t>("s6");
      } catch (const VpimError&) {
        ++unknown_throws;
      }
    }
  });
  Dpu dpu;
  dpu.load(kernel);
  dpu.run(2, CostModel{});
  const std::array<std::uint32_t, 6> expected = {22, 4, 6, 8, 10, 12};
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const std::string name = "s" + std::to_string(i);
    std::uint32_t v = 0;
    std::memcpy(&v, dpu.symbol_bytes(name).data(), sizeof(v));
    EXPECT_EQ(v, expected[i]) << name;
  }
  EXPECT_EQ(unknown_throws, 2);
}

#if defined(__SANITIZE_ADDRESS__)
// Slices and symbols share host blocks, so these pin that ASan still sees
// an overrun of each one, as it did when every object had its own heap
// allocation.
TEST(DpuKernelDeathTest, AsanReportsMemAllocOverrun) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Dpu dpu;
  EXPECT_DEATH(run_on(dpu, {[](DpuCtx& ctx) {
                 volatile std::uint8_t* p = ctx.mem_alloc(12).data();
                 p[12] = 1;
               }}),
               "AddressSanitizer");
}

TEST(DpuKernelDeathTest, AsanReportsSymbolOverrun) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Dpu dpu;
  const DpuKernel kernel = make_sum_kernel();
  dpu.load(kernel);
  EXPECT_DEATH(
      {
        volatile std::uint8_t* p = dpu.symbol_bytes("result").data();
        p[8] = 1;
      },
      "AddressSanitizer");
}
#endif

// ------------------------------------------------------------------ rank

TEST(Rank, MaskValidation) {
  test::TestRig rig(test::small_machine());  // 8 DPUs per rank
  auto& rank = rig.machine.rank(0);
  KernelRegistry::instance().add(make_sum_kernel());
  rank.ci_load("test_sum");
  EXPECT_THROW(rank.ci_launch(1ULL << 8), VpimError);  // beyond DPU count
}

TEST(Rank, ResetClearsEverything) {
  test::TestRig rig(test::small_machine());
  auto& rank = rig.machine.rank(0);
  std::vector<std::uint8_t> data(64, 9);
  rank.mram(0).write(0, data);
  rank.reset_memory();
  std::vector<std::uint8_t> out(64, 1);
  rank.mram(0).read(0, out);
  for (auto b : out) EXPECT_EQ(b, 0);
}

TEST(Machine, PaperGeometry) {
  test::TestRig rig;  // defaults: 8 ranks x 60 DPUs
  EXPECT_EQ(rig.machine.nr_ranks(), 8u);
  EXPECT_EQ(rig.machine.total_dpus(), 480u);
}

}  // namespace
}  // namespace vpim::upmem
