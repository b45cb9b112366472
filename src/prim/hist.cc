// Image histogram applications. HST-S keeps small per-tasklet private
// histograms in WRAM and merges them; HST-L uses one large shared WRAM
// histogram (the UPMEM version synchronizes with mutexes, which we account
// as extra per-element work). Both write the per-DPU histogram to MRAM,
// where the host collects it with one small read per DPU — the pattern
// whose prefetch behaviour §5.2 calls out for HST-S/HST-L.
#include <algorithm>
#include <cstring>

#include "common/rng.h"
#include "prim/apps.h"
#include "prim/util.h"
#include "upmem/kernel.h"

namespace vpim::prim {
namespace {

using driver::XferDirection;
using sdk::DpuSet;
using sdk::Target;
using upmem::DpuCtx;
using upmem::DpuKernel;
using upmem::KernelRegistry;

constexpr std::uint32_t kSmallBins = 256;
constexpr std::uint32_t kLargeBins = 4096;
constexpr std::uint32_t kValueBits = 20;  // inputs in [0, 2^20)

struct HstArgs {
  std::uint64_t n = 0;
  std::uint64_t in_off = 0;
  std::uint64_t hist_off = 0;
};

constexpr std::uint32_t kBlockElems = 256;  // 1 KiB of u32 per tasklet

void hst_s_stage1(DpuCtx& ctx) {
  const auto args = ctx.var<HstArgs>("hst_args");
  const auto [begin, end] = partition(args.n, ctx.nr_tasklets(), ctx.me());
  auto priv = as<std::uint32_t>(ctx.mem_alloc(kSmallBins * 4));
  if (begin < end) {
    auto buf = ctx.mem_alloc(kBlockElems * 4);
    for (std::uint64_t e = begin; e < end; e += kBlockElems) {
      const auto n = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(kBlockElems, end - e));
      ctx.mram_read(args.in_off + e * 4, buf.first(n * 4));
      auto vals = as<std::uint32_t>(buf);
      for (std::uint32_t i = 0; i < n; ++i) {
        priv[vals[i] >> (kValueBits - 8)]++;
      }
      ctx.exec(n);
    }
  }
  // Publish the private histogram for the merge stage.
  auto published =
      ctx.vars<std::uint32_t>("t_hist", ctx.me() * kSmallBins, kSmallBins);
  std::copy(priv.begin(), priv.end(), published.begin());
  ctx.exec(kSmallBins);
}

void hst_s_stage2(DpuCtx& ctx) {
  if (ctx.me() != 0) return;
  const auto args = ctx.var<HstArgs>("hst_args");
  auto merged = as<std::uint32_t>(ctx.mem_alloc(kSmallBins * 4));
  const auto published =
      ctx.vars<std::uint32_t>("t_hist", 0, ctx.nr_tasklets() * kSmallBins);
  for (std::uint32_t t = 0; t < ctx.nr_tasklets(); ++t) {
    for (std::uint32_t b = 0; b < kSmallBins; ++b) {
      merged[b] += published[t * kSmallBins + b];
    }
  }
  ctx.exec(ctx.nr_tasklets() * kSmallBins);
  ctx.mram_write({reinterpret_cast<std::uint8_t*>(merged.data()),
                  kSmallBins * 4},
                 args.hist_off);
}

void hst_l_stage1(DpuCtx& ctx) {
  const auto args = ctx.var<HstArgs>("hst_args");
  const auto [begin, end] = partition(args.n, ctx.nr_tasklets(), ctx.me());
  if (begin >= end) return;
  auto shared = as<std::uint32_t>(ctx.symbol_bytes("l_hist"));
  auto buf = ctx.mem_alloc(kBlockElems * 4);
  for (std::uint64_t e = begin; e < end; e += kBlockElems) {
    const auto n = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(kBlockElems, end - e));
    ctx.mram_read(args.in_off + e * 4, buf.first(n * 4));
    auto vals = as<std::uint32_t>(buf);
    for (std::uint32_t i = 0; i < n; ++i) {
      shared[vals[i] >> (kValueBits - 12)]++;
    }
    // 2x per element: increments on the shared histogram go through the
    // mutex the real HST-L kernel takes.
    ctx.exec(2 * n);
  }
}

void hst_l_stage2(DpuCtx& ctx) {
  if (ctx.me() != 0) return;
  const auto args = ctx.var<HstArgs>("hst_args");
  auto shared = ctx.symbol_bytes("l_hist");
  ctx.mram_write(shared.first(kLargeBins * 4), args.hist_off);
}

class HstApp final : public PrimApp {
 public:
  explicit HstApp(bool large) : large_(large) {}
  std::string_view name() const override {
    return large_ ? "HST-L" : "HST-S";
  }

  AppResult run(sdk::Platform& p, const AppParams& prm) override {
    register_hist_kernels();
    AppResult res;
    res.app = name();
    const std::uint32_t bins = large_ ? kLargeBins : kSmallBins;
    const std::uint32_t shift = large_ ? kValueBits - 12 : kValueBits - 8;
    const std::uint64_t total =
        detail::scaled_elems(16'000'000, prm.scale, prm.nr_dpus, 2);

    Rng rng(prm.seed);
    auto in = as<std::uint32_t>(p.alloc(total * 4));
    for (auto& v : in) {
      v = static_cast<std::uint32_t>(rng.uniform(0, (1 << kValueBits) - 1));
    }

    std::uint64_t max_per = 0;
    std::vector<std::uint64_t> sizes(prm.nr_dpus);
    for (std::uint32_t d = 0; d < prm.nr_dpus; ++d) {
      auto [b, e] = partition(total, prm.nr_dpus, d);
      sizes[d] = (e - b) * 4;
      max_per = std::max(max_per, e - b);
    }
    const std::uint64_t hist_off = round_up8(max_per * 4);

    auto set = DpuSet::allocate(p, prm.nr_dpus);
    set.load(large_ ? "prim_hst_l" : "prim_hst_s");
    {
      SegmentScope s(p.clock(), res.breakdown, Segment::kCpuDpu);
      for (std::uint32_t d = 0; d < prm.nr_dpus; ++d) {
        auto [b, e] = partition(total, prm.nr_dpus, d);
        set.prepare_xfer(d, reinterpret_cast<std::uint8_t*>(&in[b]));
      }
      set.push_xfer(XferDirection::kToRank, Target::mram(0), sizes);
      std::vector<HstArgs> args(prm.nr_dpus);
      for (std::uint32_t d = 0; d < prm.nr_dpus; ++d) {
        auto [b, e] = partition(total, prm.nr_dpus, d);
        args[d] = {e - b, 0, hist_off};
      }
      push_symbol(set, "hst_args", args);
    }
    {
      SegmentScope s(p.clock(), res.breakdown, Segment::kDpu);
      set.launch(prm.nr_tasklets);
    }
    std::vector<std::uint32_t> hist(bins, 0);
    {
      // Small per-DPU result reads (1-16 KiB each).
      SegmentScope s(p.clock(), res.breakdown, Segment::kDpuCpu);
      auto per_dpu = as<std::uint32_t>(
          p.alloc(std::uint64_t{prm.nr_dpus} * bins * 4));
      for (std::uint32_t d = 0; d < prm.nr_dpus; ++d) {
        set.prepare_xfer(d, reinterpret_cast<std::uint8_t*>(
                                &per_dpu[std::uint64_t{d} * bins]));
      }
      set.push_xfer(XferDirection::kFromRank, Target::mram(hist_off),
                    std::uint64_t{bins} * 4);
      for (std::uint32_t d = 0; d < prm.nr_dpus; ++d) {
        for (std::uint32_t b = 0; b < bins; ++b) {
          hist[b] += per_dpu[std::uint64_t{d} * bins + b];
        }
      }
    }
    set.free();

    std::vector<std::uint32_t> ref(bins, 0);
    for (auto v : in) ref[v >> shift]++;
    res.correct = std::equal(ref.begin(), ref.end(), hist.begin());
    return res;
  }

 private:
  bool large_;
};

}  // namespace

void register_hist_kernels() {
  auto& registry = KernelRegistry::instance();
  if (registry.contains("prim_hst_s")) return;

  DpuKernel s;
  s.name = "prim_hst_s";
  s.symbols = {{"hst_args", sizeof(HstArgs)},
               {"t_hist", 24 * kSmallBins * 4}};
  s.stages = {hst_s_stage1, hst_s_stage2};
  registry.add(std::move(s));

  DpuKernel l;
  l.name = "prim_hst_l";
  l.symbols = {{"hst_args", sizeof(HstArgs)},
               {"l_hist", kLargeBins * 4}};
  l.stages = {hst_l_stage1, hst_l_stage2};
  registry.add(std::move(l));
}

std::unique_ptr<PrimApp> make_hst_s() {
  return std::make_unique<HstApp>(false);
}
std::unique_ptr<PrimApp> make_hst_l() {
  return std::make_unique<HstApp>(true);
}

}  // namespace vpim::prim
