// Database & analytics applications: SEL (select), UNI (unique), BS
// (binary search), TS (time-series motif search). SEL and UNI retrieve
// their results one DPU at a time — the serial DPU-CPU pattern that makes
// them *slower* at 480 DPUs in Fig 8 (both native and vPIM).
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

// 1 KiB of i64 per WRAM block: the SEL compaction stage holds two blocks
// per tasklet, and 16 tasklets must fit the shared heap.
constexpr std::uint32_t kBlockElems = 128;

// ------------------------------------------------------ SEL / UNI kernel

struct SelArgs {
  std::uint64_t n = 0;
  std::uint64_t in_off = 0;
  std::uint64_t out_off = 0;
  std::uint64_t count_off = 0;  // result count mirrored into MRAM
  std::int64_t threshold = 0;
  std::uint32_t unique = 0;  // 0 = SEL predicate, 1 = UNI dedupe
};

bool sel_keep(const SelArgs& args, std::int64_t v, std::int64_t prev,
              bool has_prev) {
  if (args.unique) return !has_prev || v != prev;
  return v > args.threshold;
}

void sel_stage_count(DpuCtx& ctx) {
  const auto args = ctx.var<SelArgs>("sel_args");
  const auto [begin, end] = partition(args.n, ctx.nr_tasklets(), ctx.me());
  std::uint32_t count = 0;
  if (begin < end) {
    auto buf = ctx.mem_alloc(kBlockElems * 8);
    std::int64_t prev = 0;
    bool has_prev = false;
    if (args.unique && begin > 0) {
      ctx.mram_read(args.in_off + (begin - 1) * 8, bytes_of(prev));
      has_prev = true;
    }
    for (std::uint64_t e = begin; e < end; e += kBlockElems) {
      const auto n = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(kBlockElems, end - e));
      ctx.mram_read(args.in_off + e * 8, buf.first(n * 8));
      auto vals = as<std::int64_t>(buf);
      for (std::uint32_t i = 0; i < n; ++i) {
        if (sel_keep(args, vals[i], prev, has_prev)) ++count;
        prev = vals[i];
        has_prev = true;
      }
      ctx.exec(n);
    }
  }
  ctx.var<std::uint32_t>("t_counts", ctx.me()) = count;
}

void sel_stage_prefix(DpuCtx& ctx) {
  if (ctx.me() != 0) return;
  const auto args = ctx.var<SelArgs>("sel_args");
  std::uint32_t running = 0;
  for (std::uint32_t t = 0; t < ctx.nr_tasklets(); ++t) {
    ctx.var<std::uint32_t>("t_bases", t) = running;
    running += ctx.var<std::uint32_t>("t_counts", t);
  }
  ctx.var<std::uint32_t>("out_count") = running;
  // Mirror the count into MRAM so the host collects every DPU's count
  // with a single parallel read instead of per-DPU CI traffic.
  ctx.mram_write(bytes_of(running), args.count_off);
  ctx.exec(ctx.nr_tasklets());
}

void sel_stage_compact(DpuCtx& ctx) {
  const auto args = ctx.var<SelArgs>("sel_args");
  const auto [begin, end] = partition(args.n, ctx.nr_tasklets(), ctx.me());
  if (begin >= end) return;
  auto in_buf = ctx.mem_alloc(kBlockElems * 8);
  auto out_buf = ctx.mem_alloc(kBlockElems * 8);
  auto out = as<std::int64_t>(out_buf);
  std::uint64_t out_pos = ctx.var<std::uint32_t>("t_bases", ctx.me());
  std::uint32_t buffered = 0;
  auto flush = [&] {
    if (buffered == 0) return;
    ctx.mram_write(out_buf.first(buffered * 8),
                   args.out_off + (out_pos - buffered) * 8);
    buffered = 0;
  };
  std::int64_t prev = 0;
  bool has_prev = false;
  if (args.unique && begin > 0) {
    ctx.mram_read(args.in_off + (begin - 1) * 8, bytes_of(prev));
    has_prev = true;
  }
  for (std::uint64_t e = begin; e < end; e += kBlockElems) {
    const auto n = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(kBlockElems, end - e));
    ctx.mram_read(args.in_off + e * 8, in_buf.first(n * 8));
    auto vals = as<std::int64_t>(in_buf);
    for (std::uint32_t i = 0; i < n; ++i) {
      if (sel_keep(args, vals[i], prev, has_prev)) {
        out[buffered++] = vals[i];
        ++out_pos;
        if (buffered == kBlockElems) flush();
      }
      prev = vals[i];
      has_prev = true;
    }
    ctx.exec(2 * n);
  }
  flush();
}

// --------------------------------------------------------------- SEL/UNI

class SelUniApp final : public PrimApp {
 public:
  explicit SelUniApp(bool unique) : unique_(unique) {}
  std::string_view name() const override { return unique_ ? "UNI" : "SEL"; }

  AppResult run(sdk::Platform& p, const AppParams& prm) override {
    register_db_kernels();
    AppResult res;
    res.app = name();
    const std::uint64_t total =
        detail::scaled_elems(32'000'000, prm.scale, prm.nr_dpus, 2);

    Rng rng(prm.seed);
    auto in = as<std::int64_t>(p.alloc(total * 8));
    if (unique_) {
      // Runs of duplicates, so dedupe has work to do.
      std::int64_t v = 0;
      std::uint64_t i = 0;
      while (i < total) {
        v += rng.uniform(1, 10);
        const auto run = static_cast<std::uint64_t>(rng.uniform(1, 6));
        for (std::uint64_t k = 0; k < run && i < total; ++k) in[i++] = v;
      }
    } else {
      for (auto& v : in) v = rng.uniform(-1000000, 1000000);
    }

    std::uint64_t max_per = 0;
    std::vector<std::uint64_t> sizes(prm.nr_dpus);
    for (std::uint32_t d = 0; d < prm.nr_dpus; ++d) {
      auto [b, e] = partition(total, prm.nr_dpus, d);
      sizes[d] = (e - b) * 8;
      max_per = std::max(max_per, e - b);
    }
    const std::uint64_t out_off = round_up8(max_per * 8);
    const std::uint64_t count_off = 2 * out_off;

    auto set = DpuSet::allocate(p, prm.nr_dpus);
    set.load("prim_sel");
    {
      SegmentScope s(p.clock(), res.breakdown, Segment::kCpuDpu);
      for (std::uint32_t d = 0; d < prm.nr_dpus; ++d) {
        auto [b, e] = partition(total, prm.nr_dpus, d);
        set.prepare_xfer(d, reinterpret_cast<std::uint8_t*>(&in[b]));
      }
      set.push_xfer(XferDirection::kToRank, Target::mram(0), sizes);
      std::vector<SelArgs> args(prm.nr_dpus);
      for (std::uint32_t d = 0; d < prm.nr_dpus; ++d) {
        auto [b, e] = partition(total, prm.nr_dpus, d);
        args[d] = {e - b, 0, out_off, count_off, 0, unique_ ? 1u : 0u};
      }
      push_symbol(set, "sel_args", args);
    }
    {
      SegmentScope s(p.clock(), res.breakdown, Segment::kDpu);
      set.launch(prm.nr_tasklets);
    }
    std::vector<std::int64_t> result;
    {
      // Serial retrieval, one DPU at a time (the PrIM implementation
      // detail §5.2 calls out).
      SegmentScope s(p.clock(), res.breakdown, Segment::kDpuCpu);
      auto chunk = p.alloc(max_per * 8);
      auto counts = as<std::uint32_t>(p.alloc(prm.nr_dpus * 4));
      for (std::uint32_t d = 0; d < prm.nr_dpus; ++d) {
        set.prepare_xfer(d, reinterpret_cast<std::uint8_t*>(&counts[d]));
      }
      set.push_xfer(XferDirection::kFromRank, Target::mram(count_off), 4);
      std::uint64_t kept = 0;
      for (const std::uint32_t count : counts) kept += count;
      result.reserve(kept);
      for (std::uint32_t d = 0; d < prm.nr_dpus; ++d) {
        const std::uint32_t count = counts[d];
        if (count == 0) continue;
        set.copy_from(d, Target::mram(out_off),
                      chunk.first(std::uint64_t{count} * 8));
        auto vals = as<std::int64_t>(chunk.first(std::uint64_t{count} * 8));
        for (std::uint32_t i = 0; i < count; ++i) {
          // UNI: drop a partition-leading duplicate of the previous
          // partition's tail.
          if (unique_ && i == 0 && !result.empty() &&
              vals[i] == result.back()) {
            continue;
          }
          result.push_back(vals[i]);
        }
      }
    }
    set.free();

    // CPU reference.
    std::vector<std::int64_t> ref;
    ref.reserve(result.size());
    std::int64_t prev = 0;
    bool has_prev = false;
    for (std::uint64_t i = 0; i < total; ++i) {
      const bool keep = unique_ ? (!has_prev || in[i] != prev) : (in[i] > 0);
      if (keep) ref.push_back(in[i]);
      prev = in[i];
      has_prev = true;
    }
    res.correct = (result == ref);
    return res;
  }

 private:
  bool unique_;
};

// ------------------------------------------------------------------- BS

struct BsArgs {
  std::uint64_t n_queries = 0;
  std::uint64_t arr_elems = 0;
  std::uint64_t arr_off = 0;
  std::uint64_t q_off = 0;
  std::uint64_t out_off = 0;
};

void bs_stage(DpuCtx& ctx) {
  const auto args = ctx.var<BsArgs>("bs_args");
  const auto [begin, end] =
      partition(args.n_queries, ctx.nr_tasklets(), ctx.me());
  if (begin >= end) return;
  auto q_buf = ctx.mem_alloc(kBlockElems * 8);
  auto out_buf = ctx.mem_alloc(kBlockElems * 4);
  for (std::uint64_t e = begin; e < end; e += kBlockElems) {
    const auto n = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(kBlockElems, end - e));
    ctx.mram_read(args.q_off + e * 8, q_buf.first(n * 8));
    auto queries = as<std::int64_t>(q_buf);
    auto out = as<std::uint32_t>(out_buf);
    for (std::uint32_t i = 0; i < n; ++i) {
      // lower_bound over the sorted array in MRAM, one 8-byte probe per
      // step (the DPU pays a DMA per probe, like the PrIM kernel).
      std::uint64_t lo = 0, hi = args.arr_elems;
      while (lo < hi) {
        const std::uint64_t mid = (lo + hi) / 2;
        std::int64_t v;
        ctx.mram_read(args.arr_off + mid * 8, bytes_of(v));
        if (v < queries[i]) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
        ctx.exec(4);
      }
      out[i] = static_cast<std::uint32_t>(lo);
    }
    ctx.mram_write(out_buf.first(n * 4), args.out_off + e * 4);
  }
}

class BsApp final : public PrimApp {
 public:
  std::string_view name() const override { return "BS"; }

  AppResult run(sdk::Platform& p, const AppParams& prm) override {
    register_db_kernels();
    AppResult res;
    res.app = "BS";
    const std::uint64_t arr_elems =
        detail::scaled_elems(1'000'000, prm.scale, prm.nr_dpus, 2);
    const std::uint64_t n_queries =
        detail::scaled_elems(100'000, prm.scale, prm.nr_dpus, 2);

    Rng rng(prm.seed);
    auto arr = as<std::int64_t>(p.alloc(arr_elems * 8));
    std::int64_t v = 0;
    for (auto& a : arr) {
      v += rng.uniform(0, 8);
      a = v;
    }
    auto queries = as<std::int64_t>(p.alloc(n_queries * 8));
    for (auto& q : queries) q = rng.uniform(0, v);
    auto out = as<std::uint32_t>(p.alloc(n_queries * 4));

    const std::uint64_t arr_off = 0;
    const std::uint64_t q_off = round_up8(arr_elems * 8);
    std::uint64_t max_q = 0;
    std::vector<std::uint64_t> q_sizes(prm.nr_dpus), o_sizes(prm.nr_dpus);
    for (std::uint32_t d = 0; d < prm.nr_dpus; ++d) {
      auto [b, e] = partition(n_queries, prm.nr_dpus, d);
      q_sizes[d] = (e - b) * 8;
      o_sizes[d] = (e - b) * 4;
      max_q = std::max(max_q, e - b);
    }
    const std::uint64_t out_off = q_off + round_up8(max_q * 8);

    auto set = DpuSet::allocate(p, prm.nr_dpus);
    set.load("prim_bs");
    {
      SegmentScope s(p.clock(), res.breakdown, Segment::kCpuDpu);
      // Every DPU searches the whole sorted array: broadcast it.
      set.broadcast(Target::mram(arr_off),
                    {reinterpret_cast<std::uint8_t*>(arr.data()),
                     arr_elems * 8});
      for (std::uint32_t d = 0; d < prm.nr_dpus; ++d) {
        auto [b, e] = partition(n_queries, prm.nr_dpus, d);
        set.prepare_xfer(d, reinterpret_cast<std::uint8_t*>(&queries[b]));
      }
      set.push_xfer(XferDirection::kToRank, Target::mram(q_off), q_sizes);
      std::vector<BsArgs> args(prm.nr_dpus);
      for (std::uint32_t d = 0; d < prm.nr_dpus; ++d) {
        auto [b, e] = partition(n_queries, prm.nr_dpus, d);
        args[d] = {e - b, arr_elems, arr_off, q_off, out_off};
      }
      push_symbol(set, "bs_args", args);
    }
    {
      SegmentScope s(p.clock(), res.breakdown, Segment::kDpu);
      set.launch(prm.nr_tasklets);
    }
    {
      SegmentScope s(p.clock(), res.breakdown, Segment::kDpuCpu);
      for (std::uint32_t d = 0; d < prm.nr_dpus; ++d) {
        auto [b, e] = partition(n_queries, prm.nr_dpus, d);
        set.prepare_xfer(d, reinterpret_cast<std::uint8_t*>(&out[b]));
      }
      set.push_xfer(XferDirection::kFromRank, Target::mram(out_off),
                    o_sizes);
    }
    set.free();

    res.correct = true;
    for (std::uint64_t i = 0; i < n_queries; ++i) {
      const auto it = std::lower_bound(arr.begin(), arr.end(), queries[i]);
      if (out[i] != static_cast<std::uint32_t>(it - arr.begin())) {
        res.correct = false;
        break;
      }
    }
    return res;
  }
};

// ------------------------------------------------------------------- TS

struct TsArgs {
  std::uint64_t n_windows = 0;  // windows this DPU evaluates
  std::uint64_t series_elems = 0;
  std::uint32_t m = 0;  // query length
  std::uint64_t in_off = 0;
  std::uint64_t res_off = 0;
};

struct TsResult {
  std::int64_t min_dist = 0;
  std::uint64_t pos = 0;
};

constexpr std::uint32_t kTsQueryLen = 128;

void ts_stage_scan(DpuCtx& ctx) {
  const auto args = ctx.var<TsArgs>("ts_args");
  const auto [begin, end] =
      partition(args.n_windows, ctx.nr_tasklets(), ctx.me());
  std::int64_t best = INT64_MAX;
  std::uint64_t best_pos = 0;
  if (begin < end) {
    auto query = as<std::int32_t>(ctx.symbol_bytes("ts_query"));
    auto buf = ctx.mem_alloc((kBlockElems + kTsQueryLen) * 4);
    for (std::uint64_t w0 = begin; w0 < end; w0 += kBlockElems) {
      const auto wn = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(kBlockElems, end - w0));
      // Load the series covering windows [w0, w0+wn).
      ctx.mram_read(args.in_off + w0 * 4,
                    buf.first((wn + args.m - 1) * 4));
      auto series = as<std::int32_t>(buf);
      for (std::uint32_t w = 0; w < wn; ++w) {
        std::int64_t dist = 0;
        for (std::uint32_t j = 0; j < args.m; ++j) {
          const std::int64_t d = series[w + j] - query[j];
          dist += d < 0 ? -d : d;
        }
        if (dist < best) {
          best = dist;
          best_pos = w0 + w;
        }
      }
      ctx.exec(std::uint64_t{wn} * args.m);
    }
  }
  ctx.var<std::int64_t>("t_min", ctx.me()) = best;
  ctx.var<std::uint64_t>("t_pos", ctx.me()) = best_pos;
}

void ts_stage_merge(DpuCtx& ctx) {
  if (ctx.me() != 0) return;
  const auto args = ctx.var<TsArgs>("ts_args");
  TsResult r{INT64_MAX, 0};
  for (std::uint32_t t = 0; t < ctx.nr_tasklets(); ++t) {
    const std::int64_t m = ctx.var<std::int64_t>("t_min", t);
    if (m < r.min_dist) {
      r.min_dist = m;
      r.pos = ctx.var<std::uint64_t>("t_pos", t);
    }
  }
  ctx.exec(ctx.nr_tasklets());
  ctx.mram_write(bytes_of(r), args.res_off);
}

class TsApp final : public PrimApp {
 public:
  std::string_view name() const override { return "TS"; }

  AppResult run(sdk::Platform& p, const AppParams& prm) override {
    register_db_kernels();
    AppResult res;
    res.app = "TS";
    const std::uint32_t m = kTsQueryLen;
    const std::uint64_t series_len =
        detail::scaled_elems(1'000'000, prm.scale, prm.nr_dpus, 4) + m;
    const std::uint64_t n_windows = series_len - m + 1;

    Rng rng(prm.seed);
    auto series = as<std::int32_t>(p.alloc(series_len * 4));
    std::int32_t acc = 0;
    for (auto& s : series) {
      acc += static_cast<std::int32_t>(rng.uniform(-5, 5));
      s = acc;
    }
    std::vector<std::int32_t> query(m);
    for (auto& q : query) {
      q = static_cast<std::int32_t>(rng.uniform(-50, 50));
    }

    auto set = DpuSet::allocate(p, prm.nr_dpus);
    set.load("prim_ts");
    std::uint64_t max_span = 0;
    for (std::uint32_t d = 0; d < prm.nr_dpus; ++d) {
      auto [wb, we] = partition(n_windows, prm.nr_dpus, d);
      max_span = std::max(max_span, (we - wb) + m - 1);
    }
    const std::uint64_t res_off = round_up8(max_span * 4);
    {
      SegmentScope s(p.clock(), res.breakdown, Segment::kCpuDpu);
      std::vector<std::uint64_t> sizes(prm.nr_dpus);
      for (std::uint32_t d = 0; d < prm.nr_dpus; ++d) {
        auto [wb, we] = partition(n_windows, prm.nr_dpus, d);
        sizes[d] = ((we - wb) + m - 1) * 4;
        set.prepare_xfer(d, reinterpret_cast<std::uint8_t*>(&series[wb]));
      }
      set.push_xfer(XferDirection::kToRank, Target::mram(0), sizes);
      set.broadcast(Target::symbol("ts_query"),
                    {reinterpret_cast<std::uint8_t*>(query.data()),
                     query.size() * 4});
      std::vector<TsArgs> args(prm.nr_dpus);
      for (std::uint32_t d = 0; d < prm.nr_dpus; ++d) {
        auto [wb, we] = partition(n_windows, prm.nr_dpus, d);
        args[d] = {we - wb, series_len, m, 0, res_off};
      }
      push_symbol(set, "ts_args", args);
    }
    {
      SegmentScope s(p.clock(), res.breakdown, Segment::kDpu);
      set.launch(prm.nr_tasklets);
    }
    TsResult best{INT64_MAX, 0};
    {
      SegmentScope s(p.clock(), res.breakdown, Segment::kDpuCpu);
      auto results =
          as<TsResult>(p.alloc(std::uint64_t{prm.nr_dpus} *
                               sizeof(TsResult)));
      for (std::uint32_t d = 0; d < prm.nr_dpus; ++d) {
        set.prepare_xfer(d,
                         reinterpret_cast<std::uint8_t*>(&results[d]));
      }
      set.push_xfer(XferDirection::kFromRank, Target::mram(res_off),
                    sizeof(TsResult));
      for (std::uint32_t d = 0; d < prm.nr_dpus; ++d) {
        auto [wb, we] = partition(n_windows, prm.nr_dpus, d);
        if (results[d].min_dist < best.min_dist) {
          best = results[d];
          best.pos += wb;  // per-DPU window index -> global position
        }
      }
    }
    set.free();

    // CPU reference.
    std::int64_t ref_min = INT64_MAX;
    std::uint64_t ref_pos = 0;
    for (std::uint64_t w = 0; w < n_windows; ++w) {
      std::int64_t dist = 0;
      for (std::uint32_t j = 0; j < m; ++j) {
        const std::int64_t d = series[w + j] - query[j];
        dist += d < 0 ? -d : d;
      }
      if (dist < ref_min) {
        ref_min = dist;
        ref_pos = w;
      }
    }
    res.correct = (best.min_dist == ref_min && best.pos == ref_pos);
    return res;
  }
};

}  // namespace

void register_db_kernels() {
  auto& registry = KernelRegistry::instance();
  if (registry.contains("prim_sel")) return;

  DpuKernel sel;
  sel.name = "prim_sel";
  sel.symbols = {{"sel_args", sizeof(SelArgs)},
                 {"t_counts", 24 * 4},
                 {"t_bases", 24 * 4},
                 {"out_count", 4}};
  sel.stages = {sel_stage_count, sel_stage_prefix, sel_stage_compact};
  registry.add(std::move(sel));

  DpuKernel bs;
  bs.name = "prim_bs";
  bs.symbols = {{"bs_args", sizeof(BsArgs)}};
  bs.stages = {bs_stage};
  registry.add(std::move(bs));

  DpuKernel ts;
  ts.name = "prim_ts";
  ts.symbols = {{"ts_args", sizeof(TsArgs)},
                {"ts_query", kTsQueryLen * 4},
                {"t_min", 24 * 8},
                {"t_pos", 24 * 8}};
  ts.stages = {ts_stage_scan, ts_stage_merge};
  registry.add(std::move(ts));
}

std::unique_ptr<PrimApp> make_sel() {
  return std::make_unique<SelUniApp>(false);
}
std::unique_ptr<PrimApp> make_uni() {
  return std::make_unique<SelUniApp>(true);
}
std::unique_ptr<PrimApp> make_bs() { return std::make_unique<BsApp>(); }
std::unique_ptr<PrimApp> make_ts() { return std::make_unique<TsApp>(); }

}  // namespace vpim::prim
