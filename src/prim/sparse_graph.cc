// Sparse/irregular applications: SpMV (CSR sparse matrix-vector multiply,
// whose CPU-DPU step is implemented serially per DPU in PrIM — the reason
// it slows down at 480 DPUs) and BFS (level-synchronous breadth-first
// search whose per-level frontier handshakes dominate the Inter-DPU
// segment, §5.2 fourth observation).
#include <cstring>
#include <queue>

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

// ----------------------------------------------------------------- SpMV

struct SpmvArgs {
  std::uint32_t n_rows = 0;
  std::uint32_t n_cols = 0;
  std::uint64_t rowptr_off = 0;
  std::uint64_t col_off = 0;
  std::uint64_t val_off = 0;
  std::uint64_t x_off = 0;
  std::uint64_t y_off = 0;
};

void spmv_stage(DpuCtx& ctx) {
  const auto args = ctx.var<SpmvArgs>("spmv_args");
  const auto [row_begin, row_end] =
      partition(args.n_rows, ctx.nr_tasklets(), ctx.me());
  if (row_begin >= row_end) return;
  constexpr std::uint32_t kChunk = 128;
  auto ptr_buf = ctx.mem_alloc((kChunk + 1) * 4);
  auto col_buf = ctx.mem_alloc(kChunk * 4);
  auto val_buf = ctx.mem_alloc(kChunk * 4);
  auto y_buf =
      ctx.mem_alloc(static_cast<std::uint32_t>(row_end - row_begin) * 4);
  auto y = as<std::int32_t>(y_buf);

  for (std::uint64_t r0 = row_begin; r0 < row_end; r0 += kChunk) {
    const auto rn = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(kChunk, row_end - r0));
    ctx.mram_read(args.rowptr_off + r0 * 4, ptr_buf.first((rn + 1) * 4));
    auto rowptr = as<std::uint32_t>(ptr_buf);
    for (std::uint32_t r = 0; r < rn; ++r) {
      std::int64_t acc = 0;
      std::uint32_t nz = rowptr[r];
      const std::uint32_t nz_end = rowptr[r + 1];
      while (nz < nz_end) {
        const std::uint32_t n = std::min(kChunk, nz_end - nz);
        ctx.mram_read(args.col_off + std::uint64_t{nz} * 4,
                      col_buf.first(n * 4));
        ctx.mram_read(args.val_off + std::uint64_t{nz} * 4,
                      val_buf.first(n * 4));
        auto cols = as<std::uint32_t>(col_buf);
        auto vals = as<std::int32_t>(val_buf);
        for (std::uint32_t i = 0; i < n; ++i) {
          // Gather x[col] straight from MRAM (per-element DMA, as the
          // irregular access pattern forces on real hardware).
          std::int32_t xv;
          ctx.mram_read(args.x_off + std::uint64_t{cols[i]} * 4,
                        bytes_of(xv));
          acc += static_cast<std::int64_t>(vals[i]) * xv;
        }
        ctx.exec(2 * n);
        nz += n;
      }
      y[(r0 + r) - row_begin] = static_cast<std::int32_t>(acc);
    }
  }
  ctx.mram_write(y_buf.first((row_end - row_begin) * 4),
                 args.y_off + row_begin * 4);
}

struct Csr {
  std::uint32_t rows = 0, cols = 0;
  std::vector<std::uint32_t> rowptr;  // rows+1
  std::vector<std::uint32_t> col;
  std::vector<std::int32_t> val;
};

Csr make_sparse(std::uint32_t rows, std::uint32_t cols, std::uint32_t avg_nnz,
                Rng& rng) {
  Csr m;
  m.rows = rows;
  m.cols = cols;
  m.rowptr.push_back(0);
  for (std::uint32_t r = 0; r < rows; ++r) {
    const auto nnz = static_cast<std::uint32_t>(
        rng.uniform(1, 2 * avg_nnz - 1));
    for (std::uint32_t k = 0; k < nnz; ++k) {
      m.col.push_back(
          static_cast<std::uint32_t>(rng.uniform(0, cols - 1)));
      m.val.push_back(static_cast<std::int32_t>(rng.uniform(-50, 50)));
    }
    m.rowptr.push_back(static_cast<std::uint32_t>(m.col.size()));
  }
  return m;
}

class SpmvApp final : public PrimApp {
 public:
  std::string_view name() const override { return "SpMV"; }

  AppResult run(sdk::Platform& p, const AppParams& prm) override {
    register_sparse_kernels();
    AppResult res;
    res.app = "SpMV";
    const auto rows = static_cast<std::uint32_t>(
        detail::scaled_elems(320'000, prm.scale, prm.nr_dpus, 1));
    const std::uint32_t cols = 16384;
    const std::uint32_t avg_nnz = 12;

    Rng rng(prm.seed);
    Csr m = make_sparse(rows, cols, avg_nnz, rng);
    std::vector<std::int32_t> x(cols);
    for (auto& v : x) v = static_cast<std::int32_t>(rng.uniform(-20, 20));
    std::vector<std::int32_t> y(rows, 0);

    auto set = DpuSet::allocate(p, prm.nr_dpus);
    set.load("prim_spmv");

    // Per-DPU staging buffers (rebased CSR slices live in host memory the
    // platform owns, so the guest path can reach them zero-copy).
    struct Slice {
      std::span<std::uint32_t> rowptr;
      std::span<std::uint32_t> col;
      std::span<std::int32_t> val;
      std::uint32_t n_rows = 0;
      std::uint32_t row_base = 0;
    };
    std::vector<Slice> slices(prm.nr_dpus);
    auto x_host = as<std::int32_t>(p.alloc(cols * 4));
    std::copy(x.begin(), x.end(), x_host.begin());

    std::vector<SpmvArgs> args(prm.nr_dpus);
    {
      // PrIM transfers SpMV inputs serially, one DPU after another.
      SegmentScope s(p.clock(), res.breakdown, Segment::kCpuDpu);
      for (std::uint32_t d = 0; d < prm.nr_dpus; ++d) {
        auto [rb, re] = partition(rows, prm.nr_dpus, d);
        Slice& sl = slices[d];
        sl.n_rows = static_cast<std::uint32_t>(re - rb);
        sl.row_base = static_cast<std::uint32_t>(rb);
        const std::uint32_t nz_begin = m.rowptr[rb];
        const std::uint32_t nz_end = m.rowptr[re];
        const std::uint32_t nnz = nz_end - nz_begin;
        sl.rowptr = as<std::uint32_t>(p.alloc((sl.n_rows + 1) * 4));
        for (std::uint32_t r = 0; r <= sl.n_rows; ++r) {
          sl.rowptr[r] = m.rowptr[rb + r] - nz_begin;
        }
        sl.col = as<std::uint32_t>(p.alloc(std::uint64_t{nnz} * 4));
        sl.val = as<std::int32_t>(p.alloc(std::uint64_t{nnz} * 4));
        std::copy(m.col.begin() + nz_begin, m.col.begin() + nz_end,
                  sl.col.begin());
        std::copy(m.val.begin() + nz_begin, m.val.begin() + nz_end,
                  sl.val.begin());

        // Uniform layout: the last two regions (x, y) sit at fixed
        // offsets so x can be broadcast and y read back in one parallel
        // operation. 48 MiB leaves ample room for the CSR slice.
        const std::uint64_t rowptr_off = 0;
        const std::uint64_t col_off =
            rowptr_off + round_up8((sl.n_rows + 1) * 4);
        const std::uint64_t val_off = col_off + round_up8(nnz * 4ULL);
        const std::uint64_t x_off = 48 * kMiB;
        const std::uint64_t y_off = x_off + round_up8(cols * 4);
        VPIM_CHECK(val_off + round_up8(nnz * 4ULL) <= x_off,
                   "CSR slice overflows its region");
        args[d] = {sl.n_rows, cols, rowptr_off, col_off,
                   val_off,   x_off, y_off};

        auto put = [&](std::uint64_t off, void* data, std::uint64_t n) {
          set.copy_to(d, Target::mram(off),
                      {static_cast<std::uint8_t*>(data), n});
        };
        put(rowptr_off, sl.rowptr.data(), (sl.n_rows + 1) * 4);
        put(col_off, sl.col.data(), std::uint64_t{nnz} * 4);
        put(val_off, sl.val.data(), std::uint64_t{nnz} * 4);
      }
      // The dense vector is identical everywhere: one broadcast.
      set.broadcast(Target::mram(48 * kMiB),
                    {reinterpret_cast<std::uint8_t*>(x_host.data()),
                     std::uint64_t{cols} * 4});
      push_symbol(set, "spmv_args", args);
    }
    {
      SegmentScope s(p.clock(), res.breakdown, Segment::kDpu);
      set.launch(prm.nr_tasklets);
    }
    {
      SegmentScope s(p.clock(), res.breakdown, Segment::kDpuCpu);
      auto y_host = as<std::int32_t>(p.alloc(std::uint64_t{rows} * 4));
      std::vector<std::uint64_t> sizes(prm.nr_dpus);
      for (std::uint32_t d = 0; d < prm.nr_dpus; ++d) {
        sizes[d] = std::uint64_t{slices[d].n_rows} * 4;
        set.prepare_xfer(
            d, reinterpret_cast<std::uint8_t*>(
                   &y_host[slices[d].row_base]));
      }
      set.push_xfer(XferDirection::kFromRank,
                    Target::mram(args[0].y_off), sizes);
      std::copy(y_host.begin(), y_host.end(), y.begin());
    }
    set.free();

    res.correct = true;
    for (std::uint32_t r = 0; r < rows && res.correct; ++r) {
      std::int64_t acc = 0;
      for (std::uint32_t nz = m.rowptr[r]; nz < m.rowptr[r + 1]; ++nz) {
        acc += static_cast<std::int64_t>(m.val[nz]) * x[m.col[nz]];
      }
      if (y[r] != static_cast<std::int32_t>(acc)) res.correct = false;
    }
    return res;
  }
};

// ------------------------------------------------------------------ BFS

struct BfsArgs {
  std::uint32_t n_local = 0;    // vertices owned by this DPU
  std::uint32_t vert_base = 0;  // first owned vertex id
  std::uint32_t n_global = 0;   // total vertices
  std::uint64_t rowptr_off = 0;
  std::uint64_t col_off = 0;
  std::uint64_t frontier_off = 0;  // global frontier bitmap (read)
  std::uint64_t next_off = 0;      // local next-frontier bitmap (write)
};

// Both bitmaps live in MRAM (PrIM-scale graphs do not fit WRAM); the
// kernel streams the frontier window for its own vertices and updates the
// next bitmap with per-byte read-modify-write DMA, like the real kernel.
constexpr std::uint32_t kBfsMaxVertices = 1 << 20;

void bfs_stage_clear(DpuCtx& ctx) {
  const auto args = ctx.var<BfsArgs>("bfs_args");
  const std::uint32_t bitmap_bytes = (args.n_global + 7) / 8;
  const auto [bb, be] =
      partition(bitmap_bytes, ctx.nr_tasklets(), ctx.me());
  if (bb >= be) return;
  constexpr std::uint32_t kChunk = 2048;
  auto zeros = ctx.mem_alloc(
      static_cast<std::uint32_t>(std::min<std::uint64_t>(kChunk, be - bb)));
  for (std::uint64_t o = bb; o < be; o += kChunk) {
    const auto n = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(kChunk, be - o));
    ctx.mram_write(zeros.first(n), args.next_off + o);
  }
}

void bfs_stage_expand(DpuCtx& ctx) {
  const auto args = ctx.var<BfsArgs>("bfs_args");
  const auto [vb, ve] = partition(args.n_local, ctx.nr_tasklets(), ctx.me());
  if (vb >= ve) return;
  constexpr std::uint32_t kChunk = 128;
  auto ptr_buf = ctx.mem_alloc((kChunk + 1) * 4);
  auto col_buf = ctx.mem_alloc(kChunk * 4);
  // Frontier window covering this tasklet's own vertices.
  const std::uint64_t win_first = (args.vert_base + vb) / 8;
  const std::uint64_t win_last = (args.vert_base + ve - 1) / 8;
  auto window = ctx.mem_alloc(
      static_cast<std::uint32_t>(win_last - win_first + 1));
  ctx.mram_read(args.frontier_off + win_first, window);

  for (std::uint64_t v0 = vb; v0 < ve; v0 += kChunk) {
    const auto vn = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(kChunk, ve - v0));
    ctx.mram_read(args.rowptr_off + v0 * 4, ptr_buf.first((vn + 1) * 4));
    auto rowptr = as<std::uint32_t>(ptr_buf);
    for (std::uint32_t i = 0; i < vn; ++i) {
      const std::uint32_t v_global =
          args.vert_base + static_cast<std::uint32_t>(v0) + i;
      if ((window[v_global / 8 - win_first] >> (v_global % 8) & 1) == 0) {
        continue;
      }
      std::uint32_t nz = rowptr[i];
      const std::uint32_t nz_end = rowptr[i + 1];
      while (nz < nz_end) {
        const std::uint32_t n = std::min(kChunk, nz_end - nz);
        ctx.mram_read(args.col_off + std::uint64_t{nz} * 4,
                      col_buf.first(n * 4));
        auto cols = as<std::uint32_t>(col_buf);
        for (std::uint32_t k = 0; k < n; ++k) {
          // Per-neighbor read-modify-write on the MRAM next bitmap.
          std::uint8_t byte = 0;
          ctx.mram_read(args.next_off + cols[k] / 8, {&byte, 1});
          byte |= (1 << (cols[k] % 8));
          ctx.mram_write({&byte, 1}, args.next_off + cols[k] / 8);
        }
        ctx.exec(2 * n);
        nz += n;
      }
    }
    ctx.exec(vn);
  }
}

class BfsApp final : public PrimApp {
 public:
  std::string_view name() const override { return "BFS"; }

  AppResult run(sdk::Platform& p, const AppParams& prm) override {
    register_sparse_kernels();
    AppResult res;
    res.app = "BFS";
    // 2D grid plus a few shortcuts: meaningful diameter (many BFS levels,
    // i.e. many Inter-DPU handshakes) without a pathological runtime.
    const auto side = static_cast<std::uint32_t>(
        detail::scaled_elems(768, std::sqrt(prm.scale), 1, 1));
    const std::uint32_t n = side * side;
    VPIM_CHECK(n <= kBfsMaxVertices, "BFS graph larger than bitmap");

    Rng rng(prm.seed);
    std::vector<std::vector<std::uint32_t>> adj(n);
    auto id = [&](std::uint32_t r, std::uint32_t c) {
      return r * side + c;
    };
    for (std::uint32_t r = 0; r < side; ++r) {
      for (std::uint32_t c = 0; c < side; ++c) {
        if (r + 1 < side) {
          adj[id(r, c)].push_back(id(r + 1, c));
          adj[id(r + 1, c)].push_back(id(r, c));
        }
        if (c + 1 < side) {
          adj[id(r, c)].push_back(id(r, c + 1));
          adj[id(r, c + 1)].push_back(id(r, c));
        }
      }
    }
    for (std::uint32_t k = 0; k < n / 64; ++k) {
      const auto a = static_cast<std::uint32_t>(rng.uniform(0, n - 1));
      const auto b = static_cast<std::uint32_t>(rng.uniform(0, n - 1));
      if (a != b) {
        adj[a].push_back(b);
        adj[b].push_back(a);
      }
    }

    const std::uint32_t bitmap_bytes = (n + 7) / 8;
    auto frontier = p.alloc(bitmap_bytes);
    auto next_merge = p.alloc(bitmap_bytes);
    auto per_dpu_next = p.alloc(std::uint64_t{prm.nr_dpus} * bitmap_bytes);
    std::vector<std::uint32_t> level(n, UINT32_MAX);

    auto set = DpuSet::allocate(p, prm.nr_dpus);
    set.load("prim_bfs");

    // Uniform per-DPU layout (capacities sized by the largest slice) so
    // the per-level synchronization uses whole-set operations: broadcast
    // the frontier, one parallel read of every DPU's next bitmap.
    std::uint64_t max_rowptr = 0, max_cols = 0;
    for (std::uint32_t d = 0; d < prm.nr_dpus; ++d) {
      auto [vb, ve] = partition(n, prm.nr_dpus, d);
      std::uint64_t cols_here = 0;
      for (std::uint64_t v = vb; v < ve; ++v) cols_here += adj[v].size();
      max_rowptr = std::max<std::uint64_t>(max_rowptr, (ve - vb) + 1);
      max_cols = std::max<std::uint64_t>(max_cols, cols_here);
    }
    const std::uint64_t rowptr_off = 0;
    const std::uint64_t col_off = round_up8(max_rowptr * 4);
    const std::uint64_t frontier_off =
        col_off + round_up8(std::max<std::uint64_t>(max_cols, 1) * 4);
    const std::uint64_t next_off = frontier_off + round_up8(bitmap_bytes);

    std::vector<BfsArgs> args(prm.nr_dpus);
    {
      // Load each DPU's adjacency slice (serial, like PrIM's BFS loader).
      SegmentScope s(p.clock(), res.breakdown, Segment::kCpuDpu);
      for (std::uint32_t d = 0; d < prm.nr_dpus; ++d) {
        auto [vb, ve] = partition(n, prm.nr_dpus, d);
        const auto n_local = static_cast<std::uint32_t>(ve - vb);
        auto rowptr = as<std::uint32_t>(p.alloc((n_local + 1) * 4));
        std::vector<std::uint32_t> cols;
        rowptr[0] = 0;
        for (std::uint32_t i = 0; i < n_local; ++i) {
          for (std::uint32_t u : adj[vb + i]) cols.push_back(u);
          rowptr[i + 1] = static_cast<std::uint32_t>(cols.size());
        }
        auto col_host = as<std::uint32_t>(
            p.alloc(std::max<std::size_t>(cols.size(), 1) * 4));
        std::copy(cols.begin(), cols.end(), col_host.begin());

        args[d] = {n_local,
                   static_cast<std::uint32_t>(vb),
                   n,
                   rowptr_off,
                   col_off,
                   frontier_off,
                   next_off};
        set.copy_to(d, Target::mram(rowptr_off),
                    {reinterpret_cast<std::uint8_t*>(rowptr.data()),
                     (n_local + 1) * 4});
        if (!cols.empty()) {
          set.copy_to(d, Target::mram(col_off),
                      {reinterpret_cast<std::uint8_t*>(col_host.data()),
                       cols.size() * 4});
        }
      }
      push_symbol(set, "bfs_args", args);
    }

    // Level-synchronous loop: every level costs one frontier broadcast,
    // one launch, and one next-bitmap read per DPU (Inter-DPU handshake).
    std::memset(frontier.data(), 0, bitmap_bytes);
    frontier[0] |= 1;  // source vertex 0
    level[0] = 0;
    std::uint32_t depth = 0;
    while (true) {
      bool any = false;
      {
        SegmentScope s(p.clock(), res.breakdown, Segment::kInterDpu);
        // Same frontier bitmap to every DPU: one broadcast.
        set.broadcast(Target::mram(frontier_off),
                      frontier.first(bitmap_bytes));
      }
      {
        SegmentScope s(p.clock(), res.breakdown, Segment::kDpu);
        set.launch(prm.nr_tasklets);
      }
      {
        SegmentScope s(p.clock(), res.breakdown, Segment::kInterDpu);
        std::memset(next_merge.data(), 0, bitmap_bytes);
        // Every DPU's next bitmap in one parallel read-from-rank.
        for (std::uint32_t d = 0; d < prm.nr_dpus; ++d) {
          set.prepare_xfer(d, per_dpu_next.data() +
                                  std::uint64_t{d} * bitmap_bytes);
        }
        set.push_xfer(XferDirection::kFromRank, Target::mram(next_off),
                      bitmap_bytes);
        for (std::uint32_t d = 0; d < prm.nr_dpus; ++d) {
          auto chunk =
              per_dpu_next.subspan(std::uint64_t{d} * bitmap_bytes,
                                   bitmap_bytes);
          for (std::uint32_t b = 0; b < bitmap_bytes; ++b) {
            next_merge[b] |= chunk[b];
          }
        }
        ++depth;
        std::memset(frontier.data(), 0, bitmap_bytes);
        for (std::uint32_t v = 0; v < n; ++v) {
          if ((next_merge[v / 8] >> (v % 8) & 1) != 0 &&
              level[v] == UINT32_MAX) {
            level[v] = depth;
            frontier[v / 8] |= (1 << (v % 8));
            any = true;
          }
        }
      }
      if (!any) break;
    }
    set.free();

    // CPU reference BFS.
    std::vector<std::uint32_t> ref(n, UINT32_MAX);
    std::queue<std::uint32_t> q;
    ref[0] = 0;
    q.push(0);
    while (!q.empty()) {
      const std::uint32_t v = q.front();
      q.pop();
      for (std::uint32_t u : adj[v]) {
        if (ref[u] == UINT32_MAX) {
          ref[u] = ref[v] + 1;
          q.push(u);
        }
      }
    }
    res.correct = (ref == level);
    return res;
  }
};

}  // namespace

void register_sparse_kernels() {
  auto& registry = KernelRegistry::instance();
  if (registry.contains("prim_spmv")) return;

  DpuKernel spmv;
  spmv.name = "prim_spmv";
  spmv.symbols = {{"spmv_args", sizeof(SpmvArgs)}};
  spmv.stages = {spmv_stage};
  registry.add(std::move(spmv));

  DpuKernel bfs;
  bfs.name = "prim_bfs";
  bfs.symbols = {{"bfs_args", sizeof(BfsArgs)}};
  bfs.stages = {bfs_stage_clear, bfs_stage_expand};
  registry.add(std::move(bfs));
}

std::unique_ptr<PrimApp> make_spmv() { return std::make_unique<SpmvApp>(); }
std::unique_ptr<PrimApp> make_bfs() { return std::make_unique<BfsApp>(); }

}  // namespace vpim::prim
