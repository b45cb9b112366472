#include "prim/micro.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>

#include "common/rng.h"
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

// -------------------------------------------------------------- checksum

struct CkArgs {
  std::uint64_t n_bytes = 0;
  std::uint64_t in_off = 0;
  std::uint64_t res_off = 0;
};

void ck_stage_sum(DpuCtx& ctx) {
  const auto args = ctx.var<CkArgs>("ck_args");
  const std::uint64_t words = args.n_bytes / 8;
  const auto [begin, end] = partition(words, ctx.nr_tasklets(), ctx.me());
  std::uint64_t sum = 0;
  if (begin < end) {
    constexpr std::uint32_t kBlockWords = 256;
    auto buf = ctx.mem_alloc(kBlockWords * 8);
    for (std::uint64_t w = begin; w < end; w += kBlockWords) {
      const auto n = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(kBlockWords, end - w));
      ctx.mram_read(args.in_off + w * 8, buf.first(n * 8));
      auto vals = as<std::uint64_t>(buf);
      for (std::uint32_t i = 0; i < n; ++i) sum += vals[i];
      // ~3 cycles per byte: byte-granular checksum arithmetic on a
      // 32-bit in-order core.
      ctx.exec(24 * n);
    }
  }
  ctx.var<std::uint64_t>("ck_sums", ctx.me()) = sum;
}

void ck_stage_merge(DpuCtx& ctx) {
  if (ctx.me() != 0) return;
  const auto args = ctx.var<CkArgs>("ck_args");
  std::uint64_t total = 0;
  for (std::uint32_t t = 0; t < ctx.nr_tasklets(); ++t) {
    total += ctx.var<std::uint64_t>("ck_sums", t);
  }
  ctx.exec(ctx.nr_tasklets());
  ctx.mram_write(bytes_of(total), args.res_off);
}

// ---------------------------------------------------------- index search

struct IsArgs {
  std::uint32_t nterms = 0;
  std::uint32_t reserved = 0;
  std::uint64_t terms_off = 0;
  std::uint64_t postings_off = 0;
  // Query block layout at q_off: u32 count, then count u32 terms. The
  // count rides the (broadcast) query write instead of a CI op per batch.
  std::uint64_t q_off = 0;
  std::uint64_t out_off = 0;
};

struct TermEntry {
  std::uint32_t term = 0;
  std::uint32_t start = 0;  // postings index
  std::uint32_t len = 0;
  std::uint32_t pad = 0;
};

struct QueryHit {
  std::uint32_t count = 0;
  std::uint32_t hash = 0;  // order-independent hash of (doc, pos) matches
};

std::uint32_t posting_hash(std::uint64_t posting) {
  std::uint64_t h = posting * 0x9E3779B97F4A7C15ULL;
  return static_cast<std::uint32_t>(h ^ (h >> 32));
}

void is_load_count(DpuCtx& ctx) {
  if (ctx.me() != 0) return;
  const auto args = ctx.var<IsArgs>("is_args");
  std::uint32_t n = 0;
  ctx.mram_read(args.q_off, bytes_of(n));
  ctx.var<std::uint32_t>("is_nqueries") = n;
}

void is_stage(DpuCtx& ctx) {
  const auto args = ctx.var<IsArgs>("is_args");
  const std::uint32_t nqueries = ctx.var<std::uint32_t>("is_nqueries");
  const auto [qb, qe] =
      partition(nqueries, ctx.nr_tasklets(), ctx.me());
  if (qb >= qe) return;
  auto q_buf = ctx.mem_alloc(
      static_cast<std::uint32_t>(qe - qb) * 4);
  ctx.mram_read(args.q_off + 4 + qb * 4, q_buf);
  auto queries = as<std::uint32_t>(q_buf);
  auto out_buf = ctx.mem_alloc(
      static_cast<std::uint32_t>(qe - qb) * sizeof(QueryHit));
  auto out = as<QueryHit>(out_buf);
  constexpr std::uint32_t kChunk = 256;
  auto post_buf = ctx.mem_alloc(kChunk * 8);

  for (std::uint64_t q = qb; q < qe; ++q) {
    const std::uint32_t term = queries[q - qb];
    // Binary search the sorted term table in MRAM.
    std::uint32_t lo = 0, hi = args.nterms;
    TermEntry entry{};
    bool found = false;
    while (lo < hi) {
      const std::uint32_t mid = (lo + hi) / 2;
      TermEntry e;
      ctx.mram_read(args.terms_off + std::uint64_t{mid} * sizeof(TermEntry),
                    bytes_of(e));
      ctx.exec(4);
      if (e.term == term) {
        entry = e;
        found = true;
        break;
      }
      if (e.term < term) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    QueryHit hit{};
    if (found) {
      std::uint32_t pos = entry.start;
      const std::uint32_t pos_end = entry.start + entry.len;
      while (pos < pos_end) {
        const std::uint32_t n = std::min(kChunk, pos_end - pos);
        ctx.mram_read(args.postings_off + std::uint64_t{pos} * 8,
                      post_buf.first(n * 8));
        auto postings = as<std::uint64_t>(post_buf);
        for (std::uint32_t i = 0; i < n; ++i) {
          ++hit.count;
          hit.hash ^= posting_hash(postings[i]);
        }
        ctx.exec(2 * n);
        pos += n;
      }
    }
    out[q - qb] = hit;
  }
  ctx.mram_write(out_buf, args.out_off + qb * sizeof(QueryHit));
}

}  // namespace

void register_micro_kernels() {
  auto& registry = KernelRegistry::instance();
  if (registry.contains("micro_checksum")) return;

  DpuKernel ck;
  ck.name = "micro_checksum";
  ck.symbols = {{"ck_args", sizeof(CkArgs)}, {"ck_sums", 24 * 8}};
  ck.stages = {ck_stage_sum, ck_stage_merge};
  registry.add(std::move(ck));

  DpuKernel is;
  is.name = "micro_search";
  is.symbols = {{"is_args", sizeof(IsArgs)}, {"is_nqueries", 4}};
  is.stages = {is_load_count, is_stage};
  registry.add(std::move(is));
}

ChecksumResult run_checksum(sdk::Platform& platform,
                            const ChecksumParams& params) {
  register_micro_kernels();
  ChecksumResult res;

  Rng rng(params.seed);
  auto file = platform.alloc(params.file_bytes);
  rng.fill_bytes(file.data(), file.size());

  auto set = DpuSet::allocate(platform, params.nr_dpus);
  set.load("micro_checksum");
  // PrIM-style timing: DPU allocation (which inside a VM includes the
  // manager round trip) is excluded from the measured execution time.
  const SimNs t0 = platform.clock().now();

  const std::uint64_t res_off = round_up8(params.file_bytes);
  // One write-to-rank: the whole file to every DPU.
  set.broadcast(Target::mram(0), file);
  std::vector<CkArgs> args(params.nr_dpus,
                           {params.file_bytes, 0, res_off});
  push_symbol(set, "ck_args", args);

  set.launch(params.nr_tasklets);

  // One small read-from-rank per DPU (60 reads in the paper's setup).
  std::uint64_t expected = 0;
  {
    auto words = as<std::uint64_t>(file.first(params.file_bytes / 8 * 8));
    for (auto w : words) expected += w;
  }
  res.correct = true;
  auto out = platform.alloc(8);
  for (std::uint32_t d = 0; d < params.nr_dpus; ++d) {
    set.copy_from(d, Target::mram(res_off), out);
    std::uint64_t sum;
    std::memcpy(&sum, out.data(), 8);
    if (sum != expected) res.correct = false;
  }

  const auto& counters = set.counters();
  res.write_ops = counters.rank_writes;
  res.read_ops = counters.rank_reads;
  res.ci_ops = counters.ci_ops;
  set.free();
  res.total = platform.clock().now() - t0;
  return res;
}

namespace {

constexpr std::uint32_t kVocab = 16384;

// The inverted index over a synthetic Zipfian corpus, and the generator's
// state right after the corpus draws (the queries continue from it).
struct Corpus {
  std::map<std::uint32_t, std::vector<std::uint64_t>> index;
  Rng rng;
};

// Builds the corpus once per (seed, nr_documents, avg_doc_words) and hands
// the same one to every later run with that key: Fig 10 runs one corpus
// ten times (five DPU counts, native and vPIM), and the build (about 8M
// postings at full scale) used to be most of its host time.
std::shared_ptr<const Corpus> corpus_for(const IndexSearchParams& params) {
  static std::mutex mu;
  static std::shared_ptr<const Corpus> last;
  static std::tuple<std::uint64_t, std::uint32_t, std::uint32_t> last_key;
  const auto key =
      std::tuple{params.seed, params.nr_documents, params.avg_doc_words};
  std::lock_guard lock(mu);
  if (last != nullptr && last_key == key) return last;
  auto corpus = std::make_shared<Corpus>(Corpus{{}, Rng(params.seed)});
  Rng& rng = corpus->rng;
  for (std::uint32_t doc = 0; doc < params.nr_documents; ++doc) {
    const auto words = static_cast<std::uint32_t>(rng.uniform(
        params.avg_doc_words / 2, params.avg_doc_words * 3 / 2));
    for (std::uint32_t w = 0; w < words; ++w) {
      const auto term = static_cast<std::uint32_t>(rng.zipf(kVocab, 1.05));
      corpus->index[term].push_back((std::uint64_t{doc} << 32) | w);
    }
  }
  last = std::move(corpus);
  last_key = key;
  return last;
}

}  // namespace

IndexSearchResult run_index_search(sdk::Platform& platform,
                                   const IndexSearchParams& params) {
  register_micro_kernels();
  IndexSearchResult res;

  const std::shared_ptr<const Corpus> corpus = corpus_for(params);
  const auto& index = corpus->index;
  Rng rng = corpus->rng;

  auto set = DpuSet::allocate(platform, params.nr_dpus);
  set.load("micro_search");
  // Allocation excluded from the measured time, as in the PrIM apps.
  const SimNs t0 = platform.clock().now();

  // Serialize the whole index (sorted term table + postings blob); every
  // DPU receives a full copy and answers its share of each query batch,
  // so adding DPUs adds index-transfer work (the paper's Fig 10 trend).
  std::vector<TermEntry> terms;
  std::vector<std::uint64_t> postings;
  for (const auto& [term, plist] : index) {
    terms.push_back({term, static_cast<std::uint32_t>(postings.size()),
                     static_cast<std::uint32_t>(plist.size()), 0});
    postings.insert(postings.end(), plist.begin(), plist.end());
  }
  const std::uint64_t terms_bytes = terms.size() * sizeof(TermEntry);
  const std::uint64_t post_bytes = postings.size() * 8;
  res.index_bytes = terms_bytes + post_bytes;
  auto blob = platform.alloc(round_up8(terms_bytes) + post_bytes);
  std::memcpy(blob.data(), terms.data(), terms_bytes);
  std::memcpy(blob.data() + round_up8(terms_bytes), postings.data(),
              post_bytes);

  const std::uint32_t max_batch = params.batch_size;
  const std::uint64_t q_off = round_up8(blob.size());
  const std::uint64_t q_block = round_up8(4 + std::uint64_t{max_batch} * 4);
  const std::uint64_t out_off = q_off + q_block;
  VPIM_CHECK(out_off + std::uint64_t{max_batch} * sizeof(QueryHit) <=
                 upmem::kMramSize,
             "index + query region exceed MRAM");

  // CPU-DPU: replicate the index (one broadcast per rank).
  set.broadcast(Target::mram(0), blob);
  std::vector<IsArgs> args(
      params.nr_dpus,
      {static_cast<std::uint32_t>(terms.size()), 0, 0,
       round_up8(terms_bytes), q_off, out_off});
  push_symbol(set, "is_args", args);

  // Queries: uniform over the vocabulary, in batches; each DPU answers
  // its slice of the batch.
  std::vector<std::uint32_t> queries(params.nr_queries);
  for (auto& q : queries) {
    q = static_cast<std::uint32_t>(rng.uniform(0, kVocab - 1));
  }
  auto q_stage = platform.alloc(std::uint64_t{params.nr_dpus} * q_block);
  auto hit_stage = platform.alloc(std::uint64_t{max_batch} *
                                  sizeof(QueryHit) * params.nr_dpus);

  std::vector<QueryHit> merged(params.nr_queries);
  for (std::uint32_t b0 = 0; b0 < params.nr_queries; b0 += max_batch) {
    const std::uint32_t bn =
        std::min(max_batch, params.nr_queries - b0);
    // Per-DPU query blocks: {count, terms...}.
    std::vector<std::uint64_t> q_sizes(params.nr_dpus);
    for (std::uint32_t d = 0; d < params.nr_dpus; ++d) {
      auto [qb, qe] = partition(bn, params.nr_dpus, d);
      const auto cnt = static_cast<std::uint32_t>(qe - qb);
      std::uint8_t* block = q_stage.data() + std::uint64_t{d} * q_block;
      std::memcpy(block, &cnt, 4);
      std::memcpy(block + 4, &queries[b0 + qb], std::uint64_t{cnt} * 4);
      q_sizes[d] = 4 + std::uint64_t{cnt} * 4;
      set.prepare_xfer(d, block);
    }
    set.push_xfer(XferDirection::kToRank, Target::mram(q_off), q_sizes);
    set.launch(params.nr_tasklets);
    // Collect every DPU's hit block with one parallel read.
    std::vector<std::uint64_t> o_sizes(params.nr_dpus);
    for (std::uint32_t d = 0; d < params.nr_dpus; ++d) {
      auto [qb, qe] = partition(bn, params.nr_dpus, d);
      o_sizes[d] = (qe - qb) * sizeof(QueryHit);
      set.prepare_xfer(d, hit_stage.data() + std::uint64_t{d} *
                                                 max_batch *
                                                 sizeof(QueryHit));
    }
    set.push_xfer(XferDirection::kFromRank, Target::mram(out_off),
                  o_sizes);
    for (std::uint32_t d = 0; d < params.nr_dpus; ++d) {
      auto [qb, qe] = partition(bn, params.nr_dpus, d);
      auto hits = as<QueryHit>(hit_stage.subspan(
          std::uint64_t{d} * max_batch * sizeof(QueryHit),
          (qe - qb) * sizeof(QueryHit)));
      for (std::uint64_t i = 0; i < qe - qb; ++i) {
        merged[b0 + qb + i] = hits[i];
      }
    }
  }
  res.total = platform.clock().now() - t0;
  set.free();

  // CPU reference straight from the inverted index.
  res.correct = true;
  for (std::uint32_t i = 0; i < params.nr_queries; ++i) {
    QueryHit ref{};
    auto it = index.find(queries[i]);
    if (it != index.end()) {
      for (std::uint64_t p : it->second) {
        ++ref.count;
        ref.hash ^= posting_hash(p);
      }
    }
    res.matches += ref.count;
    if (ref.count != merged[i].count || ref.hash != merged[i].hash) {
      res.correct = false;
    }
  }
  return res;
}

}  // namespace vpim::prim
