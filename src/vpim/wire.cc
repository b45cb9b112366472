#include "vpim/wire.h"

#include <cstring>

#include "common/error.h"
#include "common/thread_pool.h"
#include "upmem/layout.h"

namespace vpim::core {

namespace {
constexpr std::uint64_t kPage = guest::kGuestPageSize;

template <typename T>
void write_pod(std::span<std::uint8_t> dst, const T& value,
               std::uint64_t offset = 0) {
  VPIM_CHECK(offset + sizeof(T) <= dst.size(), "arena overflow");
  std::memcpy(dst.data() + offset, &value, sizeof(T));
}

template <typename T>
T read_pod(const std::uint8_t* src) {
  T value;
  std::memcpy(&value, src, sizeof(T));
  return value;
}
}  // namespace

void carve_control_page(WireArena& arena, std::span<std::uint8_t> page) {
  std::uint64_t off = 0;
  auto carve = [&](std::uint64_t bytes) {
    const std::span<std::uint8_t> out = page.subspan(off, bytes);
    off = (off + bytes + 63) / 64 * 64;
    return out;
  };
  arena.request = carve(sizeof(WireRequest));
  arena.matrix_meta = carve(sizeof(WireMatrixMeta));
  arena.response = carve(sizeof(WireResponse));
  arena.entry_meta =
      carve(std::uint64_t{upmem::kDpuSlotsPerRank} * sizeof(WireEntryMeta));
  VPIM_CHECK(off <= page.size(), "control blocks exceed a page");
  arena.page_head = page.subspan(off);
}

void serialize_matrix(const driver::TransferMatrix& matrix,
                      guest::GuestMemory& mem, WireArena& arena,
                      std::uint32_t request_type, SerializeResult& result) {
  VPIM_CHECK(matrix.entries.size() <= upmem::kDpuSlotsPerRank,
             "matrix has more entries than DPUs in a rank");
  const std::uint64_t total_bytes = matrix.total_bytes();
  VPIM_CHECK(total_bytes <= upmem::kMaxXferBytes,
             "rank operations move at most 4 GiB");

  result.chain.clear();
  result.nr_pages = 0;
  // [req][meta] + 2 per entry + [response].
  result.chain.reserve(3 + 2 * matrix.entries.size());

  WireRequest req;
  req.type = request_type;
  req.direction = static_cast<std::uint32_t>(matrix.direction);
  req.nr_entries = static_cast<std::uint32_t>(matrix.entries.size());
  write_pod(arena.request, req);
  result.chain.push_back({mem.gpa_of(arena.request.data()),
                          sizeof(WireRequest), false});

  WireMatrixMeta meta{matrix.entries.size(), total_bytes};
  write_pod(arena.matrix_meta, meta);
  result.chain.push_back({mem.gpa_of(arena.matrix_meta.data()),
                          sizeof(WireMatrixMeta), false});

  // Page lists: in the control page's head when they surely fit there.
  const std::uint64_t list_bound =
      8 * (2 * matrix.entries.size() + total_bytes / kPage);
  const std::span<std::uint8_t> lists = list_bound <= arena.page_head.size()
                                            ? arena.page_head
                                            : arena.page_lists;
  std::uint64_t page_list_cursor = 0;  // bytes into `lists`
  for (std::size_t k = 0; k < matrix.entries.size(); ++k) {
    const driver::XferEntry& e = matrix.entries[k];
    VPIM_CHECK(e.size > 0, "zero-sized matrix entry");
    VPIM_CHECK(mem.contains(e.host), "transfer buffer outside guest RAM");

    const std::uint64_t gpa = mem.gpa_of(e.host);
    const std::uint64_t first_off = gpa % kPage;
    const std::uint64_t nr_pages =
        (first_off + e.size + kPage - 1) / kPage;

    WireEntryMeta em;
    em.dpu = e.dpu;
    em.mram_offset = e.mram_offset;
    em.size = e.size;
    em.first_page_offset = first_off;
    em.nr_pages = nr_pages;
    const std::uint64_t meta_off = k * sizeof(WireEntryMeta);
    write_pod(arena.entry_meta, em, meta_off);
    result.chain.push_back(
        {mem.gpa_of(arena.entry_meta.data() + meta_off),
         sizeof(WireEntryMeta), false});

    // Page buffer: one u64 guest-physical page address per covered page.
    VPIM_CHECK(page_list_cursor + nr_pages * 8 <= lists.size(),
               "page-list arena exhausted");
    std::uint8_t* list = lists.data() + page_list_cursor;
    for (std::uint64_t p = 0; p < nr_pages; ++p) {
      const std::uint64_t page_gpa = (gpa - first_off) + p * kPage;
      std::memcpy(list + p * 8, &page_gpa, 8);
    }
    result.chain.push_back({mem.gpa_of(list),
                            static_cast<std::uint32_t>(nr_pages * 8),
                            false});
    // The data pages themselves are not chained: the device reaches them
    // through the GPAs in the page buffer (zero-copy). Whether the device
    // may write them is implied by the request direction.
    page_list_cursor += nr_pages * 8;
    result.nr_pages += nr_pages;
  }

  // Device-writable response block: carries the completion status back.
  result.chain.push_back({mem.gpa_of(arena.response.data()),
                          sizeof(WireResponse), true});

  VPIM_CHECK(result.chain.size() <= virtio::kMaxMatrixBuffers,
             "serialized matrix exceeds 131 buffers");
}

SerializeResult serialize_matrix(const driver::TransferMatrix& matrix,
                                 guest::GuestMemory& mem, WireArena& arena,
                                 std::uint32_t request_type) {
  SerializeResult result;
  serialize_matrix(matrix, mem, arena, request_type, result);
  return result;
}

void deserialize_matrix(const virtio::DescChain& chain,
                        guest::GuestMemory& mem, DeserializeResult& result,
                        DeserializeScratch& scratch) {
  using virtio::PimStatus;
  // [req][meta][2 per entry...][response] => odd count, at least 3.
  VPIM_REQUEST_CHECK(chain.descs.size() >= 3 && chain.descs.size() % 2 == 1,
                     PimStatus::kBadRequest,
                     "truncated or malformed rank-operation chain");
  VPIM_REQUEST_CHECK(chain.descs[0].len >= sizeof(WireRequest),
                     PimStatus::kBadRequest, "request descriptor too small");
  const auto req = read_pod<WireRequest>(
      mem.hva_range(chain.descs[0].addr, sizeof(WireRequest)));
  VPIM_REQUEST_CHECK(chain.descs[1].len >= sizeof(WireMatrixMeta),
                     PimStatus::kBadRequest, "metadata descriptor too small");
  const auto meta = read_pod<WireMatrixMeta>(
      mem.hva_range(chain.descs[1].addr, sizeof(WireMatrixMeta)));
  VPIM_REQUEST_CHECK(
      req.direction <=
          static_cast<std::uint32_t>(driver::XferDirection::kFromRank),
      PimStatus::kBadRequest, "unknown transfer direction");
  VPIM_REQUEST_CHECK(meta.nr_entries == (chain.descs.size() - 3) / 2,
                     PimStatus::kBadRequest,
                     "matrix metadata disagrees with chain length");
  VPIM_REQUEST_CHECK(meta.nr_entries <= upmem::kDpuSlotsPerRank,
                     PimStatus::kBadRequest,
                     "matrix has more entries than DPUs in a rank");
  VPIM_REQUEST_CHECK(meta.total_bytes <= upmem::kMaxXferBytes,
                     PimStatus::kBadRequest,
                     "rank operations move at most 4 GiB");

  result.direction = static_cast<driver::XferDirection>(req.direction);
  result.entries.clear();
  result.segment_pool.clear();
  result.nr_pages = 0;
  result.total_bytes = 0;
  result.entries.reserve(meta.nr_entries);

  // Pass 1 (serial, in entry order): validate every guest-controlled
  // metadata field and build the entry skeletons.
  std::vector<WireEntryMeta>& entry_metas = scratch.entry_metas;
  std::vector<const std::uint8_t*>& page_lists = scratch.page_lists;
  std::vector<std::uint64_t>& seg_base = scratch.seg_base;
  std::vector<std::uint32_t>& seg_count = scratch.seg_count;
  entry_metas.clear();
  page_lists.clear();
  seg_base.clear();
  entry_metas.reserve(meta.nr_entries);
  page_lists.reserve(meta.nr_entries);
  seg_base.reserve(meta.nr_entries);
  for (std::uint64_t k = 0; k < meta.nr_entries; ++k) {
    const virtio::VirtqDesc& meta_desc = chain.descs[2 + 2 * k];
    VPIM_REQUEST_CHECK(meta_desc.len >= sizeof(WireEntryMeta),
                       PimStatus::kBadRequest,
                       "entry metadata descriptor too small");
    const auto em = read_pod<WireEntryMeta>(
        mem.hva_range(meta_desc.addr, sizeof(WireEntryMeta)));
    // Bound size before any arithmetic so the page-count formula cannot
    // overflow; then nr_pages is forced to match the size exactly, which
    // caps the page-list length check well below u64 wraparound.
    VPIM_REQUEST_CHECK(em.size > 0 && em.size <= upmem::kMaxXferBytes,
                       PimStatus::kBadRequest, "bad entry size");
    VPIM_REQUEST_CHECK(em.first_page_offset < kPage,
                       PimStatus::kBadRequest, "bad first-page offset");
    const std::uint64_t expected_pages =
        (em.first_page_offset + em.size + kPage - 1) / kPage;
    VPIM_REQUEST_CHECK(em.nr_pages == expected_pages,
                       PimStatus::kBadRequest,
                       "page count disagrees with entry size");
    const virtio::VirtqDesc& pages_desc = chain.descs[3 + 2 * k];
    VPIM_REQUEST_CHECK(pages_desc.len == em.nr_pages * 8,
                       PimStatus::kBadRequest,
                       "page buffer length disagrees with entry metadata");
    page_lists.push_back(mem.hva_range(pages_desc.addr, pages_desc.len));
    entry_metas.push_back(em);
    seg_base.push_back(result.nr_pages);  // worst case: one seg per page

    DeserializedEntry entry;
    entry.dpu = static_cast<std::uint32_t>(em.dpu);
    entry.mram_offset = em.mram_offset;
    entry.size = em.size;
    result.nr_pages += em.nr_pages;
    result.total_bytes += em.size;
    result.entries.push_back(std::move(entry));
  }
  // Carve disjoint per-entry extents out of the flat pool so the parallel
  // pass below writes without coordination; merged runs leave tail gaps.
  result.segment_pool.resize(result.nr_pages);
  seg_count.assign(meta.nr_entries, 0);

  // Pass 2: GPA -> HVA translation — the step vPIM spreads over worker
  // threads (translate_threads in the cost model); here the entries fan
  // out over the host pool for real. Each entry fills only its own
  // extent of the segment pool; a hostile page address throws and the pool
  // rethrows the lowest failing entry's error, exactly what a serial walk
  // reports. Runs of guest-contiguous pages collapse into one segment as
  // they are translated (guest RAM is flat, so GPA-contiguous means
  // HVA-contiguous): bulk copies downstream stream over whole runs and no
  // post-hoc coalescing pass is needed.
  // The fan-out body reaches its inputs through one stack context so the
  // lambda capture is a single pointer: small enough for std::function's
  // inline storage, keeping this per-request call allocation-free.
  struct TranslateCtx {
    const std::vector<WireEntryMeta>& entry_metas;
    const std::vector<const std::uint8_t*>& page_lists;
    const std::vector<std::uint64_t>& seg_base;
    std::vector<std::uint32_t>& seg_count;
    DeserializeResult& result;
    guest::GuestMemory& mem;
  } ctx{entry_metas, page_lists, seg_base, seg_count, result, mem};
  const auto translate_entry = [&ctx](std::size_t k) {
    guest::GuestMemory& mem = ctx.mem;
    const WireEntryMeta& em = ctx.entry_metas[k];
    const std::uint8_t* list = ctx.page_lists[k];
    HvaSegment* out = ctx.result.segment_pool.data() + ctx.seg_base[k];
    std::uint32_t nseg = 0;
    // Current run of contiguous pages: [run_gpa, run_gpa + run_pages *
    // kPage) covering run_len data bytes starting run_off into it.
    std::uint64_t run_gpa = 0, run_pages = 0, run_off = 0, run_len = 0;
    const auto flush_run = [&] {
      if (run_pages == 0) return;
      // Whole-page range check over the run: a page straddling the end
      // of guest RAM must not hand out a pointer past the backing
      // allocation (same granularity as a per-page hva_range walk).
      out[nseg++] = {mem.hva_range(run_gpa, run_pages * kPage) + run_off,
                     run_len};
    };
    std::uint64_t remaining = em.size;
    for (std::uint64_t p = 0; p < em.nr_pages; ++p) {
      const auto page_gpa = read_pod<std::uint64_t>(list + p * 8);
      VPIM_REQUEST_CHECK(page_gpa % kPage == 0, PimStatus::kBadRequest,
                         "page address not page-aligned");
      const std::uint64_t off = (p == 0) ? em.first_page_offset : 0;
      const std::uint64_t len = std::min(remaining, kPage - off);
      if (run_pages > 0 && page_gpa == run_gpa + run_pages * kPage &&
          run_off + run_len == run_pages * kPage) {
        ++run_pages;
        run_len += len;
      } else {
        flush_run();
        run_gpa = page_gpa;
        run_pages = 1;
        run_off = off;
        run_len = len;
      }
      remaining -= len;
    }
    flush_run();
    VPIM_REQUEST_CHECK(remaining == 0, PimStatus::kBadRequest,
                       "pages do not cover the entry");
    ctx.seg_count[k] = nseg;
  };
  // Translating one entry is sub-microsecond work, far below a worker
  // wakeup, so narrow matrices translate inline; wide ones amortize the
  // fan-out. Either path visits indices in the same order with the same
  // per-index output, so results are identical (the determinism tests pin
  // this down across thread counts).
  constexpr std::size_t kTranslateFanoutMin = 8;
  if (result.entries.size() < kTranslateFanoutMin) {
    for (std::size_t k = 0; k < result.entries.size(); ++k) {
      translate_entry(k);
    }
  } else {
    ThreadPool::instance().parallel_for(result.entries.size(),
                                        translate_entry);
  }
  for (std::uint64_t k = 0; k < meta.nr_entries; ++k) {
    result.entries[k].segments = {result.segment_pool.data() + seg_base[k],
                                  seg_count[k]};
  }
  VPIM_REQUEST_CHECK(result.total_bytes == meta.total_bytes,
                     PimStatus::kBadRequest,
                     "matrix metadata disagrees with entry sizes");
}

DeserializeResult deserialize_matrix(const virtio::DescChain& chain,
                                     guest::GuestMemory& mem) {
  DeserializeResult result;
  DeserializeScratch scratch;
  deserialize_matrix(chain, mem, result, scratch);
  return result;
}

}  // namespace vpim::core
