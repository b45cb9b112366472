#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "guest/guest_memory.h"
#include "upmem/layout.h"
#include "virtio/virtqueue.h"
#include "vpim/wire.h"

namespace vpim::core {
namespace {

using guest::GuestMemory;
using guest::kGuestPageSize;

TEST(GuestMemory, AllocAndTranslate) {
  GuestMemory mem(16 * kMiB);
  auto buf = mem.alloc(10000);
  EXPECT_EQ(buf.size(), 10000u);
  const std::uint64_t gpa = mem.gpa_of(buf.data());
  EXPECT_EQ(mem.hva_of(gpa), buf.data());
  EXPECT_EQ(mem.gpa_of(buf.data() + 5000), gpa + 5000);
}

// A buffer of a page or more starts on a page of its own; a smaller one is
// 64-byte aligned inside one page that it shares with other small buffers,
// so no transfer's page count depends on the packing.
TEST(GuestMemory, SmallAllocationsPackInOnePageLargeOnesArePageAligned) {
  GuestMemory mem(16 * kMiB);
  const std::uint64_t sizes[] = {1,    kGuestPageSize + 1, 17,   4095, 64,
                                 63,   65,   kGuestPageSize, 2304, 448,
                                 8193, 2048, 2048, 1};
  std::vector<std::pair<std::uint64_t, std::uint64_t>> spans;  // gpa, size
  for (const std::uint64_t size : sizes) {
    const auto buf = mem.alloc(size);
    ASSERT_EQ(buf.size(), size);
    const std::uint64_t gpa = mem.gpa_of(buf.data());
    if (size >= kGuestPageSize) {
      EXPECT_EQ(gpa % kGuestPageSize, 0u) << size;
    } else {
      EXPECT_EQ(gpa % 64, 0u) << size;
      EXPECT_EQ(gpa / kGuestPageSize, (gpa + size - 1) / kGuestPageSize)
          << size;
    }
    spans.emplace_back(gpa, size);
  }
  // The first three: 1 B and 17 B share a page, the page-plus buffer sits
  // on the next two pages.
  EXPECT_EQ(spans[2].first, spans[0].first + 64);
  EXPECT_EQ(spans[1].first, spans[0].first + kGuestPageSize);
  std::sort(spans.begin(), spans.end());
  for (std::size_t i = 1; i < spans.size(); ++i) {
    EXPECT_LE(spans[i - 1].first + spans[i - 1].second, spans[i].first);
  }
}

TEST(GuestMemory, ExhaustionAndBadTranslationsThrow) {
  GuestMemory mem(64 * kKiB);
  EXPECT_THROW(mem.alloc(128 * kKiB), VpimError);
  EXPECT_THROW(mem.hva_of(mem.size()), VpimError);
  std::uint8_t outside = 0;
  EXPECT_THROW(mem.gpa_of(&outside), VpimError);
}

TEST(GuestMemory, RangeTranslationIsBoundsAndOverflowChecked) {
  GuestMemory mem(64 * kKiB);
  // Whole-range translation succeeds only if every byte is in RAM.
  EXPECT_EQ(mem.hva_range(0, mem.size()), mem.hva_of(0));
  EXPECT_EQ(mem.hva_range(mem.size() - 16, 16),
            mem.hva_of(mem.size() - 16));
  // hva_of would accept the first byte of these; the *range* must throw.
  EXPECT_THROW(mem.hva_range(mem.size() - 16, 17), VpimError);
  EXPECT_THROW(mem.hva_range(mem.size(), 1), VpimError);
  // gpa + len wrapping around 2^64 must not sneak past the check.
  EXPECT_THROW(mem.hva_range(16, ~std::uint64_t{0}), VpimError);
  EXPECT_THROW(mem.hva_range(~std::uint64_t{0}, 2), VpimError);
}

// ------------------------------------------------------------------ wire

struct WireRig {
  GuestMemory mem{64 * kMiB};
  WireArena arena;

  WireRig() {
    arena.request = mem.alloc(sizeof(WireRequest));
    arena.matrix_meta = mem.alloc(sizeof(WireMatrixMeta));
    arena.entry_meta = mem.alloc(64 * sizeof(WireEntryMeta));
    arena.page_lists = mem.alloc(64 * 16384 * 8);
    arena.payload = mem.alloc(8 * kKiB);
    arena.response = mem.alloc(sizeof(WireResponse));
  }
};

TEST(Wire, SerializeDeserializeRoundTrip) {
  WireRig rig;
  Rng rng(1);

  // A matrix with mixed sizes and unaligned buffers.
  auto big = rig.mem.alloc(1 * kMiB);
  auto small = rig.mem.alloc(8 * kKiB);
  rng.fill_bytes(big.data(), big.size());

  driver::TransferMatrix matrix;
  matrix.direction = driver::XferDirection::kToRank;
  matrix.entries.push_back({0, 4096, big.data(), big.size()});
  matrix.entries.push_back({5, 64, small.data() + 123, 1000});  // unaligned
  matrix.entries.push_back({63, 0, small.data() + 5000, 1});

  auto ser = serialize_matrix(
      matrix, rig.mem, rig.arena,
      static_cast<std::uint32_t>(virtio::PimRequestType::kWriteToRank));
  // Chain shape: request + meta + 2 per entry + response block.
  EXPECT_EQ(ser.chain.size(), 2 + 2 * 3u + 1u);
  // 1 MiB = 256 pages; 123+1000 straddles page 0 only; 1 byte = 1 page.
  EXPECT_EQ(ser.nr_pages, 256u + 1u + 1u);

  virtio::Virtqueue q(512);
  const std::uint16_t head = q.submit(ser.chain);
  auto chain = q.pop_avail();
  ASSERT_TRUE(chain);

  auto de = deserialize_matrix(*chain, rig.mem);
  EXPECT_EQ(de.direction, driver::XferDirection::kToRank);
  ASSERT_EQ(de.entries.size(), 3u);
  EXPECT_EQ(de.total_bytes, matrix.total_bytes());
  EXPECT_EQ(de.nr_pages, ser.nr_pages);

  // Segments must cover exactly the original buffers, in order.
  for (std::size_t k = 0; k < 3; ++k) {
    const auto& entry = de.entries[k];
    EXPECT_EQ(entry.dpu, matrix.entries[k].dpu);
    EXPECT_EQ(entry.mram_offset, matrix.entries[k].mram_offset);
    EXPECT_EQ(entry.size, matrix.entries[k].size);
    std::uint64_t covered = 0;
    const std::uint8_t* expect = matrix.entries[k].host;
    for (const auto& [ptr, len] : entry.segments) {
      EXPECT_EQ(ptr, expect + covered);
      covered += len;
    }
    EXPECT_EQ(covered, entry.size);
  }
  q.push_used(head, 0);
}

// A frontend-style arena: control blocks and page-list head in one page.
WireArena control_page_arena(GuestMemory& mem) {
  WireArena arena;
  carve_control_page(arena, mem.alloc(kGuestPageSize));
  arena.page_lists = mem.alloc(64 * 16384 * 8);
  return arena;
}

// Serializes `matrix` into `arena` and deserializes it back.
DeserializeResult round_trip(const driver::TransferMatrix& matrix,
                             GuestMemory& mem, WireArena& arena,
                             SerializeResult& ser) {
  ser = serialize_matrix(
      matrix, mem, arena,
      static_cast<std::uint32_t>(virtio::PimRequestType::kWriteToRank));
  virtio::Virtqueue q(512);
  q.submit(ser.chain);
  return deserialize_matrix(*q.pop_avail(), mem);
}

void expect_same(const DeserializeResult& a, const DeserializeResult& b) {
  EXPECT_EQ(a.direction, b.direction);
  EXPECT_EQ(a.nr_pages, b.nr_pages);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (std::size_t k = 0; k < a.entries.size(); ++k) {
    EXPECT_EQ(a.entries[k].dpu, b.entries[k].dpu);
    EXPECT_EQ(a.entries[k].mram_offset, b.entries[k].mram_offset);
    EXPECT_EQ(a.entries[k].size, b.entries[k].size);
    EXPECT_TRUE(std::equal(a.entries[k].segments.begin(),
                           a.entries[k].segments.end(),
                           b.entries[k].segments.begin(),
                           b.entries[k].segments.end()))
        << "entry " << k;
  }
}

// A small matrix writes its page lists into the control page's head, so
// every descriptor of the request lies in one guest page.
TEST(Wire, SmallMatrixListsItsPagesInsideItsRequestPage) {
  WireRig rig;
  WireArena arena = control_page_arena(rig.mem);
  auto buf = rig.mem.alloc(4 * kGuestPageSize);
  driver::TransferMatrix m;
  m.entries.push_back({0, 0, buf.data() + 100, 2 * kGuestPageSize});
  m.entries.push_back({9, 64, buf.data() + 3 * kGuestPageSize, 8});

  SerializeResult ser;
  const DeserializeResult got = round_trip(m, rig.mem, arena, ser);
  const std::uint64_t page = rig.mem.gpa_of(arena.request.data());
  EXPECT_EQ(page % kGuestPageSize, 0u);
  for (const virtio::DescBuffer& d : ser.chain) {
    EXPECT_EQ(d.gpa / kGuestPageSize, page / kGuestPageSize);
    EXPECT_EQ((d.gpa + d.len - 1) / kGuestPageSize, page / kGuestPageSize);
  }
  SerializeResult plain;
  expect_same(got, round_trip(m, rig.mem, rig.arena, plain));
}

// Lists whose bound exceeds the head go to the page-list area instead and
// carry the same pages.
TEST(Wire, ListsPastTheHeadUseThePageListArea) {
  WireRig rig;
  WireArena arena = control_page_arena(rig.mem);
  auto buf = rig.mem.alloc(1 * kMiB + kGuestPageSize);
  driver::TransferMatrix m;
  m.entries.push_back({0, 0, buf.data() + 7, 1 * kMiB});
  ASSERT_GT(8 * (2 + 1 * kMiB / kGuestPageSize), arena.page_head.size());

  SerializeResult ser;
  const DeserializeResult got = round_trip(m, rig.mem, arena, ser);
  const std::uint64_t lists = rig.mem.gpa_of(arena.page_lists.data());
  EXPECT_EQ(ser.chain[3].gpa, lists);
  EXPECT_EQ(ser.chain[3].len, 8 * (1 * kMiB / kGuestPageSize + 1));
  SerializeResult plain;
  expect_same(got, round_trip(m, rig.mem, rig.arena, plain));
}

TEST(Wire, ZeroCopySharing) {
  // Deserialized segments must point into the *original* guest buffer:
  // mutating them mutates the app's data.
  WireRig rig;
  auto buf = rig.mem.alloc(16 * kKiB);
  std::memset(buf.data(), 0x11, buf.size());

  driver::TransferMatrix matrix;
  matrix.direction = driver::XferDirection::kFromRank;
  matrix.entries.push_back({2, 0, buf.data(), buf.size()});
  auto ser = serialize_matrix(
      matrix, rig.mem, rig.arena,
      static_cast<std::uint32_t>(virtio::PimRequestType::kReadFromRank));

  virtio::Virtqueue q(512);
  q.submit(ser.chain);
  auto chain = q.pop_avail();
  auto de = deserialize_matrix(*chain, rig.mem);
  de.entries[0].segments[0].first[0] = 0x77;
  EXPECT_EQ(buf[0], 0x77);
}

TEST(Wire, RejectsMalformedMatrices) {
  WireRig rig;
  auto buf = rig.mem.alloc(4096);

  // More entries than DPUs in a rank.
  driver::TransferMatrix too_many;
  for (int i = 0; i < 65; ++i) {
    too_many.entries.push_back({static_cast<std::uint32_t>(i), 0,
                                buf.data(), 16});
  }
  EXPECT_THROW(serialize_matrix(too_many, rig.mem, rig.arena, 3), VpimError);

  // Zero-size entry.
  driver::TransferMatrix zero;
  zero.entries.push_back({0, 0, buf.data(), 0});
  EXPECT_THROW(serialize_matrix(zero, rig.mem, rig.arena, 3), VpimError);

  // Buffer outside guest RAM.
  std::uint8_t local = 0;
  driver::TransferMatrix outside;
  outside.entries.push_back({0, 0, &local, 1});
  EXPECT_THROW(serialize_matrix(outside, rig.mem, rig.arena, 3), VpimError);
}

// The backend cannot trust that a chain came from our serializer: the
// guest driver may be buggy or hostile. deserialize_matrix must reject
// tampered chains with a typed kBadRequest, never crash or over-read.
TEST(Wire, DeserializeRejectsTamperedChains) {
  WireRig rig;
  auto buf = rig.mem.alloc(16 * kKiB);
  driver::TransferMatrix matrix;
  matrix.entries.push_back({0, 0, buf.data(), buf.size()});

  const auto expect_bad_request = [&](std::vector<virtio::DescBuffer> chain) {
    virtio::Virtqueue q(512);
    q.submit(chain);
    auto popped = q.pop_avail();
    ASSERT_TRUE(popped.has_value());
    try {
      deserialize_matrix(*popped, rig.mem);
      FAIL() << "tampered chain accepted";
    } catch (const VpimStatusError& e) {
      EXPECT_EQ(e.status(),
                static_cast<std::int32_t>(virtio::PimStatus::kBadRequest));
    }
  };

  const auto fresh = [&] {
    return serialize_matrix(matrix, rig.mem, rig.arena, 3).chain;
  };

  // Dropped response block: even descriptor count.
  auto chain = fresh();
  chain.pop_back();
  expect_bad_request(chain);

  // Truncated to request + response only.
  chain = fresh();
  chain.erase(chain.begin() + 1, chain.end() - 1);
  expect_bad_request(chain);

  // Page-list descriptor shorter than the entry metadata promises.
  chain = fresh();
  chain[3].len = 8;
  expect_bad_request(chain);

  // Metadata descriptor too small to hold WireMatrixMeta.
  chain = fresh();
  chain[1].len = 4;
  expect_bad_request(chain);

  // Unaligned page GPA in the page list.
  chain = fresh();
  {
    auto* pages = reinterpret_cast<std::uint64_t*>(
        rig.mem.hva_of(chain[3].gpa));
    pages[0] += 7;
    expect_bad_request(chain);
  }

  // Entry metadata claiming more bytes than kMaxXferBytes.
  chain = fresh();
  {
    auto* em = reinterpret_cast<WireEntryMeta*>(
        rig.mem.hva_of(chain[2].gpa));
    em->size = upmem::kMaxXferBytes + 1;
    expect_bad_request(chain);
  }

  // Matrix metadata disagreeing with the chain shape.
  chain = fresh();
  {
    auto* meta = reinterpret_cast<WireMatrixMeta*>(
        rig.mem.hva_of(chain[1].gpa));
    meta->nr_entries = 7;
    expect_bad_request(chain);
  }

  // An untampered chain still deserializes after all of the above.
  chain = fresh();
  virtio::Virtqueue q(512);
  q.submit(chain);
  auto de = deserialize_matrix(*q.pop_avail(), rig.mem);
  EXPECT_EQ(de.entries.size(), 1u);
  EXPECT_EQ(de.total_bytes, buf.size());
}

class WireSizeSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WireSizeSweep, PageCountFormula) {
  WireRig rig;
  const std::uint64_t size = GetParam();
  auto buf = rig.mem.alloc(size + kGuestPageSize);

  for (std::uint64_t shift : {std::uint64_t{0}, std::uint64_t{1},
                              std::uint64_t{4095}}) {
    driver::TransferMatrix m;
    m.entries.push_back({0, 0, buf.data() + shift, size});
    auto ser = serialize_matrix(m, rig.mem, rig.arena, 3);
    const std::uint64_t expected =
        (shift % kGuestPageSize + size + kGuestPageSize - 1) /
        kGuestPageSize;
    EXPECT_EQ(ser.nr_pages, expected) << "size " << size << " shift "
                                      << shift;

    virtio::Virtqueue q(512);
    q.submit(ser.chain);
    auto de = deserialize_matrix(*q.pop_avail(), rig.mem);
    EXPECT_EQ(de.nr_pages, expected);
    EXPECT_EQ(de.entries[0].size, size);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, WireSizeSweep,
                         ::testing::Values(1, 100, 4096, 4097, 65536,
                                           1000000));

}  // namespace
}  // namespace vpim::core
