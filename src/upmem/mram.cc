#include "upmem/mram.h"

#include <cstring>

#include "common/error.h"
#include "upmem/mram_copy.h"

namespace vpim::upmem {

void mram_copy_large(std::uint8_t* dst, const std::uint8_t* src,
                     std::size_t n) {
  std::memcpy(dst, src, n);
}

namespace {
void check_range(std::uint64_t offset, std::uint64_t size) {
  VPIM_CHECK(offset <= kMramSize && size <= kMramSize - offset,
             "MRAM access out of bounds");
}

// What every absent page reads as.
constexpr MramPage kZeroPage{};

const MramPage& or_zero(const MramPage* page) {
  return page != nullptr ? *page : kZeroPage;
}

void check_page(std::uint64_t page_index) {
  VPIM_CHECK(page_index < kMramPages, "MRAM access out of bounds");
}

// Copies `out.size()` bytes at `offset` out of `page_at(i)`, the page at
// page index i or null for a zero page.
template <typename PageAt>
void read_pages(std::uint64_t offset, std::span<std::uint8_t> out,
                PageAt page_at) {
  std::uint64_t remaining = out.size();
  std::uint64_t src = offset;
  std::uint8_t* dst = out.data();
  while (remaining > 0) {
    const std::uint64_t page = src / kMramPageSize;
    const std::uint64_t in_page = src % kMramPageSize;
    const std::uint64_t n = std::min(remaining, kMramPageSize - in_page);
    mram_copy(dst, or_zero(page_at(page)).bytes.data() + in_page, n);
    src += n;
    dst += n;
    remaining -= n;
  }
}
}  // namespace

void MramBank::read(std::uint64_t offset, std::span<std::uint8_t> out) const {
  check_range(offset, out.size());
  read_pages(offset, out, [&](std::uint64_t page) { return find(page); });
}

std::span<const std::uint8_t, kMramPageSize> MramBank::page_bytes(
    std::uint64_t page_index) const {
  check_page(page_index);
  return or_zero(find(page_index)).bytes;
}

std::span<std::uint8_t, kMramPageSize> MramBank::writable_page_bytes(
    std::uint64_t page_index) {
  check_page(page_index);
  return page_for_write(page_index).bytes;
}

bool MramBank::resident(std::uint64_t page_index) const {
  check_page(page_index);
  return find(page_index) != nullptr;
}

MramBank::Pin MramBank::pin(std::uint64_t offset, std::uint64_t size) const {
  check_range(offset, size);
  Pin pin;
  pin.offset_ = offset;
  pin.size_ = size;
  if (size == 0) return pin;
  const std::uint64_t first = offset / kMramPageSize;
  const std::uint64_t last = (offset + size - 1) / kMramPageSize;
  pin.pages_.resize(last - first + 1);
  if (leaves_.empty()) return pin;
  for (std::uint64_t page = first; page <= last; ++page) {
    const Leaf& leaf = leaves_[page / kLeafPages];
    if (!leaf.empty()) pin.pages_[page - first] = leaf[page % kLeafPages];
  }
  return pin;
}

void MramBank::Pin::read(std::uint64_t offset,
                         std::span<std::uint8_t> out) const {
  VPIM_CHECK(offset >= offset_ && out.size() <= size_ &&
                 offset - offset_ <= size_ - out.size(),
             "read outside the pinned range");
  const std::uint64_t first = offset_ / kMramPageSize;
  read_pages(offset, out, [&](std::uint64_t page) {
    return pages_[page - first].get();
  });
}

void MramBank::write(std::uint64_t offset, std::span<const std::uint8_t> in) {
  check_range(offset, in.size());
  std::uint64_t remaining = in.size();
  std::uint64_t dst = offset;
  const std::uint8_t* src = in.data();
  while (remaining > 0) {
    const std::uint64_t page = dst / kMramPageSize;
    const std::uint64_t in_page = dst % kMramPageSize;
    const std::uint64_t n = std::min(remaining, kMramPageSize - in_page);
    // Zeros stored onto an absent page leave it absent: it reads as zero
    // already, so there is nothing to materialize.
    if (find(page) != nullptr ||
        std::memcmp(src, kZeroPage.bytes.data(), n) != 0) {
      mram_copy(page_for_write(page).bytes.data() + in_page, src, n);
    }
    dst += n;
    src += n;
    remaining -= n;
  }
}

void MramBank::adopt_pages(std::uint64_t offset,
                           std::span<const MramPageRef> pages) {
  VPIM_CHECK(offset % kMramPageSize == 0,
             "shared-page adoption requires page alignment");
  const std::uint64_t first = offset / kMramPageSize;
  VPIM_CHECK(first + pages.size() <= kMramPages,
             "shared-page adoption out of bounds");
  for (std::size_t i = 0; i < pages.size(); ++i) {
    VPIM_CHECK(pages[i] != nullptr, "shared-page adoption of a null page");
    MramPageRef& ref = slot(first + i);
    if (!ref) touched_.push_back(static_cast<std::uint16_t>(first + i));
    ref = pages[i];
  }
}

std::vector<MramPageRef> MramBank::build_pages(
    std::span<const std::uint8_t> data) {
  std::vector<MramPageRef> pages;
  pages.reserve((data.size() + kMramPageSize - 1) / kMramPageSize);
  for (std::size_t off = 0; off < data.size(); off += kMramPageSize) {
    auto page = std::make_shared<MramPage>();
    const std::size_t n = std::min<std::size_t>(kMramPageSize,
                                                data.size() - off);
    std::memcpy(page->bytes.data(), data.data() + off, n);
    if (n < kMramPageSize) {
      std::memset(page->bytes.data() + n, 0, kMramPageSize - n);
    }
    pages.push_back(std::move(page));
  }
  return pages;
}

void MramBank::clear() {
  for (const std::uint16_t page : touched_) {
    leaves_[page / kLeafPages][page % kLeafPages].reset();
  }
  touched_.clear();
}

const MramPage* MramBank::find(std::uint64_t page_index) const {
  if (leaves_.empty()) return nullptr;
  const Leaf& leaf = leaves_[page_index / kLeafPages];
  return leaf.empty() ? nullptr : leaf[page_index % kLeafPages].get();
}

MramPageRef& MramBank::slot(std::uint64_t page_index) {
  if (leaves_.empty()) leaves_.resize(kLeaves);
  Leaf& leaf = leaves_[page_index / kLeafPages];
  if (leaf.empty()) leaf.resize(kLeafPages);
  return leaf[page_index % kLeafPages];
}

MramPage& MramBank::page_for_write(std::uint64_t page_index) {
  MramPageRef& ref = slot(page_index);
  if (!ref) {
    ref = std::make_shared<MramPage>();  // value-initialized: all zero
    touched_.push_back(static_cast<std::uint16_t>(page_index));
  } else if (ref.use_count() > 1) {
    // Copy-on-write: this page is shared with another bank (broadcast).
    ref = std::make_shared<MramPage>(*ref);
  }
  return *ref;
}

}  // namespace vpim::upmem
