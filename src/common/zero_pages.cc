#include "common/zero_pages.h"

#include <utility>

#include "common/error.h"

#if defined(__unix__) || defined(__APPLE__)
#define VPIM_ZERO_PAGES_MMAP 1
#include <sys/mman.h>
#endif

namespace vpim {

ZeroPages::ZeroPages(std::uint64_t bytes) : size_(bytes) {
#ifdef VPIM_ZERO_PAGES_MMAP
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  VPIM_CHECK(p != MAP_FAILED, "cannot map zero pages");
  base_ = static_cast<std::uint8_t*>(p);
#else
  base_ = new std::uint8_t[bytes]();
#endif
}

ZeroPages::~ZeroPages() { release(); }

ZeroPages::ZeroPages(ZeroPages&& other) noexcept
    : base_(std::exchange(other.base_, nullptr)),
      size_(std::exchange(other.size_, 0)) {}

ZeroPages& ZeroPages::operator=(ZeroPages&& other) noexcept {
  if (this != &other) {
    release();
    base_ = std::exchange(other.base_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

void ZeroPages::release() {
  if (base_ == nullptr) return;
#ifdef VPIM_ZERO_PAGES_MMAP
  ::munmap(base_, size_);
#else
  delete[] base_;
#endif
  base_ = nullptr;
}

}  // namespace vpim
