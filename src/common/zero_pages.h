// A demand-zero anonymous mapping: the one way a large host buffer is
// allocated outside the malloc heap (guest RAM, the largest native
// application buffers). Pages materialise, already zeroed, on first touch,
// so neither construction nor destruction scales with the size asked for,
// only with the pages touched, and the whole range goes back to the OS on
// destruction.
#pragma once

#include <cstdint>

namespace vpim {

class ZeroPages {
 public:
  explicit ZeroPages(std::uint64_t bytes);
  ~ZeroPages();

  ZeroPages(const ZeroPages&) = delete;
  ZeroPages& operator=(const ZeroPages&) = delete;
  ZeroPages(ZeroPages&& other) noexcept;
  ZeroPages& operator=(ZeroPages&& other) noexcept;

  std::uint8_t* data() const { return base_; }
  std::uint64_t size() const { return size_; }
  // Host pages of the range that are resident, read or written (mincore);
  // every page counts without a demand-zero mapping.
  std::uint64_t resident_pages() const;

 private:
  void release();

  std::uint8_t* base_ = nullptr;
  std::uint64_t size_ = 0;
};

}  // namespace vpim
