#include "guest/guest_memory.h"

namespace vpim::guest {

GuestMemory::GuestMemory(std::uint64_t bytes) : ram_(bytes) {
  VPIM_CHECK(bytes % kGuestPageSize == 0,
             "guest RAM must be page-aligned in size");
  VPIM_CHECK(bytes >= 2 * kGuestPageSize, "guest RAM too small");
}

std::span<std::uint8_t> GuestMemory::alloc(std::uint64_t bytes) {
  const std::uint64_t rounded =
      (bytes + kGuestPageSize - 1) / kGuestPageSize * kGuestPageSize;
  VPIM_CHECK(bump_ + rounded <= ram_.size(), "guest RAM exhausted");
  std::uint8_t* p = ram_.data() + bump_;
  bump_ += rounded;
  return {p, bytes};
}

std::uint8_t* GuestMemory::hva_of(std::uint64_t gpa) {
  VPIM_CHECK(gpa < ram_.size(), "GPA out of guest RAM");
  return ram_.data() + gpa;
}

const std::uint8_t* GuestMemory::hva_of(std::uint64_t gpa) const {
  VPIM_CHECK(gpa < ram_.size(), "GPA out of guest RAM");
  return ram_.data() + gpa;
}

std::uint8_t* GuestMemory::hva_range(std::uint64_t gpa, std::uint64_t len) {
  VPIM_CHECK(len <= ram_.size() && gpa <= ram_.size() - len,
             "GPA range leaves guest RAM");
  return ram_.data() + gpa;
}

const std::uint8_t* GuestMemory::hva_range(std::uint64_t gpa,
                                           std::uint64_t len) const {
  VPIM_CHECK(len <= ram_.size() && gpa <= ram_.size() - len,
             "GPA range leaves guest RAM");
  return ram_.data() + gpa;
}

std::uint64_t GuestMemory::gpa_of(const std::uint8_t* hva) const {
  VPIM_CHECK(contains(hva), "pointer is not into guest RAM");
  return static_cast<std::uint64_t>(hva - ram_.data());
}

}  // namespace vpim::guest
