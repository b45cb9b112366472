#include "machine_probe.h"

#include <sys/mman.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common.h"

namespace perfbench {

namespace {

// Median kernel times on the reference machine (a 4-core x86-64 VM shared
// with other tenants, Release build). They fix the unit of the index: each
// kernel contributes 1.0 there.
constexpr std::array<double, 5> kReferenceS = {9.1e-3, 6.3e-3, 9.9e-3,
                                               10.5e-3, 9.7e-3};

constexpr std::size_t kMiB = std::size_t{1} << 20;
constexpr std::size_t kPage = 4096;

// Anonymous private mapping, released by the destructor.
class Mapping {
 public:
  explicit Mapping(std::size_t bytes)
      : bytes_(bytes),
        base_(static_cast<std::uint8_t*>(mmap(nullptr, bytes,
                                              PROT_READ | PROT_WRITE,
                                              MAP_PRIVATE | MAP_ANONYMOUS, -1,
                                              0))) {
    if (base_ == MAP_FAILED) std::abort();
  }
  ~Mapping() { munmap(base_, bytes_); }
  Mapping(const Mapping&) = delete;
  Mapping& operator=(const Mapping&) = delete;
  std::uint8_t* data() { return base_; }

 private:
  std::size_t bytes_;
  std::uint8_t* base_;
};

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

// Defeats dead-code elimination of the kernels' results.
volatile std::uint64_t g_sink = 0;

double seconds_since(std::int64_t t0) {
  return static_cast<double>(host_now_ns() - t0) * 1e-9;
}

}  // namespace

ProbeSample probe_machine() {
  ProbeSample s;
  std::uint64_t x = 0x9e3779b97f4a7c15ull;

  // Buffers are built (and their pages faulted in) before any kernel is
  // timed, except in the page-fault kernel, which times exactly that.
  constexpr std::size_t kCopyBytes = 4 * kMiB;
  Mapping a(kCopyBytes), b(kCopyBytes);
  std::memset(a.data(), 1, kCopyBytes);
  std::memset(b.data(), 2, kCopyBytes);
  constexpr std::size_t kChaseSlots = 8 * kMiB / sizeof(std::uint64_t);
  Mapping chase_map(kChaseSlots * sizeof(std::uint64_t));
  auto* chase = reinterpret_cast<std::uint64_t*>(chase_map.data());
  // One random cycle through every slot (Sattolo's algorithm), seeded by a
  // constant, so every probe walks the same cycle.
  for (std::size_t i = 0; i < kChaseSlots; ++i) chase[i] = i;
  std::uint64_t r = 88172645463325252ull;
  for (std::size_t i = kChaseSlots - 1; i > 0; --i) {
    const std::size_t j = xorshift(r) % i;
    std::swap(chase[i], chase[j]);
  }

  // alu: a dependent chain of shifts and xors.
  std::int64_t t0 = host_now_ns();
  for (int i = 0; i < 4'000'000; ++i) xorshift(x);
  s.kernel_s[0] = seconds_since(t0);

  // memcpy: 64 MiB copied between two L2-exceeding buffers.
  t0 = host_now_ns();
  for (int k = 0; k < 16; ++k) {
    std::memcpy(k % 2 ? a.data() : b.data(), k % 2 ? b.data() : a.data(),
                kCopyBytes);
  }
  s.kernel_s[1] = seconds_since(t0);
  x += a.data()[x % kCopyBytes];

  // page_fault: map 16 MiB, fault in every 4 KiB page, unmap.
  t0 = host_now_ns();
  {
    constexpr std::size_t kFaultBytes = 16 * kMiB;
    Mapping m(kFaultBytes);
    for (std::size_t off = 0; off < kFaultBytes; off += kPage) {
      m.data()[off] = static_cast<std::uint8_t>(off);
    }
    x += m.data()[x % kFaultBytes];
  }
  s.kernel_s[2] = seconds_since(t0);

  // pointer_chase: dependent loads through the 8 MiB cycle.
  t0 = host_now_ns();
  std::uint64_t p = 0;
  for (int i = 0; i < 80'000; ++i) p = chase[p];
  s.kernel_s[3] = seconds_since(t0);
  x += p;

  // malloc: 204800 allocations of mixed small sizes, freed in batches.
  t0 = host_now_ns();
  {
    std::array<void*, 4096> ptrs;
    for (int k = 0; k < 50; ++k) {
      for (std::size_t i = 0; i < ptrs.size(); ++i) {
        ptrs[i] = std::malloc(16 + (i * 37) % 500);
        x += reinterpret_cast<std::uintptr_t>(ptrs[i]) >> 4;
      }
      for (void* q : ptrs) std::free(q);
    }
  }
  s.kernel_s[4] = seconds_since(t0);

  g_sink = x;
  double log_sum = 0.0;
  for (std::size_t k = 0; k < s.kernel_s.size(); ++k) {
    log_sum += std::log(s.kernel_s[k] / kReferenceS[k]);
  }
  s.index = std::exp(log_sum / static_cast<double>(s.kernel_s.size()));
  return s;
}

}  // namespace perfbench
