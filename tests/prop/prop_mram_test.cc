// MramBank model-based property: random op sequences over three banks —
// unaligned writes and reads that straddle a leaf boundary (pages
// 127/128) and the end of the bank, all-zero writes (sub-page, whole-page
// and page-straddling) that land on absent, materialized, adopted-shared
// and pinned pages, adoption of one shared build_pages
// set into several banks, clear, copy-construction (what Rank snapshots
// do), copy-assignment and move-assignment (what load_snapshot does) —
// driven against a dense per-bank byte oracle. After every step:
//
//  - every bank, and a parked snapshot copy, reads back exactly its
//    oracle bytes;
//  - the bank's materialized pages are exactly the oracle's: a write adds
//    page p only if it stores a non-zero byte in p or p is already
//    materialized, an adopt adds every page it covers, and a clear drops
//    them all;
//  - no write shows through a shared page or into a copy: the shared
//    page set still holds its original bytes, and the snapshot its own;
//  - every live pin (MramBank::pin of a random window range) reads exactly
//    the oracle bytes of the moment it was taken, whatever writes, adopts,
//    clears and bank copies followed.
//
// Failing cases shrink to fewer steps and print the VPIM_PROP_SEED line.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/proptest/proptest.h"
#include "upmem/mram.h"

namespace vpim::prop {
namespace {

using upmem::kMramPages;
using upmem::kMramPageSize;
using upmem::MramBank;
using upmem::MramPageRef;

constexpr int kBanks = 3;
constexpr std::uint64_t kSharedMaxPages = 3;

// Accesses stay inside two windows so the oracle can be dense: one
// straddling the boundary between the first two directory leaves (pages
// 127/128) and one at the very end of the bank.
struct Window {
  std::uint64_t first_page;
  std::uint64_t pages;
  std::uint64_t bytes() const { return pages * kMramPageSize; }
  std::uint64_t base() const { return first_page * kMramPageSize; }
};
constexpr Window kLeafEdge{125, 6};
constexpr Window kBankEnd{kMramPages - 4, 4};
constexpr std::array<Window, 2> kWindows = {kLeafEdge, kBankEnd};

struct OracleBank {
  std::array<std::vector<std::uint8_t>, kWindows.size()> bytes;
  std::set<std::uint64_t> materialized;  // bank pages since the last clear

  OracleBank() { clear(); }
  void clear() {
    for (std::size_t w = 0; w < kWindows.size(); ++w) {
      bytes[w].assign(kWindows[w].bytes(), 0);
    }
    materialized.clear();
  }
};

struct Tracked {
  MramBank bank;
  OracleBank oracle;
};

// A pin and the oracle's bytes of its range at pin time.
struct TrackedPin {
  MramBank::Pin pin;
  std::uint64_t offset = 0;
  std::vector<std::uint8_t> frozen;
};
constexpr std::size_t kMaxPins = 4;

// Each step is one u64 that seeds the step's own parameter draws, so
// dropping steps while shrinking leaves the others' meaning unchanged.
struct MramCase {
  std::uint64_t shared_seed = 0;
  std::vector<std::uint64_t> steps;
};

std::string show_case(const MramCase& c) {
  std::string s = "shared_seed=" + std::to_string(c.shared_seed) + " steps=";
  for (std::uint64_t v : c.steps) s += std::to_string(v) + ",";
  return s;
}

Gen<MramCase> mram_case_gen() {
  Gen<MramCase> gen;
  gen.sample = [](Rng& rng) {
    MramCase c;
    c.shared_seed = rng.next_u64();
    const int nr_steps = static_cast<int>(rng.uniform(5, 60));
    for (int i = 0; i < nr_steps; ++i) c.steps.push_back(rng.next_u64());
    return c;
  };
  gen.shrink = [](const MramCase& c) {
    std::vector<MramCase> out;
    if (c.steps.size() > 1) {
      MramCase front = c;
      front.steps.resize(c.steps.size() / 2);
      out.push_back(std::move(front));
      for (std::size_t i = 0; i < c.steps.size(); ++i) {
        MramCase fewer = c;
        fewer.steps.erase(fewer.steps.begin() +
                          static_cast<std::ptrdiff_t>(i));
        out.push_back(std::move(fewer));
      }
    }
    return out;
  };
  return gen;
}

void check_tracked(const Tracked& t, const std::string& who) {
  for (std::size_t w = 0; w < kWindows.size(); ++w) {
    std::vector<std::uint8_t> got(kWindows[w].bytes(), 0xEE);
    t.bank.read(kWindows[w].base(), got);
    if (got == t.oracle.bytes[w]) continue;
    std::size_t i = 0;
    while (got[i] == t.oracle.bytes[w][i]) ++i;
    require(false, who + " window " + std::to_string(w) + " byte " +
                       std::to_string(i) + " reads " +
                       std::to_string(got[i]) + ", oracle " +
                       std::to_string(t.oracle.bytes[w][i]));
  }
  require(t.bank.resident_pages() == t.oracle.materialized.size(),
          who + " resident_pages " +
              std::to_string(t.bank.resident_pages()) + ", oracle " +
              std::to_string(t.oracle.materialized.size()));
  for (const Window& win : kWindows) {
    for (std::uint64_t p = win.first_page; p < win.first_page + win.pages;
         ++p) {
      require(t.bank.resident(p) == t.oracle.materialized.contains(p),
              who + " page " + std::to_string(p) +
                  (t.bank.resident(p) ? " materialized, oracle absent"
                                      : " absent, oracle materialized"));
    }
  }
}

// Adoption materializes every page it covers, zero or not.
void mark_pages(OracleBank& o, std::uint64_t offset, std::uint64_t len) {
  for (std::uint64_t p = offset / kMramPageSize;
       p <= (offset + len - 1) / kMramPageSize; ++p) {
    o.materialized.insert(p);
  }
}

// Applies a write of `data` at window `w` offset `off` to the oracle: a
// page joins the materialized set only if the write stores a non-zero
// byte in it.
void oracle_write(OracleBank& o, std::size_t w, std::uint64_t off,
                  const std::vector<std::uint8_t>& data) {
  std::memcpy(o.bytes[w].data() + off, data.data(), data.size());
  const std::uint64_t base = kWindows[w].base() + off;
  for (std::uint64_t i = 0; i < data.size(); ++i) {
    if (data[i] != 0) o.materialized.insert((base + i) / kMramPageSize);
  }
}

void run_case(const MramCase& c) {
  // One shared page set with a zero-padded tail, adopted by many banks.
  Rng shared_rng(c.shared_seed);
  std::vector<std::uint8_t> shared_data(static_cast<std::size_t>(
      shared_rng.uniform(1, kSharedMaxPages * kMramPageSize)));
  shared_rng.fill_bytes(shared_data.data(), shared_data.size());
  const std::vector<MramPageRef> shared = MramBank::build_pages(shared_data);
  std::vector<std::uint8_t> shared_image(shared.size() * kMramPageSize, 0);
  std::memcpy(shared_image.data(), shared_data.data(), shared_data.size());

  std::vector<Tracked> banks(kBanks);
  std::optional<Tracked> snapshot;
  std::vector<TrackedPin> pins;

  for (const std::uint64_t s : c.steps) {
    Rng r(s);
    const int op = static_cast<int>(r.uniform(0, 9));
    const auto b = static_cast<std::size_t>(r.uniform(0, kBanks - 1));
    const auto w = static_cast<std::size_t>(r.uniform(0, kWindows.size() - 1));
    const Window& win = kWindows[w];
    Tracked& t = banks[b];
    switch (op) {
      case 0:
      case 1: {  // unaligned write, possibly across pages and leaves
        const auto off = static_cast<std::uint64_t>(
            r.uniform(0, static_cast<std::int64_t>(win.bytes()) - 1));
        const auto len = static_cast<std::uint64_t>(r.uniform(
            1, static_cast<std::int64_t>(
                   std::min(win.bytes() - off, 2 * kMramPageSize + 7))));
        std::vector<std::uint8_t> data(len);
        r.fill_bytes(data.data(), data.size());
        t.bank.write(win.base() + off, data);
        oracle_write(t.oracle, w, off, data);
        break;
      }
      case 9: {  // all-zero write: sub-page, whole pages or straddling
        const auto page = static_cast<std::uint64_t>(
            r.uniform(0, static_cast<std::int64_t>(win.pages) - 1));
        std::uint64_t off = page * kMramPageSize;
        std::uint64_t len = 0;
        switch (r.uniform(0, 2)) {
          case 0: {  // inside one page
            off += static_cast<std::uint64_t>(
                r.uniform(0, kMramPageSize - 1));
            len = static_cast<std::uint64_t>(r.uniform(
                1, static_cast<std::int64_t>((page + 1) * kMramPageSize -
                                             off)));
            break;
          }
          case 1:  // one or two whole pages
            len = std::min<std::uint64_t>(
                static_cast<std::uint64_t>(r.uniform(1, 2)) * kMramPageSize,
                win.bytes() - off);
            break;
          default: {  // across the end of a page
            if (page + 1 == win.pages) break;
            const auto before_end = static_cast<std::uint64_t>(
                r.uniform(1, 64));
            off += kMramPageSize - before_end;
            len = before_end + static_cast<std::uint64_t>(r.uniform(1, 256));
            break;
          }
        }
        if (len == 0) break;
        const std::vector<std::uint8_t> zeros(len, 0);
        t.bank.write(win.base() + off, zeros);
        oracle_write(t.oracle, w, off, zeros);
        break;
      }
      case 2: {  // unaligned read of an arbitrary sub-range
        const auto off = static_cast<std::uint64_t>(
            r.uniform(0, static_cast<std::int64_t>(win.bytes()) - 1));
        const auto len = static_cast<std::uint64_t>(
            r.uniform(1, static_cast<std::int64_t>(win.bytes() - off)));
        std::vector<std::uint8_t> got(len, 0xEE);
        t.bank.read(win.base() + off, got);
        require(std::memcmp(got.data(), t.oracle.bytes[w].data() + off,
                            len) == 0,
                "sub-range read of bank " + std::to_string(b) +
                    " disagrees with the oracle");
        break;
      }
      case 3: {  // adopt the shared set at a page-aligned window offset
        if (shared.size() > win.pages) break;
        const auto page = static_cast<std::uint64_t>(r.uniform(
            0, static_cast<std::int64_t>(win.pages - shared.size())));
        t.bank.adopt_pages(win.base() + page * kMramPageSize, shared);
        std::memcpy(t.oracle.bytes[w].data() + page * kMramPageSize,
                    shared_image.data(), shared_image.size());
        mark_pages(t.oracle, win.base() + page * kMramPageSize,
                   shared_image.size());
        break;
      }
      case 4:  // rank reset
        t.bank.clear();
        t.oracle.clear();
        break;
      case 5:  // save: copy-construct, as Rank::save_snapshot does
        snapshot.emplace(Tracked{MramBank(t.bank), t.oracle});
        break;
      case 6:  // load: move-assign, as Rank::load_snapshot does
        if (!snapshot) break;
        t.bank = std::move(snapshot->bank);
        t.oracle = snapshot->oracle;
        snapshot.reset();
        break;
      case 7: {  // copy-assign from another bank
        const auto src = static_cast<std::size_t>(r.uniform(0, kBanks - 1));
        t.bank = banks[src].bank;
        t.oracle = banks[src].oracle;
        break;
      }
      case 8: {  // pin an unaligned range, replacing a random older pin
        const auto off = static_cast<std::uint64_t>(
            r.uniform(0, static_cast<std::int64_t>(win.bytes()) - 1));
        const auto len = static_cast<std::uint64_t>(
            r.uniform(1, static_cast<std::int64_t>(win.bytes() - off)));
        TrackedPin p{t.bank.pin(win.base() + off, len), win.base() + off,
                     std::vector<std::uint8_t>(
                         t.oracle.bytes[w].begin() +
                             static_cast<std::ptrdiff_t>(off),
                         t.oracle.bytes[w].begin() +
                             static_cast<std::ptrdiff_t>(off + len))};
        if (pins.size() < kMaxPins) {
          pins.push_back(std::move(p));
        } else {
          pins[static_cast<std::size_t>(
              r.uniform(0, kMaxPins - 1))] = std::move(p);
        }
        break;
      }
    }

    for (std::size_t i = 0; i < banks.size(); ++i) {
      check_tracked(banks[i], "bank " + std::to_string(i));
    }
    if (snapshot) check_tracked(*snapshot, "snapshot");
    for (std::size_t p = 0; p < shared.size(); ++p) {
      require(std::memcmp(shared[p]->bytes.data(),
                          shared_image.data() + p * kMramPageSize,
                          kMramPageSize) == 0,
              "a write showed through shared page " + std::to_string(p));
    }
    for (std::size_t i = 0; i < pins.size(); ++i) {
      const TrackedPin& p = pins[i];
      // Whole range, then an arbitrary sub-range of it.
      std::vector<std::uint8_t> got(p.frozen.size(), 0xEE);
      p.pin.read(p.offset, got);
      require(got == p.frozen, "pin " + std::to_string(i) +
                                   " changed after it was taken");
      const auto sub = static_cast<std::uint64_t>(
          r.uniform(0, static_cast<std::int64_t>(p.frozen.size()) - 1));
      std::vector<std::uint8_t> part(p.frozen.size() - sub, 0xEE);
      p.pin.read(p.offset + sub, part);
      require(std::memcmp(part.data(), p.frozen.data() + sub,
                          part.size()) == 0,
              "pin " + std::to_string(i) + " sub-range read disagrees");
    }
  }
}

TEST(PropMram, RandomOpsMatchDenseOracle) {
  const Params params = Params::from_env(0x4D52, 200);
  const auto out = run_property<MramCase>("mram.dense_oracle", params,
                                          mram_case_gen(), run_case,
                                          show_case);
  ASSERT_TRUE(out.ok) << out.reproducer;
}

}  // namespace
}  // namespace vpim::prop
