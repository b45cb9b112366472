#include "vpim/placement.h"

namespace vpim::core {
namespace {

// Preference order of the best fit when leftover room ties: an
// already-hosting rank beats a fresh one (no bind), a fresh NAAV rank
// beats a NANA one (no ~597 ms erase), and the lowest index breaks the
// final tie so decisions are total and deterministic.
std::uint32_t tier(const RankView& v) {
  if (v.hosting) return 0;
  if (!v.needs_reset) return 1;
  return 2;
}

}  // namespace

const char* to_string(PlacementPolicyKind kind) {
  switch (kind) {
    case PlacementPolicyKind::kFirstFit:
      return "first_fit";
    case PlacementPolicyKind::kBestFit:
      return "best_fit";
    case PlacementPolicyKind::kConsolidating:
      return "consolidating";
  }
  return "?";
}

std::optional<std::uint32_t> place(PlacementPolicyKind kind,
                                   std::span<const RankView> ranks,
                                   std::uint32_t slots) {
  const RankView* best = nullptr;
  for (const RankView& v : ranks) {
    if (!v.usable || v.free_slots < slots) continue;
    if (kind == PlacementPolicyKind::kFirstFit) return v.rank;
    if (best == nullptr || v.free_slots < best->free_slots ||
        (v.free_slots == best->free_slots && tier(v) < tier(*best))) {
      best = &v;
    }
  }
  if (best == nullptr) return std::nullopt;
  return best->rank;
}

std::uint32_t fragmentation_permille(std::span<const RankView> ranks,
                                     std::uint32_t slots_per_rank) {
  if (ranks.empty() || slots_per_rank == 0) return 0;
  std::uint32_t hosting = 0;
  std::uint64_t used_slots = 0;
  for (const RankView& v : ranks) {
    if (!v.hosting) continue;
    ++hosting;
    used_slots += slots_per_rank - v.free_slots;
  }
  const std::uint64_t min_needed =
      (used_slots + slots_per_rank - 1) / slots_per_rank;
  if (hosting <= min_needed) return 0;
  return static_cast<std::uint32_t>(1000ull * (hosting - min_needed) /
                                    ranks.size());
}

}  // namespace vpim::core
