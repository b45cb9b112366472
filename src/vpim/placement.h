// Rank-placement policies for the Manager's wrank allocator
// (ISSUE 9). The paper's §3.5 Manager hands out whole ranks round-robin;
// under oversubscription a rank hosts several wrank slots and *where* a
// new wrank lands decides how fragmented the machine gets — and therefore
// how long the tail of allocation latency grows once multi-slot requests
// have to wait for a whole-rank-sized hole ("UPMEM Unleashed" shows the
// same capacity-management tricks dominating real deployments).
//
// A policy is a pure function from a snapshot of the rank table to a
// placement decision: no internal state, no clock reads, no randomness.
// That keeps every decision bit-reproducible at any VPIM_THREADS setting
// (the determinism contract all Manager paths follow) and lets the
// fig_manager_policies bench ablate policies against an identical trace.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

namespace vpim::core {

enum class PlacementPolicyKind : std::uint8_t {
  kFirstFit,       // lowest-index rank with room
  kBestFit,        // tightest fit: least leftover room after placement
  kConsolidating,  // best-fit placement + background consolidation passes
};

const char* to_string(PlacementPolicyKind kind);

// One rank as the policies see it: a point-in-time view the Manager builds
// under its lock. Policies never see owner strings or driver handles.
struct RankView {
  std::uint32_t rank = 0;
  // Eligible to receive wranks at all. Quarantined (FAIL) ranks and ranks
  // held exclusively by a VM or native application are not usable; the
  // Manager filters them out of consolidation targets through this flag
  // too, so a policy cannot be tricked into migrating onto a dead rank.
  bool usable = false;
  // Already hosts at least one wrank: placing here needs no fresh bind
  // and no reset.
  bool hosting = false;
  // NANA: taking this rank pays the full content erase (~597 ms) first.
  bool needs_reset = false;
  std::uint32_t free_slots = 0;
};

// Picks the rank to host `slots` co-located wrank slots under `kind`, or
// nullopt when no usable rank has room. `ranks` is ordered by rank index.
// kBestFit and kConsolidating place alike; they differ only in whether the
// Manager runs background consolidation passes.
std::optional<std::uint32_t> place(PlacementPolicyKind kind,
                                   std::span<const RankView> ranks,
                                   std::uint32_t slots);

// Fragmentation in permille of the machine: how many ranks the current
// wrank population occupies beyond the minimum it could be packed into,
// normalized by machine size. 0 = perfectly packed; a machine whose every
// hosting rank is half-empty scores high. Computed from the same RankView
// snapshot the policies consume, so tests can cross-check it.
std::uint32_t fragmentation_permille(std::span<const RankView> ranks,
                                     std::uint32_t slots_per_rank);

}  // namespace vpim::core
