#pragma once
// Generic h-combination (un)ranking via the combinatorial number system.
//
// The pair/triple specializations in linearize.hpp are the hot paths the
// paper's kernels use; this generic form supports the serial reference
// engine for arbitrary hit counts (h = 2..9, the paper's biological range)
// and the property tests that pin the specializations to it.
//
// Ranking is colexicographic: for c_0 < c_1 < ... < c_{h-1},
//   λ = Σ_t C(c_t, t+1).

#include <cstdint>
#include <span>
#include <vector>

#include "combinat/binomial.hpp"

namespace multihit {

/// λ for a strictly increasing combination. Requires combo non-empty and
/// strictly increasing; terminates the process (as binomial() does) when the
/// rank does not fit u64, instead of returning a wrapped value.
u64 rank_combination(std::span<const std::uint32_t> combo) noexcept;

/// Inverse of rank_combination for combinations of size h >= 1.
std::vector<std::uint32_t> unrank_combination(u64 lambda, std::uint32_t h);

/// Inverse of rank_combination into `combo` (h = combo.size() >= 1), without
/// allocating: the enumeration kernel unranks its first thread's prefix with
/// it once per call.
void unrank_combination(u64 lambda, std::span<std::uint32_t> combo) noexcept;

/// Advances `combo` (strictly increasing values in [0, universe)) to its
/// colexicographic successor, matching rank order. Returns false when combo
/// was the last one (and leaves it unspecified). Inline: the enumeration
/// kernel steps its thread prefix with it once per λ.
inline bool next_combination_colex(std::span<std::uint32_t> combo,
                                   std::uint32_t universe) noexcept {
  const std::size_t h = combo.size();
  // Find the lowest position that can be advanced: combo[t] can move up if
  // it stays below combo[t+1] (or below universe for the top position).
  for (std::size_t t = 0; t < h; ++t) {
    const std::uint32_t limit = (t + 1 < h) ? combo[t + 1] : universe;
    if (combo[t] + 1 < limit) {
      ++combo[t];
      // Reset everything below to the smallest values.
      for (std::size_t s = 0; s < t; ++s) combo[s] = static_cast<std::uint32_t>(s);
      return true;
    }
  }
  return false;
}

/// First combination in colex order: {0, 1, ..., h-1}.
std::vector<std::uint32_t> first_combination(std::uint32_t h);

}  // namespace multihit
