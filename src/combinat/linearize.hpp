#pragma once
// Triangular and tetrahedral linearizations.
//
// These are the paper's contributions #2: mapping the upper-triangular
// (i < j) and upper-tetrahedral (i < j < k) index spaces to a dense thread id
// λ so that no GPU thread is assigned redundant or empty work.
//
// Canonical ranking (combinatorial number system, 0-based):
//   pair   (i, j),    0 <= i < j < G:      λ = C(j,2) + i
//   triple (i, j, k), 0 <= i < j < k < G:  λ = C(k,3) + C(j,2) + i
//
// Unranking inverts these with closed-form root formulas (the paper's
// Algorithm 1 line 2 and Algorithm 3 lines 2-7), followed by an integer
// fix-up loop: the floating-point roots can be off by one ULP-induced step
// at 64-bit-scale λ, and exactness here is non-negotiable — a mis-unranked λ
// silently evaluates the wrong gene combination.

#include <cstdint>

#include "combinat/binomial.hpp"

namespace multihit {

struct Pair {
  std::uint32_t i = 0;
  std::uint32_t j = 0;
  friend bool operator==(const Pair&, const Pair&) = default;
};

struct Triple {
  std::uint32_t i = 0;
  std::uint32_t j = 0;
  std::uint32_t k = 0;
  friend bool operator==(const Triple&, const Triple&) = default;
};

struct Quad {
  std::uint32_t i = 0;
  std::uint32_t j = 0;
  std::uint32_t k = 0;
  std::uint32_t l = 0;
  friend bool operator==(const Quad&, const Quad&) = default;
};

/// λ for pair (i, j). Requires i < j.
u64 rank_pair(Pair p) noexcept;

/// Inverse of rank_pair. Requires λ < C(G,2) for the caller's G (the result
/// satisfies i < j but is not range-checked against any G).
Pair unrank_pair(u64 lambda) noexcept;

/// λ for triple (i, j, k). Requires i < j < k.
u64 rank_triple(Triple t) noexcept;

/// Inverse of rank_triple via floating-point cube root + integer fix-up.
Triple unrank_triple(u64 lambda) noexcept;

/// The paper's §III-F variant: computes the Cardano discriminant
/// sqrt(729λ²-3) without 128-bit arithmetic via exp(0.5·(log(3λ)+
/// log(243λ-1/λ))), then applies the same integer fix-up. Provided to
/// document and validate the published formulation; agrees with
/// unrank_triple for all λ (tested to C(20000,3) and at u64-scale values).
Triple unrank_triple_logexp(u64 lambda) noexcept;

/// Largest k with C(k,3) <= lambda; the "workload level" used by the O(G)
/// equi-area scheduler (every thread at level k runs an inner loop of
/// G-1-k iterations).
std::uint32_t tetrahedral_level(u64 lambda) noexcept;

/// λ for quadruple (i, j, k, l), i < j < k < l:
///   λ = C(l,4) + C(k,3) + C(j,2) + i.
/// The thread index space of the 5-hit "4x1" scheme, and the global 4-hit
/// combination rank used for deterministic tie-breaking.
u64 rank_quad(Quad q) noexcept;

/// Inverse of rank_quad (quartic root guess + integer fix-up).
Quad unrank_quad(u64 lambda) noexcept;

/// Largest l with C(l,4) <= lambda (the 5-hit scheduler's workload level).
std::uint32_t quartic_level(u64 lambda) noexcept;

/// Largest c with C(c,k) <= lambda, for k in [1, 4]: the largest gene of the
/// k-combination of colex rank λ, which sets a scheme thread's workload.
std::uint32_t combination_level(u64 lambda, std::uint32_t k) noexcept;

}  // namespace multihit
