#include "combinat/unrank.hpp"

#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "combinat/linearize.hpp"

namespace multihit {

u64 rank_combination(std::span<const std::uint32_t> combo) noexcept {
  u64 lambda = 0;
  for (std::size_t t = 0; t < combo.size(); ++t) {
    if (__builtin_add_overflow(lambda, binomial(combo[t], static_cast<u64>(t) + 1), &lambda)) {
      std::fprintf(stderr, "rank_combination: the rank of a %zu-combination with largest %u "
                   "overflows u64\n", combo.size(), combo.back());
      std::abort();
    }
  }
  return lambda;
}

namespace {

// Largest c with C(c, t) <= rem by galloping + binary search: O(log c)
// without floating point, for any t.
u64 largest_digit(u64 rem, std::uint32_t t) noexcept {
  u64 lo = t - 1;  // C(t-1, t) = 0 <= rem always holds
  u64 hi = lo + 1;
  while (true) {
    const auto v = binomial128(hi, t);
    if (v && *v <= static_cast<u128>(rem)) {
      lo = hi;
      hi *= 2;
    } else {
      break;
    }
  }
  while (lo + 1 < hi) {
    const u64 mid = lo + (hi - lo) / 2;
    const auto v = binomial128(mid, t);
    if (v && *v <= static_cast<u128>(rem)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

std::vector<std::uint32_t> unrank_combination(u64 lambda, std::uint32_t h) {
  assert(h >= 1);
  std::vector<std::uint32_t> combo(h);
  unrank_combination(lambda, combo);
  return combo;
}

void unrank_combination(u64 lambda, std::span<std::uint32_t> combo) noexcept {
  assert(!combo.empty());
  u64 rem = lambda;
  for (auto t = static_cast<std::uint32_t>(combo.size()); t >= 1; --t) {
    // Largest c with C(c, t) <= rem; the closed-form levels of linearize.hpp
    // cover t <= 4.
    u64 c = 0;
    if (t <= 4) {
      c = combination_level(rem, t);
      rem -= small_binomial(c, t);
    } else {
      c = largest_digit(rem, t);
      rem -= binomial(c, t);
    }
    combo[t - 1] = static_cast<std::uint32_t>(c);
  }
}

std::vector<std::uint32_t> first_combination(std::uint32_t h) {
  std::vector<std::uint32_t> combo(h);
  for (std::uint32_t t = 0; t < h; ++t) combo[t] = t;
  return combo;
}

}  // namespace multihit
