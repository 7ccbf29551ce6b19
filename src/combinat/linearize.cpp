#include "combinat/linearize.hpp"

#include <cmath>

namespace multihit {

namespace {

// Largest j with C(j,2) <= lambda, by float guess + exact fix-up. Probes
// compare in 128 bits: C(j+1,2) can exceed u64 when λ is near u64-max.
std::uint32_t triangular_level(u64 lambda) noexcept {
  const double x = static_cast<double>(lambda);
  // Solve j(j-1)/2 = x  =>  j = (1 + sqrt(1 + 8x)) / 2.
  auto j = static_cast<u64>((1.0 + std::sqrt(1.0 + 8.0 * x)) / 2.0);
  while (j > 0 && triangular128(j) > lambda) --j;
  while (triangular128(j + 1) <= lambda) ++j;
  return static_cast<std::uint32_t>(j);
}

std::uint32_t fixup_tetrahedral(u64 k_guess, u64 lambda) noexcept {
  u64 k = k_guess;
  while (k > 0 && tetrahedral128(k) > lambda) --k;
  while (tetrahedral128(k + 1) <= lambda) ++k;
  return static_cast<std::uint32_t>(k);
}

}  // namespace

u64 rank_pair(Pair p) noexcept { return triangular(p.j) + p.i; }

Pair unrank_pair(u64 lambda) noexcept {
  const std::uint32_t j = triangular_level(lambda);
  return Pair{static_cast<std::uint32_t>(lambda - triangular(j)), j};
}

u64 rank_triple(Triple t) noexcept {
  return tetrahedral(t.k) + triangular(t.j) + t.i;
}

std::uint32_t tetrahedral_level(u64 lambda) noexcept {
  // Initial guess from k^3/6 ≈ λ; cbrt is monotone so the guess is within a
  // couple of steps of the true level.
  const auto guess = static_cast<u64>(std::cbrt(6.0 * static_cast<double>(lambda))) + 1;
  return fixup_tetrahedral(guess, lambda);
}

Triple unrank_triple(u64 lambda) noexcept {
  const std::uint32_t k = tetrahedral_level(lambda);
  const u64 rem = lambda - tetrahedral(k);
  const std::uint32_t j = triangular_level(rem);
  return Triple{static_cast<std::uint32_t>(rem - triangular(j)), j, k};
}

u64 rank_quad(Quad q) noexcept {
  return quartic(q.l) + tetrahedral(q.k) + triangular(q.j) + q.i;
}

std::uint32_t quartic_level(u64 lambda) noexcept {
  // Initial guess from l^4/24 ≈ λ, then exact fix-up. Comparisons run in
  // 128 bits: near λ ~ 2^62 the probe C(l+1,4) can exceed u64.
  const auto guess =
      static_cast<u64>(std::sqrt(std::sqrt(24.0 * static_cast<double>(lambda)))) + 2;
  u64 l = guess;
  while (l > 0 && quartic128(l) > lambda) --l;
  while (quartic128(l + 1) <= lambda) ++l;
  return static_cast<std::uint32_t>(l);
}

std::uint32_t combination_level(u64 lambda, std::uint32_t k) noexcept {
  switch (k) {
    case 1:
      return static_cast<std::uint32_t>(lambda);
    case 2:
      return triangular_level(lambda);
    case 3:
      return tetrahedral_level(lambda);
    default:
      return quartic_level(lambda);
  }
}

Quad unrank_quad(u64 lambda) noexcept {
  const std::uint32_t l = quartic_level(lambda);
  const u64 rem = lambda - quartic(l);
  const Triple t = unrank_triple(rem);
  return Quad{t.i, t.j, t.k, l};
}

Triple unrank_triple_logexp(u64 lambda) noexcept {
  u64 k_guess = 0;
  if (lambda >= 1) {
    // Cardano solution of k(k+1)(k+2)/6 = λ (the paper's 1-based T_z form):
    //   q = (sqrt(729λ² - 3) + 27λ)^(1/3)
    //   k = q / 3^(2/3) + 3^(1/3) / q - 1
    // 729λ² overflows u64 for λ >= 2^32/27, so the discriminant is computed
    // in log space: sqrt(729λ²-3) = exp(0.5·(log(3λ) + log(243λ - 1/λ))).
    const double lam = static_cast<double>(lambda);
    const double a = std::exp(0.5 * (std::log(3.0 * lam) + std::log(243.0 * lam - 1.0 / lam)));
    const double q = std::cbrt(a + 27.0 * lam);
    const double k1 = q / std::pow(3.0, 2.0 / 3.0) + std::pow(3.0, 1.0 / 3.0) / q - 1.0;
    // The paper's k counts levels of the *1-based* tetrahedral sequence
    // k(k+1)(k+2)/6; our canonical C(k,3) = (k-2)(k-1)k/6 level is shifted
    // by two. Guard against the float landing barely below zero.
    k1 > 0.0 ? k_guess = static_cast<u64>(k1) + 2 : k_guess = 2;
  }
  const std::uint32_t k = fixup_tetrahedral(k_guess, lambda);
  const u64 rem = lambda - tetrahedral(k);
  const std::uint32_t j = triangular_level(rem);
  return Triple{static_cast<std::uint32_t>(rem - triangular(j)), j, k};
}

}  // namespace multihit
