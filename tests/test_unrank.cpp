#include "combinat/unrank.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "combinat/linearize.hpp"

namespace multihit {
namespace {

TEST(Unrank, FirstCombination) {
  EXPECT_EQ(first_combination(1), (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(first_combination(4), (std::vector<std::uint32_t>{0, 1, 2, 3}));
}

TEST(Unrank, RankOfFirstIsZero) {
  for (std::uint32_t h = 1; h <= 6; ++h) {
    EXPECT_EQ(rank_combination(first_combination(h)), 0u);
  }
}

class UnrankRoundTrip : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(UnrankRoundTrip, BijectionOverFullSpace) {
  const std::uint32_t h = GetParam();
  const std::uint32_t universe = 14;
  const u64 total = binomial(universe, h);
  for (u64 lambda = 0; lambda < total; ++lambda) {
    const auto combo = unrank_combination(lambda, h);
    ASSERT_EQ(combo.size(), h);
    ASSERT_TRUE(std::is_sorted(combo.begin(), combo.end()));
    ASSERT_TRUE(std::adjacent_find(combo.begin(), combo.end()) == combo.end());
    ASSERT_LT(combo.back(), universe);
    ASSERT_EQ(rank_combination(combo), lambda) << "h=" << h << " lambda=" << lambda;
  }
}

INSTANTIATE_TEST_SUITE_P(AllHitCounts, UnrankRoundTrip, ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

TEST(Unrank, MatchesSpecializedPairRanking) {
  for (u64 lambda = 0; lambda < triangular(40); ++lambda) {
    const Pair p = unrank_pair(lambda);
    const std::uint32_t combo[2] = {p.i, p.j};
    EXPECT_EQ(rank_combination(combo), lambda);
    EXPECT_EQ(unrank_combination(lambda, 2), (std::vector<std::uint32_t>{p.i, p.j}));
  }
}

TEST(Unrank, MatchesSpecializedTripleRanking) {
  for (u64 lambda = 0; lambda < tetrahedral(25); ++lambda) {
    const Triple t = unrank_triple(lambda);
    const std::uint32_t combo[3] = {t.i, t.j, t.k};
    EXPECT_EQ(rank_combination(combo), lambda);
    EXPECT_EQ(unrank_combination(lambda, 3), (std::vector<std::uint32_t>{t.i, t.j, t.k}));
  }
}

TEST(Unrank, QuadrupleAtPaperScale) {
  // C(19411,4)-1 is the largest 4-hit rank for BRCA.
  const u64 lambda = quartic(19411) - 1;
  const auto combo = unrank_combination(lambda, 4);
  EXPECT_EQ(combo, (std::vector<std::uint32_t>{19407, 19408, 19409, 19410}));
  EXPECT_EQ(rank_combination(combo), lambda);
}

TEST(Unrank, ColexSuccessorVisitsAllInRankOrder) {
  const std::uint32_t universe = 11;
  for (std::uint32_t h = 1; h <= 5; ++h) {
    auto combo = first_combination(h);
    u64 lambda = 0;
    do {
      ASSERT_EQ(rank_combination(combo), lambda);
      ++lambda;
    } while (next_combination_colex(combo, universe));
    EXPECT_EQ(lambda, binomial(universe, h));
  }
}

TEST(Unrank, ColexSuccessorTerminates) {
  std::vector<std::uint32_t> last{7, 8, 9};
  EXPECT_FALSE(next_combination_colex(last, 10));
}

TEST(Unrank, RankAtTheU64BoundaryIsExact) {
  // The last 5-combination of G = 18580, the largest G whose C(G,5) fits.
  const std::vector<std::uint32_t> last{18575, 18576, 18577, 18578, 18579};
  EXPECT_EQ(rank_combination(last), binomial(18580, 5) - 1);
  EXPECT_EQ(unrank_combination(binomial(18580, 5) - 1, 5), last);
}

TEST(UnrankDeathTest, RankPastU64Terminates) {
  // Its true rank, C(18581,5) - 1, exceeds 2^64: wrapping would name a
  // different combination.
  const std::vector<std::uint32_t> last{18576, 18577, 18578, 18579, 18580};
  EXPECT_DEATH((void)rank_combination(last), "overflows u64");
}

}  // namespace
}  // namespace multihit
