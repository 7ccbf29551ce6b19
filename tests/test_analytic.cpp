#include "gpusim/analytic.hpp"

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "combinat/binomial.hpp"
#include "data/generator.hpp"
#include "util/rng.hpp"

namespace multihit {
namespace {

struct Fixture {
  Dataset data;
  FContext ctx;
};

Fixture make_fixture(std::uint32_t genes) {
  SyntheticSpec spec;
  spec.genes = genes;
  spec.tumor_samples = 90;   // 2 words
  spec.normal_samples = 70;  // 2 words
  spec.hits = 3;
  spec.num_combinations = 2;
  spec.background_rate = 0.05;
  spec.seed = 20240;
  Fixture f{generate_dataset(spec), {}};
  f.ctx = FContext{FParams{}, spec.tumor_samples, spec.normal_samples};
  return f;
}

void expect_stats_eq(const KernelStats& a, const KernelStats& b, const char* context) {
  EXPECT_EQ(a.combinations, b.combinations) << context;
  EXPECT_EQ(a.word_ops, b.word_ops) << context;
  EXPECT_EQ(a.global_words, b.global_words) << context;
  EXPECT_EQ(a.local_words, b.local_words) << context;
}

using OptCase = std::tuple<bool, bool>;  // prefetch_i, prefetch_j

class AnalyticStats4 : public ::testing::TestWithParam<std::tuple<Scheme4, OptCase>> {};

TEST_P(AnalyticStats4, MatchesCountedStatsOnRandomRanges) {
  // The whole-point property: the closed-form accounting must equal what the
  // real kernel counts, for every scheme, opt combination, and subrange.
  const auto [scheme, opt_case] = GetParam();
  const MemOpts opts{std::get<0>(opt_case), std::get<1>(opt_case)};
  const auto f = make_fixture(24);
  const std::uint32_t wt = f.data.tumor.words_per_row();
  const std::uint32_t wn = f.data.normal.words_per_row();
  const u64 total = scheme4_threads(scheme, 24);

  Rng rng(7);
  for (int trial = 0; trial < 12; ++trial) {
    u64 a = rng.uniform(total + 1);
    u64 b = rng.uniform(total + 1);
    if (a > b) std::swap(a, b);
    KernelStats counted;
    evaluate_range_4hit(f.data.tumor, f.data.normal, f.ctx, scheme, a, b, opts, &counted);
    const KernelStats analytic = analytic_stats(shape_of(scheme), 24, a, b, opts, wt, wn);
    expect_stats_eq(analytic, counted,
                    (std::string(scheme_name(scheme)) + " range [" + std::to_string(a) + "," +
                     std::to_string(b) + ")")
                        .c_str());
  }
}

TEST_P(AnalyticStats4, FullRangeMatchesCounted) {
  const auto [scheme, opt_case] = GetParam();
  const MemOpts opts{std::get<0>(opt_case), std::get<1>(opt_case)};
  const auto f = make_fixture(20);
  KernelStats counted;
  evaluate_range_4hit(f.data.tumor, f.data.normal, f.ctx, scheme, 0,
                      scheme4_threads(scheme, 20), opts, &counted);
  const KernelStats analytic =
      analytic_stats(shape_of(scheme), 20, 0, scheme4_threads(scheme, 20), opts,
                          f.data.tumor.words_per_row(), f.data.normal.words_per_row());
  expect_stats_eq(analytic, counted, scheme_name(scheme));
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndOpts, AnalyticStats4,
    ::testing::Combine(::testing::Values(Scheme4::k1x3, Scheme4::k2x2, Scheme4::k3x1,
                                         Scheme4::k4x1),
                       ::testing::Values(OptCase{false, false}, OptCase{true, false},
                                         OptCase{false, true}, OptCase{true, true})));

class AnalyticStats3 : public ::testing::TestWithParam<std::tuple<Scheme3, OptCase>> {};

TEST_P(AnalyticStats3, MatchesCountedStatsOnRandomRanges) {
  const auto [scheme, opt_case] = GetParam();
  const MemOpts opts{std::get<0>(opt_case), std::get<1>(opt_case)};
  const auto f = make_fixture(30);
  const std::uint32_t wt = f.data.tumor.words_per_row();
  const std::uint32_t wn = f.data.normal.words_per_row();
  const u64 total = scheme3_threads(scheme, 30);

  Rng rng(11);
  for (int trial = 0; trial < 12; ++trial) {
    u64 a = rng.uniform(total + 1);
    u64 b = rng.uniform(total + 1);
    if (a > b) std::swap(a, b);
    KernelStats counted;
    evaluate_range_3hit(f.data.tumor, f.data.normal, f.ctx, scheme, a, b, opts, &counted);
    const KernelStats analytic = analytic_stats(shape_of(scheme), 30, a, b, opts, wt, wn);
    expect_stats_eq(analytic, counted, scheme_name(scheme));
  }
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndOpts, AnalyticStats3,
    ::testing::Combine(::testing::Values(Scheme3::k1x2, Scheme3::k2x1, Scheme3::k3x1),
                       ::testing::Values(OptCase{false, false}, OptCase{true, false},
                                         OptCase{false, true}, OptCase{true, true})));

TEST(AnalyticStats, PaperScaleTotalsAreFinite) {
  // Full BRCA 3x1 space: combination total must be exactly C(19411,4).
  const KernelStats stats = analytic_stats(
      shape_of(Scheme4::k3x1), 19411, 0, scheme4_threads(Scheme4::k3x1, 19411),
      MemOpts{.prefetch_i = true, .prefetch_j = true}, 15, 9);
  EXPECT_EQ(stats.combinations, quartic(19411));
  // With full prefetch the inner loop reads one row per matrix per combo.
  EXPECT_GT(stats.global_words, stats.combinations * 24);
}

TEST(AnalyticStats, AdditivityOverAdjacentRanges) {
  const std::uint32_t G = 26;
  const u64 total = scheme4_threads(Scheme4::k3x1, G);
  const MemOpts opts{.prefetch_j = true};
  const auto whole = analytic_stats(shape_of(Scheme4::k3x1), G, 0, total, opts, 3, 2);
  KernelStats sum;
  for (u64 piece = 0; piece < 5; ++piece) {
    sum += analytic_stats(shape_of(Scheme4::k3x1), G, total * piece / 5, total * (piece + 1) / 5,
                               opts, 3, 2);
  }
  EXPECT_EQ(sum.combinations, whole.combinations);
  EXPECT_EQ(sum.word_ops, whole.word_ops);
  EXPECT_EQ(sum.global_words, whole.global_words);
  EXPECT_EQ(sum.local_words, whole.local_words);
}

}  // namespace
}  // namespace multihit
