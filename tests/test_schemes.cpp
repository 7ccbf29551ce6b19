#include "core/schemes.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

#include "combinat/binomial.hpp"
#include "combinat/unrank.hpp"
#include "core/serial.hpp"
#include "data/generator.hpp"
#include "gpusim/analytic.hpp"
#include "util/rng.hpp"

namespace multihit {
namespace {

struct Fixture {
  Dataset data;
  FContext ctx;
};

Fixture make_fixture(std::uint32_t genes, std::uint32_t hits, std::uint64_t seed) {
  SyntheticSpec spec;
  spec.genes = genes;
  spec.tumor_samples = 70;
  spec.normal_samples = 50;
  spec.hits = hits;
  spec.num_combinations = 3;
  spec.background_rate = 0.05;
  spec.seed = seed;
  Fixture f{generate_dataset(spec), {}};
  f.ctx = FContext{FParams{}, spec.tumor_samples, spec.normal_samples};
  return f;
}

// --- thread-space sizes -----------------------------------------------------

TEST(SchemeThreads, CountsMatchCombinatorics) {
  EXPECT_EQ(scheme4_threads(Scheme4::k1x3, 100), 100u);
  EXPECT_EQ(scheme4_threads(Scheme4::k2x2, 100), binomial(100, 2));
  EXPECT_EQ(scheme4_threads(Scheme4::k3x1, 100), binomial(100, 3));
  EXPECT_EQ(scheme4_threads(Scheme4::k4x1, 100), binomial(100, 4));
  EXPECT_EQ(scheme3_threads(Scheme3::k1x2, 100), 100u);
  EXPECT_EQ(scheme3_threads(Scheme3::k2x1, 100), binomial(100, 2));
  EXPECT_EQ(scheme3_threads(Scheme3::k3x1, 100), binomial(100, 3));
}

TEST(SchemeThreads, WorkSumsToWholeSpace4Hit) {
  // Σ over threads of per-thread work must equal C(G,4) for every scheme.
  const std::uint32_t G = 40;
  for (const Scheme4 scheme :
       {Scheme4::k1x3, Scheme4::k2x2, Scheme4::k3x1, Scheme4::k4x1}) {
    u64 total = 0;
    for (u64 lambda = 0; lambda < scheme4_threads(scheme, G); ++lambda) {
      total += scheme4_thread_work(scheme, G, lambda);
    }
    EXPECT_EQ(total, binomial(G, 4)) << scheme_name(scheme);
  }
}

TEST(SchemeThreads, WorkSumsToWholeSpace3Hit) {
  const std::uint32_t G = 40;
  for (const Scheme3 scheme : {Scheme3::k1x2, Scheme3::k2x1, Scheme3::k3x1}) {
    u64 total = 0;
    for (u64 lambda = 0; lambda < scheme3_threads(scheme, G); ++lambda) {
      total += scheme3_thread_work(scheme, G, lambda);
    }
    EXPECT_EQ(total, binomial(G, 3)) << scheme_name(scheme);
  }
}

TEST(SchemeThreads, WorkloadSpreadMatchesPaper) {
  // Paper §III-B: max-min per-thread work is ~C(G,2) for 2x2 but only ~G for
  // 3x1 — the whole reason the 3x1 scheme scales.
  const std::uint32_t G = 100;
  EXPECT_EQ(scheme4_thread_work(Scheme4::k2x2, G, 0), triangular(G - 2));
  EXPECT_EQ(scheme4_thread_work(Scheme4::k2x2, G, triangular(G) - 1), 0u);
  EXPECT_EQ(scheme4_thread_work(Scheme4::k3x1, G, 0), static_cast<u64>(G) - 3);
  EXPECT_EQ(scheme4_thread_work(Scheme4::k3x1, G, tetrahedral(G) - 1), 0u);
}

// --- full-range equivalence to the serial reference -------------------------

class Scheme4Equivalence : public ::testing::TestWithParam<Scheme4> {};

TEST_P(Scheme4Equivalence, FullRangeMatchesSerial) {
  const auto f = make_fixture(26, 4, 1234);
  const EvalResult serial = serial_find_best(f.data.tumor, f.data.normal, f.ctx, 4);
  const EvalResult parallel =
      evaluate_range_4hit(f.data.tumor, f.data.normal, f.ctx, GetParam(), 0,
                          scheme4_threads(GetParam(), 26));
  ASSERT_TRUE(parallel.valid);
  EXPECT_EQ(parallel.combo_rank, serial.combo_rank);
  EXPECT_DOUBLE_EQ(parallel.f, serial.f);
  EXPECT_EQ(parallel.tp, serial.tp);
  EXPECT_EQ(parallel.tn, serial.tn);
}

TEST_P(Scheme4Equivalence, PrefetchVariantsAreResultIdentical) {
  const auto f = make_fixture(22, 4, 555);
  const u64 end = scheme4_threads(GetParam(), 22);
  const EvalResult plain =
      evaluate_range_4hit(f.data.tumor, f.data.normal, f.ctx, GetParam(), 0, end, {});
  const EvalResult opt1 = evaluate_range_4hit(f.data.tumor, f.data.normal, f.ctx, GetParam(), 0,
                                              end, {.prefetch_i = true});
  const EvalResult opt12 = evaluate_range_4hit(
      f.data.tumor, f.data.normal, f.ctx, GetParam(), 0, end,
      {.prefetch_i = true, .prefetch_j = true});
  EXPECT_EQ(plain.combo_rank, opt1.combo_rank);
  EXPECT_EQ(plain.combo_rank, opt12.combo_rank);
  EXPECT_DOUBLE_EQ(plain.f, opt1.f);
  EXPECT_DOUBLE_EQ(plain.f, opt12.f);
}

TEST_P(Scheme4Equivalence, PartialRangesMergeToFull) {
  const auto f = make_fixture(20, 4, 77);
  const u64 end = scheme4_threads(GetParam(), 20);
  const EvalResult full =
      evaluate_range_4hit(f.data.tumor, f.data.normal, f.ctx, GetParam(), 0, end);
  EvalResult merged;
  const u64 pieces = 7;
  for (u64 p = 0; p < pieces; ++p) {
    const u64 begin = end * p / pieces;
    const u64 stop = end * (p + 1) / pieces;
    const EvalResult part =
        evaluate_range_4hit(f.data.tumor, f.data.normal, f.ctx, GetParam(), begin, stop);
    merged = merge_results(merged, part);
  }
  ASSERT_TRUE(merged.valid);
  EXPECT_EQ(merged.combo_rank, full.combo_rank);
  EXPECT_DOUBLE_EQ(merged.f, full.f);
}

TEST_P(Scheme4Equivalence, StatsCountExactCombinationTotal) {
  const auto f = make_fixture(18, 4, 31);
  KernelStats stats;
  evaluate_range_4hit(f.data.tumor, f.data.normal, f.ctx, GetParam(), 0,
                      scheme4_threads(GetParam(), 18), {}, &stats);
  EXPECT_EQ(stats.combinations, binomial(18, 4));
  EXPECT_GT(stats.word_ops, 0u);
  EXPECT_GT(stats.global_words, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, Scheme4Equivalence,
                         ::testing::Values(Scheme4::k1x3, Scheme4::k2x2, Scheme4::k3x1,
                                           Scheme4::k4x1),
                         [](const auto& info) { return scheme_name(info.param); });

class Scheme3Equivalence : public ::testing::TestWithParam<Scheme3> {};

TEST_P(Scheme3Equivalence, FullRangeMatchesSerial) {
  const auto f = make_fixture(40, 3, 999);
  const EvalResult serial = serial_find_best(f.data.tumor, f.data.normal, f.ctx, 3);
  const EvalResult parallel =
      evaluate_range_3hit(f.data.tumor, f.data.normal, f.ctx, GetParam(), 0,
                          scheme3_threads(GetParam(), 40));
  ASSERT_TRUE(parallel.valid);
  EXPECT_EQ(parallel.combo_rank, serial.combo_rank);
  EXPECT_DOUBLE_EQ(parallel.f, serial.f);
}

TEST_P(Scheme3Equivalence, PrefetchVariantsAreResultIdentical) {
  const auto f = make_fixture(30, 3, 1001);
  const u64 end = scheme3_threads(GetParam(), 30);
  const EvalResult plain =
      evaluate_range_3hit(f.data.tumor, f.data.normal, f.ctx, GetParam(), 0, end, {});
  const EvalResult opt = evaluate_range_3hit(f.data.tumor, f.data.normal, f.ctx, GetParam(), 0,
                                             end, {.prefetch_i = true, .prefetch_j = true});
  EXPECT_EQ(plain.combo_rank, opt.combo_rank);
}

TEST_P(Scheme3Equivalence, StatsCountExactCombinationTotal) {
  const auto f = make_fixture(24, 3, 13);
  KernelStats stats;
  evaluate_range_3hit(f.data.tumor, f.data.normal, f.ctx, GetParam(), 0,
                      scheme3_threads(GetParam(), 24), {}, &stats);
  EXPECT_EQ(stats.combinations, binomial(24, 3));
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, Scheme3Equivalence,
                         ::testing::Values(Scheme3::k1x2, Scheme3::k2x1, Scheme3::k3x1),
                         [](const auto& info) { return scheme_name(info.param); });

// --- targeted behaviour -----------------------------------------------------

TEST(Schemes, EmptyRangeIsInvalid) {
  const auto f = make_fixture(15, 4, 3);
  const EvalResult r =
      evaluate_range_4hit(f.data.tumor, f.data.normal, f.ctx, Scheme4::k3x1, 5, 5);
  EXPECT_FALSE(r.valid);
}

TEST(Schemes, WinnerIsPlantedCombination) {
  // With clean planted data the best 3-hit combination must be one of the
  // planted driver sets.
  SyntheticSpec spec;
  spec.genes = 30;
  spec.tumor_samples = 60;
  spec.normal_samples = 60;
  spec.hits = 3;
  spec.num_combinations = 2;
  spec.background_rate = 0.01;
  spec.seed = 4242;
  const Dataset data = generate_dataset(spec);
  const FContext ctx{FParams{}, spec.tumor_samples, spec.normal_samples};
  const EvalResult best = evaluate_range_3hit(data.tumor, data.normal, ctx, Scheme3::k2x1, 0,
                                              scheme3_threads(Scheme3::k2x1, 30));
  ASSERT_TRUE(best.valid);
  const auto genes = unrank_combination(best.combo_rank, 3);
  const bool is_planted = genes == data.planted[0] || genes == data.planted[1];
  EXPECT_TRUE(is_planted) << "winner {" << genes[0] << "," << genes[1] << "," << genes[2] << "}";
}

TEST(Schemes, TieBreakPicksLowestRank) {
  // Two identical gene rows => combinations differing only in which copy
  // they use have exactly equal F; the lower colex rank must win on every
  // scheme.
  BitMatrix tumor(6, 10);
  BitMatrix normal(6, 10);
  for (std::uint32_t g = 0; g < 6; ++g) {
    for (std::uint32_t s = 0; s < 10; ++s) tumor.set(g, s);
  }
  const FContext ctx{FParams{}, 10, 10};
  for (const Scheme4 scheme :
       {Scheme4::k1x3, Scheme4::k2x2, Scheme4::k3x1, Scheme4::k4x1}) {
    const EvalResult r = evaluate_range_4hit(tumor, normal, ctx, scheme, 0,
                                             scheme4_threads(scheme, 6));
    EXPECT_EQ(r.combo_rank, 0u) << scheme_name(scheme);  // {0,1,2,3}
  }
}

// --- staged-scan differential ------------------------------------------------
//
// Every staged (MemOpt2) inner loop scores its rows through one batched
// and_popcount_rows call per staged prefix. Pin each staged scheme, over
// randomly chunked λ ranges with and without an Arena, to the serial
// reference (winner, F, TP, TN) and the analytic model (KernelStats), and
// each single thread λ to the per-combination MemOpt-off path.

struct StagedScheme {
  std::uint32_t hits;
  int scheme;  ///< enumerator of Scheme2/3/4/5 for `hits`
  std::uint32_t genes;
};

void PrintTo(const StagedScheme& s, std::ostream* os) {
  *os << s.hits << "-hit scheme " << s.scheme << " at G=" << s.genes;
}

u64 staged_threads(const StagedScheme& s) {
  switch (s.hits) {
    case 2: return scheme2_threads(static_cast<Scheme2>(s.scheme), s.genes);
    case 3: return scheme3_threads(static_cast<Scheme3>(s.scheme), s.genes);
    case 4: return scheme4_threads(static_cast<Scheme4>(s.scheme), s.genes);
    default: return scheme5_threads(static_cast<Scheme5>(s.scheme), s.genes);
  }
}

EvalResult staged_eval(const StagedScheme& s, const Dataset& d, const FContext& ctx, u64 begin,
                       u64 end, const MemOpts& opts, KernelStats* stats, Arena* arena) {
  switch (s.hits) {
    case 2:
      return evaluate_range_2hit(d.tumor, d.normal, ctx, static_cast<Scheme2>(s.scheme), begin,
                                 end, opts, stats, arena);
    case 3:
      return evaluate_range_3hit(d.tumor, d.normal, ctx, static_cast<Scheme3>(s.scheme), begin,
                                 end, opts, stats, arena);
    case 4:
      return evaluate_range_4hit(d.tumor, d.normal, ctx, static_cast<Scheme4>(s.scheme), begin,
                                 end, opts, stats, arena);
    default:
      return evaluate_range_5hit(d.tumor, d.normal, ctx, static_cast<Scheme5>(s.scheme), begin,
                                 end, opts, stats, arena);
  }
}

KernelStats staged_analytic(const StagedScheme& s, u64 end, const MemOpts& opts,
                            const Dataset& d) {
  const std::uint32_t wt = d.tumor.words_per_row();
  const std::uint32_t wn = d.normal.words_per_row();
  switch (s.hits) {
    case 2: return analytic_stats_2hit(static_cast<Scheme2>(s.scheme), s.genes, 0, end, opts, wt, wn);
    case 3: return analytic_stats_3hit(static_cast<Scheme3>(s.scheme), s.genes, 0, end, opts, wt, wn);
    case 4: return analytic_stats_4hit(static_cast<Scheme4>(s.scheme), s.genes, 0, end, opts, wt, wn);
    default: return analytic_stats_5hit(static_cast<Scheme5>(s.scheme), s.genes, 0, end, opts, wt, wn);
  }
}

void expect_same_winner(const EvalResult& got, const EvalResult& want, const std::string& label) {
  ASSERT_EQ(got.valid, want.valid) << label;
  EXPECT_EQ(got.combo_rank, want.combo_rank) << label;
  EXPECT_EQ(got.f, want.f) << label;
  EXPECT_EQ(got.tp, want.tp) << label;
  EXPECT_EQ(got.tn, want.tn) << label;
}

class StagedScanDifferential : public ::testing::TestWithParam<StagedScheme> {};

TEST_P(StagedScanDifferential, ChunkedRangesMatchSerialMemOptOffAndAnalytic) {
  const StagedScheme s = GetParam();
  Rng rng(9000 + 10 * s.hits + static_cast<u64>(s.scheme));
  for (int trial = 0; trial < 4; ++trial) {
    // Sample counts spread row widths over 1..5 words; a sparse background
    // leaves many equal-F combinations, so the rank tie-break is exercised.
    SyntheticSpec spec;
    spec.genes = s.genes;
    spec.tumor_samples = 20 + static_cast<std::uint32_t>(rng.uniform(300));
    spec.normal_samples = 20 + static_cast<std::uint32_t>(rng.uniform(200));
    spec.hits = s.hits;
    spec.num_combinations = 2;
    spec.background_rate = trial % 2 == 0 ? 0.01 : 0.25;
    spec.seed = rng();
    const Dataset d = generate_dataset(spec);
    const FContext ctx{FParams{}, spec.tumor_samples, spec.normal_samples};
    const std::string label = "hits=" + std::to_string(s.hits) + " trial=" + std::to_string(trial);

    const u64 total = staged_threads(s);
    const EvalResult serial = serial_find_best(d.tumor, d.normal, ctx, s.hits);
    const EvalResult off = staged_eval(s, d, ctx, 0, total, {}, nullptr, nullptr);
    expect_same_winner(off, serial, label + " memopt-off");

    std::vector<u64> cuts = {0, total};
    for (int c = 0; c < 6; ++c) cuts.push_back(rng.uniform(total + 1));
    std::sort(cuts.begin(), cuts.end());
    const MemOpts staged{.prefetch_i = trial % 2 == 1, .prefetch_j = true};
    const KernelStats analytic = staged_analytic(s, total, staged, d);
    for (const bool use_arena : {false, true}) {
      Arena arena;
      EvalResult merged;
      KernelStats stats;
      for (std::size_t c = 0; c + 1 < cuts.size(); ++c) {
        arena.reset();
        merged = merge_results(merged, staged_eval(s, d, ctx, cuts[c], cuts[c + 1], staged,
                                                   &stats, use_arena ? &arena : nullptr));
      }
      const std::string where = label + (use_arena ? " arena" : " heap");
      expect_same_winner(merged, serial, where);
      EXPECT_EQ(stats.combinations, analytic.combinations) << where;
      EXPECT_EQ(stats.word_ops, analytic.word_ops) << where;
      EXPECT_EQ(stats.global_words, analytic.global_words) << where;
      EXPECT_EQ(stats.local_words, analytic.local_words) << where;
      EXPECT_EQ(stats.distinct_rows, analytic.distinct_rows) << where;
    }
    // Thread by thread, the staged scan picks what the per-combination path
    // picks: a scan that drops or shifts a row shows up in some thread's
    // winner even when the global winner lies elsewhere.
    for (u64 lambda = 0; lambda < total; ++lambda) {
      expect_same_winner(staged_eval(s, d, ctx, lambda, lambda + 1, staged, nullptr, nullptr),
                         staged_eval(s, d, ctx, lambda, lambda + 1, {}, nullptr, nullptr),
                         label + " lambda=" + std::to_string(lambda));
      if (HasFailure()) return;
    }
    if (HasFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStagedSchemes, StagedScanDifferential,
    ::testing::Values(StagedScheme{2, static_cast<int>(Scheme2::k1x1), 40},
                      StagedScheme{3, static_cast<int>(Scheme3::k1x2), 26},
                      StagedScheme{3, static_cast<int>(Scheme3::k2x1), 26},
                      StagedScheme{4, static_cast<int>(Scheme4::k1x3), 18},
                      StagedScheme{4, static_cast<int>(Scheme4::k2x2), 18},
                      StagedScheme{4, static_cast<int>(Scheme4::k3x1), 18},
                      StagedScheme{5, static_cast<int>(Scheme5::k3x2), 14},
                      StagedScheme{5, static_cast<int>(Scheme5::k4x1), 14}),
    [](const auto& info) {
      const StagedScheme& s = info.param;
      const char* name = s.hits == 2   ? scheme_name(static_cast<Scheme2>(s.scheme))
                         : s.hits == 3 ? scheme_name(static_cast<Scheme3>(s.scheme))
                         : s.hits == 4 ? scheme_name(static_cast<Scheme4>(s.scheme))
                                       : scheme_name(static_cast<Scheme5>(s.scheme));
      return "h" + std::to_string(s.hits) + "_" + name;
    });

TEST(Schemes, NamesAreStable) {
  EXPECT_STREQ(scheme_name(Scheme4::k2x2), "2x2");
  EXPECT_STREQ(scheme_name(Scheme4::k3x1), "3x1");
  EXPECT_STREQ(scheme_name(Scheme3::k2x1), "2x1");
}

}  // namespace
}  // namespace multihit
