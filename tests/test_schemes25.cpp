// Tests for the 2-hit / 5-hit extension (paper §V trajectory).

#include <gtest/gtest.h>

#include <tuple>

#include "cluster/distributed.hpp"
#include "cluster/model.hpp"
#include "combinat/binomial.hpp"
#include "combinat/linearize.hpp"
#include "combinat/unrank.hpp"
#include "core/engine.hpp"
#include "core/schemes.hpp"
#include "core/serial.hpp"
#include "data/generator.hpp"
#include "gpusim/analytic.hpp"
#include "sched/schedule.hpp"
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
  spec.num_combinations = 2;
  spec.background_rate = 0.05;
  spec.seed = seed;
  Fixture f{generate_dataset(spec), {}};
  f.ctx = FContext{FParams{}, spec.tumor_samples, spec.normal_samples};
  return f;
}

// --- quadruple linearization -------------------------------------------------

TEST(Quad, RankFirstValues) {
  // Colex order: {0,1,2,3} {0,1,2,4} {0,1,3,4} {0,2,3,4} {1,2,3,4} {0,1,2,5}...
  EXPECT_EQ(rank_quad({0, 1, 2, 3}), 0u);
  EXPECT_EQ(rank_quad({0, 1, 2, 4}), 1u);
  EXPECT_EQ(rank_quad({0, 1, 3, 4}), 2u);
  EXPECT_EQ(rank_quad({1, 2, 3, 4}), 4u);
  EXPECT_EQ(rank_quad({0, 1, 2, 5}), 5u);
}

TEST(Quad, RoundTripExhaustive) {
  const u64 total = quartic(30);
  for (u64 lambda = 0; lambda < total; ++lambda) {
    const Quad q = unrank_quad(lambda);
    ASSERT_LT(q.i, q.j);
    ASSERT_LT(q.j, q.k);
    ASSERT_LT(q.k, q.l);
    ASSERT_LT(q.l, 30u);
    ASSERT_EQ(rank_quad(q), lambda) << lambda;
  }
}

TEST(Quad, RoundTripAtScale) {
  // Includes the near-u64-max region where the C(l,4) fix-up probes exceed
  // u64 (the overflow a naive implementation hangs on).
  for (const u64 lambda : {u64{0}, quartic(19411) - 1, u64{1} << 50,
                           (u64{1} << 62) + 123456789, ~u64{0} - 5, ~u64{0}}) {
    EXPECT_EQ(rank_quad(unrank_quad(lambda)), lambda) << lambda;
  }
}

TEST(Quad, MatchesGenericUnranking) {
  for (u64 lambda = 0; lambda < quartic(15); ++lambda) {
    const Quad q = unrank_quad(lambda);
    const auto generic = unrank_combination(lambda, 4);
    EXPECT_EQ(generic, (std::vector<std::uint32_t>{q.i, q.j, q.k, q.l}));
  }
}

TEST(Quad, QuarticLevelBoundaries) {
  for (std::uint32_t l = 3; l < 150; ++l) {
    EXPECT_EQ(quartic_level(quartic(l)), l);
    EXPECT_EQ(quartic_level(quartic(l + 1) - 1), l);
  }
  EXPECT_EQ(quartic_level(quartic(19411)), 19411u);
}

TEST(Quintic, MatchesBinomial) {
  for (u64 n = 0; n <= 1000; n += 13) EXPECT_EQ(quintic(n), binomial(n, 5));
  EXPECT_EQ(quintic(5), 1u);
  EXPECT_EQ(quintic(4), 0u);
  // Find the largest n whose C(n,5) fits u64 and verify quintic there.
  u64 n = 18000;
  while (binomial_checked(n + 1, 5).has_value()) ++n;
  EXPECT_GT(n, 18400u);
  EXPECT_LT(n, 18800u);
  EXPECT_EQ(quintic(n), binomial(n, 5));
  EXPECT_FALSE(binomial_checked(n + 1, 5).has_value());
}

// --- thread spaces -----------------------------------------------------------

TEST(Schemes25, ThreadCounts) {
  EXPECT_EQ(scheme2_threads(Scheme2::k1x1, 100), 100u);
  EXPECT_EQ(scheme2_threads(Scheme2::k2x1, 100), binomial(100, 2));
  EXPECT_EQ(scheme5_threads(Scheme5::k3x2, 100), binomial(100, 3));
  EXPECT_EQ(scheme5_threads(Scheme5::k4x1, 100), binomial(100, 4));
}

TEST(Schemes25, WorkSumsToWholeSpace) {
  const std::uint32_t G = 20;
  for (const Scheme2 scheme : {Scheme2::k1x1, Scheme2::k2x1}) {
    u64 total = 0;
    for (u64 lambda = 0; lambda < scheme2_threads(scheme, G); ++lambda) {
      total += scheme2_thread_work(scheme, G, lambda);
    }
    EXPECT_EQ(total, binomial(G, 2)) << scheme_name(scheme);
  }
  for (const Scheme5 scheme : {Scheme5::k3x2, Scheme5::k4x1}) {
    u64 total = 0;
    for (u64 lambda = 0; lambda < scheme5_threads(scheme, G); ++lambda) {
      total += scheme5_thread_work(scheme, G, lambda);
    }
    EXPECT_EQ(total, binomial(G, 5)) << scheme_name(scheme);
  }
}

// --- kernel equivalence ------------------------------------------------------

class Scheme2Equivalence : public ::testing::TestWithParam<Scheme2> {};

TEST_P(Scheme2Equivalence, FullRangeMatchesSerial) {
  const auto f = make_fixture(50, 2, 808);
  const EvalResult serial = serial_find_best(f.data.tumor, f.data.normal, f.ctx, 2);
  const EvalResult parallel = evaluate_range_2hit(
      f.data.tumor, f.data.normal, f.ctx, GetParam(), 0, scheme2_threads(GetParam(), 50));
  ASSERT_TRUE(parallel.valid);
  EXPECT_EQ(parallel.combo_rank, serial.combo_rank);
  EXPECT_DOUBLE_EQ(parallel.f, serial.f);
}

TEST_P(Scheme2Equivalence, PartialRangesMergeToFull) {
  const auto f = make_fixture(30, 2, 809);
  const u64 end = scheme2_threads(GetParam(), 30);
  const EvalResult full =
      evaluate_range_2hit(f.data.tumor, f.data.normal, f.ctx, GetParam(), 0, end);
  EvalResult merged;
  for (u64 piece = 0; piece < 5; ++piece) {
    merged = merge_results(
        merged, evaluate_range_2hit(f.data.tumor, f.data.normal, f.ctx, GetParam(),
                                    end * piece / 5, end * (piece + 1) / 5));
  }
  EXPECT_EQ(merged.combo_rank, full.combo_rank);
}

TEST_P(Scheme2Equivalence, StatsCountExactTotal) {
  const auto f = make_fixture(25, 2, 810);
  KernelStats stats;
  evaluate_range_2hit(f.data.tumor, f.data.normal, f.ctx, GetParam(), 0,
                      scheme2_threads(GetParam(), 25), {}, &stats);
  EXPECT_EQ(stats.combinations, binomial(25, 2));
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, Scheme2Equivalence,
                         ::testing::Values(Scheme2::k1x1, Scheme2::k2x1),
                         [](const auto& info) { return scheme_name(info.param); });

class Scheme5Equivalence : public ::testing::TestWithParam<Scheme5> {};

TEST_P(Scheme5Equivalence, FullRangeMatchesSerial) {
  const auto f = make_fixture(15, 5, 811);
  const EvalResult serial = serial_find_best(f.data.tumor, f.data.normal, f.ctx, 5);
  const EvalResult parallel = evaluate_range_5hit(
      f.data.tumor, f.data.normal, f.ctx, GetParam(), 0, scheme5_threads(GetParam(), 15));
  ASSERT_TRUE(parallel.valid);
  EXPECT_EQ(parallel.combo_rank, serial.combo_rank);
  EXPECT_DOUBLE_EQ(parallel.f, serial.f);
}

TEST_P(Scheme5Equivalence, PrefetchVariantsAreResultIdentical) {
  const auto f = make_fixture(13, 5, 812);
  const u64 end = scheme5_threads(GetParam(), 13);
  const EvalResult plain =
      evaluate_range_5hit(f.data.tumor, f.data.normal, f.ctx, GetParam(), 0, end, {});
  const EvalResult opt1 = evaluate_range_5hit(f.data.tumor, f.data.normal, f.ctx, GetParam(),
                                              0, end, {.prefetch_i = true});
  const EvalResult opt12 = evaluate_range_5hit(
      f.data.tumor, f.data.normal, f.ctx, GetParam(), 0, end,
      {.prefetch_i = true, .prefetch_j = true});
  EXPECT_EQ(plain.combo_rank, opt1.combo_rank);
  EXPECT_EQ(plain.combo_rank, opt12.combo_rank);
}

TEST_P(Scheme5Equivalence, PartialRangesMergeToFull) {
  const auto f = make_fixture(12, 5, 813);
  const u64 end = scheme5_threads(GetParam(), 12);
  const EvalResult full =
      evaluate_range_5hit(f.data.tumor, f.data.normal, f.ctx, GetParam(), 0, end);
  EvalResult merged;
  for (u64 piece = 0; piece < 7; ++piece) {
    merged = merge_results(
        merged, evaluate_range_5hit(f.data.tumor, f.data.normal, f.ctx, GetParam(),
                                    end * piece / 7, end * (piece + 1) / 7));
  }
  EXPECT_EQ(merged.combo_rank, full.combo_rank);
}

TEST_P(Scheme5Equivalence, StatsCountExactTotal) {
  const auto f = make_fixture(12, 5, 814);
  KernelStats stats;
  evaluate_range_5hit(f.data.tumor, f.data.normal, f.ctx, GetParam(), 0,
                      scheme5_threads(GetParam(), 12), {}, &stats);
  EXPECT_EQ(stats.combinations, binomial(12, 5));
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, Scheme5Equivalence,
                         ::testing::Values(Scheme5::k3x2, Scheme5::k4x1),
                         [](const auto& info) { return scheme_name(info.param); });

// --- analytic accounting -----------------------------------------------------

using OptCase = std::tuple<bool, bool>;

class Analytic25 : public ::testing::TestWithParam<OptCase> {};

TEST_P(Analytic25, TwoHitMatchesCounted) {
  const MemOpts opts{std::get<0>(GetParam()), std::get<1>(GetParam())};
  const auto f = make_fixture(30, 2, 815);
  const std::uint32_t wt = f.data.tumor.words_per_row();
  const std::uint32_t wn = f.data.normal.words_per_row();
  Rng rng(4);
  for (const Scheme2 scheme : {Scheme2::k1x1, Scheme2::k2x1}) {
    const u64 total = scheme2_threads(scheme, 30);
    for (int trial = 0; trial < 8; ++trial) {
      u64 a = rng.uniform(total + 1), b = rng.uniform(total + 1);
      if (a > b) std::swap(a, b);
      KernelStats counted;
      evaluate_range_2hit(f.data.tumor, f.data.normal, f.ctx, scheme, a, b, opts, &counted);
      const KernelStats analytic = analytic_stats(shape_of(scheme), 30, a, b, opts, wt, wn);
      ASSERT_EQ(analytic.combinations, counted.combinations) << scheme_name(scheme);
      ASSERT_EQ(analytic.word_ops, counted.word_ops) << scheme_name(scheme);
      ASSERT_EQ(analytic.global_words, counted.global_words) << scheme_name(scheme);
      ASSERT_EQ(analytic.local_words, counted.local_words) << scheme_name(scheme);
    }
  }
}

TEST_P(Analytic25, FiveHitMatchesCounted) {
  const MemOpts opts{std::get<0>(GetParam()), std::get<1>(GetParam())};
  const auto f = make_fixture(14, 5, 816);
  const std::uint32_t wt = f.data.tumor.words_per_row();
  const std::uint32_t wn = f.data.normal.words_per_row();
  Rng rng(5);
  for (const Scheme5 scheme : {Scheme5::k3x2, Scheme5::k4x1}) {
    const u64 total = scheme5_threads(scheme, 14);
    for (int trial = 0; trial < 8; ++trial) {
      u64 a = rng.uniform(total + 1), b = rng.uniform(total + 1);
      if (a > b) std::swap(a, b);
      KernelStats counted;
      evaluate_range_5hit(f.data.tumor, f.data.normal, f.ctx, scheme, a, b, opts, &counted);
      const KernelStats analytic = analytic_stats(shape_of(scheme), 14, a, b, opts, wt, wn);
      ASSERT_EQ(analytic.combinations, counted.combinations) << scheme_name(scheme);
      ASSERT_EQ(analytic.word_ops, counted.word_ops) << scheme_name(scheme);
      ASSERT_EQ(analytic.global_words, counted.global_words) << scheme_name(scheme);
      ASSERT_EQ(analytic.local_words, counted.local_words) << scheme_name(scheme);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Opts, Analytic25,
                         ::testing::Values(OptCase{false, false}, OptCase{true, false},
                                           OptCase{false, true}, OptCase{true, true}));

// --- workload / scheduling ---------------------------------------------------

TEST(Workload25, TotalsMatchCombinatorics) {
  const std::uint32_t G = 40;
  for (const Scheme2 scheme : {Scheme2::k1x1, Scheme2::k2x1}) {
    const auto model = WorkloadModel::for_scheme2(scheme, G);
    EXPECT_EQ(model.total_threads(), scheme2_threads(scheme, G));
    EXPECT_TRUE(model.total_work() == static_cast<u128>(binomial(G, 2)));
  }
  for (const Scheme5 scheme : {Scheme5::k3x2, Scheme5::k4x1}) {
    const auto model = WorkloadModel::for_scheme5(scheme, G);
    EXPECT_EQ(model.total_threads(), scheme5_threads(scheme, G));
    EXPECT_TRUE(model.total_work() == static_cast<u128>(binomial(G, 5)));
  }
}

TEST(Workload25, WorkAtMatchesPerThreadFormula) {
  const std::uint32_t G = 18;
  for (const Scheme5 scheme : {Scheme5::k3x2, Scheme5::k4x1}) {
    const auto model = WorkloadModel::for_scheme5(scheme, G);
    for (u64 lambda = 0; lambda < model.total_threads(); ++lambda) {
      ASSERT_EQ(model.work_at(lambda), scheme5_thread_work(scheme, G, lambda))
          << scheme_name(scheme) << " " << lambda;
    }
  }
}

TEST(Workload25, EquiAreaBalancesFiveHit) {
  const auto model = WorkloadModel::for_scheme5(Scheme5::k4x1, 200);
  const auto ea = equiarea_schedule(model, 60);
  const auto stats = schedule_imbalance(model, ea);
  EXPECT_LT(stats.imbalance, 1.01);
  const auto fast = equiarea_schedule(model, 24);
  const auto naive = equiarea_schedule_naive(model, 24);
  EXPECT_EQ(fast, naive);
}

// --- engine / cluster integration -------------------------------------------

TEST(KernelEvaluator, MatchesSerialForAllHitCounts) {
  for (const std::uint32_t hits : {2u, 3u, 4u, 5u}) {
    const auto f = make_fixture(hits == 5 ? 14 : 24, hits, 900 + hits);
    const EvalResult serial = serial_find_best(f.data.tumor, f.data.normal, f.ctx, hits);
    const EvalResult kernel = make_kernel_evaluator(hits)(f.data.tumor, f.data.normal, f.ctx);
    EXPECT_EQ(kernel.combo_rank, serial.combo_rank) << "hits=" << hits;
    EXPECT_DOUBLE_EQ(kernel.f, serial.f) << "hits=" << hits;
  }
}

TEST(KernelEvaluator, FallsBackToSerialForOtherHitCounts) {
  const auto f = make_fixture(14, 3, 905);
  const EvalResult serial = serial_find_best(f.data.tumor, f.data.normal, f.ctx, 6);
  const EvalResult fallback = make_kernel_evaluator(6)(f.data.tumor, f.data.normal, f.ctx);
  EXPECT_EQ(fallback.combo_rank, serial.combo_rank);
}

TEST(Cluster25, DistributedTwoHitMatchesSerialEngine) {
  const auto f = make_fixture(30, 2, 910);
  EngineConfig engine;
  engine.hits = 2;
  const GreedyResult serial =
      run_greedy(f.data.tumor, f.data.normal, engine, make_serial_evaluator(2));
  SummitConfig config;
  config.nodes = 3;
  DistributedOptions options;
  options.hits = 2;
  const auto result = ClusterRunner(config).run(f.data, options);
  ASSERT_EQ(result.greedy.iterations.size(), serial.iterations.size());
  for (std::size_t i = 0; i < serial.iterations.size(); ++i) {
    EXPECT_EQ(result.greedy.iterations[i].genes, serial.iterations[i].genes);
  }
}

TEST(Cluster25, DistributedFiveHitMatchesSerialEngine) {
  const auto f = make_fixture(14, 5, 911);
  EngineConfig engine;
  engine.hits = 5;
  const GreedyResult serial =
      run_greedy(f.data.tumor, f.data.normal, engine, make_serial_evaluator(5));
  SummitConfig config;
  config.nodes = 2;
  DistributedOptions options;
  options.hits = 5;
  const auto result = ClusterRunner(config).run(f.data, options);
  ASSERT_EQ(result.greedy.iterations.size(), serial.iterations.size());
  for (std::size_t i = 0; i < serial.iterations.size(); ++i) {
    EXPECT_EQ(result.greedy.iterations[i].genes, serial.iterations[i].genes);
  }
}

TEST(ClusterModel25, FiveHitAtScaleIsModellable) {
  // §V: each extra hit costs ~G/h more work; 5-hit at paper scale must be
  // priceable by the analytic model without enumeration.
  SummitConfig config;
  config.nodes = 1000;
  ModelInputs inputs;
  inputs.hits = 5;
  inputs.genes = 15000;  // C(15000,5) ~ 6.3e18 still fits u64
  inputs.first_iteration_only = true;
  const auto run = model_cluster_run(config, inputs);
  EXPECT_GT(run.total_time, 0.0);
  // 4-hit at the same G for comparison: 5-hit is ~(G-4)/5 ~ 3000x slower.
  ModelInputs four = inputs;
  four.hits = 4;
  const auto run4 = model_cluster_run(config, four);
  EXPECT_GT(run.total_time / run4.total_time, 500.0);
}

}  // namespace
}  // namespace multihit
