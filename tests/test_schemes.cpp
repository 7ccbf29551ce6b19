#include "core/schemes.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <stdexcept>
#include <ostream>
#include <string>
#include <utility>
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

// --- independent differential ----------------------------------------------
//
// Every shape under MemOpt off, MemOpt1 (prefetch_i) and MemOpt2 is pinned,
// per λ chunk and per thread, against a brute force local to this file: it
// steps through every h-combination from unrank_combination(0, h) with
// next_combination_colex, scores each with intersect_count, ranks it with
// rank_combination, and files it under the colex rank of its p-gene prefix
// (the thread that owns it). It shares no enumeration code with the kernel.

struct ShapeCase {
  SchemeShape shape;
  std::uint32_t genes;
};

void PrintTo(const ShapeCase& c, std::ostream* os) {
  *os << c.shape.hits << "-hit " << scheme_name(c.shape) << " at G=" << c.genes;
}

std::string shape_label(const ShapeCase& c) {
  return "h" + std::to_string(c.shape.hits) + "_" + scheme_name(c.shape);
}

// The best combination of every thread λ, by brute force.
std::vector<EvalResult> brute_force_per_thread(const Dataset& d, const FContext& ctx,
                                               SchemeShape shape) {
  std::vector<EvalResult> best(scheme_threads(shape, d.tumor.genes()));
  std::vector<std::uint32_t> combo = unrank_combination(0, shape.hits);
  do {
    const u64 tp = d.tumor.intersect_count(combo);
    const u64 nh = d.normal.intersect_count(combo);
    EvalResult r;
    r.valid = true;
    r.f = f_score(ctx, tp, nh);
    r.combo_rank = rank_combination(combo);
    r.tp = tp;
    r.tn = ctx.normal_total - nh;
    const u64 owner = rank_combination(std::span(combo).first(shape.prefix));
    best.at(owner) = merge_results(best.at(owner), r);
  } while (next_combination_colex(combo, d.tumor.genes()));
  return best;
}

EvalResult reference(const std::vector<EvalResult>& per_thread, u64 begin, u64 end) {
  EvalResult best;
  for (u64 lambda = begin; lambda < end; ++lambda) best = merge_results(best, per_thread[lambda]);
  return best;
}

void expect_same_winner(const EvalResult& got, const EvalResult& want, const std::string& label) {
  ASSERT_EQ(got.valid, want.valid) << label;
  EXPECT_EQ(got.combo_rank, want.combo_rank) << label;
  EXPECT_EQ(got.f, want.f) << label;
  EXPECT_EQ(got.tp, want.tp) << label;
  EXPECT_EQ(got.tn, want.tn) << label;
}

void expect_stats_eq(const KernelStats& got, const KernelStats& want, const std::string& label) {
  EXPECT_EQ(got.combinations, want.combinations) << label;
  EXPECT_EQ(got.word_ops, want.word_ops) << label;
  EXPECT_EQ(got.global_words, want.global_words) << label;
  EXPECT_EQ(got.local_words, want.local_words) << label;
}

// Every tumor sample carries every gene and no normal sample carries any, so
// all combinations tie on F and only the rank decides.
Dataset all_tied(std::uint32_t genes, std::uint32_t tumor_samples, std::uint32_t normal_samples) {
  Dataset d;
  d.tumor = BitMatrix(genes, tumor_samples);
  d.normal = BitMatrix(genes, normal_samples);
  for (std::uint32_t g = 0; g < genes; ++g) {
    for (std::uint32_t s = 0; s < tumor_samples; ++s) d.tumor.set(g, s);
  }
  return d;
}

// Trial inputs: a sparse and a dense planted matrix (row widths spread over
// 1..5 words; the sparse one leaves many equal-F combinations), the all-tied
// matrix, and an all-zero matrix where every combination scores F(0, 0).
Dataset trial_input(const ShapeCase& c, int trial, Rng& rng, FContext* ctx) {
  if (trial >= 2) {
    Dataset d = all_tied(c.genes, 70, 50);
    if (trial == 3) d.tumor = BitMatrix(c.genes, 70);
    *ctx = FContext{FParams{}, 70, 50};
    return d;
  }
  SyntheticSpec spec;
  spec.genes = c.genes;
  spec.tumor_samples = 20 + static_cast<std::uint32_t>(rng.uniform(300));
  spec.normal_samples = 20 + static_cast<std::uint32_t>(rng.uniform(200));
  spec.hits = c.shape.hits;
  spec.num_combinations = 2;
  spec.background_rate = trial == 0 ? 0.01 : 0.25;
  spec.seed = rng();
  *ctx = FContext{FParams{}, spec.tumor_samples, spec.normal_samples};
  return generate_dataset(spec);
}

const MemOpts kOptSettings[] = {MemOpts{}, MemOpts{.prefetch_i = true},
                                MemOpts{.prefetch_i = true, .prefetch_j = true}};

std::string opt_label(const MemOpts& opts) {
  return opts.prefetch_j ? " memopt2" : opts.prefetch_i ? " memopt1" : " memopt-off";
}

std::vector<u64> random_cuts(u64 total, Rng& rng) {
  std::vector<u64> cuts = {0, total};
  for (int c = 0; c < 6; ++c) cuts.push_back(rng.uniform(total + 1));
  std::sort(cuts.begin(), cuts.end());
  return cuts;
}

class StagedScanDifferential : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(StagedScanDifferential, ChunkedRangesMatchBruteForceAndAnalytic) {
  const ShapeCase c = GetParam();
  const SchemeShape shape = c.shape;
  Rng rng(9000 + 10 * shape.hits + shape.prefix);
  for (int trial = 0; trial < 4; ++trial) {
    FContext ctx;
    const Dataset d = trial_input(c, trial, rng, &ctx);
    const std::string label = shape_label(c) + " trial=" + std::to_string(trial);
    const u64 total = scheme_threads(shape, c.genes);
    const std::vector<EvalResult> per_thread = brute_force_per_thread(d, ctx, shape);
    const EvalResult serial = serial_find_best(d.tumor, d.normal, ctx, shape.hits);
    expect_same_winner(reference(per_thread, 0, total), serial, label + " brute force");

    const std::vector<u64> cuts = random_cuts(total, rng);
    for (const MemOpts& opts : kOptSettings) {
      const KernelStats analytic = analytic_stats(shape, c.genes, 0, total, opts,
                                                  d.tumor.words_per_row(),
                                                  d.normal.words_per_row());
      for (const bool use_arena : {false, true}) {
        Arena arena;
        EvalResult merged;
        KernelStats stats;
        const std::string where = label + opt_label(opts) + (use_arena ? " arena" : " heap");
        for (std::size_t k = 0; k + 1 < cuts.size(); ++k) {
          arena.reset();
          const EvalResult got = evaluate_range(d.tumor, d.normal, ctx, shape, cuts[k],
                                                cuts[k + 1], opts, &stats,
                                                use_arena ? &arena : nullptr);
          expect_same_winner(got, reference(per_thread, cuts[k], cuts[k + 1]),
                             where + " chunk=" + std::to_string(k));
          merged = merge_results(merged, got);
        }
        expect_same_winner(merged, serial, where);
        expect_stats_eq(stats, analytic, where);
      }
      // Thread by thread: a scan that drops or shifts a row shows up in some
      // thread's winner even when the global winner lies elsewhere.
      for (u64 lambda = 0; lambda < total; ++lambda) {
        expect_same_winner(
            evaluate_range(d.tumor, d.normal, ctx, shape, lambda, lambda + 1, opts),
            per_thread[lambda], label + opt_label(opts) + " lambda=" + std::to_string(lambda));
        if (HasFailure()) return;
      }
    }
    if (HasFailure()) return;
  }
}

const ShapeCase kAllShapes[] = {
    {{2, 1}, 40}, {{2, 2}, 40}, {{3, 1}, 26}, {{3, 2}, 26}, {{3, 3}, 26}, {{4, 1}, 18},
    {{4, 2}, 18}, {{4, 3}, 18}, {{4, 4}, 18}, {{5, 3}, 14}, {{5, 4}, 14}};

INSTANTIATE_TEST_SUITE_P(AllShapes, StagedScanDifferential, ::testing::ValuesIn(kAllShapes),
                         [](const auto& info) { return shape_label(info.param); });

// --- incumbent differential --------------------------------------------------
// Every kernel returns merge_results(incumbent, best over its range), and the
// prefix bound must never change that: each chunk's result is pinned against
// the brute-force best merged with the incumbent, for incumbents that prune
// nothing, some, or everything, and KernelStats stay the analytic count
// however much is skipped.

// The combination of colex rank `rank`, scored as the serial reference does.
EvalResult scored(const Dataset& d, const FContext& ctx, std::uint32_t hits, u64 rank) {
  const std::vector<std::uint32_t> combo = unrank_combination(rank, hits);
  const u64 tp = d.tumor.intersect_count(combo);
  const u64 nh = d.normal.intersect_count(combo);
  EvalResult r;
  r.valid = true;
  r.f = f_score(ctx, tp, nh);
  r.combo_rank = rank;
  r.tp = tp;
  r.tn = ctx.normal_total - nh;
  return r;
}

class IncumbentDifferential : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(IncumbentDifferential, ResultIsIncumbentMergedWithUnprunedBest) {
  const ShapeCase c = GetParam();
  const SchemeShape shape = c.shape;
  Rng rng(9500 + 10 * shape.hits + shape.prefix);
  for (int trial = 0; trial < 4; ++trial) {
    FContext ctx;
    const Dataset d = trial_input(c, trial, rng, &ctx);
    const std::string label = shape_label(c) + " trial=" + std::to_string(trial);

    const u64 total = scheme_threads(shape, c.genes);
    const u64 combos = binomial(c.genes, shape.hits);
    const std::vector<EvalResult> per_thread = brute_force_per_thread(d, ctx, shape);
    const EvalResult serial = serial_find_best(d.tumor, d.normal, ctx, shape.hits);
    ASSERT_TRUE(serial.valid) << label;
    // A combination tying the best F at a higher rank: real on the all-tied
    // and all-zero matrices (the last combination), fabricated elsewhere.
    EvalResult tie = trial >= 2 ? scored(d, ctx, shape.hits, combos - 1) : serial;
    if (trial < 2) tie.combo_rank = serial.combo_rank + 1;
    ASSERT_EQ(tie.f, serial.f) << label;
    EvalResult above = serial;  // F never exceeds 1
    above.f = 2.0;
    above.combo_rank = combos - 1;
    const std::vector<std::pair<const char*, EvalResult>> incumbents = {
        {"invalid", EvalResult{}},
        {"mid-ranked", scored(d, ctx, shape.hits, combos / 2)},
        {"serial best", serial},
        {"tie at higher rank", tie},
        {"above every F", above}};

    const std::vector<u64> cuts = random_cuts(total, rng);
    for (const MemOpts& opts : kOptSettings) {
      const KernelStats analytic = analytic_stats(shape, c.genes, 0, total, opts,
                                                  d.tumor.words_per_row(),
                                                  d.normal.words_per_row());
      for (const auto& [name, incumbent] : incumbents) {
        for (const bool use_arena : {false, true}) {
          const std::string where = label + " incumbent=" + name + opt_label(opts) +
                                    (use_arena ? " arena" : " heap");
          Arena arena;
          EvalResult merged;
          KernelStats stats;
          for (std::size_t k = 0; k + 1 < cuts.size(); ++k) {
            arena.reset();
            const EvalResult got =
                evaluate_range(d.tumor, d.normal, ctx, shape, cuts[k], cuts[k + 1], opts, &stats,
                               use_arena ? &arena : nullptr, incumbent);
            expect_same_winner(
                got, merge_results(incumbent, reference(per_thread, cuts[k], cuts[k + 1])),
                where + " chunk=" + std::to_string(k));
            merged = merge_results(merged, got);
          }
          expect_same_winner(merged, merge_results(incumbent, serial), where);
          expect_stats_eq(stats, analytic, where);
          if (HasFailure()) return;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, IncumbentDifferential, ::testing::ValuesIn(kAllShapes),
                         [](const auto& info) { return shape_label(info.param); });

TEST(Schemes, ShapesNameTheirSchemes) {
  EXPECT_EQ(shape_of(Scheme4::k1x3), (SchemeShape{4, 1}));
  EXPECT_EQ(shape_of(Scheme4::k4x1), (SchemeShape{4, 4}));
  EXPECT_EQ(shape_of(Scheme3::k2x1), (SchemeShape{3, 2}));
  EXPECT_EQ(shape_of(Scheme2::k1x1), (SchemeShape{2, 1}));
  EXPECT_EQ(shape_of(Scheme5::k3x2), (SchemeShape{5, 3}));
  EXPECT_EQ(shape_of(Scheme5::k4x1), (SchemeShape{5, 4}));
  for (const ShapeCase& c : kAllShapes) {
    EXPECT_EQ(select_shape(c.shape.hits, Scheme2::k1x1, Scheme3::k2x1, Scheme4::k3x1,
                           Scheme5::k4x1),
              innermost_shape(c.shape.hits));
  }
  EXPECT_STREQ(scheme_name(SchemeShape{4, 4}), "4x1");
  EXPECT_STREQ(scheme_name(SchemeShape{5, 3}), "3x2");
  EXPECT_THROW(select_shape(6, Scheme2::k1x1, Scheme3::k2x1, Scheme4::k3x1, Scheme5::k4x1),
               std::invalid_argument);
}

TEST(Schemes, NamesAreStable) {
  EXPECT_STREQ(scheme_name(Scheme4::k2x2), "2x2");
  EXPECT_STREQ(scheme_name(Scheme4::k3x1), "3x1");
  EXPECT_STREQ(scheme_name(Scheme3::k2x1), "2x1");
}

}  // namespace
}  // namespace multihit
