// Kernel microbenchmarks (google-benchmark): measured throughput of the
// bit-matrix primitives and enumeration kernels that everything else is
// built on. These are the numbers the performance model's word_op_rate is
// sanity-checked against, and they demonstrate the paper's claim that the
// compressed binary representation turns F-evaluation into a handful of
// AND+popcount word operations per combination.

#include <benchmark/benchmark.h>

#include "bitmat/bitops.hpp"
#include "combinat/linearize.hpp"
#include "core/schemes.hpp"
#include "core/serial.hpp"
#include "data/generator.hpp"
#include "util/rng.hpp"

namespace {

using namespace multihit;

Dataset kernel_dataset(std::uint32_t genes) {
  SyntheticSpec spec;
  spec.genes = genes;
  spec.tumor_samples = 911;
  spec.normal_samples = 520;
  spec.hits = 3;
  spec.num_combinations = 4;
  spec.background_rate = 0.02;
  spec.seed = 7;
  return generate_dataset(spec);
}

void BM_AndPopcount2(benchmark::State& state) {
  Rng rng(1);
  const std::size_t words = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint64_t> a(words), b(words);
  for (auto& w : a) w = rng();
  for (auto& w : b) w = rng();
  for (auto _ : state) {
    benchmark::DoNotOptimize(and_popcount(a, b));
  }
  state.SetItemsProcessed(state.iterations() * words);
}
BENCHMARK(BM_AndPopcount2)->Arg(8)->Arg(64)->Arg(512);

void BM_AndPopcount4(benchmark::State& state) {
  Rng rng(2);
  const std::size_t words = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint64_t> a(words), b(words), c(words), d(words);
  for (auto* row : {&a, &b, &c, &d}) {
    for (auto& w : *row) w = rng();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(and_popcount(a, b, c, d));
  }
  state.SetItemsProcessed(state.iterations() * words);
}
BENCHMARK(BM_AndPopcount4)->Arg(8)->Arg(64)->Arg(512);

// The staged inner loop over one block of rows, batched versus per row, at
// the cover4_brca row widths: 2 words (BitSpliced tumor tail), 9 (normal)
// and 15 (tumor head). 97 rows is the l-range of the (0, 1, 2) prefix at
// G=100; items are rows scored, so the two cases report comparable rates.
constexpr std::size_t kBlockRows = 97;

std::vector<std::uint64_t> random_words(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint64_t> out(n);
  for (auto& w : out) w = rng();
  return out;
}

void BM_AndPopcountRows(benchmark::State& state) {
  const std::size_t words = static_cast<std::size_t>(state.range(0));
  const auto pre = random_words(words, 5);
  const auto rows = random_words(words * kBlockRows, 6);
  std::vector<std::uint32_t> counts(kBlockRows);
  for (auto _ : state) {
    and_popcount_rows(pre, rows, counts);
    benchmark::DoNotOptimize(counts.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kBlockRows);
}
BENCHMARK(BM_AndPopcountRows)->Arg(2)->Arg(9)->Arg(15);

void BM_AndPopcountPerRow(benchmark::State& state) {
  const std::size_t words = static_cast<std::size_t>(state.range(0));
  const auto pre = random_words(words, 5);
  const auto rows = random_words(words * kBlockRows, 6);
  std::vector<std::uint32_t> counts(kBlockRows);
  const std::span<const std::uint64_t> block(rows);
  for (auto _ : state) {
    for (std::size_t r = 0; r < kBlockRows; ++r) {
      counts[r] = static_cast<std::uint32_t>(and_popcount(pre, block.subspan(r * words, words)));
    }
    benchmark::DoNotOptimize(counts.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kBlockRows);
}
BENCHMARK(BM_AndPopcountPerRow)->Arg(2)->Arg(9)->Arg(15);

void BM_UnrankTriple(benchmark::State& state) {
  Rng rng(3);
  std::uint64_t lambda = 0;
  for (auto _ : state) {
    lambda = rng.uniform(tetrahedral(19411));
    benchmark::DoNotOptimize(unrank_triple(lambda));
  }
}
BENCHMARK(BM_UnrankTriple);

void BM_UnrankTripleLogExp(benchmark::State& state) {
  Rng rng(4);
  std::uint64_t lambda = 0;
  for (auto _ : state) {
    lambda = rng.uniform(tetrahedral(19411));
    benchmark::DoNotOptimize(unrank_triple_logexp(lambda));
  }
}
BENCHMARK(BM_UnrankTripleLogExp);

void BM_Kernel3x1_4hit(benchmark::State& state) {
  const Dataset data = kernel_dataset(static_cast<std::uint32_t>(state.range(0)));
  const FContext ctx{FParams{}, data.tumor_samples(), data.normal_samples()};
  const u64 total = scheme4_threads(Scheme4::k3x1, data.genes());
  std::uint64_t combos = 0;
  for (auto _ : state) {
    KernelStats stats;
    benchmark::DoNotOptimize(evaluate_range_4hit(
        data.tumor, data.normal, ctx, Scheme4::k3x1, 0, total,
        MemOpts{.prefetch_i = true, .prefetch_j = true}, &stats));
    combos = stats.combinations;
  }
  state.SetItemsProcessed(state.iterations() * combos);
  state.counters["combinations"] = static_cast<double>(combos);
}
BENCHMARK(BM_Kernel3x1_4hit)->Arg(40)->Arg(60)->Unit(benchmark::kMillisecond);

void BM_Kernel2x1_3hit(benchmark::State& state) {
  const Dataset data = kernel_dataset(static_cast<std::uint32_t>(state.range(0)));
  const FContext ctx{FParams{}, data.tumor_samples(), data.normal_samples()};
  const u64 total = scheme3_threads(Scheme3::k2x1, data.genes());
  std::uint64_t combos = 0;
  for (auto _ : state) {
    KernelStats stats;
    benchmark::DoNotOptimize(evaluate_range_3hit(
        data.tumor, data.normal, ctx, Scheme3::k2x1, 0, total,
        MemOpts{.prefetch_i = true, .prefetch_j = true}, &stats));
    combos = stats.combinations;
  }
  state.SetItemsProcessed(state.iterations() * combos);
}
BENCHMARK(BM_Kernel2x1_3hit)->Arg(60)->Arg(110)->Unit(benchmark::kMillisecond);

void BM_SerialReference_3hit(benchmark::State& state) {
  const Dataset data = kernel_dataset(60);
  const FContext ctx{FParams{}, data.tumor_samples(), data.normal_samples()};
  for (auto _ : state) {
    benchmark::DoNotOptimize(serial_find_best(data.tumor, data.normal, ctx, 3));
  }
}
BENCHMARK(BM_SerialReference_3hit)->Unit(benchmark::kMillisecond);

void BM_BitSplice(benchmark::State& state) {
  const Dataset data = kernel_dataset(200);
  Rng rng(5);
  std::vector<std::uint64_t> covered(data.tumor.words_per_row());
  for (auto& w : covered) w = rng() & rng();  // ~25% of samples covered
  for (auto _ : state) {
    state.PauseTiming();
    BitMatrix copy = data.tumor;
    state.ResumeTiming();
    benchmark::DoNotOptimize(copy.splice_covered(covered));
  }
}
BENCHMARK(BM_BitSplice)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
