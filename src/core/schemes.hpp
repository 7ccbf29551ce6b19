#pragma once
// The paper's parallelization schemes (§III-A) as one range kernel.
//
// A sequential h-hit scan is h nested loops over c_0 < c_1 < ... < c_{h-1}.
// Flattening the outer p loops into one linear thread id λ (the colex rank
// of the prefix c_0..c_{p-1}) leaves each thread the inner h-p loops. A
// scheme is that shape {hits, prefix}; at h = 4:
//
//   1x3 {4,1}:  G       threads, thread = i,         inner work C(G-1-i, 3)
//   2x2 {4,2}:  C(G,2)  threads, thread = (i,j),     inner work C(G-1-j, 2)
//   3x1 {4,3}:  C(G,3)  threads, thread = (i,j,k),   inner work G-1-k
//   4x1 {4,4}:  C(G,4)  threads, thread = (i,j,k,l), inner work 1
//
// The paper implements 2x2 and then 3x1 (the winner: enough threads to
// saturate 6000 GPUs, with per-thread workload spread reduced from O(G²) to
// O(G)). Every shape for h = 2..5 that the scheduler and the ablation
// benches compare runs through the same kernel.
//
// `evaluate_range` is the maxF kernel body: it scans threads λ ∈ [begin,
// end) of a shape, computing F for every combination each thread owns on
// *both* matrices (TP from tumor, TN from normal), and returns the best
// EvalResult. Memory optimizations (§III-D) are selectable so their effect
// can be measured and modeled.

#include <cstdint>

#include "bitmat/bitmatrix.hpp"
#include "combinat/binomial.hpp"
#include "core/arena.hpp"
#include "core/fscore.hpp"
#include "core/result.hpp"

namespace multihit {

/// A scheme: `hits` genes per combination, of which the outer `prefix` are
/// fixed per thread (the flattened loops).
struct SchemeShape {
  std::uint32_t hits = 4;
  std::uint32_t prefix = 3;
  friend bool operator==(const SchemeShape&, const SchemeShape&) = default;
};

enum class Scheme4 { k1x3, k2x2, k3x1, k4x1 };
enum class Scheme3 { k1x2, k2x1, k3x1 };

/// 2-hit (the original Dash et al. 2019 problem) and 5-hit (the paper's §V
/// next step: each extra hit costs another ~4e5x of compute) schemes,
/// following the same flattening taxonomy.
enum class Scheme2 { k1x1, k2x1 };  ///< thread per i / thread per pair
enum class Scheme5 { k3x2, k4x1 };  ///< thread per triple / per quadruple

/// Each enum lists its schemes by prefix length.
constexpr SchemeShape shape_of(Scheme2 s) noexcept {
  return {2, static_cast<std::uint32_t>(s) + 1};
}
constexpr SchemeShape shape_of(Scheme3 s) noexcept {
  return {3, static_cast<std::uint32_t>(s) + 1};
}
constexpr SchemeShape shape_of(Scheme4 s) noexcept {
  return {4, static_cast<std::uint32_t>(s) + 1};
}
constexpr SchemeShape shape_of(Scheme5 s) noexcept {
  return {5, static_cast<std::uint32_t>(s) + 3};
}

/// The shape that flattens every loop but the innermost (2 -> 1x1, 3 -> 2x1,
/// 4 -> 3x1, 5 -> 4x1): the paper's winners, run by make_kernel_evaluator.
constexpr SchemeShape innermost_shape(std::uint32_t hits) noexcept { return {hits, hits - 1}; }

/// The shape a per-hit-count option set selects for `hits`. Throws
/// std::invalid_argument unless hits is in [2, 5].
SchemeShape select_shape(std::uint32_t hits, Scheme2 scheme2, Scheme3 scheme3, Scheme4 scheme4,
                         Scheme5 scheme5);

/// Throws std::invalid_argument naming G and h unless C(genes, hits) fits
/// u64: beyond that the colex ranks that identify combinations would wrap
/// (h = 5 first does so at G = 18581).
void require_u64_ranks(std::uint32_t genes, std::uint32_t hits);

/// Human-readable scheme names ("2x2", ...).
const char* scheme_name(SchemeShape shape) noexcept;
const char* scheme_name(Scheme4 scheme) noexcept;
const char* scheme_name(Scheme3 scheme) noexcept;
const char* scheme_name(Scheme2 scheme) noexcept;
const char* scheme_name(Scheme5 scheme) noexcept;

/// §III-D memory optimizations. BitSplicing is engine-level (it mutates the
/// matrix between greedy iterations) and therefore lives in EngineConfig.
struct MemOpts {
  bool prefetch_i = false;  ///< MemOpt1: stage gene-i rows in local memory
  bool prefetch_j = false;  ///< MemOpt2: stage gene-j rows (and fold the
                            ///< fixed-row ANDs) in local memory
};

/// The cost of one thread whose largest prefix gene is `top`: the only
/// source of KernelStats (the kernel adds it per λ, analytic_stats per
/// level), of per-thread work (`combinations`) and of the scheduler's level
/// table. With m = G-1-top genes above the prefix and r = h-p inner levels
/// the thread owns C = C(m, r) combinations; with W = `row_words` (tumor
/// plus normal words per row) and S = Σ_{d=1}^{r-1} C(m-r+d, d) staged
/// middle nodes it counts:
///
///   case           word_ops         global_words      local_words
///   r = 0          (h-1)·W          h·W               0
///   MemOpt2        (p-1+S+C)·W      (p+S+C)·W         C·W
///   MemOpt1 only   (h-1)·C·W        (1+(h-1)·C)·W     C·W
///   off            (h-1)·C·W        h·C·W             0
///
/// A thread with no combination costs nothing.
constexpr KernelStats thread_cost(SchemeShape shape, std::uint32_t genes, std::uint32_t top,
                                  std::uint64_t row_words, const MemOpts& opts) noexcept {
  const std::uint64_t h = shape.hits;
  const std::uint64_t p = shape.prefix;
  const std::uint64_t r = h - p;
  const std::uint64_t w = row_words;
  if (r == 0) return {1, (h - 1) * w, h * w, 0};
  const std::uint64_t m = genes - 1 - top;
  const std::uint64_t c = small_binomial(m, static_cast<unsigned>(r));
  if (c == 0) return {};
  if (opts.prefetch_j) {
    std::uint64_t staged = 0;
    for (std::uint64_t d = 1; d < r; ++d) {
      staged += small_binomial(m - r + d, static_cast<unsigned>(d));
    }
    return {c, (p - 1 + staged + c) * w, (p + staged + c) * w, c * w};
  }
  const std::uint64_t reads = (h - 1) * c;
  if (opts.prefetch_i) return {c, reads * w, (1 + reads) * w, c * w};
  return {c, reads * w, (reads + c) * w, 0};
}

/// Total thread count of a shape for G genes: C(G, prefix). This does not
/// check the combination space: C(G,5) overflows u64 at G > 18580 while the
/// 5-hit thread spaces still fit, which is why Engine and the host sweep
/// call require_u64_ranks.
std::uint64_t scheme_threads(SchemeShape shape, std::uint32_t genes) noexcept;
std::uint64_t scheme4_threads(Scheme4 scheme, std::uint32_t genes) noexcept;
std::uint64_t scheme3_threads(Scheme3 scheme, std::uint32_t genes) noexcept;
std::uint64_t scheme2_threads(Scheme2 scheme, std::uint32_t genes) noexcept;
std::uint64_t scheme5_threads(Scheme5 scheme, std::uint32_t genes) noexcept;

/// Combinations processed by thread λ (the per-thread workload the
/// schedulers balance). λ must be < scheme_threads().
std::uint64_t scheme_thread_work(SchemeShape shape, std::uint32_t genes,
                                 std::uint64_t lambda) noexcept;
std::uint64_t scheme4_thread_work(Scheme4 scheme, std::uint32_t genes,
                                  std::uint64_t lambda) noexcept;
std::uint64_t scheme3_thread_work(Scheme3 scheme, std::uint32_t genes,
                                  std::uint64_t lambda) noexcept;
std::uint64_t scheme2_thread_work(Scheme2 scheme, std::uint32_t genes,
                                  std::uint64_t lambda) noexcept;
std::uint64_t scheme5_thread_work(Scheme5 scheme, std::uint32_t genes,
                                  std::uint64_t lambda) noexcept;

/// maxF kernel over threads [begin, end) of `shape` (hits in [2, 5], prefix
/// in [1, hits], and C(genes, hits) must fit u64). Both matrices must have
/// identical gene counts. `stats`, when non-null, accumulates thread_cost()
/// per thread. `arena`, when non-null, supplies the staging scratch
/// (bump-allocated; the caller owns the reset cadence) instead of a per-call
/// heap allocation.
///
/// Returns merge_results(incumbent, best over [begin, end)). Under MemOpt2
/// every staged prefix whose tumor popcount t gives f_score(ctx, t, 0) < the
/// best so far is skipped: no extension can win, so the result is
/// unchanged. A strong incumbent (the host sweep's pilot) lets the bound
/// bite from the first prefix. `stats` stays the analytic count: skipped
/// prefixes still add their combinations and traffic.
EvalResult evaluate_range(const BitMatrix& tumor, const BitMatrix& normal, const FContext& ctx,
                          SchemeShape shape, std::uint64_t begin, std::uint64_t end,
                          const MemOpts& opts = {}, KernelStats* stats = nullptr,
                          Arena* arena = nullptr, const EvalResult& incumbent = {});

/// evaluate_range over the shape of a per-hit-count scheme enum.
EvalResult evaluate_range_4hit(const BitMatrix& tumor, const BitMatrix& normal,
                               const FContext& ctx, Scheme4 scheme, std::uint64_t begin,
                               std::uint64_t end, const MemOpts& opts = {},
                               KernelStats* stats = nullptr, Arena* arena = nullptr,
                               const EvalResult& incumbent = {});
EvalResult evaluate_range_3hit(const BitMatrix& tumor, const BitMatrix& normal,
                               const FContext& ctx, Scheme3 scheme, std::uint64_t begin,
                               std::uint64_t end, const MemOpts& opts = {},
                               KernelStats* stats = nullptr, Arena* arena = nullptr,
                               const EvalResult& incumbent = {});
EvalResult evaluate_range_2hit(const BitMatrix& tumor, const BitMatrix& normal,
                               const FContext& ctx, Scheme2 scheme, std::uint64_t begin,
                               std::uint64_t end, const MemOpts& opts = {},
                               KernelStats* stats = nullptr, Arena* arena = nullptr,
                               const EvalResult& incumbent = {});
EvalResult evaluate_range_5hit(const BitMatrix& tumor, const BitMatrix& normal,
                               const FContext& ctx, Scheme5 scheme, std::uint64_t begin,
                               std::uint64_t end, const MemOpts& opts = {},
                               KernelStats* stats = nullptr, Arena* arena = nullptr,
                               const EvalResult& incumbent = {});

}  // namespace multihit
