#pragma once
// The paper's four parallelization schemes (§III-A) as range kernels.
//
// A sequential 4-hit scan is four nested loops over i < j < k < l. Flattening
// the outer 1, 2, 3, or 4 loops into a single linear thread id λ yields:
//
//   1x3:  G       threads, thread = i,         inner work C(G-1-i, 3)
//   2x2:  C(G,2)  threads, thread = (i,j),     inner work C(G-1-j, 2)
//   3x1:  C(G,3)  threads, thread = (i,j,k),   inner work G-1-k
//   4x1:  C(G,4)  threads, thread = (i,j,k,l), inner work 1
//
// The paper implements 2x2 and then 3x1 (the winner: enough threads to
// saturate 6000 GPUs, with per-thread workload spread reduced from O(G²) to
// O(G)). All four are implemented here so the scheduler and the ablation
// benches can compare them.
//
// `evaluate_range_*` is the maxF kernel body: it scans threads
// λ ∈ [begin, end) of a scheme, computing F for every combination each
// thread owns on *both* matrices (TP from tumor, TN from normal), and
// returns the best EvalResult. Memory optimizations (§III-D) are selectable
// so their effect can be measured and modeled.

#include <cstdint>

#include "bitmat/bitmatrix.hpp"
#include "core/arena.hpp"
#include "core/fscore.hpp"
#include "core/result.hpp"

namespace multihit {

enum class Scheme4 { k1x3, k2x2, k3x1, k4x1 };
enum class Scheme3 { k1x2, k2x1, k3x1 };

/// 2-hit (the original Dash et al. 2019 problem) and 5-hit (the paper's §V
/// next step: each extra hit costs another ~4e5x of compute) schemes,
/// following the same flattening taxonomy.
enum class Scheme2 { k1x1, k2x1 };  ///< thread per i / thread per pair
enum class Scheme5 { k3x2, k4x1 };  ///< thread per triple / per quadruple

/// Human-readable scheme names ("2x2", ...).
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

/// Total thread count of a scheme for G genes. The 5-hit space C(G,5)
/// overflows u64 at G > 18580; scheme5_threads aborts beyond that (use
/// binomial128 to size paper-scale 5-hit spaces).
std::uint64_t scheme4_threads(Scheme4 scheme, std::uint32_t genes) noexcept;
std::uint64_t scheme3_threads(Scheme3 scheme, std::uint32_t genes) noexcept;
std::uint64_t scheme2_threads(Scheme2 scheme, std::uint32_t genes) noexcept;
std::uint64_t scheme5_threads(Scheme5 scheme, std::uint32_t genes) noexcept;

/// Combinations processed by thread λ (the per-thread workload the
/// schedulers balance). λ must be < scheme*_threads().
std::uint64_t scheme4_thread_work(Scheme4 scheme, std::uint32_t genes,
                                  std::uint64_t lambda) noexcept;
std::uint64_t scheme3_thread_work(Scheme3 scheme, std::uint32_t genes,
                                  std::uint64_t lambda) noexcept;
std::uint64_t scheme2_thread_work(Scheme2 scheme, std::uint32_t genes,
                                  std::uint64_t lambda) noexcept;
std::uint64_t scheme5_thread_work(Scheme5 scheme, std::uint32_t genes,
                                  std::uint64_t lambda) noexcept;

/// 4-hit maxF kernel over threads [begin, end) of `scheme`. Both matrices
/// must have identical gene counts. `stats`, when non-null, accumulates the
/// operation/traffic counts used by the GPU performance model. `arena`,
/// when non-null, supplies the prefetch scratch (bump-allocated; the caller
/// owns the reset cadence) instead of a per-call heap allocation.
///
/// Every kernel returns merge_results(incumbent, best over [begin, end)).
/// The staged (MemOpt2) schemes skip a staged prefix whose tumor popcount
/// t gives f_score(ctx, t, 0) < the best so far: no extension can win, so
/// the result is unchanged. A strong incumbent (the host sweep's pilot)
/// lets the bound bite from the first prefix. `stats` stays the analytic
/// count: skipped prefixes still add their combinations and traffic.
EvalResult evaluate_range_4hit(const BitMatrix& tumor, const BitMatrix& normal,
                               const FContext& ctx, Scheme4 scheme, std::uint64_t begin,
                               std::uint64_t end, const MemOpts& opts = {},
                               KernelStats* stats = nullptr, Arena* arena = nullptr,
                               const EvalResult& incumbent = {});

/// 3-hit maxF kernel over threads [begin, end) of `scheme`.
EvalResult evaluate_range_3hit(const BitMatrix& tumor, const BitMatrix& normal,
                               const FContext& ctx, Scheme3 scheme, std::uint64_t begin,
                               std::uint64_t end, const MemOpts& opts = {},
                               KernelStats* stats = nullptr, Arena* arena = nullptr,
                               const EvalResult& incumbent = {});

/// 2-hit maxF kernel. MemOpt2 has no second fixed row to fold at this hit
/// count; prefetch_j is accepted and behaves like prefetch_i.
EvalResult evaluate_range_2hit(const BitMatrix& tumor, const BitMatrix& normal,
                               const FContext& ctx, Scheme2 scheme, std::uint64_t begin,
                               std::uint64_t end, const MemOpts& opts = {},
                               KernelStats* stats = nullptr, Arena* arena = nullptr,
                               const EvalResult& incumbent = {});

/// 5-hit maxF kernel. Requires C(genes,5) to fit u64 (genes <= 18580).
EvalResult evaluate_range_5hit(const BitMatrix& tumor, const BitMatrix& normal,
                               const FContext& ctx, Scheme5 scheme, std::uint64_t begin,
                               std::uint64_t end, const MemOpts& opts = {},
                               KernelStats* stats = nullptr, Arena* arena = nullptr,
                               const EvalResult& incumbent = {});

}  // namespace multihit
