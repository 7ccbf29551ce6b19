#include "core/schemes.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <new>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "combinat/linearize.hpp"
#include "combinat/unrank.hpp"

namespace multihit {

namespace {

// Best-so-far tracker. F values are computed by the identical expression on
// every path, so exact == comparison on doubles is sound here, and the
// (F desc, rank asc) order makes every execution return the same winner.
// Starting from an incumbent makes result() merge_results(incumbent, best of
// the combinations considered).
class BestTracker {
 public:
  explicit BestTracker(const FContext& ctx, const EvalResult& incumbent = {})
      : ctx_(ctx), best_(incumbent) {}

  // The prefix bound: false when no combination with at most `tp_max` tumor
  // hits can beat the current best. f_score rises with tp and falls with
  // normal hits under IEEE rounding too, so f_score(tp_max, 0) bounds every
  // such combination from above. The test stays strict: an extension that
  // ties best.f may still win on a lower rank.
  bool can_improve(std::uint64_t tp_max) const noexcept {
    return !best_.valid || !(f_score(ctx_, tp_max, 0) < best_.f);
  }

  template <typename RankFn>
  void consider(std::uint64_t tp, std::uint64_t normal_hits, RankFn&& rank) noexcept {
    const double f = f_score(ctx_, tp, normal_hits);
    if (best_.valid) {
      if (f < best_.f) return;
      if (f == best_.f) {
        const std::uint64_t r = rank();
        if (r >= best_.combo_rank) return;
        best_.combo_rank = r;
        best_.tp = tp;
        best_.tn = ctx_.normal_total - normal_hits;
        return;
      }
    }
    best_.valid = true;
    best_.f = f;
    best_.combo_rank = rank();
    best_.tp = tp;
    best_.tn = ctx_.normal_total - normal_hits;
  }

  EvalResult result() const noexcept { return best_; }

 private:
  FContext ctx_;
  EvalResult best_;
};

// Staging scratch for the MemOpt2 walk: one tumor and one normal row buffer
// per level, plus the per-row count buffers scan_staged fills (one u32 per
// gene each). With an arena, buffers are bump-allocated (the caller owns the
// reset cadence — the host sweep resets per chunk, the device model per
// launch); without one the scratch self-owns a single heap block.
class Scratch {
 public:
  static constexpr std::uint32_t kMaxLevels = 4;

  Scratch(const BitMatrix& tumor, const BitMatrix& normal, std::uint32_t levels, Arena* arena) {
    assert(levels <= kMaxLevels);
    const std::size_t tumor_words = tumor.words_per_row();
    const std::size_t normal_words = normal.words_per_row();
    const std::uint32_t genes = tumor.genes();
    const std::size_t staged = levels * (tumor_words + normal_words);
    // Two u32 buffers of `genes` entries fill `genes` words after the rows.
    const std::size_t total = staged + genes;
    std::span<std::uint64_t> block;
    if (arena != nullptr) {
      block = arena->alloc_words(total);
    } else {
      own_.resize(total);
      block = own_;
    }
    for (std::uint32_t level = 0; level < levels; ++level) {
      tumor_rows[level] = block.subspan(level * tumor_words, tumor_words);
      normal_rows[level] =
          block.subspan(levels * tumor_words + level * normal_words, normal_words);
    }
    if (genes > 0) {
      // Placement new starts the u32 objects' lifetime in the word storage.
      std::uint32_t* counts =
          ::new (static_cast<void*>(block.data() + staged)) std::uint32_t[2 * std::size_t{genes}];
      tumor_counts = {counts, genes};
      normal_counts = {counts + genes, genes};
    }
  }

  std::array<std::span<std::uint64_t>, kMaxLevels> tumor_rows, normal_rows;
  std::span<std::uint32_t> tumor_counts, normal_counts;

 private:
  std::vector<std::uint64_t> own_;
};

// The staged (MemOpt2) last level: scores the combination (prefix, r) for
// every row r in [first, genes) against the staged prefix rows pre_t / pre_n.
// One dispatched and_popcount_rows call per matrix fills the count buffers,
// then the tracker sees the rows in ascending order, as a per-row loop would.
// `rank_of(r)` is the combination's rank.
template <typename RankFn>
void scan_staged(BestTracker& best, Scratch& scratch, const BitMatrix& tumor,
                 const BitMatrix& normal, std::span<const std::uint64_t> pre_t,
                 std::span<const std::uint64_t> pre_n, std::uint32_t first, RankFn&& rank_of) {
  const std::uint32_t count = tumor.genes() - first;
  const std::span<std::uint32_t> tp = scratch.tumor_counts.first(count);
  const std::span<std::uint32_t> nh = scratch.normal_counts.first(count);
  and_popcount_rows(pre_t, tumor.rows(first, count), tp);
  and_popcount_rows(pre_n, normal.rows(first, count), nh);
  for (std::uint32_t r = 0; r < count; ++r) {
    best.consider(tp[r], nh[r], [&] { return rank_of(first + r); });
  }
}

// Stages dst = a & b and returns its popcount, the argument of
// BestTracker::can_improve.
inline std::uint64_t stage_and(std::span<std::uint64_t> dst, std::span<const std::uint64_t> a,
                               std::span<const std::uint64_t> b) noexcept {
  and_rows(dst, a, b);
  return popcount_row(dst);
}

// The one enumeration kernel: threads λ of shape {H, P} own the prefix
// c_0 < ... < c_{P-1} of colex rank λ and walk the remaining H - P genes
// depth-first above it (SNIPPETS.md's traverseComb, with the depth fixed at
// compile time). Under MemOpt2 each level stages the AND of the rows chosen
// so far and bounds it before descending; otherwise every combination is
// scored on its own with intersect_count (the ablation baseline).
template <unsigned H, unsigned P>
class Walk {
 public:
  static constexpr SchemeShape kShape{H, P};
  static constexpr unsigned kInner = H - P;

  Walk(const BitMatrix& tumor, const BitMatrix& normal, const FContext& ctx,
       const EvalResult& incumbent)
      : tumor_(tumor), normal_(normal), genes_(tumor.genes()), best_(ctx, incumbent) {}

  EvalResult run(std::uint64_t begin, std::uint64_t end, const MemOpts& opts,
                 KernelStats* stats, Arena* arena) {
    if (begin >= end) return best_.result();
    const std::uint64_t row_words =
        std::uint64_t{tumor_.words_per_row()} + normal_.words_per_row();
    // MemOpt1 alone runs the per-combination path: its row copy changes
    // nothing a caller can observe, so it differs only in the counted stats.
    const bool staged = kInner > 0 && opts.prefetch_j;
    if (staged) scratch_.emplace(tumor_, normal_, kInner + 1, arena);

    const std::span<std::uint32_t> prefix(combo_.data(), P);
    unrank_combination(begin, prefix);
    for (std::uint64_t lambda = begin; lambda < end;
         ++lambda, next_combination_colex(prefix, genes_)) {
      const std::uint32_t top = combo_[P - 1];
      if (stats) *stats += thread_cost(kShape, genes_, top, row_words, opts);
      if constexpr (kInner == 0) {
        score(lambda);
      } else {
        if (genes_ - 1 - top < kInner) continue;  // no room above the prefix
        if (staged) {
          stage_prefix(lambda);
        } else {
          enumerate<P>(top + 1, lambda);
        }
      }
    }
    return best_.result();
  }

 private:
  // Scores combo_ on its own; `rank` is its colex rank.
  void score(std::uint64_t rank) {
    const std::span<const std::uint32_t> combo(combo_);
    best_.consider(tumor_.intersect_count(combo), normal_.intersect_count(combo),
                   [rank] { return rank; });
  }

  // Per-combination path: picks gene L from `from` up, leaving room for the
  // H - 1 - L genes above it. `rank` sums the colex terms of genes < L.
  template <unsigned L>
  void enumerate(std::uint32_t from, std::uint64_t rank) {
    for (std::uint32_t g = from; g + (H - 1 - L) < genes_; ++g) {
      combo_[L] = g;
      if constexpr (L + 1 == H) {
        score(rank + small_binomial(g, H));
      } else {
        enumerate<L + 1>(g + 1, rank + small_binomial(g, L + 1));
      }
    }
  }

  // Stages the prefix, bounds its tumor side, and only then stages the
  // normal side and descends. `rank` is λ, the prefix's colex rank.
  void stage_prefix(std::uint64_t rank) {
    Scratch& s = *scratch_;
    std::uint64_t tp = 0;
    const std::span<const std::uint64_t> pre_t = stage(tumor_, s.tumor_rows[0], &tp);
    if (!best_.can_improve(tp)) return;
    descend<P>(combo_[P - 1] + 1, rank, pre_t, stage(normal_, s.normal_rows[0], nullptr));
  }

  // The prefix rows of `m` ANDed with the cheapest primitive for the prefix
  // length: a 1-gene prefix is its row, a 2-gene prefix one and_rows into
  // `dst`, a longer one combine_rows into `dst`. Stores the popcount in
  // `*popcount` when it is non-null.
  std::span<const std::uint64_t> stage(const BitMatrix& m, std::span<std::uint64_t> dst,
                                       std::uint64_t* popcount) {
    if constexpr (P == 1) {
      if (popcount) *popcount = popcount_row(m.row(combo_[0]));
      return m.row(combo_[0]);
    } else if constexpr (P == 2) {
      and_rows(dst, m.row(combo_[0]), m.row(combo_[1]));
      if (popcount) *popcount = popcount_row(dst);
      return dst;
    } else {
      const std::uint64_t count =
          m.combine_rows(std::span<const std::uint32_t>(combo_.data(), P), dst);
      if (popcount) *popcount = count;
      return dst;
    }
  }

  // Staged path below the prefix: each middle level stages pre & row(g),
  // bounds it, and recurses; the last level is one scan_staged call.
  template <unsigned L>
  void descend(std::uint32_t from, std::uint64_t rank, std::span<const std::uint64_t> pre_t,
               std::span<const std::uint64_t> pre_n) {
    Scratch& s = *scratch_;
    if constexpr (L + 1 == H) {
      scan_staged(best_, s, tumor_, normal_, pre_t, pre_n, from,
                  [rank](std::uint32_t g) { return rank + small_binomial(g, H); });
    } else {
      constexpr unsigned kLevel = L - P + 1;
      const std::span<std::uint64_t> t = s.tumor_rows[kLevel];
      const std::span<std::uint64_t> n = s.normal_rows[kLevel];
      for (std::uint32_t g = from; g + (H - 1 - L) < genes_; ++g) {
        if (!best_.can_improve(stage_and(t, pre_t, tumor_.row(g)))) continue;
        and_rows(n, pre_n, normal_.row(g));
        descend<L + 1>(g + 1, rank + small_binomial(g, L + 1), t, n);
      }
    }
  }

  const BitMatrix& tumor_;
  const BitMatrix& normal_;
  const std::uint32_t genes_;
  BestTracker best_;
  std::array<std::uint32_t, H> combo_{};
  std::optional<Scratch> scratch_;
};

using Kernel = EvalResult (*)(const BitMatrix&, const BitMatrix&, const FContext&,
                              std::uint64_t, std::uint64_t, const MemOpts&, KernelStats*,
                              Arena*, const EvalResult&);

template <unsigned H, unsigned P>
EvalResult walk(const BitMatrix& tumor, const BitMatrix& normal, const FContext& ctx,
                std::uint64_t begin, std::uint64_t end, const MemOpts& opts, KernelStats* stats,
                Arena* arena, const EvalResult& incumbent) {
  return Walk<H, P>(tumor, normal, ctx, incumbent).run(begin, end, opts, stats, arena);
}

// Every shape the paper's taxonomy names at h = 2..5. A one-combination
// thread ({h, h}) keeps the paper's "hx1" name.
struct KernelEntry {
  SchemeShape shape;
  Kernel kernel;
  const char* name;
};

constexpr KernelEntry kKernels[] = {
    {{2, 1}, walk<2, 1>, "1x1"}, {{2, 2}, walk<2, 2>, "2x1"}, {{3, 1}, walk<3, 1>, "1x2"},
    {{3, 2}, walk<3, 2>, "2x1"}, {{3, 3}, walk<3, 3>, "3x1"}, {{4, 1}, walk<4, 1>, "1x3"},
    {{4, 2}, walk<4, 2>, "2x2"}, {{4, 3}, walk<4, 3>, "3x1"}, {{4, 4}, walk<4, 4>, "4x1"},
    {{5, 3}, walk<5, 3>, "3x2"}, {{5, 4}, walk<5, 4>, "4x1"}};

const KernelEntry* find_kernel(SchemeShape shape) noexcept {
  for (const KernelEntry& entry : kKernels) {
    if (entry.shape == shape) return &entry;
  }
  return nullptr;
}

}  // namespace

SchemeShape select_shape(std::uint32_t hits, Scheme2 scheme2, Scheme3 scheme3, Scheme4 scheme4,
                         Scheme5 scheme5) {
  switch (hits) {
    case 2:
      return shape_of(scheme2);
    case 3:
      return shape_of(scheme3);
    case 4:
      return shape_of(scheme4);
    case 5:
      return shape_of(scheme5);
    default:
      throw std::invalid_argument("hits must be in [2, 5], got " + std::to_string(hits));
  }
}

void require_u64_ranks(std::uint32_t genes, std::uint32_t hits) {
  if (!binomial_checked(genes, hits)) {
    throw std::invalid_argument("C(G=" + std::to_string(genes) + ", h=" + std::to_string(hits) +
                                ") combinations do not fit 64-bit ranks");
  }
}

const char* scheme_name(SchemeShape shape) noexcept {
  const KernelEntry* entry = find_kernel(shape);
  return entry != nullptr ? entry->name : "?";
}
const char* scheme_name(Scheme4 scheme) noexcept { return scheme_name(shape_of(scheme)); }
const char* scheme_name(Scheme3 scheme) noexcept { return scheme_name(shape_of(scheme)); }
const char* scheme_name(Scheme2 scheme) noexcept { return scheme_name(shape_of(scheme)); }
const char* scheme_name(Scheme5 scheme) noexcept { return scheme_name(shape_of(scheme)); }

std::uint64_t scheme_threads(SchemeShape shape, std::uint32_t genes) noexcept {
  return small_binomial(genes, shape.prefix);
}
std::uint64_t scheme4_threads(Scheme4 scheme, std::uint32_t genes) noexcept {
  return scheme_threads(shape_of(scheme), genes);
}
std::uint64_t scheme3_threads(Scheme3 scheme, std::uint32_t genes) noexcept {
  return scheme_threads(shape_of(scheme), genes);
}
std::uint64_t scheme2_threads(Scheme2 scheme, std::uint32_t genes) noexcept {
  return scheme_threads(shape_of(scheme), genes);
}
std::uint64_t scheme5_threads(Scheme5 scheme, std::uint32_t genes) noexcept {
  return scheme_threads(shape_of(scheme), genes);
}

std::uint64_t scheme_thread_work(SchemeShape shape, std::uint32_t genes,
                                 std::uint64_t lambda) noexcept {
  return thread_cost(shape, genes, combination_level(lambda, shape.prefix), 0, {}).combinations;
}
std::uint64_t scheme4_thread_work(Scheme4 scheme, std::uint32_t genes,
                                  std::uint64_t lambda) noexcept {
  return scheme_thread_work(shape_of(scheme), genes, lambda);
}
std::uint64_t scheme3_thread_work(Scheme3 scheme, std::uint32_t genes,
                                  std::uint64_t lambda) noexcept {
  return scheme_thread_work(shape_of(scheme), genes, lambda);
}
std::uint64_t scheme2_thread_work(Scheme2 scheme, std::uint32_t genes,
                                  std::uint64_t lambda) noexcept {
  return scheme_thread_work(shape_of(scheme), genes, lambda);
}
std::uint64_t scheme5_thread_work(Scheme5 scheme, std::uint32_t genes,
                                  std::uint64_t lambda) noexcept {
  return scheme_thread_work(shape_of(scheme), genes, lambda);
}

EvalResult evaluate_range(const BitMatrix& tumor, const BitMatrix& normal, const FContext& ctx,
                          SchemeShape shape, std::uint64_t begin, std::uint64_t end,
                          const MemOpts& opts, KernelStats* stats, Arena* arena,
                          const EvalResult& incumbent) {
  assert(tumor.genes() == normal.genes());
  assert(end <= scheme_threads(shape, tumor.genes()));
  if (const KernelEntry* entry = find_kernel(shape)) {
    return entry->kernel(tumor, normal, ctx, begin, end, opts, stats, arena, incumbent);
  }
  throw std::invalid_argument(std::string("no enumeration kernel for scheme ") +
                              std::to_string(shape.hits) + "-hit prefix " +
                              std::to_string(shape.prefix));
}

EvalResult evaluate_range_4hit(const BitMatrix& tumor, const BitMatrix& normal,
                               const FContext& ctx, Scheme4 scheme, std::uint64_t begin,
                               std::uint64_t end, const MemOpts& opts, KernelStats* stats,
                               Arena* arena, const EvalResult& incumbent) {
  return evaluate_range(tumor, normal, ctx, shape_of(scheme), begin, end, opts, stats, arena,
                        incumbent);
}

EvalResult evaluate_range_3hit(const BitMatrix& tumor, const BitMatrix& normal,
                               const FContext& ctx, Scheme3 scheme, std::uint64_t begin,
                               std::uint64_t end, const MemOpts& opts, KernelStats* stats,
                               Arena* arena, const EvalResult& incumbent) {
  return evaluate_range(tumor, normal, ctx, shape_of(scheme), begin, end, opts, stats, arena,
                        incumbent);
}

EvalResult evaluate_range_2hit(const BitMatrix& tumor, const BitMatrix& normal,
                               const FContext& ctx, Scheme2 scheme, std::uint64_t begin,
                               std::uint64_t end, const MemOpts& opts, KernelStats* stats,
                               Arena* arena, const EvalResult& incumbent) {
  return evaluate_range(tumor, normal, ctx, shape_of(scheme), begin, end, opts, stats, arena,
                        incumbent);
}

EvalResult evaluate_range_5hit(const BitMatrix& tumor, const BitMatrix& normal,
                               const FContext& ctx, Scheme5 scheme, std::uint64_t begin,
                               std::uint64_t end, const MemOpts& opts, KernelStats* stats,
                               Arena* arena, const EvalResult& incumbent) {
  return evaluate_range(tumor, normal, ctx, shape_of(scheme), begin, end, opts, stats, arena,
                        incumbent);
}

}  // namespace multihit
