#pragma once
// Shared internals of the enumeration kernels (core/schemes*.cpp only).

#include <cstdint>
#include <new>
#include <span>
#include <vector>

#include "bitmat/bitmatrix.hpp"
#include "combinat/linearize.hpp"
#include "core/arena.hpp"
#include "core/fscore.hpp"
#include "core/result.hpp"

namespace multihit::detail {

// Best-so-far tracker. F values are computed by the identical expression on
// every path, so exact == comparison on doubles is sound here, and the
// (F desc, rank asc) order makes every execution return the same winner.
class BestTracker {
 public:
  explicit BestTracker(const FContext& ctx) : ctx_(ctx) {}

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

// Scratch buffers for prefetch staging, one pair per nesting depth, plus the
// per-row tumor/normal count buffers scan_staged fills (one u32 per gene
// each). With an arena, buffers are bump-allocated (the caller owns the reset
// cadence — the host sweep resets per chunk, the device model per launch);
// without one the scratch self-owns a single heap block.
struct Scratch {
  Scratch(const BitMatrix& tumor, const BitMatrix& normal, Arena* arena = nullptr) {
    const std::uint32_t tumor_words = tumor.words_per_row();
    const std::uint32_t normal_words = normal.words_per_row();
    const std::uint32_t genes = tumor.genes();
    const std::size_t staged =
        3 * (static_cast<std::size_t>(tumor_words) + static_cast<std::size_t>(normal_words));
    // Two u32 buffers of `genes` entries fill `genes` words after the rows.
    const std::size_t total = staged + genes;
    std::span<std::uint64_t> block;
    if (arena != nullptr) {
      block = arena->alloc_words(total);
    } else {
      own_.resize(total);
      block = own_;
    }
    t1 = block.subspan(0, tumor_words);
    t2 = block.subspan(tumor_words, tumor_words);
    t3 = block.subspan(2 * static_cast<std::size_t>(tumor_words), tumor_words);
    const std::size_t n0 = 3 * static_cast<std::size_t>(tumor_words);
    n1 = block.subspan(n0, normal_words);
    n2 = block.subspan(n0 + normal_words, normal_words);
    n3 = block.subspan(n0 + 2 * static_cast<std::size_t>(normal_words), normal_words);
    if (genes > 0) {
      // Placement new starts the u32 objects' lifetime in the word storage.
      std::uint32_t* counts =
          ::new (static_cast<void*>(block.data() + staged)) std::uint32_t[2 * std::size_t{genes}];
      tumor_counts = {counts, genes};
      normal_counts = {counts + genes, genes};
    }
  }

  std::span<std::uint64_t> t1, t2, t3;
  std::span<std::uint64_t> n1, n2, n3;
  std::span<std::uint32_t> tumor_counts, normal_counts;

 private:
  std::vector<std::uint64_t> own_;
};

// The staged (MemOpt2) inner loop: scores the combination (prefix, r) for
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

// Colex successor of a pair (i < j).
inline void advance_pair(Pair& p) noexcept {
  if (p.i + 1 < p.j) {
    ++p.i;
  } else {
    ++p.j;
    p.i = 0;
  }
}

// Colex successor of a triple (i < j < k).
inline void advance_triple(Triple& t) noexcept {
  if (t.i + 1 < t.j) {
    ++t.i;
  } else if (t.j + 1 < t.k) {
    ++t.j;
    t.i = 0;
  } else {
    ++t.k;
    t.j = 1;
    t.i = 0;
  }
}

// Colex successor of a quadruple (i < j < k < l).
inline void advance_quad(Quad& q) noexcept {
  if (q.i + 1 < q.j) {
    ++q.i;
  } else if (q.j + 1 < q.k) {
    ++q.j;
    q.i = 0;
  } else if (q.k + 1 < q.l) {
    ++q.k;
    q.j = 1;
    q.i = 0;
  } else {
    ++q.l;
    q.k = 2;
    q.j = 1;
    q.i = 0;
  }
}

}  // namespace multihit::detail
