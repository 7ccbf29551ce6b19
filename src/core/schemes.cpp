#include "core/schemes.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <vector>

#include "combinat/linearize.hpp"
#include "combinat/unrank.hpp"
#include "core/kernel_detail.hpp"

namespace multihit {

namespace {

using detail::BestTracker;
using detail::Scratch;
using detail::advance_pair;
using detail::advance_triple;
using detail::scan_staged;

// ---------------------------------------------------------------------------
// 4-hit kernels
// ---------------------------------------------------------------------------

// Thread = (i, j, k); inner loop over l (the paper's Algorithm 3).
EvalResult eval4_3x1(const BitMatrix& tumor, const BitMatrix& normal, const FContext& ctx,
                     std::uint64_t begin, std::uint64_t end, const MemOpts& opts,
                     KernelStats* stats, Arena* arena) {
  const std::uint32_t genes = tumor.genes();
  const std::uint64_t wt = tumor.words_per_row();
  const std::uint64_t wn = normal.words_per_row();
  BestTracker best(ctx);
  Scratch scratch(tumor, normal, arena);

  Triple t = begin < end ? unrank_triple(begin) : Triple{};
  for (std::uint64_t lambda = begin; lambda < end; ++lambda, advance_triple(t)) {
    const std::uint64_t inner = genes - 1 - t.k;  // combinations this thread owns
    if (inner == 0) continue;
    const std::uint64_t base_rank =
        t.i + triangular(t.j) + tetrahedral(t.k);  // + C(l,4) per combination

    if (opts.prefetch_j) {
      // Stage the fixed rows fully combined: pre = row(i) & row(j) & row(k).
      const std::uint32_t fixed[3] = {t.i, t.j, t.k};
      tumor.combine_rows(fixed, scratch.t1);
      normal.combine_rows(fixed, scratch.n1);
      scan_staged(best, scratch, tumor, normal, scratch.t1, scratch.n1, t.k + 1,
                  [&](std::uint32_t l) { return base_rank + quartic(l); });
      if (stats) {
        stats->word_ops += 2 * (wt + wn) + inner * (wt + wn);
        stats->global_words += 3 * (wt + wn) + inner * (wt + wn);
        stats->local_words += inner * (wt + wn);
      }
    } else {
      // Optionally stage only row(i) locally (MemOpt1); the AND count is
      // unchanged but the global traffic per combination drops by one row.
      std::span<const std::uint64_t> row_ti = tumor.row(t.i);
      std::span<const std::uint64_t> row_ni = normal.row(t.i);
      if (opts.prefetch_i) {
        std::copy(row_ti.begin(), row_ti.end(), scratch.t1.begin());
        std::copy(row_ni.begin(), row_ni.end(), scratch.n1.begin());
        row_ti = scratch.t1;
        row_ni = scratch.n1;
      }
      for (std::uint32_t l = t.k + 1; l < genes; ++l) {
        const std::uint64_t tp = and_popcount(row_ti, tumor.row(t.j), tumor.row(t.k),
                                              tumor.row(l));
        const std::uint64_t nh = and_popcount(row_ni, normal.row(t.j), normal.row(t.k),
                                              normal.row(l));
        best.consider(tp, nh, [&] { return base_rank + quartic(l); });
      }
      if (stats) {
        stats->word_ops += inner * 3 * (wt + wn);
        const std::uint64_t global_rows_per_combo = opts.prefetch_i ? 3 : 4;
        stats->global_words += (opts.prefetch_i ? (wt + wn) : 0) +
                               inner * global_rows_per_combo * (wt + wn);
        stats->local_words += opts.prefetch_i ? inner * (wt + wn) : 0;
      }
    }
    if (stats) {
      stats->combinations += inner;
      stats->distinct_rows += 2 * (3 + inner);
    }
  }
  return best.result();
}

// Thread = (i, j); inner loops over k, l (the paper's Algorithm 2).
EvalResult eval4_2x2(const BitMatrix& tumor, const BitMatrix& normal, const FContext& ctx,
                     std::uint64_t begin, std::uint64_t end, const MemOpts& opts,
                     KernelStats* stats, Arena* arena) {
  const std::uint32_t genes = tumor.genes();
  const std::uint64_t wt = tumor.words_per_row();
  const std::uint64_t wn = normal.words_per_row();
  BestTracker best(ctx);
  Scratch scratch(tumor, normal, arena);

  Pair p = begin < end ? unrank_pair(begin) : Pair{};
  for (std::uint64_t lambda = begin; lambda < end; ++lambda, advance_pair(p)) {
    if (p.j + 2 >= genes) {  // no room for k < l above j
      if (stats) stats->distinct_rows += 2 * 2;
      continue;
    }
    const std::uint64_t base_rank = p.i + triangular(p.j);
    std::uint64_t inner = 0;

    if (opts.prefetch_j) {
      // Stage pre_ij once, then pre_ijk per k; the innermost loop is a
      // single AND against row(l).
      and_rows(scratch.t1, tumor.row(p.i), tumor.row(p.j));
      and_rows(scratch.n1, normal.row(p.i), normal.row(p.j));
      for (std::uint32_t k = p.j + 1; k + 1 < genes; ++k) {
        and_rows(scratch.t2, scratch.t1, tumor.row(k));
        and_rows(scratch.n2, scratch.n1, normal.row(k));
        const std::uint64_t rank_ijk = base_rank + tetrahedral(k);
        scan_staged(best, scratch, tumor, normal, scratch.t2, scratch.n2, k + 1,
                    [&](std::uint32_t l) { return rank_ijk + quartic(l); });
        inner += genes - 1 - k;
      }
      if (stats) {
        const std::uint64_t nk = genes - 2 - p.j;
        stats->word_ops += (1 + nk) * (wt + wn) + inner * (wt + wn);
        stats->global_words += 2 * (wt + wn) + nk * (wt + wn) + inner * (wt + wn);
        stats->local_words += inner * (wt + wn);
      }
    } else {
      std::span<const std::uint64_t> row_ti = tumor.row(p.i);
      std::span<const std::uint64_t> row_ni = normal.row(p.i);
      if (opts.prefetch_i) {
        std::copy(row_ti.begin(), row_ti.end(), scratch.t1.begin());
        std::copy(row_ni.begin(), row_ni.end(), scratch.n1.begin());
        row_ti = scratch.t1;
        row_ni = scratch.n1;
      }
      for (std::uint32_t k = p.j + 1; k + 1 < genes; ++k) {
        const std::uint64_t rank_ijk = base_rank + tetrahedral(k);
        for (std::uint32_t l = k + 1; l < genes; ++l) {
          const std::uint64_t tp =
              and_popcount(row_ti, tumor.row(p.j), tumor.row(k), tumor.row(l));
          const std::uint64_t nh =
              and_popcount(row_ni, normal.row(p.j), normal.row(k), normal.row(l));
          best.consider(tp, nh, [&] { return rank_ijk + quartic(l); });
          ++inner;
        }
      }
      if (stats) {
        stats->word_ops += inner * 3 * (wt + wn);
        const std::uint64_t global_rows_per_combo = opts.prefetch_i ? 3 : 4;
        stats->global_words += (opts.prefetch_i ? (wt + wn) : 0) +
                               inner * global_rows_per_combo * (wt + wn);
        stats->local_words += opts.prefetch_i ? inner * (wt + wn) : 0;
      }
    }
    if (stats) {
      stats->combinations += inner;
      stats->distinct_rows += 2 * (2 + (genes - 1 - p.j));
    }
  }
  return best.result();
}

// Thread = i; inner loops over j, k, l.
EvalResult eval4_1x3(const BitMatrix& tumor, const BitMatrix& normal, const FContext& ctx,
                     std::uint64_t begin, std::uint64_t end, const MemOpts& opts,
                     KernelStats* stats, Arena* arena) {
  const std::uint32_t genes = tumor.genes();
  const std::uint64_t wt = tumor.words_per_row();
  const std::uint64_t wn = normal.words_per_row();
  BestTracker best(ctx);
  Scratch scratch(tumor, normal, arena);

  for (std::uint64_t lambda = begin; lambda < end; ++lambda) {
    const auto i = static_cast<std::uint32_t>(lambda);
    std::uint64_t inner = 0;
    if (opts.prefetch_j) {
      // Stage progressively: pre_ij per j, pre_ijk per k, 1 AND per l.
      std::uint64_t nj = 0, nk = 0;
      for (std::uint32_t j = i + 1; j + 2 < genes; ++j) {
        and_rows(scratch.t1, tumor.row(i), tumor.row(j));
        and_rows(scratch.n1, normal.row(i), normal.row(j));
        ++nj;
        for (std::uint32_t k = j + 1; k + 1 < genes; ++k) {
          and_rows(scratch.t2, scratch.t1, tumor.row(k));
          and_rows(scratch.n2, scratch.n1, normal.row(k));
          ++nk;
          const std::uint64_t rank_ijk = i + triangular(j) + tetrahedral(k);
          scan_staged(best, scratch, tumor, normal, scratch.t2, scratch.n2, k + 1,
                      [&](std::uint32_t l) { return rank_ijk + quartic(l); });
          inner += genes - 1 - k;
        }
      }
      if (stats) {
        stats->word_ops += (nj + nk + inner) * (wt + wn);
        stats->global_words += (1 + nj + nk + inner) * (wt + wn);
        stats->local_words += inner * (wt + wn);
      }
    } else {
      std::span<const std::uint64_t> row_ti = tumor.row(i);
      std::span<const std::uint64_t> row_ni = normal.row(i);
      if (opts.prefetch_i) {
        std::copy(row_ti.begin(), row_ti.end(), scratch.t1.begin());
        std::copy(row_ni.begin(), row_ni.end(), scratch.n1.begin());
        row_ti = scratch.t1;
        row_ni = scratch.n1;
      }
      for (std::uint32_t j = i + 1; j + 2 < genes; ++j) {
        for (std::uint32_t k = j + 1; k + 1 < genes; ++k) {
          const std::uint64_t rank_ijk = i + triangular(j) + tetrahedral(k);
          for (std::uint32_t l = k + 1; l < genes; ++l) {
            const std::uint64_t tp =
                and_popcount(row_ti, tumor.row(j), tumor.row(k), tumor.row(l));
            const std::uint64_t nh =
                and_popcount(row_ni, normal.row(j), normal.row(k), normal.row(l));
            best.consider(tp, nh, [&] { return rank_ijk + quartic(l); });
            ++inner;
          }
        }
      }
      if (stats) {
        stats->word_ops += inner * 3 * (wt + wn);
        const std::uint64_t global_rows_per_combo = opts.prefetch_i ? 3 : 4;
        stats->global_words += (opts.prefetch_i ? (wt + wn) : 0) +
                               inner * global_rows_per_combo * (wt + wn);
        stats->local_words += opts.prefetch_i ? inner * (wt + wn) : 0;
      }
    }
    if (stats) {
      stats->combinations += inner;
      stats->distinct_rows += 2 * (genes - i);
    }
  }
  return best.result();
}

// Thread = one combination (i, j, k, l).
EvalResult eval4_4x1(const BitMatrix& tumor, const BitMatrix& normal, const FContext& ctx,
                     std::uint64_t begin, std::uint64_t end, KernelStats* stats) {
  const std::uint64_t wt = tumor.words_per_row();
  const std::uint64_t wn = normal.words_per_row();
  BestTracker best(ctx);

  std::array<std::uint32_t, 4> combo{};
  if (begin < end) {
    const auto first = unrank_combination(begin, 4);
    std::copy(first.begin(), first.end(), combo.begin());
  }
  for (std::uint64_t lambda = begin; lambda < end; ++lambda) {
    const std::uint64_t tp = and_popcount(tumor.row(combo[0]), tumor.row(combo[1]),
                                          tumor.row(combo[2]), tumor.row(combo[3]));
    const std::uint64_t nh = and_popcount(normal.row(combo[0]), normal.row(combo[1]),
                                          normal.row(combo[2]), normal.row(combo[3]));
    best.consider(tp, nh, [&] { return lambda; });
    next_combination_colex(combo, tumor.genes());
  }
  if (stats && end > begin) {
    const std::uint64_t n = end - begin;
    stats->combinations += n;
    stats->word_ops += n * 3 * (wt + wn);
    stats->global_words += n * 4 * (wt + wn);
    stats->distinct_rows += n * 8;
  }
  return best.result();
}

// ---------------------------------------------------------------------------
// 3-hit kernels
// ---------------------------------------------------------------------------

// Thread = (i, j); inner loop over k (the paper's Algorithm 1).
EvalResult eval3_2x1(const BitMatrix& tumor, const BitMatrix& normal, const FContext& ctx,
                     std::uint64_t begin, std::uint64_t end, const MemOpts& opts,
                     KernelStats* stats, Arena* arena) {
  const std::uint32_t genes = tumor.genes();
  const std::uint64_t wt = tumor.words_per_row();
  const std::uint64_t wn = normal.words_per_row();
  BestTracker best(ctx);
  Scratch scratch(tumor, normal, arena);

  Pair p = begin < end ? unrank_pair(begin) : Pair{};
  for (std::uint64_t lambda = begin; lambda < end; ++lambda, advance_pair(p)) {
    const std::uint64_t inner = genes - 1 - p.j;
    if (inner == 0) {
      if (stats) stats->distinct_rows += 2 * 2;
      continue;
    }
    const std::uint64_t base_rank = p.i + triangular(p.j);

    if (opts.prefetch_j) {
      and_rows(scratch.t1, tumor.row(p.i), tumor.row(p.j));
      and_rows(scratch.n1, normal.row(p.i), normal.row(p.j));
      scan_staged(best, scratch, tumor, normal, scratch.t1, scratch.n1, p.j + 1,
                  [&](std::uint32_t k) { return base_rank + tetrahedral(k); });
      if (stats) {
        stats->word_ops += (1 + inner) * (wt + wn);
        stats->global_words += 2 * (wt + wn) + inner * (wt + wn);
        stats->local_words += inner * (wt + wn);
      }
    } else {
      std::span<const std::uint64_t> row_ti = tumor.row(p.i);
      std::span<const std::uint64_t> row_ni = normal.row(p.i);
      if (opts.prefetch_i) {
        std::copy(row_ti.begin(), row_ti.end(), scratch.t1.begin());
        std::copy(row_ni.begin(), row_ni.end(), scratch.n1.begin());
        row_ti = scratch.t1;
        row_ni = scratch.n1;
      }
      for (std::uint32_t k = p.j + 1; k < genes; ++k) {
        const std::uint64_t tp = and_popcount(row_ti, tumor.row(p.j), tumor.row(k));
        const std::uint64_t nh = and_popcount(row_ni, normal.row(p.j), normal.row(k));
        best.consider(tp, nh, [&] { return base_rank + tetrahedral(k); });
      }
      if (stats) {
        stats->word_ops += inner * 2 * (wt + wn);
        const std::uint64_t global_rows_per_combo = opts.prefetch_i ? 2 : 3;
        stats->global_words += (opts.prefetch_i ? (wt + wn) : 0) +
                               inner * global_rows_per_combo * (wt + wn);
        stats->local_words += opts.prefetch_i ? inner * (wt + wn) : 0;
      }
    }
    if (stats) {
      stats->combinations += inner;
      stats->distinct_rows += 2 * (2 + inner);
    }
  }
  return best.result();
}

// Thread = i; inner loops over j, k.
EvalResult eval3_1x2(const BitMatrix& tumor, const BitMatrix& normal, const FContext& ctx,
                     std::uint64_t begin, std::uint64_t end, const MemOpts& opts,
                     KernelStats* stats, Arena* arena) {
  const std::uint32_t genes = tumor.genes();
  const std::uint64_t wt = tumor.words_per_row();
  const std::uint64_t wn = normal.words_per_row();
  BestTracker best(ctx);
  Scratch scratch(tumor, normal, arena);

  for (std::uint64_t lambda = begin; lambda < end; ++lambda) {
    const auto i = static_cast<std::uint32_t>(lambda);
    std::uint64_t inner = 0, nj = 0;
    if (opts.prefetch_j) {
      for (std::uint32_t j = i + 1; j + 1 < genes; ++j) {
        and_rows(scratch.t1, tumor.row(i), tumor.row(j));
        and_rows(scratch.n1, normal.row(i), normal.row(j));
        ++nj;
        const std::uint64_t base_rank = i + triangular(j);
        scan_staged(best, scratch, tumor, normal, scratch.t1, scratch.n1, j + 1,
                    [&](std::uint32_t k) { return base_rank + tetrahedral(k); });
        inner += genes - 1 - j;
      }
      if (stats) {
        stats->word_ops += (nj + inner) * (wt + wn);
        stats->global_words += (1 + nj + inner) * (wt + wn);
        stats->local_words += inner * (wt + wn);
      }
    } else {
      std::span<const std::uint64_t> row_ti = tumor.row(i);
      std::span<const std::uint64_t> row_ni = normal.row(i);
      if (opts.prefetch_i) {
        std::copy(row_ti.begin(), row_ti.end(), scratch.t1.begin());
        std::copy(row_ni.begin(), row_ni.end(), scratch.n1.begin());
        row_ti = scratch.t1;
        row_ni = scratch.n1;
      }
      for (std::uint32_t j = i + 1; j + 1 < genes; ++j) {
        const std::uint64_t base_rank = i + triangular(j);
        for (std::uint32_t k = j + 1; k < genes; ++k) {
          const std::uint64_t tp = and_popcount(row_ti, tumor.row(j), tumor.row(k));
          const std::uint64_t nh = and_popcount(row_ni, normal.row(j), normal.row(k));
          best.consider(tp, nh, [&] { return base_rank + tetrahedral(k); });
          ++inner;
        }
      }
      if (stats) {
        stats->word_ops += inner * 2 * (wt + wn);
        const std::uint64_t global_rows_per_combo = opts.prefetch_i ? 2 : 3;
        stats->global_words += (opts.prefetch_i ? (wt + wn) : 0) +
                               inner * global_rows_per_combo * (wt + wn);
        stats->local_words += opts.prefetch_i ? inner * (wt + wn) : 0;
      }
    }
    if (stats) {
      stats->combinations += inner;
      stats->distinct_rows += 2 * (genes - i);
    }
  }
  return best.result();
}

// Thread = one triple.
EvalResult eval3_3x1(const BitMatrix& tumor, const BitMatrix& normal, const FContext& ctx,
                     std::uint64_t begin, std::uint64_t end, KernelStats* stats) {
  const std::uint64_t wt = tumor.words_per_row();
  const std::uint64_t wn = normal.words_per_row();
  BestTracker best(ctx);

  Triple t = begin < end ? unrank_triple(begin) : Triple{};
  for (std::uint64_t lambda = begin; lambda < end; ++lambda, advance_triple(t)) {
    const std::uint64_t tp = and_popcount(tumor.row(t.i), tumor.row(t.j), tumor.row(t.k));
    const std::uint64_t nh = and_popcount(normal.row(t.i), normal.row(t.j), normal.row(t.k));
    best.consider(tp, nh, [&] { return lambda; });
  }
  if (stats && end > begin) {
    const std::uint64_t n = end - begin;
    stats->combinations += n;
    stats->word_ops += n * 2 * (wt + wn);
    stats->global_words += n * 3 * (wt + wn);
    stats->distinct_rows += n * 6;
  }
  return best.result();
}

}  // namespace

const char* scheme_name(Scheme4 scheme) noexcept {
  switch (scheme) {
    case Scheme4::k1x3:
      return "1x3";
    case Scheme4::k2x2:
      return "2x2";
    case Scheme4::k3x1:
      return "3x1";
    case Scheme4::k4x1:
      return "4x1";
  }
  return "?";
}

const char* scheme_name(Scheme3 scheme) noexcept {
  switch (scheme) {
    case Scheme3::k1x2:
      return "1x2";
    case Scheme3::k2x1:
      return "2x1";
    case Scheme3::k3x1:
      return "3x1";
  }
  return "?";
}

std::uint64_t scheme4_threads(Scheme4 scheme, std::uint32_t genes) noexcept {
  switch (scheme) {
    case Scheme4::k1x3:
      return genes;
    case Scheme4::k2x2:
      return triangular(genes);
    case Scheme4::k3x1:
      return tetrahedral(genes);
    case Scheme4::k4x1:
      return quartic(genes);
  }
  return 0;
}

std::uint64_t scheme3_threads(Scheme3 scheme, std::uint32_t genes) noexcept {
  switch (scheme) {
    case Scheme3::k1x2:
      return genes;
    case Scheme3::k2x1:
      return triangular(genes);
    case Scheme3::k3x1:
      return tetrahedral(genes);
  }
  return 0;
}

std::uint64_t scheme4_thread_work(Scheme4 scheme, std::uint32_t genes,
                                  std::uint64_t lambda) noexcept {
  switch (scheme) {
    case Scheme4::k1x3: {
      const auto i = static_cast<std::uint32_t>(lambda);
      return tetrahedral(genes - 1 - i);  // 0 whenever fewer than 3 genes remain above i
    }
    case Scheme4::k2x2: {
      const Pair p = unrank_pair(lambda);
      return p.j + 1 < genes ? triangular(genes - 1 - p.j) : 0;
    }
    case Scheme4::k3x1: {
      const std::uint32_t k = tetrahedral_level(lambda);
      return genes - 1 - k;
    }
    case Scheme4::k4x1:
      return 1;
  }
  return 0;
}

std::uint64_t scheme3_thread_work(Scheme3 scheme, std::uint32_t genes,
                                  std::uint64_t lambda) noexcept {
  switch (scheme) {
    case Scheme3::k1x2: {
      const auto i = static_cast<std::uint32_t>(lambda);
      return triangular(genes - 1 - i);
    }
    case Scheme3::k2x1: {
      const Pair p = unrank_pair(lambda);
      return genes - 1 - p.j;
    }
    case Scheme3::k3x1:
      return 1;
  }
  return 0;
}

EvalResult evaluate_range_4hit(const BitMatrix& tumor, const BitMatrix& normal,
                               const FContext& ctx, Scheme4 scheme, std::uint64_t begin,
                               std::uint64_t end, const MemOpts& opts, KernelStats* stats,
                               Arena* arena) {
  assert(tumor.genes() == normal.genes());
  assert(end <= scheme4_threads(scheme, tumor.genes()));
  switch (scheme) {
    case Scheme4::k1x3:
      return eval4_1x3(tumor, normal, ctx, begin, end, opts, stats, arena);
    case Scheme4::k2x2:
      return eval4_2x2(tumor, normal, ctx, begin, end, opts, stats, arena);
    case Scheme4::k3x1:
      return eval4_3x1(tumor, normal, ctx, begin, end, opts, stats, arena);
    case Scheme4::k4x1:
      return eval4_4x1(tumor, normal, ctx, begin, end, stats);
  }
  return {};
}

EvalResult evaluate_range_3hit(const BitMatrix& tumor, const BitMatrix& normal,
                               const FContext& ctx, Scheme3 scheme, std::uint64_t begin,
                               std::uint64_t end, const MemOpts& opts, KernelStats* stats,
                               Arena* arena) {
  assert(tumor.genes() == normal.genes());
  assert(end <= scheme3_threads(scheme, tumor.genes()));
  switch (scheme) {
    case Scheme3::k1x2:
      return eval3_1x2(tumor, normal, ctx, begin, end, opts, stats, arena);
    case Scheme3::k2x1:
      return eval3_2x1(tumor, normal, ctx, begin, end, opts, stats, arena);
    case Scheme3::k3x1:
      return eval3_3x1(tumor, normal, ctx, begin, end, stats);
  }
  return {};
}

}  // namespace multihit
