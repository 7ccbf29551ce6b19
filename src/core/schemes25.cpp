// 2-hit and 5-hit enumeration kernels — the hit counts bracketing the
// paper's 3/4-hit implementations (2-hit: the original single-CPU problem;
// 5-hit: the §V extension, each extra hit costing ~4e5x more compute).

#include <algorithm>
#include <bit>
#include <cassert>
#include <span>

#include "combinat/linearize.hpp"
#include "core/kernel_detail.hpp"
#include "core/schemes.hpp"

namespace multihit {

namespace {

using detail::BestTracker;
using detail::Scratch;
using detail::advance_pair;
using detail::advance_quad;
using detail::advance_triple;
using detail::scan_staged;

// ---------------------------------------------------------------------------
// 2-hit kernels
// ---------------------------------------------------------------------------

// Thread = i; inner loop over j.
EvalResult eval2_1x1(const BitMatrix& tumor, const BitMatrix& normal, const FContext& ctx,
                     std::uint64_t begin, std::uint64_t end, const MemOpts& opts,
                     KernelStats* stats, Arena* arena) {
  const std::uint32_t genes = tumor.genes();
  const std::uint64_t wt = tumor.words_per_row();
  const std::uint64_t wn = normal.words_per_row();
  BestTracker best(ctx);
  Scratch scratch(tumor, normal, arena);
  const bool prefetch = opts.prefetch_i || opts.prefetch_j;

  for (std::uint64_t lambda = begin; lambda < end; ++lambda) {
    const auto i = static_cast<std::uint32_t>(lambda);
    const std::uint64_t inner = genes - 1 - i;
    if (inner == 0) continue;

    const auto rank_of = [&](std::uint32_t j) { return std::uint64_t{i} + triangular(j); };
    if (prefetch) {
      std::ranges::copy(tumor.row(i), scratch.t1.begin());
      std::ranges::copy(normal.row(i), scratch.n1.begin());
      scan_staged(best, scratch, tumor, normal, scratch.t1, scratch.n1, i + 1, rank_of);
    } else {
      for (std::uint32_t j = i + 1; j < genes; ++j) {
        const std::uint64_t tp = and_popcount(tumor.row(i), tumor.row(j));
        const std::uint64_t nh = and_popcount(normal.row(i), normal.row(j));
        best.consider(tp, nh, [&] { return rank_of(j); });
      }
    }
    if (stats) {
      stats->combinations += inner;
      stats->word_ops += inner * (wt + wn);
      stats->global_words += (prefetch ? (wt + wn) : 0) +
                             inner * (prefetch ? 1 : 2) * (wt + wn);
      stats->local_words += prefetch ? inner * (wt + wn) : 0;
      stats->distinct_rows += 2 * (genes - i);
    }
  }
  return best.result();
}

// Thread = one pair.
EvalResult eval2_2x1(const BitMatrix& tumor, const BitMatrix& normal, const FContext& ctx,
                     std::uint64_t begin, std::uint64_t end, KernelStats* stats) {
  const std::uint64_t wt = tumor.words_per_row();
  const std::uint64_t wn = normal.words_per_row();
  BestTracker best(ctx);

  Pair p = begin < end ? unrank_pair(begin) : Pair{};
  for (std::uint64_t lambda = begin; lambda < end; ++lambda, advance_pair(p)) {
    const std::uint64_t tp = and_popcount(tumor.row(p.i), tumor.row(p.j));
    const std::uint64_t nh = and_popcount(normal.row(p.i), normal.row(p.j));
    best.consider(tp, nh, [&] { return lambda; });
  }
  if (stats && end > begin) {
    const std::uint64_t n = end - begin;
    stats->combinations += n;
    stats->word_ops += n * (wt + wn);
    stats->global_words += n * 2 * (wt + wn);
    stats->distinct_rows += n * 4;
  }
  return best.result();
}

// ---------------------------------------------------------------------------
// 5-hit kernels
// ---------------------------------------------------------------------------

// Thread = (i, j, k, l); inner loop over m — the 3x1 scheme's natural
// successor, with the O(G) workload spread that made 3x1 scale.
EvalResult eval5_4x1(const BitMatrix& tumor, const BitMatrix& normal, const FContext& ctx,
                     std::uint64_t begin, std::uint64_t end, const MemOpts& opts,
                     KernelStats* stats, Arena* arena) {
  const std::uint32_t genes = tumor.genes();
  const std::uint64_t wt = tumor.words_per_row();
  const std::uint64_t wn = normal.words_per_row();
  BestTracker best(ctx);
  Scratch scratch(tumor, normal, arena);

  Quad q = begin < end ? unrank_quad(begin) : Quad{};
  for (std::uint64_t lambda = begin; lambda < end; ++lambda, advance_quad(q)) {
    const std::uint64_t inner = genes - 1 - q.l;
    if (inner == 0) continue;
    const std::uint64_t base_rank = rank_quad(q);  // + C(m,5) per combination

    if (opts.prefetch_j) {
      const std::uint32_t fixed[4] = {q.i, q.j, q.k, q.l};
      tumor.combine_rows(fixed, scratch.t1);
      normal.combine_rows(fixed, scratch.n1);
      scan_staged(best, scratch, tumor, normal, scratch.t1, scratch.n1, q.l + 1,
                  [&](std::uint32_t m) { return base_rank + quintic(m); });
      if (stats) {
        stats->word_ops += 3 * (wt + wn) + inner * (wt + wn);
        stats->global_words += 4 * (wt + wn) + inner * (wt + wn);
        stats->local_words += inner * (wt + wn);
      }
    } else {
      std::span<const std::uint64_t> row_ti = tumor.row(q.i);
      std::span<const std::uint64_t> row_ni = normal.row(q.i);
      if (opts.prefetch_i) {
        std::copy(row_ti.begin(), row_ti.end(), scratch.t1.begin());
        std::copy(row_ni.begin(), row_ni.end(), scratch.n1.begin());
        row_ti = scratch.t1;
        row_ni = scratch.n1;
      }
      for (std::uint32_t m = q.l + 1; m < genes; ++m) {
        std::uint64_t tp = 0, nh = 0;
        for (std::uint32_t w = 0; w < wt; ++w) {
          tp += static_cast<std::uint64_t>(std::popcount(
              row_ti[w] & tumor.row(q.j)[w] & tumor.row(q.k)[w] & tumor.row(q.l)[w] &
              tumor.row(m)[w]));
        }
        for (std::uint32_t w = 0; w < wn; ++w) {
          nh += static_cast<std::uint64_t>(std::popcount(
              row_ni[w] & normal.row(q.j)[w] & normal.row(q.k)[w] & normal.row(q.l)[w] &
              normal.row(m)[w]));
        }
        best.consider(tp, nh, [&] { return base_rank + quintic(m); });
      }
      if (stats) {
        stats->word_ops += inner * 4 * (wt + wn);
        const std::uint64_t global_rows_per_combo = opts.prefetch_i ? 4 : 5;
        stats->global_words += (opts.prefetch_i ? (wt + wn) : 0) +
                               inner * global_rows_per_combo * (wt + wn);
        stats->local_words += opts.prefetch_i ? inner * (wt + wn) : 0;
      }
    }
    if (stats) {
      stats->combinations += inner;
      stats->distinct_rows += 2 * (4 + inner);
    }
  }
  return best.result();
}

// Thread = (i, j, k); inner loops over l, m.
EvalResult eval5_3x2(const BitMatrix& tumor, const BitMatrix& normal, const FContext& ctx,
                     std::uint64_t begin, std::uint64_t end, const MemOpts& opts,
                     KernelStats* stats, Arena* arena) {
  const std::uint32_t genes = tumor.genes();
  const std::uint64_t wt = tumor.words_per_row();
  const std::uint64_t wn = normal.words_per_row();
  BestTracker best(ctx);
  Scratch scratch(tumor, normal, arena);

  Triple t = begin < end ? unrank_triple(begin) : Triple{};
  for (std::uint64_t lambda = begin; lambda < end; ++lambda, advance_triple(t)) {
    if (t.k + 2 >= genes) {  // no room for l < m above k
      if (stats) stats->distinct_rows += 2 * 3;
      continue;
    }
    const std::uint64_t base_rank = t.i + triangular(t.j) + tetrahedral(t.k);
    std::uint64_t inner = 0;

    if (opts.prefetch_j) {
      const std::uint32_t fixed[3] = {t.i, t.j, t.k};
      tumor.combine_rows(fixed, scratch.t1);
      normal.combine_rows(fixed, scratch.n1);
      for (std::uint32_t l = t.k + 1; l + 1 < genes; ++l) {
        and_rows(scratch.t2, scratch.t1, tumor.row(l));
        and_rows(scratch.n2, scratch.n1, normal.row(l));
        const std::uint64_t rank_ijkl = base_rank + quartic(l);
        scan_staged(best, scratch, tumor, normal, scratch.t2, scratch.n2, l + 1,
                    [&](std::uint32_t m) { return rank_ijkl + quintic(m); });
        inner += genes - 1 - l;
      }
      if (stats) {
        const std::uint64_t nl = genes - 2 - t.k;
        stats->word_ops += (2 + nl) * (wt + wn) + inner * (wt + wn);
        stats->global_words += 3 * (wt + wn) + nl * (wt + wn) + inner * (wt + wn);
        stats->local_words += inner * (wt + wn);
      }
    } else {
      std::span<const std::uint64_t> row_ti = tumor.row(t.i);
      std::span<const std::uint64_t> row_ni = normal.row(t.i);
      if (opts.prefetch_i) {
        std::copy(row_ti.begin(), row_ti.end(), scratch.t1.begin());
        std::copy(row_ni.begin(), row_ni.end(), scratch.n1.begin());
        row_ti = scratch.t1;
        row_ni = scratch.n1;
      }
      for (std::uint32_t l = t.k + 1; l + 1 < genes; ++l) {
        const std::uint64_t rank_ijkl = base_rank + quartic(l);
        for (std::uint32_t m = l + 1; m < genes; ++m) {
          std::uint64_t tp = 0, nh = 0;
          for (std::uint32_t w = 0; w < wt; ++w) {
            tp += static_cast<std::uint64_t>(std::popcount(
                row_ti[w] & tumor.row(t.j)[w] & tumor.row(t.k)[w] & tumor.row(l)[w] &
                tumor.row(m)[w]));
          }
          for (std::uint32_t w = 0; w < wn; ++w) {
            nh += static_cast<std::uint64_t>(std::popcount(
                row_ni[w] & normal.row(t.j)[w] & normal.row(t.k)[w] & normal.row(l)[w] &
                normal.row(m)[w]));
          }
          best.consider(tp, nh, [&] { return rank_ijkl + quintic(m); });
          ++inner;
        }
      }
      if (stats) {
        stats->word_ops += inner * 4 * (wt + wn);
        const std::uint64_t global_rows_per_combo = opts.prefetch_i ? 4 : 5;
        stats->global_words += (opts.prefetch_i ? (wt + wn) : 0) +
                               inner * global_rows_per_combo * (wt + wn);
        stats->local_words += opts.prefetch_i ? inner * (wt + wn) : 0;
      }
    }
    if (stats) {
      stats->combinations += inner;
      stats->distinct_rows += 2 * (3 + (genes - 1 - t.k));
    }
  }
  return best.result();
}

}  // namespace

const char* scheme_name(Scheme2 scheme) noexcept {
  switch (scheme) {
    case Scheme2::k1x1:
      return "1x1";
    case Scheme2::k2x1:
      return "2x1";
  }
  return "?";
}

const char* scheme_name(Scheme5 scheme) noexcept {
  switch (scheme) {
    case Scheme5::k3x2:
      return "3x2";
    case Scheme5::k4x1:
      return "4x1";
  }
  return "?";
}

std::uint64_t scheme2_threads(Scheme2 scheme, std::uint32_t genes) noexcept {
  switch (scheme) {
    case Scheme2::k1x1:
      return genes;
    case Scheme2::k2x1:
      return triangular(genes);
  }
  return 0;
}

std::uint64_t scheme5_threads(Scheme5 scheme, std::uint32_t genes) noexcept {
  switch (scheme) {
    case Scheme5::k3x2:
      return tetrahedral(genes);
    case Scheme5::k4x1:
      return quartic(genes);
  }
  return 0;
}

std::uint64_t scheme2_thread_work(Scheme2 scheme, std::uint32_t genes,
                                  std::uint64_t lambda) noexcept {
  switch (scheme) {
    case Scheme2::k1x1:
      return genes - 1 - static_cast<std::uint32_t>(lambda);
    case Scheme2::k2x1:
      return 1;
  }
  return 0;
}

std::uint64_t scheme5_thread_work(Scheme5 scheme, std::uint32_t genes,
                                  std::uint64_t lambda) noexcept {
  switch (scheme) {
    case Scheme5::k3x2: {
      const std::uint32_t k = tetrahedral_level(lambda);
      return triangular(genes - 1 - k);
    }
    case Scheme5::k4x1: {
      const std::uint32_t l = quartic_level(lambda);
      return genes - 1 - l;
    }
  }
  return 0;
}

EvalResult evaluate_range_2hit(const BitMatrix& tumor, const BitMatrix& normal,
                               const FContext& ctx, Scheme2 scheme, std::uint64_t begin,
                               std::uint64_t end, const MemOpts& opts, KernelStats* stats,
                               Arena* arena) {
  assert(tumor.genes() == normal.genes());
  assert(end <= scheme2_threads(scheme, tumor.genes()));
  switch (scheme) {
    case Scheme2::k1x1:
      return eval2_1x1(tumor, normal, ctx, begin, end, opts, stats, arena);
    case Scheme2::k2x1:
      return eval2_2x1(tumor, normal, ctx, begin, end, stats);
  }
  return {};
}

EvalResult evaluate_range_5hit(const BitMatrix& tumor, const BitMatrix& normal,
                               const FContext& ctx, Scheme5 scheme, std::uint64_t begin,
                               std::uint64_t end, const MemOpts& opts, KernelStats* stats,
                               Arena* arena) {
  assert(tumor.genes() == normal.genes());
  assert(end <= scheme5_threads(scheme, tumor.genes()));
  switch (scheme) {
    case Scheme5::k3x2:
      return eval5_3x2(tumor, normal, ctx, begin, end, opts, stats, arena);
    case Scheme5::k4x1:
      return eval5_4x1(tumor, normal, ctx, begin, end, opts, stats, arena);
  }
  return {};
}

}  // namespace multihit
