#include "gpusim/analytic.hpp"

#include <algorithm>

#include "combinat/linearize.hpp"

namespace multihit {

KernelStats analytic_stats(SchemeShape shape, std::uint32_t genes, std::uint64_t begin,
                           std::uint64_t end, const MemOpts& opts, std::uint32_t tumor_words,
                           std::uint32_t normal_words) {
  KernelStats stats;
  if (begin >= end) return stats;
  const std::uint64_t row_words = std::uint64_t{tumor_words} + normal_words;
  const std::uint32_t p = shape.prefix;
  // Level c holds threads [C(c,p), C(c+1,p)); sum its clipped share of
  // [begin, end) times the per-thread cost.
  const std::uint32_t last = combination_level(end - 1, p);
  for (std::uint32_t c = combination_level(begin, p); c <= last; ++c) {
    const std::uint64_t lo = std::max(small_binomial(c, p), begin);
    const std::uint64_t hi = std::min(small_binomial(c + 1, p), end);
    if (hi <= lo) continue;
    const std::uint64_t n = hi - lo;
    const KernelStats one = thread_cost(shape, genes, c, row_words, opts);
    stats += {n * one.combinations, n * one.word_ops, n * one.global_words, n * one.local_words};
  }
  return stats;
}

}  // namespace multihit
