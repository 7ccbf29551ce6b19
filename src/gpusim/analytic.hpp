#pragma once
// Closed-form kernel accounting.
//
// For full-scale spaces (C(19411,4) ≈ 5.9e15 combinations) the enumeration
// kernel cannot run, but its operation and traffic counts are exactly
// summable over the level structure of each shape: every thread whose
// largest prefix gene is c costs the same thread_cost (core/schemes.hpp),
// the one formula the kernel itself counts with. That is what lets the
// performance model price paper-scale runs without enumerating anything.

#include <cstdint>

#include "core/schemes.hpp"

namespace multihit {

/// Stats evaluate_range would count over threads [begin, end) of `shape`.
/// `tumor_words` / `normal_words` are the packed row widths.
KernelStats analytic_stats(SchemeShape shape, std::uint32_t genes, std::uint64_t begin,
                           std::uint64_t end, const MemOpts& opts, std::uint32_t tumor_words,
                           std::uint32_t normal_words);

}  // namespace multihit
