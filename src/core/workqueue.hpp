#pragma once
// Lock-free chunked work distribution over a linear λ index range.
//
// The shape is the bit-parallel exhaustive-search idiom (cf. Dimitrov's
// planar_mt.cpp): one atomic counter hands out fixed-size chunks of a
// linearized combination space, workers pull until the counter passes the
// end, and each worker accumulates its own best candidate — no shared state
// besides the counter, no locks, no false sharing on results. Determinism
// does not depend on arrival order: chunks are identified by their begin
// index, and the final merge folds candidates in index order.

#include <algorithm>
#include <atomic>
#include <cstdint>

namespace multihit {

class ChunkQueue {
 public:
  /// Distributes [begin, end) in chunks of `chunk` indices (the final chunk
  /// may be short). chunk must be >= 1.
  ChunkQueue(std::uint64_t begin, std::uint64_t end, std::uint64_t chunk) noexcept
      : begin_(begin), end_(end), chunk_(chunk < 1 ? 1 : chunk) {}

  /// Claims the next chunk. Returns false when the range is exhausted.
  /// Wait-free: one fetch_add per claim.
  bool next(std::uint64_t* chunk_begin, std::uint64_t* chunk_end) noexcept {
    const std::uint64_t index = cursor_.fetch_add(1, std::memory_order_relaxed);
    if (index >= chunk_count()) return false;
    // index < chunk_count(), so index * chunk_ < end_ - begin_; clamping the
    // remaining length instead of the end keeps both sums below end_.
    *chunk_begin = begin_ + index * chunk_;
    *chunk_end = *chunk_begin + std::min(chunk_, end_ - *chunk_begin);
    return true;
  }

  std::uint64_t chunk_size() const noexcept { return chunk_; }

  /// ceil(span / chunk), without the wrap of (span + chunk - 1) / chunk near
  /// 2^64.
  std::uint64_t chunk_count() const noexcept {
    const std::uint64_t span = end_ > begin_ ? end_ - begin_ : 0;
    return span / chunk_ + (span % chunk_ != 0 ? 1 : 0);
  }

  // Starvation accounting for the host profiler, read for free off the
  // existing cursor: every next() is one poll, polls past the chunk count
  // came back empty. Each worker's drain loop fails exactly once, so at
  // quiescence empty_polls() == worker count — a deterministic invariant the
  // hostprof crosscheck pins.

  /// next() calls so far (racy while workers run; exact after they join).
  std::uint64_t polls() const noexcept { return cursor_.load(std::memory_order_relaxed); }

  /// Successful claims among polls().
  std::uint64_t claimed() const noexcept { return std::min(polls(), chunk_count()); }

  /// Failed claims among polls().
  std::uint64_t empty_polls() const noexcept { return polls() - claimed(); }

 private:
  const std::uint64_t begin_;
  const std::uint64_t end_;
  const std::uint64_t chunk_;
  std::atomic<std::uint64_t> cursor_{0};
};

}  // namespace multihit
