#pragma once
// Host-side multithreaded sweep: the real combinatorial workload on real
// silicon.
//
// The simulated cluster partitions the λ space with the equi-area scheduler
// and *models* time; this sweep runs the same enumeration kernels over the
// same λ space with actual std::threads, pulling fixed-size chunks off a
// lock-free ChunkQueue (core/workqueue.hpp) so stragglers self-balance —
// the planar_mt.cpp shape: atomic work counter, per-worker accumulation,
// merge at the end.
//
// Determinism: every chunk produces at most one candidate tagged with its
// chunk-begin λ; workers append to private lists, and the final fold sorts
// candidates by that linear index before merging. Together with the strict
// (F desc, rank asc) total order of EvalResult, selections are bit-identical
// across thread counts, chunk sizes, and backends — pinned by
// tests/test_hostsweep.cpp against both the serial reference and the
// simulated-cluster path. Every chunk starts from the same pilot incumbent
// (pilot_incumbent below) so the kernels' prefix bound skips work from the
// first prefix on; workers share no running best, so which prefixes are
// skipped, and every dispatched call count, is as deterministic as the
// selection.

#include <cstdint>

#include "bitmat/bitmatrix.hpp"
#include "core/engine.hpp"
#include "core/fscore.hpp"
#include "core/result.hpp"
#include "core/schemes.hpp"

namespace multihit::obs {
class HostProfiler;
}

namespace multihit {

struct HostSweepOptions {
  std::uint32_t hits = 4;       ///< 2, 3, 4, or 5
  std::uint32_t threads = 0;    ///< worker count; 0 = hardware_concurrency
  std::uint64_t chunk = 1024;   ///< λ indices per queue grab
  Scheme4 scheme4 = Scheme4::k3x1;  ///< used when hits == 4
  Scheme3 scheme3 = Scheme3::k2x1;  ///< used when hits == 3
  Scheme2 scheme2 = Scheme2::k1x1;  ///< used when hits == 2
  Scheme5 scheme5 = Scheme5::k4x1;  ///< used when hits == 5
  MemOpts mem_opts{.prefetch_i = true, .prefetch_j = true};
  /// Optional wall-clock profiler (obs/hostprof.hpp). Null keeps the worker
  /// loop on its original untimed path; non-null adds two steady_clock reads
  /// per chunk and never changes which combination is selected — profiled
  /// and unprofiled sweeps are bit-identical (pinned by tests and the ci.sh
  /// hostprof smoke).
  obs::HostProfiler* profiler = nullptr;
};

/// Wall-clock-free accounting for one sweep (all deterministic).
struct HostSweepTelemetry {
  std::uint32_t threads = 0;            ///< workers actually launched (post-clamp)
  std::uint32_t threads_requested = 0;  ///< workers asked for, before the chunk-count clamp
  std::uint64_t chunk_size = 0;         ///< λ indices per queue grab actually used
  std::uint64_t chunks = 0;             ///< chunks distributed
  std::uint64_t candidates = 0;         ///< valid per-chunk candidates merged
  std::uint64_t arena_blocks = 0;       ///< heap blocks across all worker arenas
  KernelStats stats;                    ///< summed over workers in index order

  /// Accumulates another sweep's accounting (one greedy run = one sweep per
  /// iteration). Counters sum; the configuration fields (threads, chunk
  /// size) take the latest sweep's values.
  HostSweepTelemetry& operator+=(const HostSweepTelemetry& other) noexcept {
    threads = other.threads;
    threads_requested = other.threads_requested;
    chunk_size = other.chunk_size;
    chunks += other.chunks;
    candidates += other.candidates;
    arena_blocks += other.arena_blocks;
    stats += other.stats;
    return *this;
  }
};

/// The incumbent every sweep chunk starts from (see evaluate_range):
/// one h-combination grown greedily, each step adding the gene whose row
/// keeps the most tumor samples of the current prefix (lowest index on
/// ties), scored with f_score and ranked with rank_combination. Invalid
/// when tumor.genes() < hits.
EvalResult pilot_incumbent(const BitMatrix& tumor, const BitMatrix& normal, const FContext& ctx,
                           std::uint32_t hits);

/// One maxF evaluation over the full λ space of the scheme selected by
/// options.hits, distributed over host threads. Requires
/// tumor.genes() == normal.genes() and options.hits in [2, 5].
EvalResult host_sweep_find_best(const BitMatrix& tumor, const BitMatrix& normal,
                                const FContext& ctx, const HostSweepOptions& options,
                                HostSweepTelemetry* telemetry = nullptr);

/// Evaluator running the threaded sweep each greedy iteration — drop-in for
/// make_serial_evaluator/make_kernel_evaluator in run_greedy. When
/// `telemetry_sink` is non-null, every evaluation accumulates its sweep
/// accounting into it (operator+=), so engine runs through this evaluator
/// report the same kernel stats the serial and cluster paths do; the sink
/// must outlive the evaluator and is not thread-safe across concurrent
/// evaluations (the greedy loop is sequential).
Evaluator make_host_sweep_evaluator(HostSweepOptions options,
                                    HostSweepTelemetry* telemetry_sink = nullptr);

}  // namespace multihit
