#pragma once
// Word-level kernels over packed sample rows, behind a runtime-dispatched
// backend.
//
// The paper packs 64 samples per `unsigned long long` (a 32x memory
// reduction versus one int per sample) and replaces per-sample arithmetic
// with bitwise AND + popcount. These free functions are the arithmetic core
// of every enumeration kernel — every combination a kernel visits costs one
// and_popcount per matrix — so they are the unit of scale the whole system
// is built around.
//
// Two implementations live behind the public functions:
//
//   kScalar  portable word loop (std::popcount); the bit-exact reference
//            every other backend is pinned to in tests/test_bitops_simd.cpp.
//   kAvx2    AVX2 bit-sliced kernels: 4 words per vector, nibble-LUT
//            (vpshufb) popcount with Harley-Seal carry-save accumulation on
//            long rows, unaligned loads throughout (rows are only 8-byte
//            aligned after BitSplicing shifts). Compiled with per-function
//            target attributes, so the rest of the binary stays baseline
//            x86-64 and the backend is a pure *runtime* decision.
//
// The staged inner loop of every MemOpt2 kernel runs through one batched
// primitive, and_popcount_rows: a single dispatched call scores a staged
// prefix against a whole contiguous block of rows, so the indirect call and
// the reduction set-up are paid once per prefix instead of once per
// combination.
//
// Dispatch is resolved once from CPUID (and the MULTIHIT_BITOPS environment
// override: "scalar", "avx2", or "auto") on first use; set_backend() can
// retarget it at any time. All backends produce bit-identical counts, so the
// choice is invisible to everything above — only the wall clock moves.
//
// Length contract: all multi-row operations require equal-length spans
// (and_popcount_rows: rows.size() == out.size() * pre.size()). In
// checked builds (!NDEBUG or MULTIHIT_CHECKS, the ASan preset) a mismatch
// aborts with a diagnostic; release builds trust the caller (BitMatrix rows
// are same-width by construction).

#include <cstdint>
#include <span>

namespace multihit {

// ---------------------------------------------------------------------------
// Backend selection
// ---------------------------------------------------------------------------

enum class BitopsBackend {
  kScalar,  ///< portable reference path
  kAvx2,    ///< AVX2(+BMI2) vectorized popcount
};

/// Human-readable backend name ("scalar", "avx2").
const char* backend_name(BitopsBackend backend) noexcept;

/// True when the running CPU can execute `backend` (CPUID probe; kScalar is
/// always supported).
bool backend_supported(BitopsBackend backend) noexcept;

/// The backend the free functions currently dispatch to. First call resolves
/// the MULTIHIT_BITOPS override ("scalar" | "avx2" | "auto"; unset == auto);
/// auto picks the fastest supported backend. An unsupported or unrecognized
/// override logs a warning and falls back to auto.
BitopsBackend active_backend() noexcept;

/// Retargets dispatch. Returns false (and leaves dispatch unchanged) when
/// the backend is not supported on this CPU. Thread-safe, but callers are
/// expected to settle the backend before spawning sweep workers.
bool set_backend(BitopsBackend backend) noexcept;

/// Parses a MULTIHIT_BITOPS-style name: "scalar" -> kScalar, "avx2" ->
/// kAvx2, "auto" / nullptr -> the best supported backend. Unknown names
/// return auto and set *ok to false when ok is non-null.
BitopsBackend parse_backend(const char* name, bool* ok = nullptr) noexcept;

// ---------------------------------------------------------------------------
// Dispatched kernels (the public hot path)
// ---------------------------------------------------------------------------

/// popcount over one row.
std::uint64_t popcount_row(std::span<const std::uint64_t> a) noexcept;

/// popcount(a & b). Rows must be the same length.
std::uint64_t and_popcount(std::span<const std::uint64_t> a,
                           std::span<const std::uint64_t> b) noexcept;

/// popcount(a & b & c).
std::uint64_t and_popcount(std::span<const std::uint64_t> a, std::span<const std::uint64_t> b,
                           std::span<const std::uint64_t> c) noexcept;

/// popcount(a & b & c & d).
std::uint64_t and_popcount(std::span<const std::uint64_t> a, std::span<const std::uint64_t> b,
                           std::span<const std::uint64_t> c,
                           std::span<const std::uint64_t> d) noexcept;

/// popcount(a & ~b): the complement side — samples present in `a` that are
/// NOT hit in `b` (e.g. tumor samples a candidate set leaves uncovered)
/// counted directly, without materializing the complement row.
std::uint64_t andnot_popcount(std::span<const std::uint64_t> a,
                              std::span<const std::uint64_t> b) noexcept;

/// out[r] = popcount(pre & rows[r]) for each of the out.size() rows in
/// `rows`, a contiguous block of rows pre.size() words wide each (as
/// BitMatrix::rows hands out). The batched MemOpt2 inner loop: one call
/// scores every row l against a staged prefix pre = row(i) & row(j) & ...
void and_popcount_rows(std::span<const std::uint64_t> pre, std::span<const std::uint64_t> rows,
                       std::span<std::uint32_t> out) noexcept;

/// dst = a & b. The prefetch step of MemOpt1/MemOpt2: a thread with fixed
/// (i, j) ANDs those rows once into thread-local storage instead of
/// re-reading both from global memory on every inner iteration.
void and_rows(std::span<std::uint64_t> dst, std::span<const std::uint64_t> a,
              std::span<const std::uint64_t> b) noexcept;

/// dst &= a, in place.
void and_rows_inplace(std::span<std::uint64_t> dst, std::span<const std::uint64_t> a) noexcept;

/// dst = a & ~b: stages the complement-masked row, the ANDNOT counterpart of
/// and_rows.
void andnot_rows(std::span<std::uint64_t> dst, std::span<const std::uint64_t> a,
                 std::span<const std::uint64_t> b) noexcept;

// ---------------------------------------------------------------------------
// Dispatched-call counting (host profiler support)
// ---------------------------------------------------------------------------

/// Per-thread counts of dispatched kernel calls, one counter per public
/// entry point. Plain monotonic counters: they only advance while call
/// counting is enabled, and only for calls made by the reading thread.
struct BitopsCallCounts {
  std::uint64_t popcount_row = 0;
  std::uint64_t and2 = 0;
  std::uint64_t and3 = 0;
  std::uint64_t and4 = 0;
  std::uint64_t and_rows = 0;
  std::uint64_t and_rows_inplace = 0;
  std::uint64_t andnot2 = 0;
  std::uint64_t andnot_rows = 0;
  std::uint64_t and_popcount_rows = 0;

  std::uint64_t total() const noexcept {
    return popcount_row + and2 + and3 + and4 + and_rows + and_rows_inplace + andnot2 +
           andnot_rows + and_popcount_rows;
  }

  BitopsCallCounts operator-(const BitopsCallCounts& other) const noexcept {
    return {popcount_row - other.popcount_row,
            and2 - other.and2,
            and3 - other.and3,
            and4 - other.and4,
            and_rows - other.and_rows,
            and_rows_inplace - other.and_rows_inplace,
            andnot2 - other.andnot2,
            andnot_rows - other.andnot_rows,
            and_popcount_rows - other.and_popcount_rows};
  }
};

/// Swaps the dispatch table between the plain kernels and counting wrappers
/// that bump this thread's BitopsCallCounts before forwarding. When counting
/// is off (the default) the plain table is installed and the hot path pays
/// nothing — not even a branch. Returns the previous state. Thread-safe, but
/// like set_backend callers should settle it before spawning sweep workers.
bool set_call_counting(bool enabled) noexcept;

/// Whether the counting tables are currently installed.
bool call_counting() noexcept;

/// The calling thread's dispatched-call counters. Snapshot before and after
/// a counted region and subtract; counts never reset.
const BitopsCallCounts& thread_bitops_calls() noexcept;

// ---------------------------------------------------------------------------
// Direct backend entry points (tests and benches pin these against each
// other; production code goes through the dispatched functions above)
// ---------------------------------------------------------------------------

namespace bitops_scalar {
std::uint64_t popcount_row(std::span<const std::uint64_t> a) noexcept;
std::uint64_t and_popcount2(std::span<const std::uint64_t> a,
                            std::span<const std::uint64_t> b) noexcept;
std::uint64_t and_popcount3(std::span<const std::uint64_t> a, std::span<const std::uint64_t> b,
                            std::span<const std::uint64_t> c) noexcept;
std::uint64_t and_popcount4(std::span<const std::uint64_t> a, std::span<const std::uint64_t> b,
                            std::span<const std::uint64_t> c,
                            std::span<const std::uint64_t> d) noexcept;
std::uint64_t andnot_popcount2(std::span<const std::uint64_t> a,
                               std::span<const std::uint64_t> b) noexcept;
void and_rows(std::span<std::uint64_t> dst, std::span<const std::uint64_t> a,
              std::span<const std::uint64_t> b) noexcept;
void and_rows_inplace(std::span<std::uint64_t> dst, std::span<const std::uint64_t> a) noexcept;
void andnot_rows(std::span<std::uint64_t> dst, std::span<const std::uint64_t> a,
                 std::span<const std::uint64_t> b) noexcept;
void and_popcount_rows(std::span<const std::uint64_t> pre, std::span<const std::uint64_t> rows,
                       std::span<std::uint32_t> out) noexcept;
}  // namespace bitops_scalar

/// AVX2 entry points exist on every x86-64 build (per-function target
/// attributes); calling them on a CPU without AVX2 is undefined — gate on
/// backend_supported(BitopsBackend::kAvx2). On non-x86 builds they forward
/// to the scalar reference so callers can link unconditionally.
namespace bitops_avx2 {
std::uint64_t popcount_row(std::span<const std::uint64_t> a) noexcept;
std::uint64_t and_popcount2(std::span<const std::uint64_t> a,
                            std::span<const std::uint64_t> b) noexcept;
std::uint64_t and_popcount3(std::span<const std::uint64_t> a, std::span<const std::uint64_t> b,
                            std::span<const std::uint64_t> c) noexcept;
std::uint64_t and_popcount4(std::span<const std::uint64_t> a, std::span<const std::uint64_t> b,
                            std::span<const std::uint64_t> c,
                            std::span<const std::uint64_t> d) noexcept;
std::uint64_t andnot_popcount2(std::span<const std::uint64_t> a,
                               std::span<const std::uint64_t> b) noexcept;
void and_rows(std::span<std::uint64_t> dst, std::span<const std::uint64_t> a,
              std::span<const std::uint64_t> b) noexcept;
void and_rows_inplace(std::span<std::uint64_t> dst, std::span<const std::uint64_t> a) noexcept;
void andnot_rows(std::span<std::uint64_t> dst, std::span<const std::uint64_t> a,
                 std::span<const std::uint64_t> b) noexcept;
void and_popcount_rows(std::span<const std::uint64_t> pre, std::span<const std::uint64_t> rows,
                       std::span<std::uint32_t> out) noexcept;
}  // namespace bitops_avx2

}  // namespace multihit
