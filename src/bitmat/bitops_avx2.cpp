// AVX2 backend: bit-sliced AND + popcount over packed sample rows.
//
// Structure of every kernel (the vectorized-popcount pattern):
//
//   1. 64-word Harley-Seal blocks: sixteen 256-bit vectors are folded through
//      a carry-save-adder tree (ones/twos/fours/eights/sixteens), so the
//      nibble-LUT popcount runs once per SIXTEEN vectors instead of once per
//      vector — the classic Muła/Kurz/Lemire formulation.
//   2. 4-word vector tail: plain per-vector LUT popcount.
//   3. <4-word masked tail: _mm256_maskload_epi64 reads exactly the words
//      that remain (masked-off lanes are never touched, so reading a partial
//      trailing vector is safe) and zero-fills the rest — popcounts stay
//      bit-identical to the scalar reference because the fill is zero.
//
// Rows shorter than one Harley-Seal block (the common case at BRCA scale:
// 911 tumor samples = 15 words) bypass the CSA state entirely — a plain
// popcount-accumulate over vectors plus one horizontal sum, so the fixed
// hs_finish cost is never paid on short rows.
//
// and_popcount_rows batches the 2-arity kernel over a block of rows; its
// short-row path is described where it is defined.
//
// The row AND (2-, 3-, 4-arity) is fused into the load stage, so higher
// arities cost extra loads + vpand only. All loads are unaligned
// (_mm256_loadu_si256): rows are only 8-byte aligned, and BitSplicing and
// the differential tests deliberately shift span offsets.
//
// Everything is compiled with per-function target attributes
// ("avx2,bmi2"), keeping the translation unit buildable at baseline x86-64;
// callers must gate on backend_supported(BitopsBackend::kAvx2). On non-x86
// architectures the entry points forward to the scalar reference.

#include "bitmat/bitops.hpp"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <bit>

#define MULTIHIT_TARGET_AVX2 __attribute__((target("avx2,bmi2,popcnt")))

namespace multihit::bitops_avx2 {

namespace {

MULTIHIT_TARGET_AVX2 inline __m256i loadu(const std::uint64_t* p) noexcept {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

MULTIHIT_TARGET_AVX2 inline void storeu(std::uint64_t* p, __m256i v) noexcept {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

/// Per-byte popcount: nibble-LUT vpshufb counts, at most 8 per byte.
MULTIHIT_TARGET_AVX2 inline __m256i popcount_bytes(__m256i v) noexcept {
  const __m256i lut = _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,  //
                                       0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi32(v, 4), low_mask);
  return _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
}

/// Per-vector popcount: per-byte counts, then vpsadbw folds bytes into four
/// 64-bit lane sums.
MULTIHIT_TARGET_AVX2 inline __m256i popcount256(__m256i v) noexcept {
  return _mm256_sad_epu8(popcount_bytes(v), _mm256_setzero_si256());
}

/// Carry-save adder: (h, l) = a + b + c per bit position.
MULTIHIT_TARGET_AVX2 inline __m256i csa(__m256i* h, __m256i a, __m256i b, __m256i c) noexcept {
  const __m256i u = _mm256_xor_si256(a, b);
  *h = _mm256_or_si256(_mm256_and_si256(a, b), _mm256_and_si256(u, c));
  return _mm256_xor_si256(u, c);
}

/// Harley-Seal accumulation state across 64-word blocks.
struct HsState {
  __m256i total, ones, twos, fours, eights;
};

MULTIHIT_TARGET_AVX2 inline void hs_init(HsState* s) noexcept {
  s->total = s->ones = s->twos = s->fours = s->eights = _mm256_setzero_si256();
}

/// Folds one staged block of sixteen vectors into the CSA tree; the LUT
/// popcount fires once, on the sixteens carry.
MULTIHIT_TARGET_AVX2 inline void hs_block(HsState* s, const __m256i v[16]) noexcept {
  __m256i twosA, twosB, foursA, foursB, eightsA, eightsB, sixteens;
  s->ones = csa(&twosA, s->ones, v[0], v[1]);
  s->ones = csa(&twosB, s->ones, v[2], v[3]);
  s->twos = csa(&foursA, s->twos, twosA, twosB);
  s->ones = csa(&twosA, s->ones, v[4], v[5]);
  s->ones = csa(&twosB, s->ones, v[6], v[7]);
  s->twos = csa(&foursB, s->twos, twosA, twosB);
  s->fours = csa(&eightsA, s->fours, foursA, foursB);
  s->ones = csa(&twosA, s->ones, v[8], v[9]);
  s->ones = csa(&twosB, s->ones, v[10], v[11]);
  s->twos = csa(&foursA, s->twos, twosA, twosB);
  s->ones = csa(&twosA, s->ones, v[12], v[13]);
  s->ones = csa(&twosB, s->ones, v[14], v[15]);
  s->twos = csa(&foursB, s->twos, twosA, twosB);
  s->fours = csa(&eightsB, s->fours, foursA, foursB);
  s->eights = csa(&sixteens, s->eights, eightsA, eightsB);
  s->total = _mm256_add_epi64(s->total, popcount256(sixteens));
}

/// Weighted fold of the residual CSA state into per-lane totals.
MULTIHIT_TARGET_AVX2 inline __m256i hs_fold(const HsState* s) noexcept {
  __m256i total = _mm256_slli_epi64(s->total, 4);
  total = _mm256_add_epi64(total, _mm256_slli_epi64(popcount256(s->eights), 3));
  total = _mm256_add_epi64(total, _mm256_slli_epi64(popcount256(s->fours), 2));
  total = _mm256_add_epi64(total, _mm256_slli_epi64(popcount256(s->twos), 1));
  return _mm256_add_epi64(total, popcount256(s->ones));
}

MULTIHIT_TARGET_AVX2 inline std::uint64_t hsum(__m256i v) noexcept {
  return static_cast<std::uint64_t>(_mm256_extract_epi64(v, 0)) +
         static_cast<std::uint64_t>(_mm256_extract_epi64(v, 1)) +
         static_cast<std::uint64_t>(_mm256_extract_epi64(v, 2)) +
         static_cast<std::uint64_t>(_mm256_extract_epi64(v, 3));
}

/// Transposed horizontal sum of four lane-sum vectors: qword lane r of the
/// result is the sum of v_r's four lanes, so four rows reduce in six ops.
MULTIHIT_TARGET_AVX2 inline __m256i hsum4(__m256i v0, __m256i v1, __m256i v2,
                                          __m256i v3) noexcept {
  // s01 = [v0.0+v0.1, v1.0+v1.1 | v0.2+v0.3, v1.2+v1.3], likewise s23.
  const __m256i s01 =
      _mm256_add_epi64(_mm256_unpacklo_epi64(v0, v1), _mm256_unpackhi_epi64(v0, v1));
  const __m256i s23 =
      _mm256_add_epi64(_mm256_unpacklo_epi64(v2, v3), _mm256_unpackhi_epi64(v2, v3));
  return _mm256_add_epi64(_mm256_permute2x128_si256(s01, s23, 0x20),
                          _mm256_permute2x128_si256(s01, s23, 0x31));
}

/// Load mask for the final rem (1..3) words: qword lanes < rem are read,
/// the rest are skipped by the hardware and come back zero.
MULTIHIT_TARGET_AVX2 inline __m256i tail_mask(std::size_t rem) noexcept {
  return _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(rem)),
                            _mm256_setr_epi64x(0, 1, 2, 3));
}

MULTIHIT_TARGET_AVX2 inline __m256i maskload(const std::uint64_t* p, __m256i mask) noexcept {
  return _mm256_maskload_epi64(reinterpret_cast<const long long*>(p), mask);
}

constexpr std::size_t kWordsPerVector = 4;
constexpr std::size_t kWordsPerBlock = 64;  // 16 vectors per Harley-Seal block

}  // namespace

MULTIHIT_TARGET_AVX2 std::uint64_t popcount_row(std::span<const std::uint64_t> a) noexcept {
  const std::uint64_t* pa = a.data();
  const std::size_t n = a.size();
  std::size_t w = 0;
  __m256i acc = _mm256_setzero_si256();
  if (n >= kWordsPerBlock) {
    HsState s;
    hs_init(&s);
    __m256i v[16];
    for (; w + kWordsPerBlock <= n; w += kWordsPerBlock) {
      for (std::size_t x = 0; x < 16; ++x) v[x] = loadu(pa + w + kWordsPerVector * x);
      hs_block(&s, v);
    }
    acc = hs_fold(&s);
  }
  for (; w + kWordsPerVector <= n; w += kWordsPerVector) {
    acc = _mm256_add_epi64(acc, popcount256(loadu(pa + w)));
  }
  if (w < n) acc = _mm256_add_epi64(acc, popcount256(maskload(pa + w, tail_mask(n - w))));
  return hsum(acc);
}

MULTIHIT_TARGET_AVX2 std::uint64_t and_popcount2(std::span<const std::uint64_t> a,
                                                 std::span<const std::uint64_t> b) noexcept {
  const std::uint64_t* pa = a.data();
  const std::uint64_t* pb = b.data();
  const std::size_t n = a.size();
  std::size_t w = 0;
  __m256i acc = _mm256_setzero_si256();
  if (n >= kWordsPerBlock) {
    HsState s;
    hs_init(&s);
    __m256i v[16];
    for (; w + kWordsPerBlock <= n; w += kWordsPerBlock) {
      for (std::size_t x = 0; x < 16; ++x) {
        const std::size_t o = w + kWordsPerVector * x;
        v[x] = _mm256_and_si256(loadu(pa + o), loadu(pb + o));
      }
      hs_block(&s, v);
    }
    acc = hs_fold(&s);
  }
  for (; w + kWordsPerVector <= n; w += kWordsPerVector) {
    acc = _mm256_add_epi64(acc, popcount256(_mm256_and_si256(loadu(pa + w), loadu(pb + w))));
  }
  if (w < n) {
    const __m256i m = tail_mask(n - w);
    acc = _mm256_add_epi64(acc,
                           popcount256(_mm256_and_si256(maskload(pa + w, m), maskload(pb + w, m))));
  }
  return hsum(acc);
}

MULTIHIT_TARGET_AVX2 std::uint64_t and_popcount3(std::span<const std::uint64_t> a,
                                                 std::span<const std::uint64_t> b,
                                                 std::span<const std::uint64_t> c) noexcept {
  const std::uint64_t* pa = a.data();
  const std::uint64_t* pb = b.data();
  const std::uint64_t* pc = c.data();
  const std::size_t n = a.size();
  std::size_t w = 0;
  __m256i acc = _mm256_setzero_si256();
  if (n >= kWordsPerBlock) {
    HsState s;
    hs_init(&s);
    __m256i v[16];
    for (; w + kWordsPerBlock <= n; w += kWordsPerBlock) {
      for (std::size_t x = 0; x < 16; ++x) {
        const std::size_t o = w + kWordsPerVector * x;
        v[x] = _mm256_and_si256(_mm256_and_si256(loadu(pa + o), loadu(pb + o)), loadu(pc + o));
      }
      hs_block(&s, v);
    }
    acc = hs_fold(&s);
  }
  for (; w + kWordsPerVector <= n; w += kWordsPerVector) {
    acc = _mm256_add_epi64(
        acc, popcount256(_mm256_and_si256(_mm256_and_si256(loadu(pa + w), loadu(pb + w)),
                                          loadu(pc + w))));
  }
  if (w < n) {
    const __m256i m = tail_mask(n - w);
    acc = _mm256_add_epi64(
        acc, popcount256(_mm256_and_si256(_mm256_and_si256(maskload(pa + w, m), maskload(pb + w, m)),
                                          maskload(pc + w, m))));
  }
  return hsum(acc);
}

MULTIHIT_TARGET_AVX2 std::uint64_t and_popcount4(std::span<const std::uint64_t> a,
                                                 std::span<const std::uint64_t> b,
                                                 std::span<const std::uint64_t> c,
                                                 std::span<const std::uint64_t> d) noexcept {
  const std::uint64_t* pa = a.data();
  const std::uint64_t* pb = b.data();
  const std::uint64_t* pc = c.data();
  const std::uint64_t* pd = d.data();
  const std::size_t n = a.size();
  std::size_t w = 0;
  __m256i acc = _mm256_setzero_si256();
  if (n >= kWordsPerBlock) {
    HsState s;
    hs_init(&s);
    __m256i v[16];
    for (; w + kWordsPerBlock <= n; w += kWordsPerBlock) {
      for (std::size_t x = 0; x < 16; ++x) {
        const std::size_t o = w + kWordsPerVector * x;
        v[x] = _mm256_and_si256(_mm256_and_si256(loadu(pa + o), loadu(pb + o)),
                                _mm256_and_si256(loadu(pc + o), loadu(pd + o)));
      }
      hs_block(&s, v);
    }
    acc = hs_fold(&s);
  }
  for (; w + kWordsPerVector <= n; w += kWordsPerVector) {
    acc = _mm256_add_epi64(
        acc, popcount256(_mm256_and_si256(_mm256_and_si256(loadu(pa + w), loadu(pb + w)),
                                          _mm256_and_si256(loadu(pc + w), loadu(pd + w)))));
  }
  if (w < n) {
    const __m256i m = tail_mask(n - w);
    acc = _mm256_add_epi64(
        acc,
        popcount256(_mm256_and_si256(_mm256_and_si256(maskload(pa + w, m), maskload(pb + w, m)),
                                     _mm256_and_si256(maskload(pc + w, m), maskload(pd + w, m)))));
  }
  return hsum(acc);
}

MULTIHIT_TARGET_AVX2 std::uint64_t andnot_popcount2(std::span<const std::uint64_t> a,
                                                    std::span<const std::uint64_t> b) noexcept {
  // _mm256_andnot_si256(x, y) computes ~x & y, so b rides in the first
  // operand. The masked tail stays bit-identical to scalar: lanes beyond the
  // row load a as zero, and 0 & ~b is 0 whatever ~b holds there.
  const std::uint64_t* pa = a.data();
  const std::uint64_t* pb = b.data();
  const std::size_t n = a.size();
  std::size_t w = 0;
  __m256i acc = _mm256_setzero_si256();
  if (n >= kWordsPerBlock) {
    HsState s;
    hs_init(&s);
    __m256i v[16];
    for (; w + kWordsPerBlock <= n; w += kWordsPerBlock) {
      for (std::size_t x = 0; x < 16; ++x) {
        const std::size_t o = w + kWordsPerVector * x;
        v[x] = _mm256_andnot_si256(loadu(pb + o), loadu(pa + o));
      }
      hs_block(&s, v);
    }
    acc = hs_fold(&s);
  }
  for (; w + kWordsPerVector <= n; w += kWordsPerVector) {
    acc = _mm256_add_epi64(acc, popcount256(_mm256_andnot_si256(loadu(pb + w), loadu(pa + w))));
  }
  if (w < n) {
    const __m256i m = tail_mask(n - w);
    acc = _mm256_add_epi64(
        acc, popcount256(_mm256_andnot_si256(maskload(pb + w, m), maskload(pa + w, m))));
  }
  return hsum(acc);
}

MULTIHIT_TARGET_AVX2 void and_rows(std::span<std::uint64_t> dst, std::span<const std::uint64_t> a,
                                   std::span<const std::uint64_t> b) noexcept {
  std::uint64_t* pd = dst.data();
  const std::uint64_t* pa = a.data();
  const std::uint64_t* pb = b.data();
  const std::size_t n = dst.size();
  std::size_t w = 0;
  for (; w + kWordsPerVector <= n; w += kWordsPerVector) {
    storeu(pd + w, _mm256_and_si256(loadu(pa + w), loadu(pb + w)));
  }
  for (; w < n; ++w) pd[w] = pa[w] & pb[w];
}

MULTIHIT_TARGET_AVX2 void and_rows_inplace(std::span<std::uint64_t> dst,
                                           std::span<const std::uint64_t> a) noexcept {
  std::uint64_t* pd = dst.data();
  const std::uint64_t* pa = a.data();
  const std::size_t n = dst.size();
  std::size_t w = 0;
  for (; w + kWordsPerVector <= n; w += kWordsPerVector) {
    storeu(pd + w, _mm256_and_si256(loadu(pd + w), loadu(pa + w)));
  }
  for (; w < n; ++w) pd[w] &= pa[w];
}

MULTIHIT_TARGET_AVX2 void andnot_rows(std::span<std::uint64_t> dst,
                                      std::span<const std::uint64_t> a,
                                      std::span<const std::uint64_t> b) noexcept {
  std::uint64_t* pd = dst.data();
  const std::uint64_t* pa = a.data();
  const std::uint64_t* pb = b.data();
  const std::size_t n = dst.size();
  std::size_t w = 0;
  for (; w + kWordsPerVector <= n; w += kWordsPerVector) {
    storeu(pd + w, _mm256_andnot_si256(loadu(pb + w), loadu(pa + w)));
  }
  for (; w < n; ++w) pd[w] = pa[w] & ~pb[w];
}

// ------------------------------------------------------------ batched rows
//
// and_popcount_rows scores one staged prefix against a block of rows. Rows
// shorter than one Harley-Seal block (every BRCA-scale width) take the short
// path: the prefix's masked tail is loaded once for the whole block, each
// row accumulates per-byte counts across its vectors (at most 16 vectors of
// at most 8 per byte: no u8 overflow) and folds them with one vpsadbw, and
// four rows share one transposed horizontal sum and one 128-bit store.
// Rows of one or two words (the BitSpliced greedy tail) are packed instead:
// four consecutive rows fill one or two whole vectors, so no lane is masked.

namespace {

/// popcount(pre & row) as four qword lane sums, for rows of fewer than
/// kWordsPerBlock words: `full` whole-vector words, then the masked tail
/// against the preloaded `pre_tail` when `tail` is set.
MULTIHIT_TARGET_AVX2 inline __m256i and_count_short(const std::uint64_t* pp,
                                                    const std::uint64_t* pr, std::size_t full,
                                                    bool tail, __m256i pre_tail,
                                                    __m256i mask) noexcept {
  __m256i bytes = _mm256_setzero_si256();
  for (std::size_t w = 0; w < full; w += kWordsPerVector) {
    bytes = _mm256_add_epi8(bytes, popcount_bytes(_mm256_and_si256(loadu(pp + w), loadu(pr + w))));
  }
  if (tail) {
    bytes = _mm256_add_epi8(bytes,
                            popcount_bytes(_mm256_and_si256(pre_tail, maskload(pr + full, mask))));
  }
  return _mm256_sad_epu8(bytes, _mm256_setzero_si256());
}

/// Low dword of each qword lane: four row counts, packed for one store.
MULTIHIT_TARGET_AVX2 inline void store4(std::uint32_t* po, __m256i sums) noexcept {
  const __m256i pack = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(po),
                   _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(sums, pack)));
}

/// Per-word popcount(p & *q) in each qword lane of one vector.
MULTIHIT_TARGET_AVX2 inline __m256i and_count_words(__m256i p, const std::uint64_t* q) noexcept {
  return _mm256_sad_epu8(popcount_bytes(_mm256_and_si256(p, loadu(q))), _mm256_setzero_si256());
}

/// Counts `groups` groups of four rows of n = 1 or 2 words. The prefix is
/// repeated across the lanes, so after vpsadbw every qword lane holds one
/// word's count: a row's count directly at n = 1, half of one at n = 2.
MULTIHIT_TARGET_AVX2 inline void and_popcount_rows_packed(const std::uint64_t* pp,
                                                          const std::uint64_t* pr,
                                                          std::size_t n, std::size_t groups,
                                                          std::uint32_t* po) noexcept {
  if (n == 1) {
    const __m256i p = _mm256_set1_epi64x(static_cast<long long>(pp[0]));
    for (std::size_t g = 0; g < groups; ++g) store4(po + 4 * g, and_count_words(p, pr + 4 * g));
    return;
  }
  const __m256i p = _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(pp)));
  for (std::size_t g = 0; g < groups; ++g) {
    // c0 = [r0.w0, r0.w1, r1.w0, r1.w1], c1 likewise for rows 2 and 3;
    // the pairwise add gives [r0, r2, r1, r3], reordered to [r0, r1, r2, r3].
    const __m256i c0 = and_count_words(p, pr + 8 * g);
    const __m256i c1 = and_count_words(p, pr + 8 * g + 4);
    const __m256i sums =
        _mm256_add_epi64(_mm256_unpacklo_epi64(c0, c1), _mm256_unpackhi_epi64(c0, c1));
    store4(po + 4 * g, _mm256_permute4x64_epi64(sums, 0xD8));
  }
}

}  // namespace

MULTIHIT_TARGET_AVX2 void and_popcount_rows(std::span<const std::uint64_t> pre,
                                            std::span<const std::uint64_t> rows,
                                            std::span<std::uint32_t> out) noexcept {
  const std::size_t n = pre.size();
  const std::size_t count = out.size();
  if (n >= kWordsPerBlock) {
    for (std::size_t r = 0; r < count; ++r) {
      out[r] = static_cast<std::uint32_t>(and_popcount2(pre, rows.subspan(r * n, n)));
    }
    return;
  }
  const std::uint64_t* pp = pre.data();
  const std::uint64_t* pr = rows.data();
  std::uint32_t* po = out.data();
  const std::size_t full = n & ~(kWordsPerVector - 1);
  const bool tail = full < n;
  const __m256i mask = tail_mask(n - full);
  const __m256i pre_tail = tail ? maskload(pp + full, mask) : _mm256_setzero_si256();
  std::size_t r = 0;
  if (n == 1 || n == 2) {
    r = count & ~std::size_t{3};
    and_popcount_rows_packed(pp, pr, n, r / 4, po);
    pr += r * n;
  } else {
    for (; r + 4 <= count; r += 4, pr += 4 * n) {
      store4(po + r, hsum4(and_count_short(pp, pr, full, tail, pre_tail, mask),
                           and_count_short(pp, pr + n, full, tail, pre_tail, mask),
                           and_count_short(pp, pr + 2 * n, full, tail, pre_tail, mask),
                           and_count_short(pp, pr + 3 * n, full, tail, pre_tail, mask)));
    }
  }
  for (; r < count; ++r, pr += n) {
    po[r] = static_cast<std::uint32_t>(
        hsum(and_count_short(pp, pr, full, tail, pre_tail, mask)));
  }
}

}  // namespace multihit::bitops_avx2

#else  // non-x86: keep the entry points linkable; dispatch never selects them.

namespace multihit::bitops_avx2 {

std::uint64_t popcount_row(std::span<const std::uint64_t> a) noexcept {
  return bitops_scalar::popcount_row(a);
}
std::uint64_t and_popcount2(std::span<const std::uint64_t> a,
                            std::span<const std::uint64_t> b) noexcept {
  return bitops_scalar::and_popcount2(a, b);
}
std::uint64_t and_popcount3(std::span<const std::uint64_t> a, std::span<const std::uint64_t> b,
                            std::span<const std::uint64_t> c) noexcept {
  return bitops_scalar::and_popcount3(a, b, c);
}
std::uint64_t and_popcount4(std::span<const std::uint64_t> a, std::span<const std::uint64_t> b,
                            std::span<const std::uint64_t> c,
                            std::span<const std::uint64_t> d) noexcept {
  return bitops_scalar::and_popcount4(a, b, c, d);
}
std::uint64_t andnot_popcount2(std::span<const std::uint64_t> a,
                               std::span<const std::uint64_t> b) noexcept {
  return bitops_scalar::andnot_popcount2(a, b);
}
void and_rows(std::span<std::uint64_t> dst, std::span<const std::uint64_t> a,
              std::span<const std::uint64_t> b) noexcept {
  bitops_scalar::and_rows(dst, a, b);
}
void and_rows_inplace(std::span<std::uint64_t> dst, std::span<const std::uint64_t> a) noexcept {
  bitops_scalar::and_rows_inplace(dst, a);
}
void andnot_rows(std::span<std::uint64_t> dst, std::span<const std::uint64_t> a,
                 std::span<const std::uint64_t> b) noexcept {
  bitops_scalar::andnot_rows(dst, a, b);
}
void and_popcount_rows(std::span<const std::uint64_t> pre, std::span<const std::uint64_t> rows,
                       std::span<std::uint32_t> out) noexcept {
  bitops_scalar::and_popcount_rows(pre, rows, out);
}

}  // namespace multihit::bitops_avx2

#endif
