// AVX2 backend: 256-bit lanes over the packed word matrices.
//
// This translation unit is compiled with -mavx2 (see src/CMakeLists.txt)
// and only ever entered through the dispatch after a runtime CPUID check,
// so the compiler is free to emit AVX2 everywhere here — including the
// scalar tails, whose std::popcount becomes a real POPCNT (AVX2-class CPUs
// all have it) and stays bit-identical to the portable SWAR tail.
//
// Popcount strategy: the vpshufb nibble-LUT — split each byte into two
// nibbles, look both up in a 16-entry bit-count table, add. Per-byte counts
// accumulate in a vector of u8 lanes for up to 31 iterations (8 words * 31
// < 256 per byte lane), then vpsadbw folds them into four u64 lanes. For
// the paper's 313/314-word rows this is one vpsadbw per row — the whole
// distance inner loop runs ~4 instructions per 32 bytes.
//
// Counter kernels: the shared carry-save accumulate (backend_registry.hpp)
// over 256-bit lanes, and the MSB-first comparator readout, 256 columns per
// pass over plane-major counters. threshold_words is the shared blocked body
// over these two kernels.
#include <immintrin.h>

#include "kernels/backend_registry.hpp"

#include "common/cpu_features.hpp"

namespace pulphd::kernels::detail {

namespace {

inline __m256i popcount_epi8(__m256i v) noexcept {
  const __m256i lut = _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,  //
                                       0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi32(v, 4), low_mask);
  return _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
}

inline std::uint64_t horizontal_sum_epi64(__m256i v) noexcept {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  const __m128i sum = _mm_add_epi64(lo, hi);
  return static_cast<std::uint64_t>(_mm_extract_epi64(sum, 0)) +
         static_cast<std::uint64_t>(_mm_extract_epi64(sum, 1));
}

// 8 Words per 256-bit vector; byte-lane accumulators stay below 255 for 31
// vectors of at-most-8 set bits per byte.
constexpr std::size_t kWordsPerVec = 8;
constexpr std::size_t kBlockVecs = 31;

std::uint64_t hamming_words_avx2(const Word* a, const Word* b, std::size_t n) noexcept {
  __m256i acc = _mm256_setzero_si256();
  std::size_t w = 0;
  while (w + kWordsPerVec <= n) {
    const std::size_t vecs_left = (n - w) / kWordsPerVec;
    const std::size_t block = vecs_left < kBlockVecs ? vecs_left : kBlockVecs;
    __m256i inner = _mm256_setzero_si256();
    for (std::size_t v = 0; v < block; ++v, w += kWordsPerVec) {
      const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w));
      const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w));
      inner = _mm256_add_epi8(inner, popcount_epi8(_mm256_xor_si256(va, vb)));
    }
    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(inner, _mm256_setzero_si256()));
  }
  std::uint64_t total = horizontal_sum_epi64(acc);
  for (; w < n; ++w) {
    total += static_cast<std::uint64_t>(popcount(a[w] ^ b[w]));
  }
  return total;
}

void hamming_rows_avx2(const Word* query, const Word* prototypes,
                       std::size_t num_prototypes, std::size_t words_per_row,
                       std::uint32_t* out) noexcept {
  for (std::size_t c = 0; c < num_prototypes; ++c) {
    out[c] = static_cast<std::uint32_t>(
        hamming_words_avx2(query, prototypes + c * words_per_row, words_per_row));
  }
}

void xor_words_avx2(const Word* a, const Word* b, Word* out, std::size_t n) noexcept {
  std::size_t w = 0;
  for (; w + kWordsPerVec <= n; w += kWordsPerVec) {
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w));
    const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + w), _mm256_xor_si256(va, vb));
  }
  for (; w < n; ++w) out[w] = a[w] ^ b[w];
}

// The counter lane: 256 columns per vector.
struct Avx2Lane {
  using V = __m256i;
  static constexpr std::size_t kWords = kWordsPerVec;
  static V load(const Word* p) noexcept {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void store(Word* p, V v) noexcept {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static V zero() noexcept { return _mm256_setzero_si256(); }
  static V xor_(V a, V b) noexcept { return _mm256_xor_si256(a, b); }
  static V and_(V a, V b) noexcept { return _mm256_and_si256(a, b); }
  static V or_(V a, V b) noexcept { return _mm256_or_si256(a, b); }
  static bool any(V v) noexcept { return _mm256_testz_si256(v, v) == 0; }
};

void counters_to_majority_avx2(const Word* planes, unsigned num_planes,
                               std::size_t threshold, const Word* tie_break, Word* out,
                               std::size_t n) noexcept {
  // MSB-first count > threshold comparator over the plane-major counter,
  // 256 columns per pass; exact-tie columns take the tie-break bits.
  std::size_t w = 0;
  for (; w + kWordsPerVec <= n; w += kWordsPerVec) {
    __m256i gt = _mm256_setzero_si256();
    __m256i eq = _mm256_set1_epi32(-1);
    for (unsigned p = num_planes; p-- > 0;) {
      const __m256i plane =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(planes + p * n + w));
      const __m256i tbit = (threshold >> p) & 1u ? _mm256_set1_epi32(-1)
                                                 : _mm256_setzero_si256();
      gt = _mm256_or_si256(gt, _mm256_andnot_si256(tbit, _mm256_and_si256(eq, plane)));
      eq = _mm256_andnot_si256(_mm256_xor_si256(plane, tbit), eq);
    }
    if (tie_break != nullptr) {
      const __m256i tie =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(tie_break + w));
      gt = _mm256_or_si256(gt, _mm256_and_si256(eq, tie));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + w), gt);
  }
  for (; w < n; ++w) {
    out[w] = counters_majority_word_scalar(planes, num_planes, n, threshold,
                                           tie_break != nullptr ? tie_break[w] : Word{0}, w);
  }
}

bool avx2_supported() noexcept { return cpu_features().avx2; }

}  // namespace

const Backend kAvx2Backend = {
    .name = "avx2",
    .vector_bits = 256,
    .supported = avx2_supported,
    .hamming_words = hamming_words_avx2,
    .hamming_rows = hamming_rows_avx2,
    .xor_words = xor_words_avx2,
    .threshold_words = threshold_words_via_counters<Avx2Lane, counters_to_majority_avx2>,
    .bind_majority_words = bind_majority_closed_form<xor_words_avx2>,
    .accumulate_counters = accumulate_counters<Avx2Lane>,
    .accumulate_rows = accumulate_rows<Avx2Lane>,
    .counters_to_majority = counters_to_majority_avx2,
};

}  // namespace pulphd::kernels::detail
