// Private registry glue between backend.cpp and the per-ISA backend
// translation units. Not installed; include only from src/kernels.
//
// The SIMD descriptors exist exactly when their TU is compiled (the CMake
// arch checks define PULPHD_HAVE_AVX2 / PULPHD_HAVE_NEON for the whole
// library). The scalar per-word counter bodies below are shared by the
// portable kernels and every SIMD backend's sub-vector tail, so tail bits
// can never diverge from the reference; threshold_words_via_counters is the
// one threshold kernel, instantiated by each backend over its own counter
// kernels, and bind_majority_closed_form the one 1–4 channel spatial
// encode, instantiated over each backend's own xor kernel.
#pragma once

#include <cstring>

#include "kernels/backend.hpp"
#include "kernels/bitsliced.hpp"

namespace pulphd::kernels::detail {

extern const Backend kPortableBackend;
#if defined(PULPHD_HAVE_AVX2)
extern const Backend kAvx2Backend;
#endif
#if defined(PULPHD_HAVE_NEON)
extern const Backend kNeonBackend;
#endif

/// One word column of the saturating streaming accumulate
/// (Backend::accumulate_counters): ripple-add the row bits into the
/// plane-major counter (plane stride = n words), clamping overflowing
/// columns back to all-planes-set. The single scalar body shared by the
/// portable kernel and every SIMD backend's sub-vector tail.
inline void accumulate_counters_word_scalar(Word row_word, Word* planes,
                                            unsigned num_planes, std::size_t stride,
                                            std::size_t w) noexcept {
  Word carry = row_word;
  for (unsigned p = 0; p < num_planes && carry != 0; ++p) {
    Word& plane = planes[p * stride + w];
    const Word next_carry = plane & carry;
    plane ^= carry;
    carry = next_carry;
  }
  if (carry != 0) {
    // Carry out of the top plane: those columns were at 2^planes - 1 and the
    // ripple zeroed them; OR the carry back into every plane to saturate.
    for (unsigned p = 0; p < num_planes; ++p) planes[p * stride + w] |= carry;
  }
}

/// One word column of the streaming readout (Backend::counters_to_majority):
/// the bitwise MSB-first count > threshold comparator over the plane-major
/// counter, with exact-tie columns taking the tie-break bits (pass 0 for
/// "ties lose"). Shared scalar body, as above.
inline Word counters_majority_word_scalar(const Word* planes, unsigned num_planes,
                                          std::size_t stride, std::size_t threshold,
                                          Word tie_break_word, std::size_t w) noexcept {
  Word gt = 0;
  Word eq = ~Word{0};
  for (unsigned p = num_planes; p-- > 0;) {
    const Word plane = planes[p * stride + w];
    const Word tbit = (threshold >> p) & 1u ? ~Word{0} : Word{0};
    gt |= eq & plane & ~tbit;
    eq &= ~(plane ^ tbit);
  }
  return gt | (eq & tie_break_word);
}

/// Counter-plane words one threshold_words block keeps on the stack. At 3
/// planes (up to 7 rows) a block spans 682 words, so the paper's 5-row ×
/// 313-word spatial majority is a single block.
inline constexpr std::size_t kThresholdBlockWords = 2048;

/// Backend::threshold_words over a backend's own counter kernels. Per block
/// of words: zero a stack block of counter_planes_for(num_rows) planes,
/// accumulate every row into it, then read it out with no tie-break. The
/// planes hold num_rows without saturating, so for any threshold below
/// 2^planes the readout is the exact count > threshold of every column.
template <auto Accumulate, auto Readout>
void threshold_words_via_counters(const Word* const* rows, std::size_t num_rows,
                                  std::size_t threshold, Word* out, std::size_t n) noexcept {
  const unsigned planes = counter_planes_for(num_rows);
  const std::size_t block = kThresholdBlockWords / planes;
  alignas(64) Word counter[kThresholdBlockWords];
  for (std::size_t begin = 0; begin < n; begin += block) {
    const std::size_t len = n - begin < block ? n - begin : block;
    std::memset(counter, 0, planes * len * sizeof(Word));
    for (std::size_t r = 0; r < num_rows; ++r) Accumulate(rows[r] + begin, counter, planes, len);
    Readout(counter, planes, threshold, nullptr, out + begin, len);
  }
}

/// Backend::bind_majority_words, written once. With a = items[0] ^
/// levels[0] and so on, the §5.1 majority of {a, b, c, d, a ^ b} counts
/// 2(a | b) + c + d per column, which exceeds 2 exactly where
/// (a | b) & (c | d); the 2-channel {a, b, a ^ b} likewise reduces to
/// a | b. The 1-channel majority is the bound row itself, bound by the
/// backend's own `Xor`. Instantiating over that kernel makes every copy
/// private to its backend's translation unit, so the -mavx2 unit's copy is
/// vectorized for free and can never be linked into the portable table.
template <auto Xor>
void bind_majority_closed_form(const Word* const* items, const Word* const* levels,
                               std::size_t channels, Word* out, std::size_t n) noexcept {
  const Word* i0 = items[0];
  const Word* l0 = levels[0];
  if (channels == 1) {
    Xor(i0, l0, out, n);
    return;
  }
  const Word* i1 = items[1];
  const Word* l1 = levels[1];
  if (channels == 2) {
    for (std::size_t w = 0; w < n; ++w) out[w] = (i0[w] ^ l0[w]) | (i1[w] ^ l1[w]);
    return;
  }
  const Word* i2 = items[2];
  const Word* l2 = levels[2];
  if (channels == 3) {
    for (std::size_t w = 0; w < n; ++w) {
      const Word a = i0[w] ^ l0[w];
      const Word b = i1[w] ^ l1[w];
      const Word c = i2[w] ^ l2[w];
      out[w] = (a & b) | (c & (a | b));
    }
    return;
  }
  const Word* i3 = items[3];
  const Word* l3 = levels[3];
  for (std::size_t w = 0; w < n; ++w) {
    out[w] = ((i0[w] ^ l0[w]) | (i1[w] ^ l1[w])) & ((i2[w] ^ l2[w]) | (i3[w] ^ l3[w]));
  }
}

}  // namespace pulphd::kernels::detail
