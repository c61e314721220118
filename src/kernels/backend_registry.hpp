// Private registry glue between backend.cpp and the per-ISA backend
// translation units. Not installed; include only from src/kernels.
//
// The SIMD descriptors exist exactly when their TU is compiled (the CMake
// arch checks define PULPHD_HAVE_AVX2 / PULPHD_HAVE_NEON for the whole
// library). The bodies below are written once and instantiated by each
// backend over its own types, so every copy is private to that backend's
// translation unit: accumulate_rows_at is the one saturating counter
// accumulate (a carry-save adder tree over the backend's lane type, whose
// sub-vector tail runs the same body over WordLane<Lane>);
// threshold_words_via_counters the one threshold kernel, over that
// accumulate and the backend's readout; bind_majority_closed_form the one
// 1–4 channel spatial encode, over the backend's xor kernel. The scalar
// readout body is shared by the portable readout and every SIMD readout's
// tail, so tail bits can never diverge from the reference.
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

/// Counter planes the multi-row accumulate keeps in registers per column
/// block. Plane counts up to this (counts up to 255, windows of up to 255
/// N-grams) never touch memory between the block's one load and one store;
/// higher planes take the rare carry out of the top register plane through
/// memory.
inline constexpr unsigned kRegisterPlanes = 8;

/// Rows one carry-save group reduces to a 4-bit column sum.
inline constexpr std::size_t kCarrySaveRows = 15;

/// The scalar lane: one Word per column block. Every backend runs its
/// sub-vector tail through the same accumulate body over this lane; the
/// `Tag` is the backend's own lane type, so each backend's tail copy is a
/// distinct instantiation private to its translation unit.
template <class Tag>
struct WordLane {
  using V = Word;
  static constexpr std::size_t kWords = 1;
  static V load(const Word* p) noexcept { return *p; }
  static void store(Word* p, V v) noexcept { *p = v; }
  static V zero() noexcept { return 0; }
  static V xor_(V a, V b) noexcept { return a ^ b; }
  static V and_(V a, V b) noexcept { return a & b; }
  static V or_(V a, V b) noexcept { return a | b; }
  static bool any(V v) noexcept { return v != 0; }
};

/// Full adder over lanes: sum = a ^ b ^ c, carry = maj(a, b, c).
template <class L>
inline void full_add(typename L::V& carry, typename L::V& sum, typename L::V a,
                     typename L::V b, typename L::V c) noexcept {
  const typename L::V u = L::xor_(a, b);
  carry = L::or_(L::and_(a, b), L::and_(u, c));
  sum = L::xor_(u, c);
}

/// Adds the K-bit column sum `s` (bit k of every column in s[k]) into the
/// R register planes `acc`. Whatever does not fit — the carry out of plane
/// R - 1 and any sum bit at or above R — ripples through the memory planes
/// R .. num_planes - 1 when there are any; what leaves the top plane
/// saturates its columns: the memory planes are set at once and the
/// register planes through the sticky `over` mask when the block is stored.
template <class L, unsigned R, unsigned K>
inline void add_column_sum(typename L::V (&acc)[R], const typename L::V (&s)[K],
                           typename L::V& over, Word* planes, unsigned num_planes,
                           std::size_t stride, std::size_t w) noexcept {
  using V = typename L::V;
  V carry = L::and_(acc[0], s[0]);
  acc[0] = L::xor_(acc[0], s[0]);
  for (unsigned p = 1; p < R; ++p) {
    if (p < K) {
      full_add<L>(carry, acc[p], acc[p], s[p < K ? p : 0], carry);
    } else {
      const V next = L::and_(acc[p], carry);
      acc[p] = L::xor_(acc[p], carry);
      carry = next;
    }
  }
  for (unsigned p = R; p < K; ++p) carry = L::or_(carry, s[p]);
  if (num_planes > R && L::any(carry)) {
    for (unsigned p = R; p < num_planes && L::any(carry); ++p) {
      Word* plane = planes + p * stride + w;
      const V v = L::load(plane);
      L::store(plane, L::xor_(v, carry));
      carry = L::and_(v, carry);
    }
    if (L::any(carry)) {
      for (unsigned p = R; p < num_planes; ++p) {
        Word* plane = planes + p * stride + w;
        L::store(plane, L::or_(L::load(plane), carry));
      }
    }
  }
  over = L::or_(over, carry);
}

/// One column block of the multi-row accumulate: load the low R planes
/// once, reduce the rows 15 at a time through a carry-save adder tree into
/// ones/twos/fours/eights and add each 4-bit group sum into the planes,
/// ripple the leftover rows in one at a time, then store the planes once.
/// Saturating adds compose — min(min(c + a, M) + b, M) = min(c + a + b, M)
/// for M = 2^num_planes - 1 — so grouping the rows changes no bit. Forced
/// inline into the column loop: as a call per block, GCC spills the register
/// planes to the stack around each row loop, which tripled the one-row cost.
template <class L, unsigned R>
[[gnu::always_inline]] inline void accumulate_block(const Word* const* rows, std::size_t num_rows,
                                                    std::size_t col, Word* planes,
                                                    unsigned num_planes, std::size_t stride,
                                                    std::size_t w) noexcept {
  using V = typename L::V;
  V acc[R];
  for (unsigned p = 0; p < R; ++p) acc[p] = L::load(planes + p * stride + w);
  V over = L::zero();
  const std::size_t at = col + w;
  std::size_t r = 0;
  for (; r + kCarrySaveRows <= num_rows; r += kCarrySaveRows) {
    const Word* const* g = rows + r;
    // Rows 1..14 pair into 7 ones-level full adders; their 7 twos carries
    // reduce into t plus 3 fours carries, and those into f plus e.
    V o = L::load(g[0] + at);
    V t = L::zero(), c1 = t, c2 = t, d0 = t, d1 = t, d2 = t, f = t, e = t;
    full_add<L>(t, o, o, L::load(g[1] + at), L::load(g[2] + at));
    full_add<L>(c1, o, o, L::load(g[3] + at), L::load(g[4] + at));
    full_add<L>(c2, o, o, L::load(g[5] + at), L::load(g[6] + at));
    full_add<L>(d0, t, t, c1, c2);
    full_add<L>(c1, o, o, L::load(g[7] + at), L::load(g[8] + at));
    full_add<L>(c2, o, o, L::load(g[9] + at), L::load(g[10] + at));
    full_add<L>(d1, t, t, c1, c2);
    full_add<L>(c1, o, o, L::load(g[11] + at), L::load(g[12] + at));
    full_add<L>(c2, o, o, L::load(g[13] + at), L::load(g[14] + at));
    full_add<L>(d2, t, t, c1, c2);
    full_add<L>(e, f, d0, d1, d2);
    const V sum[4] = {o, t, f, e};
    add_column_sum<L, R, 4>(acc, sum, over, planes, num_planes, stride, w);
  }
  for (; r < num_rows; ++r) {
    const V sum[1] = {L::load(rows[r] + at)};
    add_column_sum<L, R, 1>(acc, sum, over, planes, num_planes, stride, w);
  }
  for (unsigned p = 0; p < R; ++p) L::store(planes + p * stride + w, L::or_(acc[p], over));
}

template <class L, unsigned R>
void accumulate_columns(const Word* const* rows, std::size_t num_rows, std::size_t col,
                        Word* planes, unsigned num_planes, std::size_t n) noexcept {
  std::size_t w = 0;
  for (; w + L::kWords <= n; w += L::kWords) {
    accumulate_block<L, R>(rows, num_rows, col, planes, num_planes, n, w);
  }
  if constexpr (L::kWords > 1) {
    for (; w < n; ++w) {
      accumulate_block<WordLane<L>, R>(rows, num_rows, col, planes, num_planes, n, w);
    }
  }
}

/// The one multi-row saturating accumulate, written once over a backend's
/// lane type `L` (a V vector type of L::kWords words with load, store,
/// zero, xor_, and_, or_ and any): adds rows[r][col + w] for every row r
/// into the plane-major counter (plane p spans planes[p*n, p*n + n)) of
/// column word w, clamping each column at 2^num_planes - 1. The register
/// plane count is a template argument so the planes stay in registers.
template <class L>
void accumulate_rows_at(const Word* const* rows, std::size_t num_rows, std::size_t col,
                        Word* planes, unsigned num_planes, std::size_t n) noexcept {
  if (num_rows == 0) return;
  switch (num_planes < kRegisterPlanes ? num_planes : kRegisterPlanes) {
    case 1: return accumulate_columns<L, 1>(rows, num_rows, col, planes, num_planes, n);
    case 2: return accumulate_columns<L, 2>(rows, num_rows, col, planes, num_planes, n);
    case 3: return accumulate_columns<L, 3>(rows, num_rows, col, planes, num_planes, n);
    case 4: return accumulate_columns<L, 4>(rows, num_rows, col, planes, num_planes, n);
    case 5: return accumulate_columns<L, 5>(rows, num_rows, col, planes, num_planes, n);
    case 6: return accumulate_columns<L, 6>(rows, num_rows, col, planes, num_planes, n);
    case 7: return accumulate_columns<L, 7>(rows, num_rows, col, planes, num_planes, n);
    default: return accumulate_columns<L, 8>(rows, num_rows, col, planes, num_planes, n);
  }
}

/// Backend::accumulate_rows over lane type L.
template <class L>
void accumulate_rows(const Word* const* rows, std::size_t num_rows, Word* planes,
                     unsigned num_planes, std::size_t n) noexcept {
  accumulate_rows_at<L>(rows, num_rows, 0, planes, num_planes, n);
}

/// Backend::accumulate_counters: the one-row case of the same body.
template <class L>
void accumulate_counters(const Word* row, Word* planes, unsigned num_planes,
                         std::size_t n) noexcept {
  accumulate_rows_at<L>(&row, 1, 0, planes, num_planes, n);
}

/// One word column of the streaming readout (Backend::counters_to_majority):
/// the bitwise MSB-first count > threshold comparator over the plane-major
/// counter, with exact-tie columns taking the tie-break bits (pass 0 for
/// "ties lose"). Shared by the portable readout and every SIMD readout's
/// sub-vector tail.
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

/// Backend::threshold_words over a backend's own lane type and readout. Per
/// block of words: zero a stack block of counter_planes_for(num_rows)
/// planes, accumulate every row into it in one multi-row call, then read it
/// out with no tie-break. The planes hold num_rows without saturating, so
/// for any threshold below 2^planes the readout is the exact count >
/// threshold of every column.
template <class L, auto Readout>
void threshold_words_via_counters(const Word* const* rows, std::size_t num_rows,
                                  std::size_t threshold, Word* out, std::size_t n) noexcept {
  const unsigned planes = counter_planes_for(num_rows);
  const std::size_t block = kThresholdBlockWords / planes;
  alignas(64) Word counter[kThresholdBlockWords];
  for (std::size_t begin = 0; begin < n; begin += block) {
    const std::size_t len = n - begin < block ? n - begin : block;
    std::memset(counter, 0, planes * len * sizeof(Word));
    accumulate_rows_at<L>(rows, num_rows, begin, counter, planes, len);
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
