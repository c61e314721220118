// Portable SWAR backend: the always-available fallback and the bit-exact
// reference every SIMD backend is tested against. The Hamming kernel takes
// the packed words in 64-bit chunks — one popcount per two 32-bit words —
// which is the widest datapath ISO C++ guarantees; where the target lacks a
// popcount instruction the compiler's SWAR expansion costs the same either
// way. The counter kernels are the bit-sliced vertical counter over 64-bit
// SWAR lanes: the shared carry-save accumulate (backend_registry.hpp) and a
// scalar readout; threshold_words runs on them.
#include <bit>
#include <cstring>

#include "kernels/backend_registry.hpp"

namespace pulphd::kernels::detail {

namespace {

std::uint64_t hamming_words_portable(const Word* a, const Word* b, std::size_t n) noexcept {
  std::uint64_t d0 = 0, d1 = 0;
  std::size_t w = 0;
  // Two independent accumulators keep the popcount chains out of each
  // other's dependency path; the compiler vectorizes the 4-word body.
  for (; w + 4 <= n; w += 4) {
    std::uint64_t qa, qb, ra, rb;
    std::memcpy(&qa, a + w, sizeof(qa));
    std::memcpy(&ra, b + w, sizeof(ra));
    std::memcpy(&qb, a + w + 2, sizeof(qb));
    std::memcpy(&rb, b + w + 2, sizeof(rb));
    d0 += static_cast<std::uint64_t>(std::popcount(qa ^ ra));
    d1 += static_cast<std::uint64_t>(std::popcount(qb ^ rb));
  }
  for (; w < n; ++w) {
    d0 += static_cast<std::uint64_t>(popcount(a[w] ^ b[w]));
  }
  return d0 + d1;
}

void hamming_rows_portable(const Word* query, const Word* prototypes,
                           std::size_t num_prototypes, std::size_t words_per_row,
                           std::uint32_t* out) noexcept {
  for (std::size_t c = 0; c < num_prototypes; ++c) {
    out[c] = static_cast<std::uint32_t>(
        hamming_words_portable(query, prototypes + c * words_per_row, words_per_row));
  }
}

void xor_words_portable(const Word* a, const Word* b, Word* out, std::size_t n) noexcept {
  for (std::size_t w = 0; w < n; ++w) out[w] = a[w] ^ b[w];
}

// The counter lane: two Words as one 64-bit SWAR word.
struct PortableLane {
  using V = std::uint64_t;
  static constexpr std::size_t kWords = 2;
  static V load(const Word* p) noexcept {
    V v;
    std::memcpy(&v, p, sizeof(v));
    return v;
  }
  static void store(Word* p, V v) noexcept { std::memcpy(p, &v, sizeof(v)); }
  static V zero() noexcept { return 0; }
  static V xor_(V a, V b) noexcept { return a ^ b; }
  static V and_(V a, V b) noexcept { return a & b; }
  static V or_(V a, V b) noexcept { return a | b; }
  static bool any(V v) noexcept { return v != 0; }
};

void counters_to_majority_portable(const Word* planes, unsigned num_planes,
                                   std::size_t threshold, const Word* tie_break, Word* out,
                                   std::size_t n) noexcept {
  for (std::size_t w = 0; w < n; ++w) {
    out[w] = counters_majority_word_scalar(planes, num_planes, n, threshold,
                                           tie_break != nullptr ? tie_break[w] : Word{0}, w);
  }
}

bool portable_supported() noexcept { return true; }

}  // namespace

const Backend kPortableBackend = {
    .name = "portable",
    .vector_bits = 64,
    .supported = portable_supported,
    .hamming_words = hamming_words_portable,
    .hamming_rows = hamming_rows_portable,
    .xor_words = xor_words_portable,
    .threshold_words = threshold_words_via_counters<PortableLane, counters_to_majority_portable>,
    .bind_majority_words = bind_majority_closed_form<xor_words_portable>,
    .accumulate_counters = accumulate_counters<PortableLane>,
    .accumulate_rows = accumulate_rows<PortableLane>,
    .counters_to_majority = counters_to_majority_portable,
};

}  // namespace pulphd::kernels::detail
