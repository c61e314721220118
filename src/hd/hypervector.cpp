#include "hd/hypervector.hpp"

#include <algorithm>
#include <numeric>

#include "common/status.hpp"
#include "kernels/backend.hpp"

namespace pulphd::hd {

Hypervector::Hypervector(std::size_t dim) : dim_(dim), words_(words_for_dim(dim), 0u) {
  require(dim >= 1, "Hypervector: dim must be >= 1");
}

Hypervector::Hypervector(std::size_t dim, std::vector<Word> words)
    : dim_(dim), words_(std::move(words)) {
  require(dim >= 1, "Hypervector: dim must be >= 1");
  require(words_.size() == words_for_dim(dim),
          "Hypervector: word count does not match dimension");
  clear_padding();
}

Hypervector Hypervector::random(std::size_t dim, Xoshiro256StarStar& rng) {
  Hypervector hv(dim);
  for (auto& w : hv.words_) {
    w = static_cast<Word>(rng.next() & 0xffffffffu);
  }
  hv.clear_padding();
  return hv;
}

Hypervector Hypervector::random_balanced(std::size_t dim, Xoshiro256StarStar& rng) {
  Hypervector hv(dim);
  // Fisher–Yates selection of exactly dim/2 positions to set.
  std::vector<std::uint32_t> indices(dim);
  std::iota(indices.begin(), indices.end(), 0u);
  const std::size_t ones = dim / 2;
  for (std::size_t i = 0; i < ones; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(rng.next_below(dim - i));
    std::swap(indices[i], indices[j]);
    hv.set_bit(indices[i], true);
  }
  return hv;
}

bool Hypervector::bit(std::size_t i) const {
  require(i < dim_, "Hypervector::bit: index out of range");
  return extract_bit(words_[i / kWordBits], static_cast<unsigned>(i % kWordBits)) != 0;
}

void Hypervector::set_bit(std::size_t i, bool value) {
  require(i < dim_, "Hypervector::set_bit: index out of range");
  words_[i / kWordBits] = insert_bit(words_[i / kWordBits],
                                     static_cast<unsigned>(i % kWordBits),
                                     value ? 1u : 0u);
}

void Hypervector::flip_bit(std::size_t i) {
  require(i < dim_, "Hypervector::flip_bit: index out of range");
  words_[i / kWordBits] ^= (Word{1} << (i % kWordBits));
}

std::size_t Hypervector::popcount() const noexcept {
  std::size_t total = 0;
  for (const Word w : words_) total += static_cast<std::size_t>(pulphd::popcount(w));
  return total;
}

std::size_t Hypervector::hamming(const Hypervector& other) const {
  require(dim_ == other.dim_, "Hypervector::hamming: dimension mismatch");
  return static_cast<std::size_t>(kernels::active_backend().hamming_words(
      words_.data(), other.words_.data(), words_.size()));
}

double Hypervector::normalized_hamming(const Hypervector& other) const {
  return static_cast<double>(hamming(other)) / static_cast<double>(dim_);
}

Hypervector Hypervector::operator^(const Hypervector& other) const {
  Hypervector out = *this;
  out ^= other;
  return out;
}

Hypervector& Hypervector::operator^=(const Hypervector& other) {
  require(dim_ == other.dim_, "Hypervector::operator^=: dimension mismatch");
  kernels::active_backend().xor_words(words_.data(), other.words_.data(), words_.data(),
                                      words_.size());
  return *this;  // XOR of zero-padded words keeps padding zero.
}

Hypervector Hypervector::operator~() const {
  Hypervector out = *this;
  for (auto& w : out.words_) w = ~w;
  out.clear_padding();
  return out;
}

Hypervector Hypervector::rotated(std::size_t k) const {
  Hypervector out(dim_);
  rotate_into(out, k);
  return out;
}

void Hypervector::rotate_into(Hypervector& dst, std::size_t k) const {
  require(dst.dim_ == dim_, "Hypervector::rotate_into: dimension mismatch");
  require(&dst != this, "Hypervector::rotate_into: dst must not alias the source");
  // Output component (i + k) mod dim takes input component i — a left
  // rotation in component order. Read the packed words as one dim-bit
  // integer x (word 0 least significant); the rotation is then
  //   (x << k) | (x >> (dim - k))
  // done as two multiword funnel shifts, each word built from two
  // neighbouring source words. The left shift spills past dim into the
  // padding, which clear_padding drops; the right shift only fills the
  // low k bits, which the left shift left zero.
  k %= dim_;
  const std::size_t n = words_.size();
  const Word* x = words_.data();
  Word* out = dst.words_.data();
  // x << k: word offset q, bit offset r.
  const std::size_t q = k / kWordBits;
  const unsigned r = static_cast<unsigned>(k % kWordBits);
  std::fill(out, out + q, Word{0});
  if (r == 0) {
    std::copy(x, x + (n - q), out + q);
  } else {
    out[q] = x[0] << r;
    for (std::size_t w = q + 1; w < n; ++w) {
      out[w] = (x[w - q] << r) | (x[w - q - 1] >> (kWordBits - r));
    }
  }
  if (k != 0) {
    // |= x >> (dim - k): word offset q, bit offset r again; only the low
    // n - q words can receive bits.
    const std::size_t shift = dim_ - k;
    const std::size_t qs = shift / kWordBits;
    const unsigned rs = static_cast<unsigned>(shift % kWordBits);
    const std::size_t m = n - qs;
    if (rs == 0) {
      for (std::size_t w = 0; w < m; ++w) out[w] |= x[w + qs];
    } else {
      for (std::size_t w = 0; w + 1 < m; ++w) {
        out[w] |= (x[w + qs] >> rs) | (x[w + qs + 1] << (kWordBits - rs));
      }
      out[m - 1] |= x[n - 1] >> rs;
    }
  }
  dst.clear_padding();
}

void Hypervector::clear_padding() noexcept {
  const unsigned used = static_cast<unsigned>(dim_ % kWordBits);
  if (used != 0) words_.back() &= low_bits_mask(used);
}

std::string Hypervector::to_string(std::size_t max_bits) const {
  const std::size_t n = std::min(max_bits, dim_);
  std::string out;
  out.reserve(n + 3);
  for (std::size_t i = 0; i < n; ++i) out += bit(i) ? '1' : '0';
  if (n < dim_) out += "...";
  return out;
}

}  // namespace pulphd::hd
