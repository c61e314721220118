#include "hd/hypervector.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace pulphd::hd {
namespace {

TEST(Hypervector, ZeroInitialized) {
  const Hypervector hv(100);
  EXPECT_EQ(hv.dim(), 100u);
  EXPECT_EQ(hv.word_count(), 4u);
  EXPECT_EQ(hv.popcount(), 0u);
}

TEST(Hypervector, RejectsZeroDim) {
  EXPECT_THROW(Hypervector(0), std::invalid_argument);
}

TEST(Hypervector, FromWordsValidatesSize) {
  EXPECT_NO_THROW(Hypervector(64, std::vector<Word>(2, 0u)));
  EXPECT_THROW(Hypervector(64, std::vector<Word>(3, 0u)), std::invalid_argument);
}

TEST(Hypervector, FromWordsClearsPadding) {
  // 40-D vector: the top 24 bits of the 2nd word are padding.
  const Hypervector hv(40, std::vector<Word>{0xFFFFFFFFu, 0xFFFFFFFFu});
  EXPECT_EQ(hv.popcount(), 40u);
  EXPECT_EQ(hv.words()[1], 0xFFu);
}

TEST(Hypervector, SetAndGetBits) {
  Hypervector hv(70);
  hv.set_bit(0, true);
  hv.set_bit(33, true);
  hv.set_bit(69, true);
  EXPECT_TRUE(hv.bit(0));
  EXPECT_TRUE(hv.bit(33));
  EXPECT_TRUE(hv.bit(69));
  EXPECT_FALSE(hv.bit(1));
  EXPECT_EQ(hv.popcount(), 3u);
  hv.set_bit(33, false);
  EXPECT_FALSE(hv.bit(33));
  EXPECT_EQ(hv.popcount(), 2u);
}

TEST(Hypervector, BitAccessBoundsChecked) {
  Hypervector hv(10);
  EXPECT_THROW((void)hv.bit(10), std::invalid_argument);
  EXPECT_THROW(hv.set_bit(10, true), std::invalid_argument);
  EXPECT_THROW(hv.flip_bit(10), std::invalid_argument);
}

TEST(Hypervector, FlipBitToggles) {
  Hypervector hv(10);
  hv.flip_bit(5);
  EXPECT_TRUE(hv.bit(5));
  hv.flip_bit(5);
  EXPECT_FALSE(hv.bit(5));
}

TEST(Hypervector, RandomIsApproximatelyBalanced) {
  Xoshiro256StarStar rng(42);
  const Hypervector hv = Hypervector::random(10000, rng);
  // Binomial(10000, 1/2): 5 sigma ~ 250.
  EXPECT_NEAR(static_cast<double>(hv.popcount()), 5000.0, 250.0);
}

TEST(Hypervector, RandomIsDeterministicPerSeed) {
  Xoshiro256StarStar a(7);
  Xoshiro256StarStar b(7);
  EXPECT_EQ(Hypervector::random(1000, a), Hypervector::random(1000, b));
}

TEST(Hypervector, RandomBalancedIsExactlyBalanced) {
  Xoshiro256StarStar rng(1);
  for (const std::size_t dim : {64ul, 100ul, 313ul, 10000ul}) {
    EXPECT_EQ(Hypervector::random_balanced(dim, rng).popcount(), dim / 2);
  }
}

TEST(Hypervector, RandomVectorsAreQuasiOrthogonal) {
  Xoshiro256StarStar rng(3);
  const Hypervector a = Hypervector::random(10000, rng);
  const Hypervector b = Hypervector::random(10000, rng);
  // Orthogonal means normalized distance ~ 0.5 (|d - 0.5| < 5 sigma).
  EXPECT_NEAR(a.normalized_hamming(b), 0.5, 0.025);
}

TEST(Hypervector, HammingBasics) {
  Hypervector a(64);
  Hypervector b(64);
  EXPECT_EQ(a.hamming(b), 0u);
  b.set_bit(0, true);
  b.set_bit(63, true);
  EXPECT_EQ(a.hamming(b), 2u);
  EXPECT_EQ(b.hamming(a), 2u);  // symmetry
}

TEST(Hypervector, HammingRejectsDimensionMismatch) {
  const Hypervector a(64);
  const Hypervector b(65);
  EXPECT_THROW((void)a.hamming(b), std::invalid_argument);
}

TEST(Hypervector, XorIsInvolution) {
  Xoshiro256StarStar rng(4);
  const Hypervector a = Hypervector::random(999, rng);
  const Hypervector b = Hypervector::random(999, rng);
  EXPECT_EQ((a ^ b) ^ b, a);
}

TEST(Hypervector, XorWithSelfIsZero) {
  Xoshiro256StarStar rng(5);
  const Hypervector a = Hypervector::random(500, rng);
  EXPECT_EQ((a ^ a).popcount(), 0u);
}

TEST(Hypervector, XorHammingIdentity) {
  Xoshiro256StarStar rng(6);
  const Hypervector a = Hypervector::random(2000, rng);
  const Hypervector b = Hypervector::random(2000, rng);
  EXPECT_EQ((a ^ b).popcount(), a.hamming(b));
}

TEST(Hypervector, NotFlipsEverythingAndKeepsPadding) {
  Xoshiro256StarStar rng(7);
  const Hypervector a = Hypervector::random(100, rng);
  const Hypervector n = ~a;
  EXPECT_EQ(a.popcount() + n.popcount(), 100u);
  EXPECT_EQ(a.hamming(n), 100u);
}

class RotationTest : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(RotationTest, PreservesPopcountAndInverts) {
  const auto [dim, k] = GetParam();
  Xoshiro256StarStar rng(8);
  const Hypervector a = Hypervector::random(dim, rng);
  const Hypervector r = a.rotated(k);
  EXPECT_EQ(r.popcount(), a.popcount());
  // Rotating by dim - k undoes a rotation by k.
  EXPECT_EQ(r.rotated((dim - k % dim) % dim), a);
}

TEST_P(RotationTest, MovesComponentsForward) {
  const auto [dim, k] = GetParam();
  Xoshiro256StarStar rng(9);
  const Hypervector a = Hypervector::random(dim, rng);
  const Hypervector r = a.rotated(k);
  for (std::size_t i = 0; i < dim; ++i) {
    EXPECT_EQ(r.bit((i + k) % dim), a.bit(i)) << "dim=" << dim << " k=" << k << " i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RotationTest,
    ::testing::Combine(::testing::Values(32ul, 33ul, 64ul, 100ul, 313ul, 10000ul),
                       ::testing::Values(0ul, 1ul, 2ul, 31ul, 32ul, 63ul)));

TEST(Hypervector, RotationComposes) {
  Xoshiro256StarStar rng(10);
  const Hypervector a = Hypervector::random(100, rng);
  EXPECT_EQ(a.rotated(3).rotated(5), a.rotated(8));
}

TEST(Hypervector, FullRotationIsIdentity) {
  Xoshiro256StarStar rng(11);
  const Hypervector a = Hypervector::random(77, rng);
  EXPECT_EQ(a.rotated(77), a);
  EXPECT_EQ(a.rotated(154), a);
}

TEST(Hypervector, RotationByZeroIsIdentity) {
  Xoshiro256StarStar rng(20);
  for (const std::size_t dim : {1ul, 32ul, 100ul, 313ul}) {
    const Hypervector a = Hypervector::random(dim, rng);
    EXPECT_EQ(a.rotated(0), a) << "dim=" << dim;
  }
}

TEST(Hypervector, RotationBeyondDimWrapsModuloDim) {
  Xoshiro256StarStar rng(21);
  const Hypervector a = Hypervector::random(100, rng);
  // k > dim reduces to k mod dim, including multiples far beyond dim.
  EXPECT_EQ(a.rotated(101), a.rotated(1));
  EXPECT_EQ(a.rotated(100 * 7 + 13), a.rotated(13));
  EXPECT_EQ(a.rotated(100 * 1000), a);
}

TEST(Hypervector, RotationKeepsPaddingClear) {
  // A rotation of a non-word-aligned vector shifts set components through
  // the tail word; none may land in the padding bits.
  Xoshiro256StarStar rng(22);
  for (const std::size_t dim : {33ul, 40ul, 100ul}) {
    const Hypervector a = Hypervector::random(dim, rng);
    for (const std::size_t k : {1ul, 31ul, 32ul, dim - 1}) {
      const Hypervector r = a.rotated(k);
      Hypervector cleared = r;
      cleared.clear_padding();
      EXPECT_EQ(r, cleared) << "dim=" << dim << " k=" << k;
      EXPECT_EQ(r.popcount(), a.popcount()) << "dim=" << dim << " k=" << k;
    }
  }
}

// Bit-serial oracle over the packed words: output bit (i + k) mod dim is
// input bit i, one component at a time.
std::vector<Word> naive_rotation(const Hypervector& a, std::size_t k) {
  const std::size_t dim = a.dim();
  std::vector<Word> out(a.word_count(), 0);
  for (std::size_t i = 0; i < dim; ++i) {
    const Word bit = (a.words()[i / kWordBits] >> (i % kWordBits)) & 1u;
    const std::size_t j = (i + k) % dim;
    out[j / kWordBits] |= bit << (j % kWordBits);
  }
  return out;
}

TEST(Hypervector, RotateIntoMatchesBitSerialRotation) {
  // Every word offset and bit offset of the funnel-shift rotation, on dims
  // that straddle the word size plus the paper's 10,000 and 313 * 32 rows.
  // The destination starts all ones, padding included, so every word and
  // the cleared padding are checked.
  Xoshiro256StarStar rng(24);
  const std::size_t kDimsToRotate[] = {1, 2, 31, 32, 33, 63, 64, 65, 10000, 10016};
  for (const std::size_t dim : kDimsToRotate) {
    const Hypervector a = Hypervector::random(dim, rng);
    const std::size_t shifts[] = {0, 1, 31, 32, 33, dim - 1, dim, 2 * dim + 5, 4321};
    for (const std::size_t k : shifts) {
      Hypervector dst(dim);
      for (Word& w : dst.mutable_words()) w = ~Word{0};
      a.rotate_into(dst, k);
      EXPECT_EQ(std::vector<Word>(dst.words().begin(), dst.words().end()),
                naive_rotation(a, k))
          << "dim=" << dim << " k=" << k;
      const auto used = static_cast<unsigned>(dim % kWordBits);
      if (used != 0) {
        EXPECT_EQ(dst.words().back() & ~low_bits_mask(used), 0u)
            << "padding set, dim=" << dim << " k=" << k;
      }
    }
  }
}

TEST(Hypervector, NotKeepsPaddingClearForAllTailWidths) {
  // operator~ flips whole words; every non-aligned dim must come back with
  // the padding bits re-cleared so popcount/hamming stay word reductions.
  Xoshiro256StarStar rng(23);
  for (const std::size_t dim : {1ul, 31ul, 32ul, 33ul, 63ul, 65ul, 100ul, 10000ul}) {
    const Hypervector a = Hypervector::random(dim, rng);
    const Hypervector n = ~a;
    Hypervector cleared = n;
    cleared.clear_padding();
    EXPECT_EQ(n, cleared) << "dim=" << dim;
    EXPECT_EQ(a.popcount() + n.popcount(), dim) << "dim=" << dim;
    // Double negation round-trips exactly.
    EXPECT_EQ(~n, a) << "dim=" << dim;
  }
}

TEST(Hypervector, RotationMakesQuasiOrthogonal) {
  // The permutation "generates a dissimilar pseudo-orthogonal hypervector"
  // (§2.1).
  Xoshiro256StarStar rng(12);
  const Hypervector a = Hypervector::random(10000, rng);
  EXPECT_NEAR(a.normalized_hamming(a.rotated(1)), 0.5, 0.03);
}

TEST(Hypervector, ToStringTruncates) {
  Hypervector hv(100);
  hv.set_bit(1, true);
  const std::string s = hv.to_string(8);
  EXPECT_EQ(s, "01000000...");
}

}  // namespace
}  // namespace pulphd::hd
