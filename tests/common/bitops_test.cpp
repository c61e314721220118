#include "common/bitops.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace pulphd {
namespace {

TEST(WordsForDim, PaperConfigurations) {
  EXPECT_EQ(words_for_dim(10000), 313u);  // §3: "313 unsigned integers"
  EXPECT_EQ(words_for_dim(200), 7u);      // §4.1: "seven unsigned integers"
  EXPECT_EQ(words_for_dim(32), 1u);
  EXPECT_EQ(words_for_dim(33), 2u);
  EXPECT_EQ(words_for_dim(1), 1u);
}

TEST(Popcount, MatchesSwarOnAllPatterns) {
  Xoshiro256StarStar rng(1);
  for (int i = 0; i < 10000; ++i) {
    const Word w = static_cast<Word>(rng.next());
    EXPECT_EQ(popcount(w), popcount_swar(w));
  }
}

TEST(Popcount, EdgeValues) {
  EXPECT_EQ(popcount_swar(0u), 0);
  EXPECT_EQ(popcount_swar(~0u), 32);
  EXPECT_EQ(popcount_swar(1u), 1);
  EXPECT_EQ(popcount_swar(0x80000000u), 1);
  EXPECT_EQ(popcount_swar(0xAAAAAAAAu), 16);
}

TEST(ExtractInsertBit, RoundTrip) {
  Xoshiro256StarStar rng(2);
  for (int i = 0; i < 1000; ++i) {
    const Word w = static_cast<Word>(rng.next());
    const unsigned bit = static_cast<unsigned>(rng.next_below(32));
    const Word value = static_cast<Word>(rng.next() & 1);
    const Word updated = insert_bit(w, bit, value);
    EXPECT_EQ(extract_bit(updated, bit), value);
    // Other bits untouched.
    for (unsigned b = 0; b < 32; ++b) {
      if (b != bit) {
        EXPECT_EQ(extract_bit(updated, b), extract_bit(w, b));
      }
    }
  }
}

TEST(InsertBit, OnlyLowBitOfValueUsed) {
  EXPECT_EQ(insert_bit(0u, 3, 0xFFFFFFFFu), 8u);
  EXPECT_EQ(insert_bit(0xFFu, 0, 0x2u), 0xFEu);
}

class FieldRoundTrip : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>> {};

TEST_P(FieldRoundTrip, ExtractAfterInsert) {
  const auto [pos, len] = GetParam();
  if (pos + len > 32) GTEST_SKIP() << "field exceeds word";
  Xoshiro256StarStar rng(3);
  for (int i = 0; i < 200; ++i) {
    const Word w = static_cast<Word>(rng.next());
    const Word value = static_cast<Word>(rng.next()) & low_bits_mask(len);
    const Word updated = insert_field(w, pos, len, value);
    EXPECT_EQ(extract_field(updated, pos, len), value);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FieldRoundTrip,
    ::testing::Combine(::testing::Values(0u, 1u, 5u, 15u, 28u, 31u),
                       ::testing::Values(1u, 2u, 4u, 8u, 16u, 32u)));

TEST(LowBitsMask, AllWidths) {
  EXPECT_EQ(low_bits_mask(0), 0u);
  EXPECT_EQ(low_bits_mask(1), 1u);
  EXPECT_EQ(low_bits_mask(8), 0xFFu);
  EXPECT_EQ(low_bits_mask(31), 0x7FFFFFFFu);
  EXPECT_EQ(low_bits_mask(32), 0xFFFFFFFFu);
}

TEST(Parity, MatchesPopcountParity) {
  Xoshiro256StarStar rng(4);
  for (int i = 0; i < 1000; ++i) {
    const Word w = static_cast<Word>(rng.next());
    EXPECT_EQ(parity(w), static_cast<Word>(popcount(w) & 1));
  }
}

}  // namespace
}  // namespace pulphd
