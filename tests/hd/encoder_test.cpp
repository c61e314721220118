#include "hd/encoder.hpp"

#include <gtest/gtest.h>

#include "reference_encoder.hpp"

namespace pulphd::hd {
namespace {

struct Fixture {
  std::size_t dim = 2048;
  ItemMemory im{4, 2048, 1};
  ContinuousItemMemory cim{22, 2048, 0.0, 21.0, 2};
};

TEST(SpatialEncoder, MatchesManualComputation) {
  Fixture f;
  const SpatialEncoder enc(f.im, f.cim, 4);
  const std::vector<float> sample{3.0f, 18.0f, 0.5f, 9.0f};
  std::vector<Hypervector> bound;
  for (std::size_t c = 0; c < 4; ++c) bound.push_back(f.im.at(c) ^ f.cim.encode(sample[c]));
  bound.push_back(bound[0] ^ bound[1]);  // even channel count: §5.1 tie-break
  EXPECT_EQ(enc.encode(sample), majority(bound));
}

TEST(SpatialEncoder, OddChannelCountHasNoTiebreak) {
  Fixture f;
  const SpatialEncoder enc(f.im, f.cim, 3);
  const std::vector<float> sample{3.0f, 18.0f, 0.5f};
  const auto bound = enc.bind_channels(sample);
  EXPECT_EQ(bound.size(), 3u);
}

TEST(SpatialEncoder, EvenChannelCountAddsTiebreak) {
  Fixture f;
  const SpatialEncoder enc(f.im, f.cim, 4);
  const std::vector<float> sample{1.0f, 2.0f, 3.0f, 4.0f};
  const auto bound = enc.bind_channels(sample);
  ASSERT_EQ(bound.size(), 5u);
  EXPECT_EQ(bound[4], bound[0] ^ bound[1]);
}

TEST(SpatialEncoder, SimilarSamplesGiveSimilarHypervectors) {
  Fixture f;
  const SpatialEncoder enc(f.im, f.cim, 4);
  const Hypervector a = enc.encode(std::vector<float>{5.0f, 10.0f, 2.0f, 15.0f});
  const Hypervector b = enc.encode(std::vector<float>{5.5f, 10.5f, 2.2f, 15.5f});
  const Hypervector c = enc.encode(std::vector<float>{20.0f, 1.0f, 18.0f, 3.0f});
  // The shared channel vectors keep even dissimilar samples correlated, so
  // the far sample lands around d ~ 0.25; the near one must be much closer.
  EXPECT_LT(a.normalized_hamming(b), 0.2);
  EXPECT_GT(a.normalized_hamming(c), 0.22);
  EXPECT_GT(a.normalized_hamming(c), a.normalized_hamming(b) + 0.05);
}

TEST(SpatialEncoder, SameSampleIsDeterministic) {
  Fixture f;
  const SpatialEncoder enc(f.im, f.cim, 4);
  const std::vector<float> sample{4.0f, 4.0f, 4.0f, 4.0f};
  EXPECT_EQ(enc.encode(sample), enc.encode(sample));
}

TEST(SpatialEncoder, ValidatesArguments) {
  Fixture f;
  EXPECT_THROW(SpatialEncoder(f.im, f.cim, 5), std::invalid_argument);  // IM too small
  EXPECT_THROW(SpatialEncoder(f.im, f.cim, 0), std::invalid_argument);
  const SpatialEncoder enc(f.im, f.cim, 4);
  EXPECT_THROW((void)enc.encode(std::vector<float>{1.0f}), std::invalid_argument);
}

TEST(SpatialEncoder, RejectsMismatchedMemories) {
  ItemMemory im(4, 128, 1);
  ContinuousItemMemory cim(4, 256, 0.0, 1.0, 2);
  EXPECT_THROW(SpatialEncoder(im, cim, 4), std::invalid_argument);
}

TEST(TemporalEncoder, PassThroughForN1) {
  TemporalEncoder enc(1, 512);
  Xoshiro256StarStar rng(3);
  const Hypervector s = Hypervector::random(512, rng);
  Hypervector out(512);
  EXPECT_TRUE(enc.push(s, &out));
  EXPECT_EQ(out, s);
}

TEST(TemporalEncoder, EmitsAfterWindowFills) {
  TemporalEncoder enc(3, 256);
  Xoshiro256StarStar rng(4);
  Hypervector out(256);
  const Hypervector s0 = Hypervector::random(256, rng);
  const Hypervector s1 = Hypervector::random(256, rng);
  const Hypervector s2 = Hypervector::random(256, rng);
  EXPECT_FALSE(enc.push(s0, &out));
  EXPECT_FALSE(enc.push(s1, &out));
  EXPECT_TRUE(enc.push(s2, &out));
  const std::vector<Hypervector> window{s0, s1, s2};
  EXPECT_EQ(out, ngram(window));
}

TEST(TemporalEncoder, SlidesWindow) {
  TemporalEncoder enc(2, 128);
  Xoshiro256StarStar rng(5);
  const Hypervector s0 = Hypervector::random(128, rng);
  const Hypervector s1 = Hypervector::random(128, rng);
  const Hypervector s2 = Hypervector::random(128, rng);
  Hypervector out(128);
  (void)enc.push(s0, &out);
  (void)enc.push(s1, &out);
  EXPECT_TRUE(enc.push(s2, &out));
  const std::vector<Hypervector> window{s1, s2};
  EXPECT_EQ(out, ngram(window));
}

TEST(TemporalEncoder, ResetEmptiesWindow) {
  TemporalEncoder enc(2, 64);
  Xoshiro256StarStar rng(6);
  Hypervector out(64);
  (void)enc.push(Hypervector::random(64, rng), &out);
  enc.reset();
  EXPECT_EQ(enc.fill(), 0u);
  EXPECT_FALSE(enc.push(Hypervector::random(64, rng), &out));
}

// The reference chain's sequence helper (the oracle behind
// fused_encoder_test) must itself agree with TemporalEncoder::push.
TEST(TemporalEncoder, EncodeSequenceCountsWindows) {
  Xoshiro256StarStar rng(7);
  std::vector<Hypervector> seq;
  for (int i = 0; i < 10; ++i) seq.push_back(Hypervector::random(128, rng));
  EXPECT_EQ(reference::encode_sequence(seq, 1).size(), 10u);
  EXPECT_EQ(reference::encode_sequence(seq, 4).size(), 7u);
  EXPECT_EQ(reference::encode_sequence(seq, 10).size(), 1u);
  EXPECT_TRUE(reference::encode_sequence(seq, 11).empty());
}

TEST(TemporalEncoder, EncodeSequenceMatchesStreaming) {
  Xoshiro256StarStar rng(8);
  std::vector<Hypervector> seq;
  for (int i = 0; i < 8; ++i) seq.push_back(Hypervector::random(200, rng));
  const auto batch = reference::encode_sequence(seq, 3);
  TemporalEncoder enc(3, 200);
  Hypervector out(200);
  std::vector<Hypervector> streaming;
  for (const auto& s : seq) {
    if (enc.push(s, &out)) streaming.push_back(out);
  }
  EXPECT_EQ(batch, streaming);
}

TEST(TemporalEncoder, PushMatchesNgramForWideWindows) {
  // Regression for the in-place n-gram reduction (the previous push copied
  // the whole window into a fresh vector per sample): every emitted n-gram
  // must stay bit-identical to hd::ngram over the same window.
  Xoshiro256StarStar rng(10);
  std::vector<Hypervector> seq;
  for (int i = 0; i < 12; ++i) seq.push_back(Hypervector::random(512, rng));
  const std::size_t n = 5;
  TemporalEncoder enc(n, 512);
  Hypervector out(512);
  std::size_t emitted = 0;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    if (!enc.push(seq[i], &out)) continue;
    const std::vector<Hypervector> window(seq.begin() + static_cast<std::ptrdiff_t>(i + 1 - n),
                                          seq.begin() + static_cast<std::ptrdiff_t>(i + 1));
    EXPECT_EQ(out, ngram(window)) << "window ending at " << i;
    ++emitted;
  }
  EXPECT_EQ(emitted, seq.size() - n + 1);
}

TEST(TemporalEncoder, ValidatesArguments) {
  EXPECT_THROW(TemporalEncoder(0, 64), std::invalid_argument);
  TemporalEncoder enc(2, 64);
  Hypervector out(64);
  EXPECT_THROW((void)enc.push(Hypervector(65), &out), std::invalid_argument);
  EXPECT_THROW((void)enc.push(Hypervector(64), nullptr), std::invalid_argument);
}

TEST(TemporalEncoder, DistinctSequenceOrdersAreDistinguishable) {
  // A-B-A vs B-A-B must map to distant N-grams (sequence memory).
  Xoshiro256StarStar rng(9);
  const Hypervector a = Hypervector::random(10000, rng);
  const Hypervector b = Hypervector::random(10000, rng);
  const std::vector<Hypervector> aba{a, b, a};
  const std::vector<Hypervector> bab{b, a, b};
  EXPECT_NEAR(ngram(aba).normalized_hamming(ngram(bab)), 0.5, 0.05);
}

}  // namespace
}  // namespace pulphd::hd
