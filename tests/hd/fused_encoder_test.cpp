// Bit-exactness of HdClassifier's trial encoding (StreamingEncoder
// configured to one whole-trial window for queries, one-gram windows for
// training sequences) against the sample-at-a-time reference chain
// (reference_encoder.hpp), across every compiled+supported backend, n-gram
// sizes 1/3/5, trial lengths shorter/equal/longer than n, odd/even channel
// counts and 1/2/4 thread counts; plus the pieces it is built from: rotate_into vs rotated, the
// sliding N-gram recurrence vs the direct reduction, and CounterBundle vs
// BundleAccumulator.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "hd/classifier.hpp"
#include "hd/encoder.hpp"
#include "hd/ops.hpp"
#include "kernels/backend.hpp"
#include "kernels/bitsliced.hpp"
#include "reference_encoder.hpp"

namespace pulphd::hd {
namespace {

Hypervector random_hv(std::size_t dim, Xoshiro256StarStar& rng) {
  return Hypervector::random(dim, rng);
}

Trial random_trial(std::size_t samples, std::size_t channels, Xoshiro256StarStar& rng) {
  Trial trial(samples, Sample(channels));
  for (auto& sample : trial) {
    for (auto& v : sample) v = static_cast<float>(rng.next() % 2100u) / 100.0f;
  }
  return trial;
}

TEST(RotateInto, MatchesRotatedOnAllShapes) {
  Xoshiro256StarStar rng(0xf0001);
  for (const std::size_t dim : {1u, 31u, 32u, 33u, 64u, 97u, 10016u}) {
    const Hypervector hv = random_hv(dim, rng);
    for (const std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{5}, dim - 1,
                                dim, 3 * dim + 7}) {
      Hypervector dst(dim);
      dst.flip_bit(0);  // stale content must be overwritten, not OR-ed into
      hv.rotate_into(dst, k);
      EXPECT_EQ(dst, hv.rotated(k)) << "dim " << dim << " k " << k;
    }
  }
}

TEST(RotateInto, RejectsAliasingAndDimMismatch) {
  Hypervector hv(64);
  EXPECT_THROW(hv.rotate_into(hv, 1), std::invalid_argument);
  Hypervector other(65);
  EXPECT_THROW(hv.rotate_into(other, 1), std::invalid_argument);
}

TEST(TemporalEncoderRecurrence, MatchesDirectNgramReduction) {
  Xoshiro256StarStar rng(0xf0002);
  for (const std::size_t dim : {33u, 97u, 320u}) {
    std::vector<Hypervector> sequence;
    for (int i = 0; i < 12; ++i) sequence.push_back(random_hv(dim, rng));
    for (const std::size_t n : {1u, 2u, 3u, 5u}) {
      TemporalEncoder enc(n, dim);
      Hypervector gram(dim);
      std::size_t emitted = 0;
      for (std::size_t t = 0; t < sequence.size(); ++t) {
        const bool full = enc.push(sequence[t], &gram);
        EXPECT_EQ(full, t + 1 >= n);
        if (!full) continue;
        // The recurrence-maintained gram must equal the direct reduction
        // over the same window, each and every step.
        const auto window =
            std::span<const Hypervector>(sequence).subspan(t + 1 - n, n);
        EXPECT_EQ(gram, ngram(window)) << "dim " << dim << " n " << n << " t " << t;
        ++emitted;
      }
      EXPECT_EQ(emitted, sequence.size() - n + 1);
      // reset() must restart the window fill from scratch.
      enc.reset();
      EXPECT_EQ(enc.fill(), 0u);
      EXPECT_EQ(enc.push(sequence[0], &gram), n == 1);
    }
  }
}

TEST(TemporalEncoderRecurrence, EncodeSequenceMatchesPerWindowNgram) {
  Xoshiro256StarStar rng(0xf0003);
  const std::size_t dim = 97;
  std::vector<Hypervector> sequence;
  for (int i = 0; i < 9; ++i) sequence.push_back(random_hv(dim, rng));
  for (const std::size_t n : {1u, 3u, 5u, 9u}) {
    const std::vector<Hypervector> grams = reference::encode_sequence(sequence, n);
    ASSERT_EQ(grams.size(), sequence.size() - n + 1);
    for (std::size_t start = 0; start + n <= sequence.size(); ++start) {
      EXPECT_EQ(grams[start],
                ngram(std::span<const Hypervector>(sequence).subspan(start, n)));
    }
  }
  EXPECT_TRUE(reference::encode_sequence(sequence, sequence.size() + 1).empty());
}

TEST(CounterBundle, MatchesBundleAccumulator) {
  Xoshiro256StarStar rng(0xf0004);
  for (const std::size_t dim : {63u, 64u, 97u, 10016u}) {
    const std::size_t words = words_for_dim(dim);
    const Hypervector tie_break = random_hv(dim, rng);
    for (const std::size_t adds : {1u, 2u, 3u, 8u, 9u, 20u}) {
      std::vector<Hypervector> rows;
      for (std::size_t r = 0; r < adds; ++r) rows.push_back(random_hv(dim, rng));
      std::vector<const Word*> row_ptrs;
      for (const auto& row : rows) row_ptrs.push_back(row.words().data());
      BundleAccumulator acc(dim);
      for (const auto& row : rows) acc.add(row);
      const Hypervector expected = acc.finalize(tie_break);
      for (const kernels::Backend* backend : kernels::compiled_backends()) {
        if (!backend->supported()) continue;
        kernels::CounterBundle bundle;
        bundle.reset(words, adds);
        bundle.add(*backend, row_ptrs);
        EXPECT_EQ(bundle.adds(), adds);
        Hypervector out(dim);
        bundle.majority(*backend, tie_break.words().data(), out.mutable_words().data());
        EXPECT_EQ(out, expected) << backend->name << " dim " << dim << " adds " << adds;
      }
    }
  }
}

TEST(CounterBundle, OverAddingProvisionedCapacityRefusesReadout) {
  // One plane holds counts up to 1; after a second add the counters have
  // saturated and the readout threshold no longer fits the comparator, so
  // majority() must refuse rather than silently invert.
  kernels::CounterBundle bundle;
  bundle.reset(2, 1);
  ASSERT_EQ(bundle.planes(), 1u);
  const std::vector<Word> row(2, 0x3u);
  const Word* const row_ptr = row.data();
  const kernels::Backend& backend = kernels::portable_backend();
  bundle.add(backend, {&row_ptr, 1});
  bundle.add(backend, {&row_ptr, 1});
  bundle.add(backend, {&row_ptr, 1});
  std::vector<Word> out(2);
  EXPECT_THROW(bundle.majority(backend, nullptr, out.data()), std::invalid_argument);
}

TEST(CounterBundle, EvenAddCountRequiresTieBreak) {
  kernels::CounterBundle bundle;
  bundle.reset(2, 2);
  const std::vector<Word> row(2, 0x5u);
  const Word* const row_ptr = row.data();
  const kernels::Backend& backend = kernels::portable_backend();
  bundle.add(backend, {&row_ptr, 1});
  bundle.add(backend, {&row_ptr, 1});
  std::vector<Word> out(2);
  EXPECT_THROW(bundle.majority(backend, nullptr, out.data()), std::invalid_argument);
}

// The full matrix: HdClassifier vs the reference chain, encode_query and
// encode_trial, across backend x dim x channel parity x n x trial length.
TEST(FusedTrialEncoding, BitExactWithLegacyAcrossBackendsNgramsAndLengths) {
  Xoshiro256StarStar rng(0xf0005);
  for (const kernels::Backend* backend : kernels::compiled_backends()) {
    if (!backend->supported()) continue;
    const kernels::ScopedBackend forced(backend);
    for (const std::size_t dim : {97u, 256u}) {
      for (const std::size_t channels : {3u, 4u}) {
        for (const std::size_t n : {1u, 3u, 5u}) {
          ClassifierConfig cfg;
          cfg.dim = dim;
          cfg.channels = channels;
          cfg.ngram = n;
          HdClassifier clf(cfg);
          const std::size_t lengths[] = {n, n + 1, 2 * n + 3, 17};
          for (const std::size_t samples : lengths) {
            const Trial trial = random_trial(samples, channels, rng);
            const std::vector<Hypervector> legacy_grams = reference::encode_trial(clf, trial);
            const Hypervector legacy_query = reference::encode_query(clf, trial);
            EXPECT_EQ(clf.encode_trial(trial), legacy_grams)
                << backend->name << " dim " << dim << " channels " << channels << " n "
                << n << " samples " << samples;
            EXPECT_EQ(clf.encode_query(trial), legacy_query)
                << backend->name << " dim " << dim << " channels " << channels << " n "
                << n << " samples " << samples;
          }
          // Shorter than the window: no complete N-gram — both paths must
          // agree on the failure shape too.
          if (n > 1) {
            const Trial short_trial = random_trial(n - 1, channels, rng);
            EXPECT_TRUE(reference::encode_trial(clf, short_trial).empty());
            EXPECT_THROW(reference::encode_query(clf, short_trial), std::invalid_argument);
            EXPECT_TRUE(clf.encode_trial(short_trial).empty());
            EXPECT_THROW(clf.encode_query(short_trial), std::invalid_argument);
          }
        }
      }
    }
  }
}

// HdClassifier's trial encoding against a from-first-principles
// sample-at-a-time reference (per-sample spatial encode, per-window
// hd::ngram, per-component BundleAccumulator) rather than the batch
// reference chain.
TEST(FusedTrialEncoding, MatchesSampleAtATimeReference) {
  Xoshiro256StarStar rng(0xf0006);
  ClassifierConfig cfg;
  cfg.dim = 10016;
  cfg.channels = 4;
  cfg.ngram = 3;
  HdClassifier clf(cfg);
  const Trial trial = random_trial(9, cfg.channels, rng);

  std::vector<Hypervector> spatials;
  for (const Sample& sample : trial) {
    spatials.push_back(clf.spatial_encoder().encode(sample));
  }
  std::vector<Hypervector> grams;
  for (std::size_t t = 0; t + cfg.ngram <= spatials.size(); ++t) {
    grams.push_back(ngram(std::span<const Hypervector>(spatials).subspan(t, cfg.ngram)));
  }
  BundleAccumulator acc(cfg.dim);
  for (const auto& g : grams) acc.add(g);

  EXPECT_EQ(clf.encode_trial(trial), grams);
  // Check the gram bundle against the reference accumulator via one
  // arbitrary-but-fixed tie-break (the classifier's own tie-break path is
  // covered by the matrix above).
  Xoshiro256StarStar tie_rng(0x7e);
  const Hypervector tie = Hypervector::random(cfg.dim, tie_rng);
  kernels::CounterBundle bundle;
  bundle.reset(words_for_dim(cfg.dim), grams.size());
  std::vector<const Word*> gram_ptrs;
  for (const auto& g : grams) gram_ptrs.push_back(g.words().data());
  bundle.add(kernels::active_backend(), gram_ptrs);
  Hypervector bundled(cfg.dim);
  bundle.majority(kernels::active_backend(), tie.words().data(),
                  bundled.mutable_words().data());
  EXPECT_EQ(bundled, acc.finalize(tie));
}

TEST(FusedTrialEncoding, EncodeTrialsIdenticalAcrossThreadCountsAndFusion) {
  Xoshiro256StarStar rng(0xf0007);
  ClassifierConfig cfg;
  cfg.dim = 256;
  cfg.channels = 4;
  cfg.ngram = 3;
  HdClassifier clf(cfg);
  // Uneven trial lengths give the shards uneven work.
  std::vector<Trial> trials;
  for (const std::size_t samples : {3u, 17u, 5u, 40u, 3u, 9u, 21u, 4u, 12u, 7u}) {
    trials.push_back(random_trial(samples, cfg.channels, rng));
  }
  const std::vector<Hypervector> expected = reference::encode_trials(clf, trials);
  for (const std::size_t threads : {1u, 2u, 4u}) {
    clf.set_threads(threads);
    EXPECT_EQ(clf.encode_trials(trials), expected) << "threads " << threads;
  }
}

TEST(FusedTrialEncoding, PredictBatchDecisionsUnchangedByFusion) {
  Xoshiro256StarStar rng(0xf0008);
  ClassifierConfig cfg;
  cfg.dim = 512;
  cfg.channels = 4;
  cfg.ngram = 1;
  HdClassifier clf(cfg);
  for (std::size_t label = 0; label < cfg.classes; ++label) {
    clf.train(random_trial(12, cfg.channels, rng), label);
  }
  std::vector<Trial> queries;
  for (int q = 0; q < 8; ++q) queries.push_back(random_trial(10, cfg.channels, rng));
  const std::vector<AmDecision> legacy =
      clf.predict_encoded_batch(reference::encode_trials(clf, queries));
  const std::vector<AmDecision> fused = clf.predict_batch(queries);
  ASSERT_EQ(fused.size(), legacy.size());
  for (std::size_t q = 0; q < legacy.size(); ++q) {
    EXPECT_EQ(fused[q].label, legacy[q].label);
    EXPECT_EQ(fused[q].distance, legacy[q].distance);
    EXPECT_EQ(fused[q].distances, legacy[q].distances);
  }
}

}  // namespace
}  // namespace pulphd::hd
