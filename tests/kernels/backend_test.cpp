// Bit-exact equivalence of every compiled kernel backend against the
// portable SWAR reference, across dimensions that exercise every tail shape
// (sub-word, exact-word, word+1, the paper's 313-word rows, the 10,048-D
// bench config and a multi-block threshold) and 1/3/129-query batches
// against 1-8 prototype rows; the counter, threshold and closed-form spatial
// kernels are also checked against naive per-column counts, since portable
// shares their code (the multi-row accumulate also against its own
// single-row calls). Plus the dispatch contract: PULPHD_BACKEND is
// honored, unknown values fail with a clear error.
#include "kernels/backend.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace pulphd::kernels {
namespace {

// Every tail shape the word loops can see: dims 63/64/65 straddle the
// 64-bit SWAR chunk, 255/256/257 straddle the 256-bit AVX2 vector, 10016
// (= 313 * 32) is the paper's row, 10048 the bench config, and 32000
// (1000 words) splits even a 5-row threshold_words majority into two
// counter-plane blocks.
const std::size_t kDims[] = {1, 31, 63, 64, 65, 255, 256, 257, 10016, 10048, 32000};

std::vector<Word> random_row(std::size_t dim, Xoshiro256StarStar& rng) {
  std::vector<Word> row(words_for_dim(dim));
  for (auto& w : row) w = static_cast<Word>(rng.next() & 0xffffffffu);
  const unsigned used = static_cast<unsigned>(dim % kWordBits);
  if (used != 0) row.back() &= low_bits_mask(used);  // the padding invariant
  return row;
}

// Restores both the cached backend selection and any PULPHD_BACKEND value
// the test binary was launched with (the CI forced-portable job sets it for
// the whole suite).
class BackendGuard {
 public:
  BackendGuard() : previous_(&active_backend()) {
    if (const char* env = std::getenv("PULPHD_BACKEND")) saved_env_ = env;
  }
  ~BackendGuard() {
    if (saved_env_.has_value()) {
      setenv("PULPHD_BACKEND", saved_env_->c_str(), 1);
    } else {
      unsetenv("PULPHD_BACKEND");
    }
    force_backend(previous_);
  }

 private:
  const Backend* previous_;
  std::optional<std::string> saved_env_;
};

TEST(BackendRegistry, PortableIsAlwaysCompiledAndFirst) {
  const auto backends = compiled_backends();
  ASSERT_FALSE(backends.empty());
  EXPECT_EQ(backends.front(), &portable_backend());
  EXPECT_STREQ(portable_backend().name, "portable");
  EXPECT_TRUE(portable_backend().supported());
}

TEST(BackendRegistry, FindBackendRoundTrips) {
  for (const Backend* b : compiled_backends()) {
    EXPECT_EQ(find_backend(b->name), b);
  }
  EXPECT_EQ(find_backend("not-a-backend"), nullptr);
}

TEST(BackendRegistry, ActiveBackendIsSupported) {
  EXPECT_TRUE(active_backend().supported());
}

TEST(BackendDispatch, ResolveUnknownNameFailsWithClearError) {
  try {
    resolve_backend_choice("sse9");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("unknown backend 'sse9'"), std::string::npos) << message;
    EXPECT_NE(message.find("portable"), std::string::npos) << message;
  }
}

TEST(BackendDispatch, ResolvePortableSucceeds) {
  EXPECT_EQ(&resolve_backend_choice("portable"), &portable_backend());
}

TEST(BackendDispatch, EnvOverridePortableIsHonored) {
  BackendGuard guard;
  ASSERT_EQ(setenv("PULPHD_BACKEND", "portable", 1), 0);
  force_backend(nullptr);  // drop the cached selection; next call re-reads env
  EXPECT_STREQ(active_backend().name, "portable");
}

TEST(BackendDispatch, EnvUnknownValueThrows) {
  BackendGuard guard;
  ASSERT_EQ(setenv("PULPHD_BACKEND", "quantum", 1), 0);
  force_backend(nullptr);
  EXPECT_THROW(active_backend(), std::runtime_error);
  ASSERT_EQ(unsetenv("PULPHD_BACKEND"), 0);
  force_backend(nullptr);
  EXPECT_TRUE(active_backend().supported());  // recovers once the env is sane
}

TEST(BackendEquivalence, HammingWordsMatchesPortableOnAllTailShapes) {
  Xoshiro256StarStar rng(0xb001);
  for (const std::size_t dim : kDims) {
    const std::vector<Word> a = random_row(dim, rng);
    const std::vector<Word> b = random_row(dim, rng);
    const std::uint64_t ref =
        portable_backend().hamming_words(a.data(), b.data(), a.size());
    for (const Backend* backend : compiled_backends()) {
      if (!backend->supported()) continue;
      EXPECT_EQ(backend->hamming_words(a.data(), b.data(), a.size()), ref)
          << backend->name << " dim " << dim;
    }
  }
}

TEST(BackendEquivalence, XorWordsMatchesPortableOnAllTailShapes) {
  Xoshiro256StarStar rng(0xb002);
  for (const std::size_t dim : kDims) {
    const std::vector<Word> a = random_row(dim, rng);
    const std::vector<Word> b = random_row(dim, rng);
    std::vector<Word> ref(a.size());
    portable_backend().xor_words(a.data(), b.data(), ref.data(), a.size());
    for (const Backend* backend : compiled_backends()) {
      if (!backend->supported()) continue;
      std::vector<Word> out(a.size(), 0xdeadbeefu);
      backend->xor_words(a.data(), b.data(), out.data(), a.size());
      EXPECT_EQ(out, ref) << backend->name << " dim " << dim;
      // In-place use (out aliasing a) must give the same bits.
      std::vector<Word> in_place = a;
      backend->xor_words(in_place.data(), b.data(), in_place.data(), a.size());
      EXPECT_EQ(in_place, ref) << backend->name << " in-place dim " << dim;
    }
  }
}

// Naive per-column threshold, independent of every backend's counter
// kernels: bit i is set iff more than `threshold` rows set it.
std::vector<Word> threshold_reference(const std::vector<std::vector<Word>>& rows,
                                      std::size_t dim, std::size_t threshold) {
  std::vector<Word> out(words_for_dim(dim), 0);
  for (std::size_t i = 0; i < dim; ++i) {
    std::size_t count = 0;
    for (const auto& row : rows) {
      count += extract_bit(row[i / kWordBits], static_cast<unsigned>(i % kWordBits));
    }
    if (count > threshold) out[i / kWordBits] |= Word{1} << (i % kWordBits);
  }
  return out;
}

TEST(BackendEquivalence, ThresholdWordsMatchesPortable) {
  Xoshiro256StarStar rng(0xb003);
  const std::size_t kRowCounts[] = {1, 3, 5, 9, 33, 129};
  for (const std::size_t dim : kDims) {
    for (const std::size_t num_rows : kRowCounts) {
      std::vector<std::vector<Word>> storage;
      storage.reserve(num_rows);
      std::vector<const Word*> rows(num_rows);
      for (std::size_t r = 0; r < num_rows; ++r) {
        storage.push_back(random_row(dim, rng));
        rows[r] = storage.back().data();
      }
      const std::size_t words = words_for_dim(dim);
      // The majority threshold plus the boundary thresholds 0 and n-1.
      const std::size_t thresholds[] = {num_rows / 2, 0, num_rows - 1};
      for (const std::size_t threshold : thresholds) {
        // Portable runs the same counter template as every other backend,
        // so it is itself checked against the naive count.
        const std::vector<Word> expected = threshold_reference(storage, dim, threshold);
        std::vector<Word> ref(words, 0xdeadbeefu);
        portable_backend().threshold_words(rows.data(), num_rows, threshold, ref.data(),
                                           words);
        ASSERT_EQ(ref, expected) << "portable dim " << dim << " rows " << num_rows
                                 << " threshold " << threshold;
        for (const Backend* backend : compiled_backends()) {
          if (!backend->supported()) continue;
          std::vector<Word> out(words, 0xdeadbeefu);
          backend->threshold_words(rows.data(), num_rows, threshold, out.data(), words);
          EXPECT_EQ(out, ref) << backend->name << " dim " << dim << " rows " << num_rows
                              << " threshold " << threshold;
        }
      }
    }
  }
}

TEST(BackendEquivalence, BindMajorityWordsMatchesThresholdWordsOverBoundRows) {
  // The closed-form 1–4 channel spatial encode must give the bits of the
  // general path: bind every channel, append §5.1's tie-break row (bound 0
  // ^ bound 1) for an even channel count, and take the counter majority.
  // It is checked against threshold_words on every backend and against the
  // naive per-column count, at every word count up to 40 (all AVX2 and NEON
  // tail shapes) and the paper's 313/314-word rows, each with a full and a
  // partial last word.
  Xoshiro256StarStar rng(0xb008);
  std::vector<std::size_t> word_counts;
  for (std::size_t w = 1; w <= 40; ++w) word_counts.push_back(w);
  word_counts.push_back(313);
  word_counts.push_back(314);
  for (const std::size_t words : word_counts) {
    for (const std::size_t dim : {words * kWordBits, words * kWordBits - 5}) {
      for (std::size_t channels = 1; channels <= kBindMajorityMaxChannels; ++channels) {
        std::vector<std::vector<Word>> items;
        std::vector<std::vector<Word>> levels;
        std::vector<std::vector<Word>> bound;
        for (std::size_t c = 0; c < channels; ++c) {
          items.push_back(random_row(dim, rng));
          levels.push_back(random_row(dim, rng));
          bound.emplace_back(words);
          for (std::size_t w = 0; w < words; ++w) bound[c][w] = items[c][w] ^ levels[c][w];
        }
        if (channels % 2 == 0) {
          bound.emplace_back(words);
          for (std::size_t w = 0; w < words; ++w) bound.back()[w] = bound[0][w] ^ bound[1][w];
        }
        std::vector<const Word*> item_ptrs;
        std::vector<const Word*> level_ptrs;
        for (std::size_t c = 0; c < channels; ++c) {
          item_ptrs.push_back(items[c].data());
          level_ptrs.push_back(levels[c].data());
        }
        std::vector<const Word*> bound_ptrs;
        for (const auto& row : bound) bound_ptrs.push_back(row.data());
        const std::size_t rows = bound.size();
        const std::vector<Word> expected = threshold_reference(bound, dim, rows / 2);
        for (const Backend* backend : compiled_backends()) {
          if (!backend->supported()) continue;
          std::vector<Word> counted(words, 0xdeadbeefu);
          backend->threshold_words(bound_ptrs.data(), rows, rows / 2, counted.data(), words);
          std::vector<Word> out(words, 0xdeadbeefu);
          backend->bind_majority_words(item_ptrs.data(), level_ptrs.data(), channels,
                                       out.data(), words);
          EXPECT_EQ(out, counted) << backend->name << " dim " << dim << " channels "
                                  << channels;
          EXPECT_EQ(out, expected) << backend->name << " dim " << dim << " channels "
                                   << channels;
          const auto used = static_cast<unsigned>(dim % kWordBits);
          if (used != 0) {
            EXPECT_EQ(out.back() & ~low_bits_mask(used), 0u)
                << backend->name << " padding set, dim " << dim << " channels " << channels;
          }
        }
      }
    }
  }
}

TEST(BackendEquivalence, HammingRowsMatchesPortableAcrossShapes) {
  // The AM search: one hamming_rows call per query against a packed
  // prototype matrix, over batches of 1, 3 and 129 queries.
  Xoshiro256StarStar rng(0xb004);
  const std::size_t kBatches[] = {1, 3, 129};
  const std::size_t kClasses[] = {1, 2, 5, 8};
  for (const std::size_t dim : kDims) {
    const std::size_t words = words_for_dim(dim);
    for (const std::size_t classes : kClasses) {
      std::vector<Word> prototypes;
      for (std::size_t c = 0; c < classes; ++c) {
        const std::vector<Word> row = random_row(dim, rng);
        prototypes.insert(prototypes.end(), row.begin(), row.end());
      }
      for (const std::size_t batch : kBatches) {
        for (std::size_t q = 0; q < batch; ++q) {
          const std::vector<Word> query = random_row(dim, rng);
          std::vector<std::uint32_t> ref(classes);
          for (std::size_t c = 0; c < classes; ++c) {
            ref[c] = static_cast<std::uint32_t>(portable_backend().hamming_words(
                query.data(), prototypes.data() + c * words, words));
          }
          for (const Backend* backend : compiled_backends()) {
            if (!backend->supported()) continue;
            std::vector<std::uint32_t> out(classes, 0xffffffffu);
            backend->hamming_rows(query.data(), prototypes.data(), classes, words, out.data());
            EXPECT_EQ(out, ref) << backend->name << " dim " << dim << " classes " << classes
                                << " batch " << batch << " query " << q;
          }
        }
      }
    }
  }
}

// Slow-but-obvious per-component reference for the counter kernels: count
// the set bits column-wise, clamp at 2^planes - 1.
std::vector<std::uint32_t> column_counts(const std::vector<std::vector<Word>>& rows,
                                         std::size_t dim, unsigned planes) {
  std::vector<std::uint32_t> counts(dim, 0);
  const std::uint32_t cap = (std::uint32_t{1} << planes) - 1;
  for (const auto& row : rows) {
    for (std::size_t i = 0; i < dim; ++i) {
      if (extract_bit(row[i / kWordBits], static_cast<unsigned>(i % kWordBits)) != 0 &&
          counts[i] < cap) {
        ++counts[i];
      }
    }
  }
  return counts;
}

std::vector<Word> planes_to_words(const std::vector<std::uint32_t>& counts,
                                  unsigned num_planes, std::size_t words) {
  std::vector<Word> planes(num_planes * words, 0);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    for (unsigned p = 0; p < num_planes; ++p) {
      if ((counts[i] >> p) & 1u) {
        planes[p * words + i / kWordBits] |= Word{1} << (i % kWordBits);
      }
    }
  }
  return planes;
}

TEST(BackendEquivalence, AccumulateCountersMatchesBitSerialReference) {
  Xoshiro256StarStar rng(0xb005);
  const std::size_t kRowCounts[] = {1, 2, 5, 9, 20};
  for (const std::size_t dim : kDims) {
    const std::size_t words = words_for_dim(dim);
    for (const std::size_t num_rows : kRowCounts) {
      unsigned num_planes = 1;
      while ((std::size_t{1} << num_planes) <= num_rows) ++num_planes;
      std::vector<std::vector<Word>> rows;
      for (std::size_t r = 0; r < num_rows; ++r) rows.push_back(random_row(dim, rng));
      const std::vector<Word> expected =
          planes_to_words(column_counts(rows, dim, num_planes), num_planes, words);
      for (const Backend* backend : compiled_backends()) {
        if (!backend->supported()) continue;
        std::vector<Word> planes(num_planes * words, 0);
        for (const auto& row : rows) {
          backend->accumulate_counters(row.data(), planes.data(), num_planes, words);
        }
        EXPECT_EQ(planes, expected)
            << backend->name << " dim " << dim << " rows " << num_rows;
      }
    }
  }
}

TEST(BackendEquivalence, AccumulateCountersSaturatesInsteadOfWrapping) {
  // Two planes hold counts up to 3; five all-ones rows must clamp every
  // column at 3 (both planes set), not wrap to 1.
  for (const std::size_t dim : {63u, 64u, 257u}) {
    const std::size_t words = words_for_dim(dim);
    std::vector<Word> ones(words, ~Word{0});
    const unsigned used = static_cast<unsigned>(dim % kWordBits);
    if (used != 0) ones.back() &= low_bits_mask(used);
    for (const Backend* backend : compiled_backends()) {
      if (!backend->supported()) continue;
      std::vector<Word> planes(2 * words, 0);
      for (int add = 0; add < 5; ++add) {
        backend->accumulate_counters(ones.data(), planes.data(), 2, words);
      }
      EXPECT_EQ(std::vector<Word>(planes.begin(), planes.begin() + words), ones)
          << backend->name << " dim " << dim << " (LSB plane)";
      EXPECT_EQ(std::vector<Word>(planes.begin() + words, planes.end()), ones)
          << backend->name << " dim " << dim << " (MSB plane)";
    }
  }
}

// The multi-row accumulate, from preloaded counters, against the naive
// per-column count and against num_rows successive single-row calls: row
// counts around the 15-row carry-save group and the 64-gram encoder chunk,
// every register-resident plane count plus two above that set, columns
// driven into saturation, and word counts with every sub-vector tail.
TEST(BackendEquivalence, AccumulateRowsMatchesNaiveCountsAndSingleRowCalls) {
  Xoshiro256StarStar rng(0xb00c);
  const std::size_t kRowCounts[] = {0, 1, 2, 7, 14, 15, 16, 30, 31, 55, 64, 70};
  const unsigned kPlaneCounts[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 11};
  const std::size_t kWordCounts[] = {1, 7, 8, 9, 313, 314};
  const std::size_t max_rows = 70;
  for (const std::size_t words : kWordCounts) {
    const std::size_t dim = words * kWordBits;
    std::vector<std::vector<Word>> storage;
    std::vector<const Word*> rows;
    for (std::size_t r = 0; r < max_rows; ++r) {
      storage.push_back(random_row(dim, rng));
      rows.push_back(storage.back().data());
    }
    for (const unsigned num_planes : kPlaneCounts) {
      // A third of the columns start within 7 of the cap, so every plane
      // count sees columns saturate; the rest start anywhere.
      const std::uint32_t cap = (std::uint32_t{1} << num_planes) - 1;
      std::vector<std::uint32_t> initial(dim);
      for (auto& count : initial) {
        const auto near = static_cast<std::uint32_t>(rng.next() % 8);
        count = rng.next() % 3 == 0 ? cap - std::min(cap, near)
                                    : static_cast<std::uint32_t>(rng.next() % (cap + 1));
      }
      const std::vector<Word> start = planes_to_words(initial, num_planes, words);
      std::vector<std::uint32_t> counts = initial;
      std::size_t counted = 0;
      for (const std::size_t num_rows : kRowCounts) {
        for (; counted < num_rows; ++counted) {
          for (std::size_t i = 0; i < dim; ++i) {
            const Word bit =
                extract_bit(rows[counted][i / kWordBits], static_cast<unsigned>(i % kWordBits));
            if (bit != 0 && counts[i] < cap) ++counts[i];
          }
        }
        const std::vector<Word> expected = planes_to_words(counts, num_planes, words);
        for (const Backend* backend : compiled_backends()) {
          if (!backend->supported()) continue;
          std::vector<Word> multi = start;
          backend->accumulate_rows(rows.data(), num_rows, multi.data(), num_planes, words);
          EXPECT_EQ(multi, expected) << backend->name << " words " << words << " planes "
                                     << num_planes << " rows " << num_rows << " (multi-row)";
          std::vector<Word> single = start;
          for (std::size_t r = 0; r < num_rows; ++r) {
            backend->accumulate_counters(rows[r], single.data(), num_planes, words);
          }
          EXPECT_EQ(single, expected) << backend->name << " words " << words << " planes "
                                      << num_planes << " rows " << num_rows << " (one by one)";
        }
      }
    }
  }
}

TEST(BackendEquivalence, CountersToMajorityMatchesPortable) {
  Xoshiro256StarStar rng(0xb006);
  const unsigned kPlaneCounts[] = {1, 3, 5};
  for (const std::size_t dim : kDims) {
    const std::size_t words = words_for_dim(dim);
    for (const unsigned num_planes : kPlaneCounts) {
      std::vector<Word> planes;
      for (unsigned p = 0; p < num_planes; ++p) {
        const std::vector<Word> row = random_row(dim, rng);
        planes.insert(planes.end(), row.begin(), row.end());
      }
      const std::vector<Word> tie_break = random_row(dim, rng);
      const std::size_t max_count = (std::size_t{1} << num_planes) - 1;
      const std::size_t thresholds[] = {0, max_count / 2, max_count};
      for (const std::size_t threshold : thresholds) {
        for (const Word* tie : {static_cast<const Word*>(nullptr), tie_break.data()}) {
          std::vector<Word> ref(words);
          portable_backend().counters_to_majority(planes.data(), num_planes, threshold,
                                                  tie, ref.data(), words);
          for (const Backend* backend : compiled_backends()) {
            if (!backend->supported()) continue;
            std::vector<Word> out(words, 0xdeadbeefu);
            backend->counters_to_majority(planes.data(), num_planes, threshold, tie,
                                          out.data(), words);
            EXPECT_EQ(out, ref) << backend->name << " dim " << dim << " planes "
                                << num_planes << " threshold " << threshold << " tie "
                                << (tie != nullptr);
          }
        }
      }
    }
  }
}

TEST(BackendEquivalence, CounterKernelsRoundTripMajorityAgainstThresholdWords) {
  // Streaming accumulate + readout over k rows and the one-shot
  // threshold_words majority must both equal the naive per-column majority
  // over the same rows (both through portable). threshold_words runs on the
  // same counter kernels, so only the naive count is an independent check.
  Xoshiro256StarStar rng(0xb007);
  const std::size_t kRowCounts[] = {1, 3, 9, 21};
  for (const std::size_t dim : {65u, 10016u, 32000u}) {
    const std::size_t words = words_for_dim(dim);
    for (const std::size_t num_rows : kRowCounts) {
      std::vector<std::vector<Word>> storage;
      std::vector<const Word*> rows(num_rows);
      for (std::size_t r = 0; r < num_rows; ++r) {
        storage.push_back(random_row(dim, rng));
        rows[r] = storage.back().data();
      }
      const std::vector<Word> expected = threshold_reference(storage, dim, num_rows / 2);
      std::vector<Word> one_shot(words);
      portable_backend().threshold_words(rows.data(), num_rows, num_rows / 2,
                                         one_shot.data(), words);
      EXPECT_EQ(one_shot, expected) << "threshold_words dim " << dim << " rows " << num_rows;
      unsigned num_planes = 1;
      while ((std::size_t{1} << num_planes) <= num_rows) ++num_planes;
      std::vector<Word> planes(num_planes * words, 0);
      for (const auto& row : storage) {
        portable_backend().accumulate_counters(row.data(), planes.data(), num_planes,
                                               words);
      }
      std::vector<Word> out(words);
      portable_backend().counters_to_majority(planes.data(), num_planes, num_rows / 2,
                                              nullptr, out.data(), words);
      EXPECT_EQ(out, expected) << "dim " << dim << " rows " << num_rows;
    }
  }
}

}  // namespace
}  // namespace pulphd::kernels
