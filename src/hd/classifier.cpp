#include "hd/classifier.hpp"

#include <utility>

#include "common/status.hpp"
#include "common/thread_pool.hpp"

namespace pulphd::hd {

void ClassifierConfig::validate() const {
  require(dim >= 8, "ClassifierConfig: dim must be >= 8");
  require(channels >= 1, "ClassifierConfig: channels must be >= 1");
  require(levels >= 2, "ClassifierConfig: levels must be >= 2");
  require(min_value < max_value, "ClassifierConfig: min_value must be < max_value");
  require(ngram >= 1, "ClassifierConfig: ngram must be >= 1");
  require(classes >= 2, "ClassifierConfig: classes must be >= 2");
}

namespace {
ClassifierConfig validated(ClassifierConfig config) {
  config.validate();
  return config;
}
}  // namespace

HdClassifier::HdClassifier(const ClassifierConfig& config)
    : config_(validated(config)),
      im_(config_.channels, config_.dim, derive_seed(config_.seed, "item-memory")),
      cim_(config_.levels, config_.dim, config_.min_value, config_.max_value,
           derive_seed(config_.seed, "continuous-item-memory")),
      am_(config_.classes, config_.dim, derive_seed(config_.seed, "am-tie-break")),
      query_tie_break_(config_.dim) {
  Xoshiro256StarStar rng(derive_seed(config_.seed, "query-tie-break"));
  query_tie_break_ = Hypervector::random(config_.dim, rng);
}

namespace {
// A whole trial as the encoder's single window (hop = window = its length):
// one push, one query.
Hypervector whole_trial_query(StreamingEncoder& encoder, const Trial& trial,
                              std::vector<Hypervector>& scratch) {
  require(trial.size() >= encoder.n(),
          "HdClassifier::encode_query: trial shorter than N-gram window");
  encoder.configure(trial.size(), trial.size());
  scratch.clear();
  encoder.push(trial, scratch);
  return std::move(scratch.front());
}
}  // namespace

std::vector<Hypervector> HdClassifier::encode_trial(const Trial& trial) const {
  // One-gram windows at hop 1: window j is exactly N-gram j.
  StreamingEncoder encoder = make_streaming_encoder();
  encoder.configure(config_.ngram, 1);
  std::vector<Hypervector> grams;
  if (trial.size() >= config_.ngram) grams.reserve(trial.size() - config_.ngram + 1);
  encoder.push(trial, grams);
  return grams;
}

Hypervector HdClassifier::encode_query(const Trial& trial) const {
  StreamingEncoder encoder = make_streaming_encoder();
  std::vector<Hypervector> scratch;
  return whole_trial_query(encoder, trial, scratch);
}

void HdClassifier::train(const Trial& trial, std::size_t label) {
  const std::vector<Hypervector> grams = encode_trial(trial);
  require(!grams.empty(), "HdClassifier::train: trial shorter than N-gram window");
  am_.train_batch(label, grams);
}

AmDecision HdClassifier::predict(const Trial& trial) const {
  return am_.classify(encode_query(trial));
}

std::vector<Hypervector> HdClassifier::encode_trials(std::span<const Trial> trials) const {
  std::vector<Hypervector> queries(trials.size(), Hypervector(config_.dim));
  // Trials encode independently into their own slots; encoding is the
  // dominant inference cost, so this is where the thread knob pays off.
  parallel_shards(config_.threads, trials.size(), [&](std::size_t begin, std::size_t end) {
    // One encoder per shard, reconfigured for every trial's length.
    StreamingEncoder encoder = make_streaming_encoder();
    std::vector<Hypervector> scratch;
    for (std::size_t t = begin; t < end; ++t) {
      queries[t] = whole_trial_query(encoder, trials[t], scratch);
    }
  });
  return queries;
}

std::vector<AmDecision> HdClassifier::predict_batch(std::span<const Trial> trials) const {
  const std::vector<Hypervector> queries = encode_trials(trials);
  return am_.classify_batch(queries);
}

ModelFootprint HdClassifier::footprint() const noexcept {
  ModelFootprint fp;
  const std::size_t hv_bytes = words_for_dim(config_.dim) * sizeof(Word);
  fp.im_bytes = im_.footprint_bytes();
  fp.cim_bytes = cim_.footprint_bytes();
  fp.am_bytes = am_.footprint_bytes();
  fp.spatial_buffer_bytes = hv_bytes;
  fp.ngram_buffer_bytes = (config_.ngram + 1) * hv_bytes;
  return fp;
}

}  // namespace pulphd::hd
