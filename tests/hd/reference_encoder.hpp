// Test-only reference trial encoder: the sample-at-a-time composition of the
// processing chain (Fig. 1) — SpatialEncoder::encode_batch over the whole
// trial, then a TemporalEncoder sliding over the spatial sequence, then a
// BundleAccumulator over the N-grams. The library encodes every trial
// through StreamingEncoder's chunked pass instead (HdClassifier's batch and
// training paths are configurations of it), so this chain is the
// independent oracle that pass must match bit for bit; tests never compare
// a StreamingEncoder against HdClassifier::encode_query. encode_spatial is
// the spatial stage's own oracle, counted one component at a time, so the
// backends' closed-form and counter majorities are both checked against
// something that shares no code with them.
#pragma once

#include <span>
#include <vector>

#include "common/status.hpp"
#include "hd/classifier.hpp"
#include "hd/encoder.hpp"
#include "hd/item_memory.hpp"
#include "hd/ops.hpp"

namespace pulphd::hd::reference {

/// One sample's spatial hypervector by per-component counting: component i
/// is set iff more than half of the bound channel components IM_c ^
/// CIM(v_c), plus §5.1's tie-break (bound 0 ^ bound 1) for an even channel
/// count, are set.
inline Hypervector encode_spatial(const ItemMemory& im, const ContinuousItemMemory& cim,
                                  std::span<const float> sample) {
  const std::size_t channels = sample.size();
  Hypervector out(im.dim());
  for (std::size_t i = 0; i < im.dim(); ++i) {
    std::size_t ones = 0;
    bool first = false;
    bool second = false;
    for (std::size_t c = 0; c < channels; ++c) {
      const bool bound = im.at(c).bit(i) != cim.encode(sample[c]).bit(i);
      ones += bound ? 1 : 0;
      if (c == 0) first = bound;
      if (c == 1) second = bound;
    }
    std::size_t rows = channels;
    if (channels % 2 == 0) {
      ones += first != second ? 1 : 0;
      ++rows;
    }
    out.set_bit(i, ones > rows / 2);
  }
  return out;
}

/// N-grams of every complete window of a spatial sequence, i.e.
/// sequence.size() - n + 1 outputs (empty when the sequence is shorter
/// than n).
inline std::vector<Hypervector> encode_sequence(std::span<const Hypervector> sequence,
                                                std::size_t n) {
  require(n >= 1, "reference::encode_sequence: n must be >= 1");
  std::vector<Hypervector> out;
  if (sequence.size() < n) return out;
  out.reserve(sequence.size() - n + 1);
  TemporalEncoder enc(n, sequence.front().dim());
  Hypervector gram(sequence.front().dim());
  for (const Hypervector& s : sequence) {
    if (enc.push(s, &gram)) out.push_back(gram);
  }
  return out;
}

/// The trial's N-gram sequence — what HdClassifier::encode_trial returns.
inline std::vector<Hypervector> encode_trial(const HdClassifier& clf, const Trial& trial) {
  const ClassifierConfig& cfg = clf.config();
  std::vector<Hypervector> spatials(trial.size(), Hypervector(cfg.dim));
  clf.spatial_encoder().encode_batch(trial, spatials);
  if (cfg.ngram == 1) return spatials;
  return encode_sequence(spatials, cfg.ngram);
}

/// The trial's bundled query — what HdClassifier::encode_query returns.
/// Throws std::invalid_argument when the trial is shorter than N samples.
inline Hypervector encode_query(const HdClassifier& clf, const Trial& trial) {
  const std::vector<Hypervector> grams = encode_trial(clf, trial);
  require(!grams.empty(), "reference::encode_query: trial shorter than N-gram window");
  if (grams.size() == 1) return grams.front();
  BundleAccumulator acc(clf.config().dim);
  for (const Hypervector& g : grams) acc.add(g);
  return acc.finalize(clf.query_tie_break());
}

/// encode_query over every trial, serially — what HdClassifier::encode_trials
/// returns for any thread count.
inline std::vector<Hypervector> encode_trials(const HdClassifier& clf,
                                              std::span<const Trial> trials) {
  std::vector<Hypervector> queries;
  queries.reserve(trials.size());
  for (const Trial& trial : trials) queries.push_back(encode_query(clf, trial));
  return queries;
}

}  // namespace pulphd::hd::reference
