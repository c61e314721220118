// Test-only reference trial encoder: the sample-at-a-time composition of the
// processing chain (Fig. 1) — SpatialEncoder::encode_batch over the whole
// trial, then a TemporalEncoder sliding over the spatial sequence, then a
// BundleAccumulator over the N-grams. The library encodes every trial
// through StreamingEncoder's chunked pass instead (HdClassifier's batch and
// training paths are configurations of it), so this chain is the
// independent oracle that pass must match bit for bit; tests never compare
// a StreamingEncoder against HdClassifier::encode_query.
#pragma once

#include <span>
#include <vector>

#include "common/status.hpp"
#include "hd/classifier.hpp"
#include "hd/encoder.hpp"
#include "hd/ops.hpp"

namespace pulphd::hd::reference {

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
