// End-to-end HD classifier: CIM/IM mapping -> spatial encoder -> temporal
// encoder -> associative memory, exactly the processing chain of Fig. 1.
//
// This is the host-side golden model ("implement and validate ... on MATLAB
// to establish a golden model to follow", §4.1). The simulated PULP kernels
// in src/kernels reproduce its outputs bit-exactly.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hd/associative_memory.hpp"
#include "hd/encoder.hpp"
#include "hd/item_memory.hpp"

namespace pulphd::hd {

/// One time-aligned multichannel sample (one physical value per channel).
using Sample = std::vector<float>;
/// A trial: consecutive samples of one labeled event (e.g. one 3 s gesture).
using Trial = std::vector<Sample>;

struct ClassifierConfig {
  std::size_t dim = 10000;       ///< hypervector dimensionality D
  std::size_t channels = 4;      ///< input channels (EMG electrodes)
  std::size_t levels = 22;       ///< CIM quantization levels (EMG: 0..21 mV)
  double min_value = 0.0;        ///< CIM range lower endpoint
  double max_value = 21.0;       ///< CIM range upper endpoint
  std::size_t ngram = 1;         ///< temporal window N (EMG: 1, EEG: up to 29)
  std::size_t classes = 5;       ///< output classes (4 gestures + rest)
  std::uint64_t seed = 0x9d1feed5ULL;  ///< master seed
  /// Host threads that encode one batch of trials (a runtime knob, not
  /// part of the model — never serialized): a cap. encode_trials cuts the
  /// batch into at most T contiguous shards, so at most T threads (the
  /// caller plus T - 1 workers of the process-wide pool) encode it at once.
  /// 1 runs serially on the caller; 0 means one per hardware thread. The AM
  /// search is serial on the caller for any T. Any value yields
  /// bit-identical results.
  std::size_t threads = 1;

  /// Validates ranges; throws std::invalid_argument on nonsense.
  void validate() const;
};

/// Aggregate memory footprint of the trained model matrices, in bytes —
/// the quantity plotted as the red line of Fig. 5.
struct ModelFootprint {
  std::size_t im_bytes = 0;
  std::size_t cim_bytes = 0;
  std::size_t am_bytes = 0;
  std::size_t spatial_buffer_bytes = 0;   // one hypervector (L1 scratch)
  std::size_t ngram_buffer_bytes = 0;     // N spatial HVs + 1 N-gram HV

  std::size_t total() const noexcept {
    return im_bytes + cim_bytes + am_bytes + spatial_buffer_bytes + ngram_buffer_bytes;
  }
};

class HdClassifier {
 public:
  explicit HdClassifier(const ClassifierConfig& config);

  const ClassifierConfig& config() const noexcept { return config_; }

  /// Adjusts the host-thread knob after construction (e.g. for models
  /// rebuilt from a serialized stream, which never carries it).
  void set_threads(std::size_t threads) noexcept { config_.threads = threads; }
  const ItemMemory& im() const noexcept { return im_; }
  const ContinuousItemMemory& cim() const noexcept { return cim_; }
  const AssociativeMemory& am() const noexcept { return am_; }
  AssociativeMemory& mutable_am() noexcept { return am_; }
  /// A view over this classifier's IM/CIM (two pointers and a count), made
  /// on demand so the classifier stores no pointer into itself and copies
  /// and moves stay plain member-wise.
  SpatialEncoder spatial_encoder() const { return SpatialEncoder(im_, cim_, config_.channels); }

  /// Encodes a trial into its sequence of N-gram hypervectors (one per
  /// complete window; empty when the trial is shorter than N): a
  /// StreamingEncoder configured to one-gram windows at hop 1, so window j
  /// is N-gram j.
  std::vector<Hypervector> encode_trial(const Trial& trial) const;

  /// Bundles a trial's N-gram hypervectors into a single query hypervector
  /// — how both prototypes and queries are formed "in an identical way"
  /// (§2.1.1). A StreamingEncoder whose single window is the whole trial
  /// bundles the N-grams into bit-sliced counter planes as they are
  /// produced, so neither the spatial nor the N-gram sequence is ever
  /// materialized. Throws when the trial is shorter than N samples.
  Hypervector encode_query(const Trial& trial) const;

  /// Accumulates a labeled trial into the AM (each N-gram of the trial is
  /// added to the class accumulator, as in the paper's training).
  void train(const Trial& trial, std::size_t label);

  /// Classifies a trial via its bundled query hypervector.
  AmDecision predict(const Trial& trial) const;

  /// Classifies a single already-encoded query.
  AmDecision predict_encoded(const Hypervector& query) const { return am_.classify(query); }

  /// Encodes many trials to their query hypervectors on at most
  /// `config().threads` host threads (encoding dominates the inference
  /// cost, and trials are independent) — the library's one fork-join.
  /// Result i matches encode_query(trials[i]); throws when any trial is
  /// shorter than N.
  std::vector<Hypervector> encode_trials(std::span<const Trial> trials) const;

  /// Batched classification of many trials: the trials are encoded in
  /// parallel by encode_trials, then the AM searches the queries serially.
  /// Result i matches predict(trials[i]) for any thread count.
  std::vector<AmDecision> predict_batch(std::span<const Trial> trials) const;

  /// Batched classification of already-encoded queries.
  std::vector<AmDecision> predict_encoded_batch(std::span<const Hypervector> queries) const {
    return am_.classify_batch(queries);
  }

  /// The seed-derived tie-break row used when bundling a query's N-grams
  /// (even gram counts only); every StreamingEncoder this model builds
  /// carries a copy.
  const Hypervector& query_tie_break() const noexcept { return query_tie_break_; }

  /// Builds a trial encoder bound to this model's spatial encoder, N-gram
  /// depth, and query tie-break — the one every encode above configures.
  /// For a stream session, its per-window queries are bit-identical to
  /// encode_query over the equivalent buffered slices, so predict_encoded
  /// on them matches predict_batch. The classifier must outlive the
  /// returned encoder (servers pin the model snapshot for the session's
  /// lifetime).
  StreamingEncoder make_streaming_encoder() const {
    return StreamingEncoder(spatial_encoder(), config_.ngram, query_tie_break_);
  }

  ModelFootprint footprint() const noexcept;

 private:
  ClassifierConfig config_;
  ItemMemory im_;
  ContinuousItemMemory cim_;
  AssociativeMemory am_;
  Hypervector query_tie_break_;
};

}  // namespace pulphd::hd
