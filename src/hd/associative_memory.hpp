// Associative memory (AM) — the classification stage.
//
// Holds one prototype hypervector per class ("the prototype hypervectors
// are stored in an associative memory as the learned patterns", §2.1.1).
// Classification returns the label whose prototype has minimum Hamming
// distance to the query. The AM "can be continuously updated for on-line
// learning" (§3): we keep the per-class bundling accumulators so prototypes
// can absorb new examples after deployment and be re-thresholded.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "hd/ops.hpp"

namespace pulphd::kernels {
struct Backend;
}

namespace pulphd::hd {

/// Classification outcome: best label plus the full distance row (useful
/// for margin/confidence analyses and for tests).
struct AmDecision {
  std::size_t label = 0;
  std::size_t distance = 0;              // Hamming distance to the winner
  std::vector<std::size_t> distances;    // distance to every prototype

  /// Winner margin: runner-up distance minus winner distance, normalized by
  /// dimension. Larger is more confident; 0 means an exact tie.
  double margin(std::size_t dim) const;
};

class AssociativeMemory {
 public:
  /// Creates an AM for `classes` classes of `dim`-component prototypes.
  /// `tie_break_seed` controls the deterministic tie-break vector used when
  /// thresholding accumulators with an even number of additions.
  AssociativeMemory(std::size_t classes, std::size_t dim, std::uint64_t tie_break_seed);

  std::size_t classes() const noexcept { return accumulators_.size(); }
  std::size_t dim() const noexcept { return dim_; }

  /// Accumulates one encoded example (an N-gram/query hypervector) into the
  /// class accumulator and refreshes the stored prototype.
  void train(std::size_t label, const Hypervector& encoded);

  /// Bulk training; prototypes are re-thresholded once at the end.
  void train_batch(std::size_t label, std::span<const Hypervector> encoded);

  /// True once every class has at least one training example.
  bool is_trained() const noexcept;

  /// Nearest-prototype lookup (min Hamming distance; lowest label wins ties,
  /// which keeps results platform-independent): one Backend::hamming_rows
  /// pass of the query against the packed prototype matrix. Throws
  /// std::logic_error if any class is still empty, std::invalid_argument on
  /// a dimension mismatch or a dim beyond the kernel's uint32 distances.
  AmDecision classify(const Hypervector& query) const;

  /// One decision per query, identical to calling `classify` on each: the
  /// same per-query search run serially on the caller, with the backend
  /// and the distance-row scratch resolved once for the whole batch.
  std::vector<AmDecision> classify_batch(std::span<const Hypervector> queries) const;

  /// The prototypes as one contiguous row-major packed matrix
  /// (classes() rows of words_for_dim(dim()) words) — the layout the search
  /// kernel consumes; kept in sync with `prototypes()`.
  std::span<const Word> packed_prototypes() const noexcept { return packed_prototypes_; }

  const Hypervector& prototype(std::size_t label) const;
  const std::vector<Hypervector>& prototypes() const noexcept { return prototypes_; }

  /// Number of examples accumulated into a class so far.
  std::size_t examples(std::size_t label) const;

  /// Replaces the stored prototypes directly (deserialization / transfer of
  /// an externally trained model). Accumulator state is reset to the given
  /// prototypes with weight 1.
  void load_prototypes(std::vector<Hypervector> prototypes);

  /// Packed matrix footprint in bytes (paper: 5x313 words ~ 7 kB with the
  /// alignment padding of the C implementation; we report the exact size).
  std::size_t footprint_bytes() const noexcept;

 private:
  /// The trained and uint32-range checks every search needs once.
  void check_searchable() const;
  /// The one search routine behind classify and classify_batch: writes the
  /// query's distance to every prototype into `row` (classes() entries) in
  /// one hamming_rows pass and picks the nearest.
  AmDecision search(const Hypervector& query, const kernels::Backend& backend,
                    std::span<std::uint32_t> row) const;

  void refresh_prototype(std::size_t label);
  void repack_prototype(std::size_t label);

  std::size_t dim_;
  Hypervector tie_break_;
  std::vector<BundleAccumulator> accumulators_;
  std::vector<Hypervector> prototypes_;
  std::vector<Word> packed_prototypes_;  // row-major classes x words_for_dim(dim)
};

}  // namespace pulphd::hd
