#include "hd/associative_memory.hpp"

#include <algorithm>
#include <limits>

#include "common/status.hpp"
#include "kernels/backend.hpp"

namespace pulphd::hd {

double AmDecision::margin(std::size_t dim) const {
  if (distances.size() < 2 || dim == 0) return 0.0;
  std::size_t best = distances[label];
  std::size_t runner_up = std::numeric_limits<std::size_t>::max();
  for (std::size_t i = 0; i < distances.size(); ++i) {
    if (i == label) continue;
    runner_up = std::min(runner_up, distances[i]);
  }
  return static_cast<double>(runner_up - best) / static_cast<double>(dim);
}

AssociativeMemory::AssociativeMemory(std::size_t classes, std::size_t dim,
                                     std::uint64_t tie_break_seed)
    : dim_(dim), tie_break_(dim) {
  require(classes >= 1, "AssociativeMemory: classes must be >= 1");
  require(dim >= 1, "AssociativeMemory: dim must be >= 1");
  Xoshiro256StarStar rng(tie_break_seed);
  tie_break_ = Hypervector::random(dim, rng);
  accumulators_.assign(classes, BundleAccumulator(dim));
  prototypes_.assign(classes, Hypervector(dim));
  packed_prototypes_.assign(classes * words_for_dim(dim), 0u);
}

void AssociativeMemory::train(std::size_t label, const Hypervector& encoded) {
  require(label < accumulators_.size(), "AssociativeMemory::train: label out of range");
  require(encoded.dim() == dim_, "AssociativeMemory::train: dimension mismatch");
  accumulators_[label].add(encoded);
  refresh_prototype(label);
}

void AssociativeMemory::train_batch(std::size_t label, std::span<const Hypervector> encoded) {
  require(label < accumulators_.size(), "AssociativeMemory::train_batch: label out of range");
  for (const auto& hv : encoded) {
    require(hv.dim() == dim_, "AssociativeMemory::train_batch: dimension mismatch");
    accumulators_[label].add(hv);
  }
  if (!encoded.empty()) refresh_prototype(label);
}

bool AssociativeMemory::is_trained() const noexcept {
  return std::all_of(accumulators_.begin(), accumulators_.end(),
                     [](const BundleAccumulator& acc) { return acc.count() > 0; });
}

void AssociativeMemory::check_searchable() const {
  check_invariant(is_trained(), "AssociativeMemory::classify: untrained classes present");
  // hamming_rows writes uint32 distances, and a distance can reach dim.
  require(dim_ <= std::numeric_limits<std::uint32_t>::max(),
          "AssociativeMemory::classify: dim exceeds the uint32 distance range");
}

AmDecision AssociativeMemory::search(const Hypervector& query, const kernels::Backend& backend,
                                     std::span<std::uint32_t> row) const {
  require(query.dim() == dim_, "AssociativeMemory::classify: dimension mismatch");
  // The prototype matrix (C x W words; ~6 kB for the paper's 5 x 313) stays
  // cache-resident across a batch's queries.
  backend.hamming_rows(query.words().data(), packed_prototypes_.data(), row.size(),
                       words_for_dim(dim_), row.data());
  AmDecision decision;
  decision.distances.assign(row.begin(), row.end());
  const auto best = std::min_element(decision.distances.begin(), decision.distances.end());
  decision.label = static_cast<std::size_t>(best - decision.distances.begin());
  decision.distance = *best;
  return decision;
}

AmDecision AssociativeMemory::classify(const Hypervector& query) const {
  check_searchable();
  std::vector<std::uint32_t> row(classes());
  return search(query, kernels::active_backend(), row);
}

std::vector<AmDecision> AssociativeMemory::classify_batch(
    std::span<const Hypervector> queries) const {
  check_searchable();
  const kernels::Backend& backend = kernels::active_backend();
  std::vector<std::uint32_t> row(classes());
  std::vector<AmDecision> decisions;
  decisions.reserve(queries.size());
  for (const Hypervector& query : queries) decisions.push_back(search(query, backend, row));
  return decisions;
}

const Hypervector& AssociativeMemory::prototype(std::size_t label) const {
  require(label < prototypes_.size(), "AssociativeMemory::prototype: label out of range");
  return prototypes_[label];
}

std::size_t AssociativeMemory::examples(std::size_t label) const {
  require(label < accumulators_.size(), "AssociativeMemory::examples: label out of range");
  return accumulators_[label].count();
}

void AssociativeMemory::load_prototypes(std::vector<Hypervector> prototypes) {
  require(prototypes.size() == prototypes_.size(),
          "AssociativeMemory::load_prototypes: class count mismatch");
  for (std::size_t c = 0; c < prototypes.size(); ++c) {
    require(prototypes[c].dim() == dim_,
            "AssociativeMemory::load_prototypes: dimension mismatch");
    accumulators_[c].reset();
    accumulators_[c].add(prototypes[c]);
  }
  prototypes_ = std::move(prototypes);
  for (std::size_t c = 0; c < prototypes_.size(); ++c) repack_prototype(c);
}

std::size_t AssociativeMemory::footprint_bytes() const noexcept {
  return prototypes_.size() * words_for_dim(dim_) * sizeof(Word);
}

void AssociativeMemory::refresh_prototype(std::size_t label) {
  prototypes_[label] = accumulators_[label].finalize(tie_break_);
  repack_prototype(label);
}

void AssociativeMemory::repack_prototype(std::size_t label) {
  const auto words = prototypes_[label].words();
  std::copy(words.begin(), words.end(),
            packed_prototypes_.begin() +
                static_cast<std::ptrdiff_t>(label * words_for_dim(dim_)));
}

}  // namespace pulphd::hd
