// Spatial and temporal encoders — the middle stage of the processing chain
// (Fig. 1 of the paper).
//
// Spatial encoder: given one time-aligned sample per channel, bind each
// channel hypervector E_i (IM) with the hypervector of its quantized signal
// level V_i^t (CIM) and bundle the bound pairs with componentwise majority:
//   S_t = [ (E_1 ^ V_1^t) + ... + (E_c ^ V_c^t) ]
// With an even channel count, the tie-break operand (E_1^V_1) ^ (E_2^V_2)
// is added (§5.1: "one random but reproducible hypervector is generated, by
// componentwise XOR between two bound hypervectors").
//
// Temporal encoder: an N-gram over the last N spatial hypervectors,
//   G_t = S_t ^ rho(S_{t+1}) ^ ... ^ rho^{N-1}(S_{t+N-1}),
// maintained incrementally by the sliding recurrence
//   G_{t+1} = rho^{-1}(G_t ^ S_t) ^ rho^{N-1}(S_{t+N})
// so each step costs two rotations and two XORs instead of N-1 rotations.
#pragma once

#include <span>
#include <vector>

#include "hd/item_memory.hpp"
#include "hd/ops.hpp"
#include "kernels/bitsliced.hpp"

namespace pulphd::kernels {
struct Backend;
}

namespace pulphd::hd {

/// Stateless spatial encoder over a fixed channel set.
class SpatialEncoder {
 public:
  /// Both memories must share the same dimension; the IM must have at least
  /// as many items as `channels`.
  SpatialEncoder(const ItemMemory& im, const ContinuousItemMemory& cim, std::size_t channels);

  std::size_t channels() const noexcept { return channels_; }
  std::size_t dim() const noexcept { return im_->dim(); }

  /// Encodes one multichannel sample (one value per channel, in the CIM's
  /// physical units). `sample.size()` must equal `channels()`. Up to
  /// kernels::kBindMajorityMaxChannels channels (the paper's 4 EMG
  /// channels included), the backend's closed-form bind_majority_words
  /// writes the majority straight from the IM and CIM rows. Wider samples
  /// gather their bound channel rows into a per-thread scratch arena reused
  /// across calls and bundle them through threshold_words — no per-sample
  /// heap allocation either way.
  Hypervector encode(std::span<const float> sample) const;

  /// Batch encode: encodes samples[i] into out[i]; both spans must have
  /// equal length and every out[i] must already be a hypervector of dim()
  /// components. Runs the same per-sample routine as encode() straight into
  /// out[i], so it is bit-identical to calling encode() per sample.
  void encode_batch(std::span<const std::vector<float>> samples,
                    std::span<Hypervector> out) const;

  /// Exposes the bound (pre-majority) hypervectors, including the tie-break
  /// operand when the channel count is even; used by bit-exactness tests
  /// against the simulated kernel.
  std::vector<Hypervector> bind_channels(std::span<const float> sample) const;

 private:
  /// Bound rows per sample: channels plus the §5.1 tie-break row when the
  /// channel count is even (always odd, as majority requires).
  std::size_t bound_rows() const noexcept {
    return channels_ + (channels_ % 2 == 0 ? 1 : 0);
  }

  /// The one per-sample encode behind encode and encode_batch: writes the
  /// sample's spatial hypervector into the dim()-component words at `out`.
  void encode_into(std::span<const float> sample, const kernels::Backend& backend,
                   Word* out) const;

  /// StreamingEncoder writes each spatial vector straight into its chunk.
  friend class StreamingEncoder;

  const ItemMemory* im_;
  const ContinuousItemMemory* cim_;
  std::size_t channels_;
};

/// Sliding-window temporal (N-gram) encoder. Feed spatial hypervectors in
/// chronological order; once `n` samples are buffered every push yields an
/// N-gram. With n == 1 the encoder is a pass-through (the paper's EMG
/// configuration).
///
/// Every buffer (the n-slot window ring, the running N-gram, and the two
/// rotation scratch hypervectors) is allocated at construction, and push
/// maintains the N-gram with the sliding recurrence above — the steady
/// state is allocation-free and costs O(dim) per sample independent of n.
class TemporalEncoder {
 public:
  TemporalEncoder(std::size_t n, std::size_t dim);

  std::size_t n() const noexcept { return n_; }
  std::size_t dim() const noexcept { return dim_; }

  /// Pushes the newest spatial hypervector; returns true when a full window
  /// is available and `*out` was written with the window's N-gram.
  bool push(const Hypervector& spatial, Hypervector* out);

  /// Number of samples currently buffered (saturates at n).
  std::size_t fill() const noexcept { return fill_; }

  void reset() noexcept {
    fill_ = 0;
    head_ = 0;
  }

 private:
  std::size_t n_;
  std::size_t dim_;
  std::vector<Hypervector> window_;  ///< ring of the last n spatials; oldest at head_
  std::size_t head_ = 0;
  std::size_t fill_ = 0;
  Hypervector gram_;     ///< N-gram of the current window (valid when fill_ == n)
  Hypervector scratch_;  ///< rotation target (rotate_into needs dst != src)
  Hypervector rotated_new_;
};

/// The trial encoder: spatial encode -> sliding N-gram recurrence -> a chunk
/// of up to 64 N-grams -> bit-sliced counter bundling, as an explicit
/// configure/push/emit/reset state object. Each open window takes its rows
/// of the chunk in one multi-row Backend::accumulate_rows call, so the
/// carry-save kernel sees many rows at once. Every trial encode in the
/// library is one configuration of it:
///   - a served stream: configure(window, hop) once and push samples as they
///     arrive, collecting one bundled query hypervector per hop;
///   - a batch query: configure(len, len) and push the whole len-sample
///     trial, which emits exactly one window — the trial's query;
///   - a training sequence: configure(n, 1) and push the trial, which emits
///     one window per N-gram, each the gram itself.
///
/// Lifecycle: construct against a model's spatial encoder, N-gram depth and
/// query tie-break, then `configure(window, hop)` the sliding decision
/// window. Every `push` may span any number of samples (including zero) and
/// appends one query hypervector per window completed inside the push;
/// `reset()` drops the stream position but keeps the window/hop so a session
/// can be reused, and re-`configure` reshapes it mid-stream.
///
/// Window w covers samples [w*hop, w*hop + window); its query is the
/// majority bundle of the window's N-grams, bit-identical to the
/// sample-at-a-time reference chain (tests/hd/reference_encoder.hpp) over
/// the equivalent buffered slice — the N-gram at position j depends only on
/// samples j..j+n-1, so the continuous recurrence and a fresh per-slice pass
/// produce the same bits (pinned by tests/hd/streaming_encoder_test). All
/// state (the n-deep temporal ring, the N-gram chunk buffer, and one
/// bit-sliced counter bundle per concurrently open window) is owned by the
/// object and carried across pushes, so a session may migrate between
/// threads as long as calls are externally serialized.
class StreamingEncoder {
 public:
  /// `spatial` is copied (it is a view); the IM/CIM it reads must outlive
  /// the encoder. `n` is the temporal window size and `tie_break` the
  /// query-bundle tie-break row (copied; only consulted for windows with an
  /// even N-gram count).
  StreamingEncoder(const SpatialEncoder& spatial, std::size_t n, Hypervector tie_break);

  std::size_t n() const noexcept { return n_; }
  std::size_t dim() const noexcept { return spatial_.dim(); }
  std::size_t channels() const noexcept { return spatial_.channels(); }

  /// Overlapping windows simultaneously being bundled for a window/hop
  /// shape: floor((window - n) / hop) + 1 — the counter-slot pool size and
  /// the per-sample bundling cost factor.
  static std::size_t active_windows(std::size_t window, std::size_t hop, std::size_t n) noexcept {
    return (window - n) / hop + 1;
  }

  /// (Re)shapes the session: emit one decision per `hop` samples over a
  /// sliding `window`. Requires window >= n and hop >= 1; resets the stream
  /// position and preallocates the counter-slot pool. Throws
  /// std::invalid_argument on a bad shape.
  void configure(std::size_t window, std::size_t hop);

  /// Drops all stream state (temporal ring, counters, sample position) but
  /// keeps the configured window/hop — the "new recording, same session"
  /// reset.
  void reset() noexcept;

  bool configured() const noexcept { return window_ != 0; }
  std::size_t window() const noexcept { return window_; }
  std::size_t hop() const noexcept { return hop_; }

  /// Samples consumed since the last configure/reset.
  std::size_t samples_pushed() const noexcept { return samples_pushed_; }
  /// Windows emitted since the last configure/reset.
  std::size_t windows_emitted() const noexcept { return windows_emitted_; }

  /// Feeds `samples` (each `channels()` floats) in chronological order and
  /// appends the query hypervector of every window completed by them to
  /// `out`; returns how many were appended. Window k's query lands before
  /// window k+1's, and splitting a stream across pushes at any boundary
  /// yields bit-identical output. Throws std::invalid_argument when not
  /// configured.
  std::size_t push(std::span<const std::vector<float>> samples, std::vector<Hypervector>& out);

 private:
  /// Bundles the `grams` N-grams just written to chunk_ (the stream's next
  /// grams): every window open over them takes its contiguous range of
  /// chunk rows in one CounterBundle::add, and every window ending inside
  /// the chunk is read out to `out`, in ascending window order.
  void bundle_chunk(const kernels::Backend& backend, std::size_t grams,
                    std::vector<Hypervector>& out);

  SpatialEncoder spatial_;
  std::size_t n_;
  Hypervector tie_break_;
  std::size_t window_ = 0;  ///< 0 = not configured
  std::size_t hop_ = 0;
  TemporalEncoder temporal_;               ///< preallocated n-deep ring
  std::vector<Hypervector> chunk_;         ///< the chunk's N-grams, grown on demand
  std::vector<const Word*> chunk_rows_;    ///< row table over chunk_ for the kernel
  Hypervector spatial_scratch_;            ///< spatial vector feeding the ring (n > 1)
  std::vector<kernels::CounterBundle> slots_;  ///< one per concurrently open window
  std::size_t samples_pushed_ = 0;
  std::size_t grams_seen_ = 0;
  std::size_t windows_emitted_ = 0;
};

}  // namespace pulphd::hd
