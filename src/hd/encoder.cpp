#include "hd/encoder.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "common/status.hpp"
#include "kernels/backend.hpp"
#include "kernels/bitsliced.hpp"

namespace pulphd::hd {

namespace {

// Per-thread scratch arena backing encode / encode_batch for more than
// kBindMajorityMaxChannels channels: one sample's packed bound channel rows
// plus the row-pointer table handed to the backend's threshold kernel.
// thread_local keeps the serial path and every encode_trials shard
// allocation-free after warmup without any sharing between threads.
struct SpatialArena {
  std::vector<Word> rows;
  std::vector<const Word*> row_ptrs;
};

SpatialArena& spatial_arena() {
  static thread_local SpatialArena arena;
  return arena;
}

// Samples StreamingEncoder::push turns into N-grams per chunk. The chunk
// exists so the bundling kernel sees many rows at once: each open window
// takes its rows of the chunk in one multi-row accumulate, whose carry-save
// tree reduces 15 rows per pass over the counter planes. 64 N-grams (~80
// KiB at the paper's D) stay cache-resident between being written and
// being bundled.
constexpr std::size_t kPushChunkSamples = 64;

}  // namespace

SpatialEncoder::SpatialEncoder(const ItemMemory& im, const ContinuousItemMemory& cim,
                               std::size_t channels)
    : im_(&im), cim_(&cim), channels_(channels) {
  require(channels >= 1, "SpatialEncoder: channels must be >= 1");
  require(im.size() >= channels, "SpatialEncoder: item memory smaller than channel count");
  require(im.dim() == cim.dim(), "SpatialEncoder: IM/CIM dimension mismatch");
}

std::vector<Hypervector> SpatialEncoder::bind_channels(std::span<const float> sample) const {
  require(sample.size() == channels_, "SpatialEncoder: sample size != channel count");
  std::vector<Hypervector> bound;
  bound.reserve(channels_ + 1);
  for (std::size_t c = 0; c < channels_; ++c) {
    bound.push_back(im_->at(c) ^ cim_->encode(sample[c]));
  }
  if (channels_ % 2 == 0) bound.push_back(bound[0] ^ bound[1]);
  return bound;
}

void SpatialEncoder::encode_into(std::span<const float> sample, const kernels::Backend& backend,
                                 Word* out) const {
  const std::size_t words = words_for_dim(dim());
  if (channels_ <= kernels::kBindMajorityMaxChannels) {
    // Closed form: the majority goes straight from the IM and CIM rows into
    // `out`, with no bound rows and no arena.
    std::array<const Word*, kernels::kBindMajorityMaxChannels> items{};
    std::array<const Word*, kernels::kBindMajorityMaxChannels> levels{};
    for (std::size_t c = 0; c < channels_; ++c) {
      items[c] = im_->at(c).words().data();
      levels[c] = cim_->encode(sample[c]).words().data();
    }
    backend.bind_majority_words(items.data(), levels.data(), channels_, out, words);
    return;
  }
  const std::size_t rows = bound_rows();
  SpatialArena& arena = spatial_arena();
  arena.rows.resize(rows * words);
  arena.row_ptrs.resize(rows);
  for (std::size_t c = 0; c < channels_; ++c) {
    backend.xor_words(im_->at(c).words().data(), cim_->encode(sample[c]).words().data(),
                      arena.rows.data() + c * words, words);
  }
  if (channels_ % 2 == 0) {
    // §5.1's reproducible tie-break operand: the XOR of the first two
    // bound rows, appended so the majority count is odd.
    backend.xor_words(arena.rows.data(), arena.rows.data() + words,
                      arena.rows.data() + channels_ * words, words);
  }
  for (std::size_t r = 0; r < rows; ++r) arena.row_ptrs[r] = arena.rows.data() + r * words;
  // Bound rows have zero padding, so the majority does too.
  backend.threshold_words(arena.row_ptrs.data(), rows, rows / 2, out, words);
}

Hypervector SpatialEncoder::encode(std::span<const float> sample) const {
  require(sample.size() == channels_, "SpatialEncoder: sample size != channel count");
  Hypervector out(dim());
  encode_into(sample, kernels::active_backend(), out.mutable_words().data());
  return out;
}

void SpatialEncoder::encode_batch(std::span<const std::vector<float>> samples,
                                  std::span<Hypervector> out) const {
  require(samples.size() == out.size(),
          "SpatialEncoder::encode_batch: samples/out size mismatch");
  const kernels::Backend& backend = kernels::active_backend();
  for (std::size_t s = 0; s < samples.size(); ++s) {
    require(samples[s].size() == channels_,
            "SpatialEncoder::encode_batch: sample size != channel count");
    require(out[s].dim() == dim(), "SpatialEncoder::encode_batch: output dimension mismatch");
    encode_into(samples[s], backend, out[s].mutable_words().data());
  }
}

TemporalEncoder::TemporalEncoder(std::size_t n, std::size_t dim)
    : n_(n),
      dim_(dim),
      window_(n > 1 ? n : 0, Hypervector(dim >= 1 ? dim : 1)),
      gram_(dim >= 1 ? dim : 1),
      scratch_(dim >= 1 ? dim : 1),
      rotated_new_(dim >= 1 ? dim : 1) {
  require(n >= 1, "TemporalEncoder: n must be >= 1");
  require(dim >= 1, "TemporalEncoder: dim must be >= 1");
}

bool TemporalEncoder::push(const Hypervector& spatial, Hypervector* out) {
  require(spatial.dim() == dim_, "TemporalEncoder::push: dimension mismatch");
  require(out != nullptr, "TemporalEncoder::push: out must not be null");
  if (n_ == 1) {
    // Pass-through (the paper's EMG configuration): the 1-gram is the
    // spatial hypervector itself.
    fill_ = 1;
    *out = spatial;
    return true;
  }
  if (fill_ < n_) {
    window_[fill_] = spatial;  // assignment reuses the preallocated slot
    ++fill_;
    if (fill_ < n_) return false;
    // First full window: the direct reduction G = S_0 ^ rho(S_1) ^ ... ^
    // rho^{n-1}(S_{n-1}), rotating into preallocated scratch.
    gram_ = window_[0];
    for (std::size_t k = 1; k < n_; ++k) {
      window_[k].rotate_into(scratch_, k);
      gram_ ^= scratch_;
    }
    head_ = 0;
    *out = gram_;
    return true;
  }
  // Steady state: slide the window by the recurrence
  //   G_{t+1} = rho^{-1}(G_t ^ S_oldest) ^ rho^{n-1}(S_new)
  // (rho^{-1} == rho^{dim-1}): XOR the expiring sample out, un-rotate the
  // survivors one step, and splice the newest sample in at depth n-1 — two
  // rotations and two XORs per sample, however large n is.
  gram_ ^= window_[head_];
  gram_.rotate_into(scratch_, dim_ - 1);
  spatial.rotate_into(rotated_new_, n_ - 1);
  scratch_ ^= rotated_new_;
  std::swap(gram_, scratch_);
  window_[head_] = spatial;
  head_ = (head_ + 1) % n_;
  *out = gram_;
  return true;
}

StreamingEncoder::StreamingEncoder(const SpatialEncoder& spatial, std::size_t n,
                                   Hypervector tie_break)
    : spatial_(spatial),
      n_(n),
      tie_break_(std::move(tie_break)),
      temporal_(n >= 1 ? n : 1, spatial.dim()),
      spatial_scratch_(spatial.dim()) {
  require(n >= 1, "StreamingEncoder: n must be >= 1");
  require(tie_break_.dim() == spatial.dim(), "StreamingEncoder: tie-break dim mismatch");
}

void StreamingEncoder::configure(std::size_t window, std::size_t hop) {
  require(window >= n_, "StreamingEncoder::configure: window must be >= n");
  require(hop >= 1, "StreamingEncoder::configure: hop must be >= 1");
  window_ = window;
  hop_ = hop;
  // One counter bundle per concurrently open window; reshaping reuses the
  // slots' plane buffers, and each slot is (re)provisioned the moment its
  // window starts, so no per-window allocation happens mid-stream after
  // warmup.
  slots_.resize(active_windows(window, hop, n_));
  reset();
}

void StreamingEncoder::reset() noexcept {
  temporal_.reset();
  samples_pushed_ = 0;
  grams_seen_ = 0;
  windows_emitted_ = 0;
}

void StreamingEncoder::bundle_chunk(const kernels::Backend& backend, std::size_t grams,
                                    std::vector<Hypervector>& out) {
  // The chunk holds grams [first, last); gram j spans samples j .. j+n-1.
  const std::size_t first = grams_seen_;
  const std::size_t last = first + grams;
  grams_seen_ = last;
  if (grams == 0) return;
  const std::size_t span = window_ - n_;  // grams per window, minus one
  if (span == 0) {
    // One-gram windows (window == n, e.g. the training sequence): window w
    // is gram w * hop alone, and a majority of one row is that row, so skip
    // the counter round trip.
    for (std::size_t j = (first + hop_ - 1) / hop_ * hop_; j < last; j += hop_) {
      out.push_back(chunk_[j - first]);
      ++windows_emitted_;
    }
    return;
  }
  const std::size_t words = words_for_dim(dim());
  for (std::size_t g = 0; g < grams; ++g) chunk_rows_[g] = chunk_[g].words().data();
  // Window w owns grams [w*hop, w*hop + span], so its rows in this chunk
  // are one contiguous range. Windows are visited in ascending order, which
  // is also the order they end in. The slot pool holds every concurrently
  // open window and window w + slots size starts only after window w ends,
  // so w % slots size is collision-free.
  const std::size_t w_lo = first > span ? (first - span + hop_ - 1) / hop_ : 0;
  const std::size_t w_hi = (last - 1) / hop_;
  for (std::size_t w = w_lo; w <= w_hi; ++w) {
    const std::size_t start = w * hop_;
    const std::size_t end = start + span + 1;
    kernels::CounterBundle& slot = slots_[w % slots_.size()];
    if (start >= first) slot.reset(words, span + 1);
    const std::size_t lo = std::max(start, first);
    const std::size_t hi = std::min(end, last);
    slot.add(backend, std::span<const Word* const>(chunk_rows_).subspan(lo - first, hi - lo));
    if (end <= last) {
      // The chunk holds the window's last gram — read its bundle out. Gram
      // and tie-break padding bits are zero, their counters stay zero, and
      // zero never exceeds the threshold, so the majority's padding is zero
      // too.
      out.emplace_back(dim());
      slot.majority(backend, tie_break_.words().data(), out.back().mutable_words().data());
      ++windows_emitted_;
    }
  }
}

std::size_t StreamingEncoder::push(std::span<const std::vector<float>> samples,
                                   std::vector<Hypervector>& out) {
  require(configured(), "StreamingEncoder::push: configure() must be called first");
  for (const std::vector<float>& sample : samples) {
    require(sample.size() == channels(), "StreamingEncoder::push: sample size != channel count");
  }
  const std::size_t emitted_before = out.size();
  const kernels::Backend& backend = kernels::active_backend();
  const std::size_t chunk_cap = std::min(kPushChunkSamples, samples.size());
  if (chunk_.size() < chunk_cap) {
    chunk_.resize(chunk_cap, Hypervector(dim()));
    chunk_rows_.resize(chunk_cap);
  }
  for (std::size_t base = 0; base < samples.size(); base += chunk_cap) {
    const std::size_t chunk = std::min(chunk_cap, samples.size() - base);
    // Fill the chunk with N-grams: with n == 1 every spatial vector is its
    // own 1-gram and is encoded straight into its slot; otherwise the
    // sliding recurrence writes each gram there once the ring is full.
    std::size_t grams = 0;
    for (std::size_t s = 0; s < chunk; ++s) {
      if (n_ == 1) {
        spatial_.encode_into(samples[base + s], backend,
                             chunk_[grams++].mutable_words().data());
        continue;
      }
      spatial_.encode_into(samples[base + s], backend,
                           spatial_scratch_.mutable_words().data());
      if (temporal_.push(spatial_scratch_, &chunk_[grams])) ++grams;
    }
    bundle_chunk(backend, grams, out);
  }
  samples_pushed_ += samples.size();
  return out.size() - emitted_before;
}

}  // namespace pulphd::hd
