#include "load.hpp"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <deque>
#include <latch>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "emg/dataset.hpp"
#include "emg/protocol.hpp"
#include "hd/serialization.hpp"
#include "kernels/backend.hpp"
#include "kernels/bitsliced.hpp"
#include "serve/protocol.hpp"
#include "wire.hpp"

namespace perfbench {

namespace emg = pulphd::emg;
namespace kernels = pulphd::kernels;
using pulphd::Word;
using pulphd::words_for_dim;

namespace {

// Why each workload exists is recorded in perfbench/README.md.
const std::vector<Workload> kWorkloads = {
    {"emg-text-n1", false, false, 1, 5, 2},
    {"emg-binary-n4", false, true, 4, 5, 2},
    {"emg-stream-n4", true, true, 4, 4, 4},
};

constexpr std::size_t kMaxErrors = 8;
/// Rotations timed per probe (each its own span).
constexpr int kRotateProbes = 4;
/// Stream pushes are small and frequent: probe every 8th, so the traced
/// receiver keeps up with the schedule and the span log stays small.
constexpr std::uint64_t kStreamProbeEvery = 8;

double ms_between(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e6;
}

void note_error(LoadStats& stats, const std::string& what) {
  if (stats.errors.size() < kMaxErrors) stats.errors.push_back(what);
}

serve::Wire wire_of(const Workload& w) {
  return w.binary ? serve::Wire::kBinary : serve::Wire::kText;
}

hd::HdClassifier train_subject(const emg::EmgDataset& ds, const emg::EmgDataset::Split& split,
                               std::size_t ngram, const emg::ProtocolConfig& protocol) {
  hd::ClassifierConfig cfg;
  cfg.dim = kDim;
  cfg.channels = ds.config.channels;
  cfg.max_value = ds.config.max_amplitude_mv;
  cfg.ngram = ngram;
  hd::HdClassifier clf(cfg);
  for (const emg::EmgTrial* trial : split.train) {
    clf.train(emg::active_segment(trial->envelope, protocol), trial->label);
  }
  return clf;
}

/// Cyclic window `w` of a subject's replayed stream.
hd::Trial window_slice(const Subject& sub, std::size_t w) {
  hd::Trial slice(kStreamWindow);
  for (std::size_t i = 0; i < kStreamWindow; ++i) {
    slice[i] = sub.stream[(w * kStreamHop + i) % sub.stream.size()];
  }
  return slice;
}

void build_stream(Subject& sub) {
  std::vector<std::size_t> offsets = {0};
  for (const hd::Trial& seg : sub.segments) {
    sub.stream.insert(sub.stream.end(), seg.begin(), seg.end());
    offsets.push_back(sub.stream.size());
  }
  const std::size_t length = sub.stream.size();
  const std::size_t period = length / std::gcd(length, kStreamHop);

  std::vector<hd::Trial> slices;
  slices.reserve(period);
  for (std::size_t w = 0; w < period; ++w) {
    slices.push_back(window_slice(sub, w));
    const std::size_t start = (w * kStreamHop) % length;
    const auto t = static_cast<std::size_t>(
        std::upper_bound(offsets.begin(), offsets.end(), start) - offsets.begin() - 1);
    sub.window_labels.push_back(start + kStreamWindow <= offsets[t + 1]
                                    ? static_cast<int>(sub.labels[t])
                                    : -1);
  }
  sub.window_decisions = sub.classifier.predict_batch(slices);

  const serve::ResponseEncoder encoder(serve::Wire::kBinary);
  sub.open_request =
      serve::format_binary_stream_open_request(sub.model, kStreamWindow, kStreamHop);
  sub.open_expected = encoder.stream_opened(sub.model, kStreamWindow, kStreamHop);
  const std::size_t prefill = kStreamWindow - kStreamHop;
  sub.prefill_request = serve::format_binary_stream_push_request(
      std::span<const hd::Sample>(sub.stream).first(prefill));
  sub.prefill_expected = encoder.stream_windows(0, {});
  for (std::size_t j = 0; j < period; ++j) {
    std::vector<hd::Sample> hop(kStreamHop);
    for (std::size_t i = 0; i < kStreamHop; ++i) {
      hop[i] = sub.stream[(prefill + j * kStreamHop + i) % length];
    }
    sub.pushes.push_back(serve::format_binary_stream_push_request(hop));
  }
}

/// The shape the bulk kernels run at for one query of `samples` samples.
struct KernelShape {
  std::size_t words;    ///< packed words per hypervector
  std::size_t rows;     ///< spatial bound rows: channels, plus a tie-break when even
  unsigned planes;      ///< counter planes for the query's N-grams
  std::size_t classes;  ///< AM prototypes
};

KernelShape kernel_shape(const hd::HdClassifier& clf, std::size_t samples) {
  const std::size_t channels = clf.config().channels;
  return {words_for_dim(clf.config().dim), channels + (channels % 2 == 0 ? 1 : 0),
          kernels::counter_planes_for(samples - clf.config().ngram + 1), clf.am().classes()};
}

/// Samples per query: a whole test segment (batch) or one window (stream).
std::size_t samples_per_query(const Fixture& fx) {
  return fx.workload->stream ? kStreamWindow : fx.subjects.front().segments.front().size();
}

/// Probes of the layers underneath one request: the spatial encoder, the
/// rotation, the three dispatched bulk kernels at the model's shape, and
/// whichever encoder entry point the request itself did not go through.
/// Each call is a child span of one "probe" root per request.
class Prober {
 public:
  Prober(const hd::HdClassifier& clf, std::size_t samples_per_query)
      : clf_(&clf),
        shape_(kernel_shape(clf, samples_per_query)),
        spatial_out_(64, hd::Hypervector(clf.config().dim)),
        a_(clf.am().prototype(0)),
        b_(clf.config().dim),
        counters_(shape_.planes * shape_.words, 0),
        out_(shape_.words, 0),
        distances_(shape_.classes, 0),
        encoder_(clf.make_streaming_encoder()) {
    // Threshold input rows: prototype rows stand in for the bound channel
    // rows (the kernel's cost does not depend on the bits).
    const std::span<const Word> protos = clf.am().packed_prototypes();
    for (std::size_t r = 0; r < shape_.rows; ++r) {
      rows_.push_back(protos.data() + (r % shape_.classes) * shape_.words);
    }
    encoder_.configure(kStreamWindow, kStreamHop);
  }

  /// Probes with `samples` (the request's first trial, or the pushed hop).
  /// `trial_probe` is a stream window to time the trial encoder on; empty
  /// for batch requests, which time the stream encoder on `samples` instead.
  void run(SpanLog& log, std::uint64_t request, std::span<const hd::Sample> samples,
           const hd::Trial& trial_probe) {
    const std::uint64_t root = log.new_id();
    const std::int64_t t0 = now_ns();
    const std::size_t n = std::min(samples.size(), spatial_out_.size());
    log.timed("hd.spatial.encode_batch", root, request, static_cast<double>(n), [&] {
      clf_->spatial_encoder().encode_batch(samples.first(n),
                                           std::span<hd::Hypervector>(spatial_out_).first(n));
    });
    for (int k = 0; k < kRotateProbes; ++k) {
      log.timed("hd.ops.rotate_into", root, request, 1.0, [&] { a_.rotate_into(b_, 1); });
    }
    const kernels::Backend& backend = kernels::active_backend();
    log.timed("kernels.threshold_words", root, request, 1.0, [&] {
      backend.threshold_words(rows_.data(), rows_.size(), rows_.size() / 2, out_.data(),
                              shape_.words);
    });
    log.timed("kernels.accumulate_counters", root, request, 1.0, [&] {
      backend.accumulate_counters(a_.words().data(), counters_.data(), shape_.planes,
                                  shape_.words);
    });
    log.timed("kernels.hamming_rows", root, request, 1.0, [&] {
      backend.hamming_rows(a_.words().data(), clf_->am().packed_prototypes().data(),
                           shape_.classes, shape_.words, distances_.data());
    });
    if (trial_probe.empty()) {
      encoder_.reset();
      for (std::size_t at = 0; at + kStreamHop <= samples.size(); at += kStreamHop) {
        queries_.clear();
        log.timed("hd.encoder.push", root, request, 1.0,
                  [&] { encoder_.push(samples.subspan(at, kStreamHop), queries_); });
      }
    } else {
      log.timed("hd.encoder.trial", root, request, 1.0, [&] {
        return clf_->encode_trials(std::span<const hd::Trial>(&trial_probe, 1));
      });
    }
    log.add_with_id(root, "probe", 0, request, t0, now_ns());
  }

 private:
  const hd::HdClassifier* clf_;
  KernelShape shape_;
  std::vector<hd::Hypervector> spatial_out_;
  hd::Hypervector a_, b_;
  std::vector<Word> counters_;
  std::vector<Word> out_;
  std::vector<std::uint32_t> distances_;
  std::vector<const Word*> rows_;
  hd::StreamingEncoder encoder_;
  std::vector<hd::Hypervector> queries_;
};

/// Per-thread share of the trace counters, merged into the sink at the end.
struct TraceCounters {
  std::uint64_t alloc_bytes = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t mismatches = 0;

  void merge_into(TraceSink& sink) const {
    sink.alloc_bytes += alloc_bytes;
    sink.wire_bytes += wire_bytes;
    sink.replay_mismatches += mismatches;
  }
};

/// Times ConnectionSession::consume on one request's bytes, counting the
/// heap bytes it allocates, and returns the decoded request (nullopt when
/// the bytes did not decode to exactly one request).
std::optional<serve::Request> traced_decode(SpanLog& log, std::uint64_t root,
                                            serve::ConnectionSession& session,
                                            std::string_view bytes, TraceCounters& counters) {
  std::vector<serve::WireEvent> events;
  const std::int64_t t0 = now_ns();
  {
    const AllocScope alloc;
    events = session.consume(bytes);
    counters.alloc_bytes += alloc.bytes();
  }
  log.add("serve.protocol.decode", root, root, t0, now_ns());
  counters.wire_bytes += bytes.size();
  if (events.size() != 1 || !events[0].request) return std::nullopt;
  return std::move(events[0].request);
}

/// In-process replay of one classify request whose round trip to the
/// daemon took [t0, t1]; its stages become children of the round-trip span.
void replay_classify(SpanLog& log, const serve::ModelRegistry& registry, const Subject& sub,
                     serve::Wire wire, std::int64_t t0, std::int64_t t1, Prober& prober,
                     TraceCounters& counters) {
  const std::uint64_t root = log.new_id();
  serve::ConnectionSession session;
  if (wire == serve::Wire::kBinary) session.consume(serve::kBinaryMagic);
  std::optional<serve::Request> request = traced_decode(log, root, session, sub.request, counters);
  if (!request || !std::holds_alternative<serve::ClassifyRequest>(*request)) {
    ++counters.mismatches;
    return;
  }
  const auto& classify = std::get<serve::ClassifyRequest>(*request);
  const serve::ModelSnapshot entry = log.timed("serve.registry.resolve", root, root, 1.0,
                                               [&] { return registry.resolve(classify.model); });
  const hd::HdClassifier& clf = entry->classifier;
  const auto trials = static_cast<double>(classify.trials.size());
  const std::vector<hd::Hypervector> queries = log.timed(
      "hd.encoder.trial", root, root, trials, [&] { return clf.encode_trials(classify.trials); });
  const std::vector<hd::AmDecision> decisions = log.timed(
      "hd.am.query", root, root, trials, [&] { return clf.predict_encoded_batch(queries); });
  const std::string response = log.timed("serve.protocol.encode", root, root, 1.0, [&] {
    return serve::ResponseEncoder(wire).classify(entry->name, decisions);
  });
  if (response != sub.expected) ++counters.mismatches;
  log.add_with_id(root, "serve.server.round_trip", 0, root, t0, t1);
  prober.run(log, root, classify.trials.front(), {});
}

/// The in-process twin of one stream session: its own decoder, pinned
/// model and streaming encoder, fed exactly what the daemon was fed.
struct ShadowSession {
  serve::ConnectionSession session;
  serve::ModelSnapshot entry;
  hd::StreamingEncoder encoder;
  Prober prober;
  std::vector<hd::Hypervector> queries;

  ShadowSession(const serve::ModelRegistry& registry, const Subject& sub)
      : entry(registry.resolve(sub.model)),
        encoder(entry->classifier.make_streaming_encoder()),
        prober(entry->classifier, kStreamWindow) {
    session.consume(serve::kBinaryMagic);
    encoder.configure(kStreamWindow, kStreamHop);
    encoder.push(std::span<const hd::Sample>(sub.stream).first(kStreamWindow - kStreamHop),
                 queries);
  }
};

void replay_push(SpanLog& log, ShadowSession& shadow, const Subject& sub, std::uint64_t window,
                 const std::string& expected, std::int64_t t0, std::int64_t t1,
                 TraceCounters& counters) {
  const std::uint64_t root = log.new_id();
  const std::string& bytes = sub.pushes[window % sub.pushes.size()];
  std::optional<serve::Request> request = traced_decode(log, root, shadow.session, bytes, counters);
  if (!request || !std::holds_alternative<serve::StreamPushRequest>(*request)) {
    ++counters.mismatches;
    return;
  }
  const auto& push = std::get<serve::StreamPushRequest>(*request);
  const hd::HdClassifier& clf = shadow.entry->classifier;
  shadow.queries.clear();
  log.timed("hd.encoder.push", root, root, 1.0,
            [&] { shadow.encoder.push(push.samples, shadow.queries); });
  const std::vector<hd::AmDecision> decisions =
      log.timed("hd.am.query", root, root, static_cast<double>(shadow.queries.size()),
                [&] { return clf.predict_encoded_batch(shadow.queries); });
  const std::string response = log.timed("serve.protocol.encode", root, root, 1.0, [&] {
    return serve::ResponseEncoder(serve::Wire::kBinary).stream_windows(window, decisions);
  });
  if (response != expected) ++counters.mismatches;
  log.add_with_id(root, "serve.server.round_trip", 0, root, t0, t1);
  if (window % kStreamProbeEvery == 0) {
    shadow.prober.run(log, root, push.samples, window_slice(sub, window));
  }
}

// --- closed loop: classify -------------------------------------------------

LoadStats run_batch(const Fixture& fx, const std::string& socket, double seconds,
                    TraceSink* trace) {
  const Workload& w = *fx.workload;
  const std::size_t threads = w.connections;
  const std::size_t subjects = fx.subjects.size();
  std::vector<LoadStats> per(threads);
  std::vector<std::int64_t> last_ns(threads, 0);
  std::latch ready(static_cast<std::ptrdiff_t>(threads));
  std::latch go(1);
  std::int64_t start_ns = 0;
  std::int64_t deadline_ns = 0;
  std::mutex trace_mutex;

  auto client = [&](std::size_t t) {
    LoadStats& stats = per[t];
    int fd = -1;
    std::unique_ptr<Prober> prober;
    TraceCounters counters;
    ResponseFramer framer(w.binary);
    bool usable = false;
    try {
      fd = connect_unix(socket);
      if (w.binary) send_all(fd, serve::kBinaryMagic);
      // Correctness preflight and warm-up, untimed: every subject once.
      for (std::size_t s = 0; s < subjects; ++s) {
        const Subject& sub = fx.subjects[(t + s) % subjects];
        send_all(fd, sub.request);
        if (framer.read_response(fd) != sub.expected) {
          ++stats.attempted;
          ++stats.failed;
          note_error(stats, "preflight: response for " + sub.model + " differs from offline");
        }
      }
      if (trace != nullptr) {
        prober = std::make_unique<Prober>(fx.subjects.front().classifier, samples_per_query(fx));
      }
      usable = true;
    } catch (const std::exception& e) {
      ++stats.attempted;
      ++stats.failed;
      note_error(stats, std::string("connect/preflight: ") + e.what());
    }
    ready.count_down();
    go.wait();
    std::int64_t due = start_ns;
    for (std::size_t i = 0; usable && now_ns() < deadline_ns; ++i) {
      const Subject& sub = fx.subjects[(t + i) % subjects];
      ++stats.attempted;
      try {
        const std::int64_t t0 = now_ns();
        send_all(fd, sub.request);
        const std::string response = framer.read_response(fd);
        const std::int64_t t1 = now_ns();
        last_ns[t] = t1;
        stats.lag_ms.push_back(ms_between(due, t0));
        if (response == sub.expected) {
          stats.served.push_back({ms_between(start_ns, t1) / 1e3, ms_between(t0, t1),
                                  ms_between(due, t1),
                                  static_cast<std::uint32_t>(sub.segments.size())});
          stats.decisions += sub.segments.size();
          stats.scored += sub.segments.size();
          stats.correct += sub.offline_correct;  // the bytes carry the offline labels
          stats.offline_correct += sub.offline_correct;
        } else {
          ++stats.failed;
          stats.scored += sub.segments.size();
          stats.offline_correct += sub.offline_correct;
          note_error(stats, "response for " + sub.model + " differs from offline: " +
                                response.substr(0, 120));
        }
        if (trace != nullptr) {
          replay_classify(trace->logs[t], *trace->registry, sub, wire_of(w), t0, t1, *prober,
                          counters);
        }
      } catch (const std::exception& e) {
        ++stats.failed;
        note_error(stats, e.what());
        break;
      }
      due = now_ns();  // closed loop: the next request is due now
    }
    if (fd >= 0) ::close(fd);
    if (trace != nullptr) {
      const std::lock_guard<std::mutex> lock(trace_mutex);
      counters.merge_into(*trace);
    }
  };

  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(client, t);
  ready.wait();
  start_ns = now_ns();
  deadline_ns = start_ns + static_cast<std::int64_t>(seconds * 1e9);
  go.count_down();
  for (std::thread& th : pool) th.join();

  LoadStats total;
  for (const LoadStats& part : per) merge(total, part);
  const std::int64_t end_ns = *std::max_element(last_ns.begin(), last_ns.end());
  total.elapsed_s = end_ns > start_ns ? static_cast<double>(end_ns - start_ns) / 1e9 : seconds;
  return total;
}

// --- open loop: stream sessions --------------------------------------------

/// A push sent and not yet answered (a connection answers in order).
struct Pending {
  std::int64_t due_ns;
  std::int64_t send_ns;
  std::uint64_t window;
};

struct Session {
  const Subject* subject = nullptr;
  int fd = -1;
  bool alive = false;  ///< open, and the connection has not failed
  ResponseFramer framer{true};
  std::deque<Pending> pending;
  std::uint64_t sent = 0;
};

/// Checks one decision frame against the offline decision for its window
/// and records it.
void record_decision(LoadStats& stats, const Subject& sub, const Pending& p,
                     const std::string& frame, const std::string& expected, std::int64_t recv_ns,
                     std::int64_t start_ns) {
  const std::size_t slot = p.window % sub.window_decisions.size();
  ++stats.attempted;
  const double window_ms = ms_between(p.due_ns, recv_ns);
  const int label = sub.window_labels[slot];
  const bool offline_right =
      label >= 0 && sub.window_decisions[slot].label == static_cast<std::size_t>(label);
  if (label >= 0) {
    ++stats.scored;
    stats.offline_correct += offline_right ? 1 : 0;
  }
  if (frame != expected) {
    ++stats.failed;
    ++stats.deadline_misses;
    note_error(stats, "decision frame for " + sub.model + " window " + std::to_string(p.window) +
                          " differs from offline");
    return;
  }
  ++stats.decisions;
  stats.correct += offline_right ? 1 : 0;  // the bytes carry the offline label
  if (window_ms > kDeadlineMs) ++stats.deadline_misses;
  stats.served.push_back(
      {ms_between(start_ns, recv_ns) / 1e3, ms_between(p.send_ns, recv_ns), window_ms, 1});
}

/// The open loop runs on this one thread, which never sleeps: it sends each
/// push the moment it is due and drains responses in between. A sleeping
/// generator adds its own wake-up latency to every window, and on a shared
/// VM that latency drifts by tens of percent from run to run.
LoadStats run_stream(const Fixture& fx, const std::string& socket, double seconds,
                     TraceSink* trace) {
  LoadStats stats;
  const std::size_t count = fx.subjects.size();
  std::vector<Session> sessions(count);
  std::vector<std::unique_ptr<ShadowSession>> shadows;
  const serve::ResponseEncoder encoder(serve::Wire::kBinary);
  for (std::size_t k = 0; k < count; ++k) {
    Session& s = sessions[k];
    s.subject = &fx.subjects[k];
    const Subject& sub = *s.subject;
    try {
      s.fd = connect_unix(socket);
      send_all(s.fd, serve::kBinaryMagic);
      send_all(s.fd, sub.open_request);
      const bool opened = s.framer.read_response(s.fd) == sub.open_expected;
      send_all(s.fd, sub.prefill_request);
      s.alive = opened && s.framer.read_response(s.fd) == sub.prefill_expected;
      if (!s.alive) note_error(stats, "stream-open/prefill differs for " + sub.model);
    } catch (const std::exception& e) {
      note_error(stats, std::string("stream setup: ") + e.what());
    }
    if (!s.alive) {
      ++stats.attempted;
      ++stats.failed;
    }
    if (trace != nullptr) {
      shadows.push_back(std::make_unique<ShadowSession>(*trace->registry, sub));
    }
  }

  const double rate = kStreamPushesPerSecond * static_cast<double>(count);
  const auto ticks = static_cast<std::uint64_t>(seconds * rate);
  const double period_ns = 1e9 / rate;
  const std::int64_t start_ns = now_ns() + 5'000'000;
  const auto due_of = [&](std::uint64_t k) {
    return start_ns + static_cast<std::int64_t>(static_cast<double>(k) * period_ns);
  };
  const std::int64_t give_up_ns = due_of(ticks) + 3'000'000'000LL;
  stats.lag_ms.reserve(ticks);
  std::vector<pollfd> fds(count);
  TraceCounters counters;
  std::int64_t last_ns = start_ns;
  char chunk[1 << 16];
  std::uint64_t next = 0;  // next tick to send
  for (;;) {
    std::int64_t now = now_ns();
    for (; next < ticks && due_of(next) <= now; ++next) {
      Session& s = sessions[next % count];
      if (!s.alive) {  // a window due on a failed session is missed
        ++stats.attempted;
        ++stats.failed;
        ++stats.deadline_misses;
        continue;
      }
      const std::int64_t due = due_of(next);
      stats.lag_ms.push_back(ms_between(due, now));
      const std::uint64_t window = s.sent++;
      s.pending.push_back({due, now, window});
      try {
        send_all(s.fd, s.subject->pushes[window % s.subject->pushes.size()]);
      } catch (const std::exception& e) {
        note_error(stats, std::string("stream send: ") + e.what());
        s.alive = false;
      }
      now = now_ns();
    }
    bool outstanding = false;
    for (std::size_t k = 0; k < count; ++k) {
      fds[k] = {sessions[k].alive ? sessions[k].fd : -1, POLLIN, 0};
      outstanding = outstanding || (sessions[k].alive && !sessions[k].pending.empty());
    }
    if (next == ticks && (!outstanding || now > give_up_ns)) break;
    if (::poll(fds.data(), fds.size(), 0) <= 0) continue;
    for (std::size_t k = 0; k < count; ++k) {
      if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Session& s = sessions[k];
      const ssize_t n = ::read(s.fd, chunk, sizeof(chunk));
      if (n <= 0) {
        note_error(stats, "stream session for " + s.subject->model + " lost its connection");
        s.alive = false;
        continue;
      }
      s.framer.feed({chunk, static_cast<std::size_t>(n)});
      while (std::optional<std::string> frame = s.framer.next()) {
        const std::int64_t recv_ns = now_ns();
        if (s.pending.empty()) {
          ++stats.attempted;
          ++stats.failed;
          note_error(stats, "unsolicited frame on " + s.subject->model);
          continue;
        }
        const Pending p = s.pending.front();
        s.pending.pop_front();
        last_ns = recv_ns;
        const Subject& sub = *s.subject;
        const std::string expected = encoder.stream_windows(
            p.window, std::span<const hd::AmDecision>(
                          &sub.window_decisions[p.window % sub.window_decisions.size()], 1));
        record_decision(stats, sub, p, *frame, expected, recv_ns, start_ns);
        if (trace != nullptr) {
          replay_push(trace->logs[0], *shadows[k], sub, p.window, expected, p.send_ns, recv_ns,
                      counters);
        }
      }
    }
  }

  // Windows never answered count as failed and as missed deadlines.
  for (Session& s : sessions) {
    stats.attempted += s.pending.size();
    stats.failed += s.pending.size();
    stats.deadline_misses += s.pending.size();
    if (!s.pending.empty()) {
      note_error(stats, std::to_string(s.pending.size()) + " windows of " + s.subject->model +
                            " never answered");
    }
    if (s.alive && s.pending.empty()) {
      try {
        send_all(s.fd, serve::format_binary_command(serve::kFrameStreamClose));
        if (s.framer.read_response(s.fd) != encoder.stream_closed(s.sent)) {
          ++stats.failed;
          note_error(stats, "stream-close count differs for " + s.subject->model);
        }
      } catch (const std::exception& e) {
        ++stats.failed;
        note_error(stats, std::string("stream-close: ") + e.what());
      }
    }
    if (s.fd >= 0) ::close(s.fd);
  }
  stats.elapsed_s = static_cast<double>(last_ns - start_ns) / 1e9;
  if (trace != nullptr) counters.merge_into(*trace);
  return stats;
}

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

Fixture make_fixture(const Workload& workload, std::uint64_t seed, const std::string& dir,
                     bool corrupt) {
  Fixture fx;
  fx.workload = &workload;
  emg::GeneratorConfig gen;
  gen.seed = seed;
  const emg::EmgDataset ds = emg::generate_dataset(gen);
  const emg::ProtocolConfig protocol;
  if (workload.models > gen.subjects) throw std::runtime_error("more models than subjects");
  double accuracy_sum = 0.0;
  for (std::size_t s = 0; s < workload.models; ++s) {
    const emg::EmgDataset::Split split = ds.split(s, protocol.train_fraction);
    std::string name = "s";
    name += std::to_string(s);
    Subject sub(std::move(name), train_subject(ds, split, workload.ngram, protocol));
    for (const emg::EmgTrial* trial : split.test) {
      sub.segments.push_back(emg::active_segment(trial->envelope, protocol));
      sub.labels.push_back(trial->label);
    }
    const std::vector<hd::AmDecision> decisions = sub.classifier.predict_batch(sub.segments);
    for (std::size_t t = 0; t < decisions.size(); ++t) {
      sub.offline_correct += decisions[t].label == sub.labels[t] ? 1 : 0;
    }
    accuracy_sum += static_cast<double>(sub.offline_correct) /
                    static_cast<double>(sub.segments.size());

    const std::string path = dir + "/" + sub.model + ".phd";
    hd::save_model_file(sub.classifier, path, sub.model);
    fx.model_files.emplace_back(sub.model, path);

    if (workload.stream) {
      build_stream(sub);
    } else {
      sub.request = workload.binary ? serve::format_binary_classify_request(sub.model, sub.segments)
                                    : serve::format_classify_request(sub.model, sub.segments);
      sub.expected = serve::ResponseEncoder(wire_of(workload)).classify(sub.model, decisions);
    }
    fx.subjects.push_back(std::move(sub));
  }
  fx.offline_mean_accuracy = accuracy_sum / static_cast<double>(workload.models);

  if (corrupt) {
    // One wrong expectation on subject 0: every response for it must now
    // fail the byte comparison.
    Subject& first = fx.subjects.front();
    if (workload.stream) {
      first.window_decisions.front().distance ^= 1;
    } else {
      first.expected[first.expected.size() - 2] ^= 1;
    }
  }
  return fx;
}

LoadStats run_load(const Fixture& fixture, const std::string& socket, double seconds,
                   TraceSink* trace) {
  return fixture.workload->stream ? run_stream(fixture, socket, seconds, trace)
                                  : run_batch(fixture, socket, seconds, trace);
}

KernelBytes kernel_bytes(const Fixture& fixture) {
  const KernelShape k =
      kernel_shape(fixture.subjects.front().classifier, samples_per_query(fixture));
  const double row = static_cast<double>(k.words * sizeof(Word));
  return {(static_cast<double>(k.rows) + 1) * row, (1 + 2 * static_cast<double>(k.planes)) * row,
          (1 + static_cast<double>(k.classes)) * row +
              static_cast<double>(k.classes * sizeof(std::uint32_t))};
}

std::uint64_t rotations_per_request(const Fixture& fixture) {
  const std::size_t n = fixture.workload->ngram;
  if (n == 1) return 0;
  if (fixture.workload->stream) return 2 * kStreamHop;
  std::uint64_t rotations = 0;
  for (const hd::Trial& seg : fixture.subjects.front().segments) {
    if (seg.size() >= n) rotations += (n - 1) + 2 * (seg.size() - n);
  }
  return rotations;
}


Summary summarize(const LoadStats& stats) {
  Summary out;
  if (stats.served.empty() || !(stats.elapsed_s > 0.0)) return out;
  out.slices = std::max<std::size_t>(1, static_cast<std::size_t>(stats.elapsed_s));
  const double width = stats.elapsed_s / static_cast<double>(out.slices);
  std::vector<std::vector<const Served*>> slices(out.slices);
  for (const Served& s : stats.served) {
    const auto k = static_cast<std::size_t>(std::max(0.0, s.at_s) / width);
    slices[std::min(k, out.slices - 1)].push_back(&s);
  }
  std::vector<double> tput, req50, req99, win50, win99;
  for (const auto& slice : slices) {
    std::vector<double> req, win;
    double decided = 0.0;
    for (const Served* s : slice) {
      req.push_back(s->request_ms);
      win.push_back(s->window_ms);
      decided += s->decisions;
    }
    tput.push_back(decided / width);
    req50.push_back(quantile(req, 0.5));
    req99.push_back(quantile(req, 0.99));
    win50.push_back(quantile(win, 0.5));
    win99.push_back(quantile(win, 0.99));
  }
  out.trials_per_s = quantile(tput, 0.5);
  out.request_p50_ms = quantile(req50, 0.5);
  out.request_p99_ms = quantile(req99, 0.5);
  out.window_p50_ms = quantile(win50, 0.5);
  out.window_p99_ms = quantile(win99, 0.5);
  return out;
}

void merge(LoadStats& into, const LoadStats& part) {
  into.served.insert(into.served.end(), part.served.begin(), part.served.end());
  into.lag_ms.insert(into.lag_ms.end(), part.lag_ms.begin(), part.lag_ms.end());
  into.attempted += part.attempted;
  into.failed += part.failed;
  into.decisions += part.decisions;
  into.deadline_misses += part.deadline_misses;
  into.scored += part.scored;
  into.correct += part.correct;
  into.offline_correct += part.offline_correct;
  for (const std::string& e : part.errors) note_error(into, e);
}

}  // namespace perfbench
