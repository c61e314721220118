// Workloads, their seeded inputs and expected outputs, and the load loops
// that drive the daemon with them.
//
// Every input comes from the synthetic EMG generator under the run's seed:
// per-subject models trained offline (saved for the daemon with
// hd::save_model_file) and each subject's test-trial active segments. The
// expected bytes of every response are the offline HdClassifier result
// encoded by the same serve::ResponseEncoder the daemon uses, so a served
// response either matches byte-for-byte or counts as failed.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "hd/classifier.hpp"
#include "serve/registry.hpp"
#include "trace.hpp"

namespace perfbench {

namespace hd = pulphd::hd;
namespace serve = pulphd::serve;

/// The paper's operating point (Table 2/3): D = 10,000, 4 EMG channels.
inline constexpr std::size_t kDim = 10000;
/// Stream sessions decide over a 20-sample window every 5 samples.
inline constexpr std::size_t kStreamWindow = 20;
inline constexpr std::size_t kStreamHop = 5;
/// Offered load of the open-loop stream workload, per session.
inline constexpr double kStreamPushesPerSecond = 1000.0;
/// The stream workload idles this long before its schedule starts. On a
/// shared VM, thread wake-up latency stays high for tens of seconds after a
/// CPU-heavy phase, such as a batch workload run just before. A stream push
/// takes well under a millisecond and doubles in that state; a batch request
/// of ~10 ms does not notice.
inline constexpr double kStreamCooldownSeconds = 15.0;
/// The paper's detection-latency budget (Table 2).
inline constexpr double kDeadlineMs = 10.0;

struct Workload {
  const char* name;
  bool stream;         ///< open-loop stream sessions instead of closed-loop classify
  bool binary;         ///< phd2 instead of phd1 text
  std::size_t ngram;   ///< N of every model
  std::size_t models;  ///< per-subject models, subjects 0 .. models-1
  std::size_t connections;
};

/// The workload of that name, or nullptr.
const Workload* find_workload(const std::string& name);

/// One subject's model, inputs and expected outputs.
struct Subject {
  Subject(std::string name, hd::HdClassifier clf)
      : model(std::move(name)), classifier(std::move(clf)) {}

  std::string model;  ///< routing name, "s<index>"
  hd::HdClassifier classifier;
  std::vector<hd::Trial> segments;  ///< test-trial active segments
  std::vector<std::size_t> labels;  ///< ground truth per segment
  std::size_t offline_correct = 0;  ///< segments predict_batch labels right

  // Batch workloads: one classify of every segment.
  std::string request;
  std::string expected;

  // Stream workloads: the segments replayed back to back, cyclically. Push
  // j completes window j; inputs and decisions repeat every `period`
  // windows.
  std::vector<hd::Sample> stream;
  std::string open_request, open_expected;
  std::string prefill_request, prefill_expected;
  std::vector<std::string> pushes;              ///< one per window of a period
  std::vector<hd::AmDecision> window_decisions;  ///< offline, one per window
  std::vector<int> window_labels;  ///< ground truth, -1 when the window spans two trials
};

struct Fixture {
  const Workload* workload = nullptr;
  std::vector<Subject> subjects;
  std::vector<std::pair<std::string, std::string>> model_files;  ///< NAME, PATH
  double offline_mean_accuracy = 0.0;  ///< per-subject evaluation, as `pulphd_cli eval`
};

/// Generates the dataset for `seed`, trains and saves the workload's models
/// under `dir`, and precomputes every request and expected response. With
/// `corrupt`, one expected response is deliberately wrong (the self-test
/// uses it to prove the correctness gate trips).
Fixture make_fixture(const Workload& workload, std::uint64_t seed, const std::string& dir,
                     bool corrupt);

/// One byte-exact response.
struct Served {
  double at_s;        ///< arrival, seconds after the phase started
  double request_ms;  ///< send -> response
  double window_ms;   ///< due -> decision
  std::uint32_t decisions;  ///< trials or windows it decided
};

/// What one measured phase saw.
struct LoadStats {
  std::vector<Served> served;
  std::vector<double> lag_ms;      ///< due -> send (generator lateness)
  std::uint64_t attempted = 0;     ///< requests (batch) or windows due (stream)
  std::uint64_t failed = 0;        ///< errors, refusals, byte mismatches, unanswered
  std::uint64_t decisions = 0;     ///< trials or windows served byte-exact
  std::uint64_t deadline_misses = 0;  ///< stream windows late by > kDeadlineMs, or failed
  std::uint64_t scored = 0;        ///< decisions with a ground-truth label
  std::uint64_t correct = 0;       ///< of those, served label right
  std::uint64_t offline_correct = 0;  ///< of those, offline label right
  double elapsed_s = 0.0;
  std::vector<std::string> errors;  ///< first few failure messages
};

/// In-process replay of the served requests for the traced run: each
/// request's bytes go through the same public calls the daemon makes, each
/// call timed as a child span of the request's round trip, plus probes of
/// the kernels underneath.
struct TraceSink {
  const serve::ModelRegistry* registry = nullptr;
  std::vector<SpanLog> logs;     ///< one per client thread
  std::uint64_t alloc_bytes = 0;  ///< heap bytes allocated inside decode
  std::uint64_t wire_bytes = 0;   ///< request bytes decoded
  std::uint64_t replay_mismatches = 0;
};

/// Throughput and latency quantiles of a phase, taken per one-second slice
/// and reported as the median over slices, so a host stall inside one slice
/// does not move the run's figures.
struct Summary {
  double trials_per_s = 0.0;
  double request_p50_ms = 0.0;
  double request_p99_ms = 0.0;
  double window_p50_ms = 0.0;
  double window_p99_ms = 0.0;
  std::size_t slices = 0;
};
Summary summarize(const LoadStats& stats);

/// Adds `part`'s samples and counts to `into`.
void merge(LoadStats& into, const LoadStats& part);

/// Drives the daemon on `socket` for `seconds` with the fixture's workload.
/// With `trace`, every request is also replayed in-process with spans.
LoadStats run_load(const Fixture& fixture, const std::string& socket, double seconds,
                   TraceSink* trace);

/// Bytes each probed kernel moves per call at the workload's shape, computed
/// from the shape (not measured): rows read plus row written
/// (threshold_words), row read plus counter planes read and written
/// (accumulate_counters), query and prototypes read plus distances written
/// (hamming_rows).
struct KernelBytes {
  double threshold_words;
  double accumulate_counters;
  double hamming_rows;
};
KernelBytes kernel_bytes(const Fixture& fixture);

/// Rotations one request makes through Hypervector::rotate_into, computed
/// from the sliding N-gram recurrence (N - 1 for a trial's first window,
/// then two per sample; none for N = 1).
std::uint64_t rotations_per_request(const Fixture& fixture);

}  // namespace perfbench
