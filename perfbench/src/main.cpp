// perfbench_client — drives the real `pulphd_cli serve` daemon with one of
// the workloads in load.cpp and prints the result as JSON on its last line.
//
//   perfbench_client --workload NAME --seed N --seconds S --trace 0|1
//                    --cli PATH [--out DIR] [--commit SHA] [--source SHA]
//                    [--corrupt-expected]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// spends the first half of the run untraced and the second half replaying
// every served request in-process with spans, and reports the per-layer
// metrics plus the tracing overhead (traced minus untraced). The exit code
// is 0 only when every response matched the offline result byte-for-byte.
// perfbench/run.py builds this binary and the daemon and is the normal way
// to run it.
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/cpu_features.hpp"
#include "daemon.hpp"
#include "kernels/backend.hpp"
#include "load.hpp"
#include "serve/registry.hpp"
#include "trace.hpp"

namespace {

using namespace perfbench;

/// Daemon start-ups per run; setup_s is their median.
constexpr int kSetupSpawns = 15;
/// Registry loads timed per traced run; serve.registry.load_ms is their median.
constexpr int kRegistryLoads = 5;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string cli;
  std::string out = ".bench_build/perfbench-out";
  std::string commit = "unknown";
  std::string source = "unknown";
  bool corrupt = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench_client: %s\nusage: perfbench_client --workload NAME --seed N "
               "--seconds S --trace 0|1 --cli PATH [--out DIR] [--commit SHA] [--source SHA] "
               "[--corrupt-expected]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-expected") {
      a.corrupt = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") a.workload = value;
      else if (flag == "--seed") a.seed = std::stoull(value);
      else if (flag == "--seconds") a.seconds = std::stod(value);
      else if (flag == "--trace") a.trace = std::stoi(value);
      else if (flag == "--cli") a.cli = value;
      else if (flag == "--out") a.out = value;
      else if (flag == "--commit") a.commit = value;
      else if (flag == "--source") a.source = value;
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (find_workload(a.workload) == nullptr) usage("unknown workload '" + a.workload + "'");
  if (a.cli.empty()) usage("--cli is required");
  if (a.trace != 0 && a.trace != 1) usage("--trace takes 0 or 1");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

/// A reported number: name, value, unit, the sample count behind it, and
/// where it came from.
struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::size_t samples;
  std::string source;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string stamp_json(const Args& args, const Fixture& fx) {
  const char* forced = std::getenv("PULPHD_BACKEND");
  std::ostringstream o;
  o << "{\"nproc\": " << std::thread::hardware_concurrency() << ", \"cpu_features\": \""
    << json_escape(pulphd::cpu_feature_summary()) << "\", \"backend\": \""
    << pulphd::kernels::active_backend().name << "\", \"PULPHD_BACKEND\": \""
    << json_escape(forced != nullptr ? forced : "") << "\", \"compiler\": \""
    << json_escape(PERFBENCH_COMPILER) << "\", \"flags\": \"" << json_escape(PERFBENCH_FLAGS)
    << "\", \"build_type\": \"" << json_escape(PERFBENCH_BUILD_TYPE) << "\", \"commit\": \""
    << json_escape(args.commit) << "\", \"source_sha256\": \"" << json_escape(args.source)
    << "\", \"dataset_seed\": " << args.seed << ", \"dim\": " << kDim
    << ", \"daemon\": \"pulphd_cli serve --workers 2 --threads 1\"";
  if (fx.workload->stream) {
    o << ", \"stream_offered_pushes_per_s\": "
      << json_number(kStreamPushesPerSecond * static_cast<double>(fx.subjects.size()))
      << ", \"stream_window\": " << kStreamWindow << ", \"stream_hop\": " << kStreamHop;
  }
  o << "}";
  return o.str();
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

std::string slice_note(const Summary& sum) {
  return ", median of " + std::to_string(sum.slices) + " 1-s slices";
}

/// The gated end-to-end metrics of one measured phase (BENCHMARK.json).
std::vector<Metric> end_to_end(const LoadStats& s, double setup_s, std::size_t setups,
                               double rss_mib) {
  const Summary sum = summarize(s);
  const double accuracy =
      s.scored > 0 ? static_cast<double>(s.correct) / static_cast<double>(s.scored) : 0.0;
  const std::size_t n = s.served.size();
  return {
      {"setup_s", setup_s, "s", setups, "daemon spawn -> every model loaded -> first pong"},
      {"trials_per_s", sum.trials_per_s, "1/s", s.decisions,
       "decisions served byte-exact per second" + slice_note(sum)},
      {"request_p50_ms", sum.request_p50_ms, "ms", n, "send -> response" + slice_note(sum)},
      {"accuracy", accuracy, "share", s.scored, "served labels vs generator ground truth"},
      {"peak_rss_mib", rss_mib, "MiB", 1, "daemon VmHWM at the end of the run"},
  };
}

/// End-to-end figures that are reported but not gated on: the due-time
/// latencies (equal to the request latency in a closed loop; the stream
/// workload's are not steady enough to gate), the p99s, whose run-to-run
/// spread on a shared host exceeds any usable bound, and the failure shares,
/// which are 0 on a healthy run.
std::vector<Metric> reported(const LoadStats& s) {
  const Summary sum = summarize(s);
  const std::size_t n = s.served.size();
  const double attempted = static_cast<double>(s.attempted > 0 ? s.attempted : 1);
  return {
      {"request_p99_ms", sum.request_p99_ms, "ms", n, "send -> response" + slice_note(sum)},
      {"window_p50_ms", sum.window_p50_ms, "ms", n, "due -> decision" + slice_note(sum)},
      {"window_p99_ms", sum.window_p99_ms, "ms", n, "due -> decision" + slice_note(sum)},
      {"error_share", static_cast<double>(s.failed) / attempted, "share", s.attempted,
       "failed, refused or byte-mismatched / attempted"},
      {"deadline_miss_share", static_cast<double>(s.deadline_misses) / attempted, "share",
       s.attempted, "stream windows > 10 ms after due, or failed / windows due"},
  };
}

std::vector<Metric> per_layer(const Fixture& fx, const LoadStats& untraced,
                              const LoadStats& traced, const TraceSink& sink,
                              const std::vector<Span>& spans,
                              const std::vector<double>& load_ms) {
  const std::map<std::string, std::vector<double>> self = self_ns_per_unit(spans);
  const auto self_metric = [&](const std::string& metric, const std::string& span,
                               double divisor, const std::string& unit,
                               const std::string& source) {
    const auto it = self.find(span);
    const std::vector<double> none;
    const std::vector<double>& v = it == self.end() ? none : it->second;
    return Metric{metric, median(v) / divisor, unit, v.size(), source};
  };
  std::vector<double> round_trip_us;
  std::size_t decodes = 0;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, "serve.server.round_trip") == 0) {
      round_trip_us.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
    if (std::strcmp(s.name, "serve.protocol.decode") == 0) ++decodes;
  }

  const KernelBytes bytes = kernel_bytes(fx);
  const bool stream = fx.workload->stream;
  const Summary a = summarize(untraced);
  const Summary b = summarize(traced);
  const double a_p50 = stream ? a.window_p50_ms : a.request_p50_ms;
  const double b_p50 = stream ? b.window_p50_ms : b.request_p50_ms;

  return {
      self_metric("serve.protocol.decode_us", "serve.protocol.decode", 1e3, "us",
                  "ConnectionSession::consume per request"),
      {"serve.protocol.decode_alloc_ratio",
       sink.wire_bytes > 0 ? static_cast<double>(sink.alloc_bytes) / sink.wire_bytes : 0.0,
       "ratio", decodes, "heap bytes allocated in consume / wire bytes"},
      {"serve.protocol.wire_bytes",
       decodes > 0 ? static_cast<double>(sink.wire_bytes) / decodes : 0.0, "bytes", decodes,
       "mean request size"},
      self_metric("serve.protocol.encode_us", "serve.protocol.encode", 1e3, "us",
                  stream ? "ResponseEncoder::stream_windows per request"
                         : "ResponseEncoder::classify per request"),
      {"serve.registry.load_ms", median(load_ms), "ms", load_ms.size(),
       "ModelRegistry::load_file over the workload's models"},
      self_metric("hd.spatial.sample_ns", "hd.spatial.encode_batch", 1.0, "ns",
                  "SpatialEncoder::encode_batch per sample (probe)"),
      self_metric("hd.ops.rotate_ns", "hd.ops.rotate_into", 1.0, "ns",
                  "Hypervector::rotate_into(k=1) per call (probe)"),
      {"hd.ops.rotations_per_request", static_cast<double>(rotations_per_request(fx)), "count",
       1, "computed from the N-gram recurrence"},
      self_metric("hd.encoder.trial_us", "hd.encoder.trial", 1e3, "us",
                  stream ? "HdClassifier::encode_trials per window (probe)"
                         : "HdClassifier::encode_trials per trial"),
      self_metric("hd.encoder.push_us", "hd.encoder.push", 1e3, "us",
                  stream ? "StreamingEncoder::push per hop"
                         : "StreamingEncoder::push per hop (probe)"),
      self_metric("hd.am.query_us", "hd.am.query", 1e3, "us",
                  "HdClassifier::predict_encoded_batch per query"),
      self_metric("kernels.threshold_words_ns", "kernels.threshold_words", 1.0, "ns",
                  "Backend::threshold_words per call (probe)"),
      {"kernels.threshold_words.bytes", bytes.threshold_words, "bytes", 1,
       "computed: rows read + row written"},
      self_metric("kernels.accumulate_counters_ns", "kernels.accumulate_counters", 1.0, "ns",
                  "Backend::accumulate_counters per call (probe)"),
      {"kernels.accumulate_counters.bytes", bytes.accumulate_counters, "bytes", 1,
       "computed: row read + planes read and written"},
      self_metric("kernels.hamming_rows_ns", "kernels.hamming_rows", 1.0, "ns",
                  "Backend::hamming_rows per call (probe)"),
      {"kernels.hamming_rows.bytes", bytes.hamming_rows, "bytes", 1,
       "computed: query + prototypes read, distances written"},
      {"serve.server.round_trip_us", median(round_trip_us), "us", round_trip_us.size(),
       "client span per request"},
      self_metric("serve.server.residual_us", "serve.server.round_trip", 1e3, "us",
                  "round trip minus the in-process stages of the same request"),
      {"client.send_lag_p99_ms", quantile(untraced.lag_ms, 0.99), "ms", untraced.lag_ms.size(),
       "due -> send, untraced half"},
      {"trace.overhead_p50_ms", b_p50 - a_p50, "ms", traced.served.size(),
       stream ? "window p50 traced - untraced" : "request p50 traced - untraced"},
      {"trace.overhead_throughput_share",
       a.trials_per_s > 0 ? 1.0 - b.trials_per_s / a.trials_per_s : 0.0, "share",
       traced.decisions, "1 - traced / untraced trials_per_s"},
  };
}

void print_table(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-36s %14.6g %-6s n=%-8zu %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.samples, m.source.c_str());
  }
}

std::string metrics_json(const std::vector<Metric>& metrics, bool with_samples) {
  std::ostringstream o;
  o << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    o << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << json_number(m.value)
      << ", \"unit\": \"" << m.unit << "\"";
    if (with_samples) o << ", \"samples\": " << m.samples;
    o << "}";
  }
  o << "}";
  return o.str();
}

int run(const Args& args) {
  const Workload& workload = *find_workload(args.workload);
  const std::string dir = args.out + "/run-" + std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  struct Cleanup {
    std::string dir;
    ~Cleanup() {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  } cleanup{dir};

  const Fixture fx = make_fixture(workload, args.seed, dir, args.corrupt);
  DaemonSpec spec;
  spec.cli = args.cli;
  spec.socket = dir + "/d.sock";
  spec.log = dir + "/daemon.log";
  spec.models = fx.model_files;

  // Set-up: spawn the daemon several times, keep the last one serving.
  std::vector<double> setup_times;
  std::optional<Daemon> daemon;
  for (int k = 0; k < kSetupSpawns; ++k) {
    daemon.emplace(spec);  // stops the previous one first
    setup_times.push_back(daemon->ready_seconds());
  }
  const double setup_s = median(setup_times);
  if (workload.stream) {
    std::this_thread::sleep_for(std::chrono::duration<double>(kStreamCooldownSeconds));
  }

  std::vector<Metric> metrics;
  std::vector<Metric> report;
  LoadStats gated;
  std::uint64_t replay_mismatches = 0;
  std::vector<Span> all_spans;
  if (args.trace == 0) {
    gated = run_load(fx, spec.socket, args.seconds, nullptr);
    metrics = end_to_end(gated, setup_s, setup_times.size(), daemon->peak_rss_mib());
    report = reported(gated);
    print_table("end-to-end", metrics);
    print_table("end-to-end, reported only", report);
  } else {
    std::vector<double> load_ms;
    std::optional<serve::ModelRegistry> registry;
    for (int k = 0; k < kRegistryLoads; ++k) {
      registry.emplace();
      const std::int64_t t0 = now_ns();
      for (const auto& [name, path] : fx.model_files) registry->load_file(name, path, 1);
      load_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    }
    const LoadStats untraced = run_load(fx, spec.socket, args.seconds / 2, nullptr);
    TraceSink sink;
    sink.registry = &*registry;
    for (std::size_t t = 0; t < workload.connections; ++t) {
      sink.logs.emplace_back(static_cast<std::uint32_t>(t));
    }
    const LoadStats traced = run_load(fx, spec.socket, args.seconds / 2, &sink);
    merge(gated, untraced);
    merge(gated, traced);
    replay_mismatches = sink.replay_mismatches;
    for (const SpanLog& log : sink.logs) {
      all_spans.insert(all_spans.end(), log.spans().begin(), log.spans().end());
    }
    metrics = per_layer(fx, untraced, traced, sink, all_spans, load_ms);
    const double rss = daemon->peak_rss_mib();
    report = reported(untraced);
    const std::size_t setups = setup_times.size();
    print_table("end-to-end, untraced half", end_to_end(untraced, setup_s, setups, rss));
    print_table("end-to-end, untraced half, reported only", report);
    print_table("end-to-end, traced half", end_to_end(traced, setup_s, setups, rss));
    print_table("end-to-end, traced half, reported only", reported(traced));
    print_table("per-layer (traced half)", metrics);
    std::printf("span self times (median per unit, ns)\n");
    for (const auto& [name, values] : self_ns_per_unit(all_spans)) {
      std::printf("  %-36s %14.1f n=%zu\n", name.c_str(), median(values), values.size());
    }
  }
  const bool daemon_clean = daemon->stop();

  const bool correct = gated.failed == 0 && gated.correct == gated.offline_correct &&
                       gated.decisions > 0 && replay_mismatches == 0 && daemon_clean;
  std::printf("offline per-subject accuracy %.6f; served %llu/%llu correct vs offline %llu\n",
              fx.offline_mean_accuracy, static_cast<unsigned long long>(gated.correct),
              static_cast<unsigned long long>(gated.scored),
              static_cast<unsigned long long>(gated.offline_correct));
  if (!daemon_clean) std::printf("gate: the daemon did not exit cleanly\n");
  if (replay_mismatches) std::printf("gate: %llu in-process replays differ from offline\n",
                                     static_cast<unsigned long long>(replay_mismatches));
  for (const std::string& e : gated.errors) std::printf("error: %s\n", e.c_str());

  const std::string stamp = stamp_json(args, fx);
  const std::string base = args.out + "/" + workload.name + "-trace" + std::to_string(args.trace);
  {
    std::ofstream out(base + ".report.json");
    out << "{\"workload\": \"" << workload.name << "\", \"stamp\": " << stamp
        << ", \"correct\": " << (correct ? "true" : "false")
        << ", \"metrics\": " << metrics_json(metrics, true)
        << ", \"reported\": " << metrics_json(report, true)
        << ", \"setup_runs_s\": [";
    for (std::size_t i = 0; i < setup_times.size(); ++i) {
      out << (i ? ", " : "") << json_number(setup_times[i]);
    }
    out << "]}\n";
  }
  if (args.trace == 1) write_spans(all_spans, base + ".spans.jsonl");
  std::printf("stamp %s\n", stamp.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(gated.attempted),
              static_cast<unsigned long long>(gated.failed), metrics_json(metrics, false).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_client: %s\n", e.what());
    return 1;
  }
}
