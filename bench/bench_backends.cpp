// Kernel-backend benchmark: the one writer of BENCH_hd_ops.json.
//
// Drives every compiled+supported kernel backend through the library's hot
// kernels (the AM's hamming_rows search, bulk XOR, bulk majority, the
// trial-shape counter accumulate, batch spatial encode, end-to-end
// encode_trials) with warmup iterations and median-of-N timing, and emits
// the rows as BENCH_hd_ops.json so the repo's perf trajectory is recorded in
// a diffable form:
//
//   {"kernel": "hamming_rows", "backend": "avx2", "threads": 1,
//    "dim": 10048, "batch": 1024, "ns_per_query": 812.4, "p25_ns": 801.2,
//    "p75_ns": 830.9, "gb_per_s": 30.9, "reps": 9, "warmup": 3}
//
// ns_per_query is the median over `reps` timed repetitions (each a
// calibrated block of inner iterations) divided by the items per call, and
// p25_ns / p75_ns the quartiles of the same repetitions, so a row that
// moved can be told from one that spread; gb_per_s is the kernel's
// streamed bytes per item at the median. Needs no google-benchmark, so it
// is always built.
//
// Usage: bench_backends [--quick] [--out=PATH]
//   --quick     CI smoke mode: fewer reps, shorter timed blocks
//   --out=PATH  output path (default BENCH_hd_ops.json in the cwd)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/cpu_features.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "hd/classifier.hpp"
#include "hd/encoder.hpp"
#include "hd/item_memory.hpp"
#include "kernels/backend.hpp"

namespace pulphd {
namespace {

struct BenchRow {
  std::string kernel;
  std::string backend;
  std::size_t threads = 1;
  std::size_t dim = 0;
  std::size_t batch = 1;
  double ns_per_query = 0.0;
  double p25_ns = 0.0;
  double p75_ns = 0.0;
  double gb_per_s = 0.0;
  std::size_t reps = 0;
  std::size_t warmup = 0;
};

struct SuiteOptions {
  bool quick = false;  ///< CI smoke mode: fewer reps, shorter blocks, fewer configs
};

namespace detail {

/// Quartiles of the timed repetitions, in ns per item.
struct Spread {
  double p25 = 0.0;
  double p50 = 0.0;
  double p75 = 0.0;
};

/// Linear-interpolated quantile q of sorted samples.
double quantile(const std::vector<double>& sorted, double q) {
  const double at = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(at);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (at - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

/// Times fn with `warmup` discarded repetitions followed by `reps` timed
/// ones and returns the quartiles of ns per item. Each repetition runs a
/// block of inner iterations calibrated once to ~target_ms so short kernels
/// are not measured at clock resolution.
template <typename F>
Spread ns_per_item(F&& fn, std::size_t items_per_call, std::size_t warmup, std::size_t reps,
                   double target_ms) {
  using Clock = std::chrono::steady_clock;
  const auto once_begin = Clock::now();
  fn();
  const auto once_end = Clock::now();
  const double once_ns = std::max(
      1.0, std::chrono::duration<double, std::nano>(once_end - once_begin).count());
  const auto inner = static_cast<std::size_t>(
      std::max(1.0, (target_ms * 1e6) / once_ns));
  for (std::size_t i = 0; i < warmup; ++i) {
    for (std::size_t k = 0; k < inner; ++k) fn();
  }
  std::vector<double> samples;
  samples.reserve(reps);
  for (std::size_t r = 0; r < reps; ++r) {
    const auto begin = Clock::now();
    for (std::size_t k = 0; k < inner; ++k) fn();
    const auto end = Clock::now();
    samples.push_back(std::chrono::duration<double, std::nano>(end - begin).count() /
                      static_cast<double>(inner * items_per_call));
  }
  std::sort(samples.begin(), samples.end());
  return {quantile(samples, 0.25), quantile(samples, 0.5), quantile(samples, 0.75)};
}

std::vector<Word> random_words(std::size_t count, Xoshiro256StarStar& rng) {
  std::vector<Word> words(count);
  for (auto& w : words) w = static_cast<Word>(rng.next() & 0xffffffffu);
  return words;
}

}  // namespace detail

std::vector<BenchRow> run_backend_suite(const SuiteOptions& opt) {
  const std::size_t warmup = opt.quick ? 1 : 3;
  const std::size_t reps = opt.quick ? 3 : 9;
  const double target_ms = opt.quick ? 2.0 : 10.0;
  const std::vector<std::size_t> dims =
      opt.quick ? std::vector<std::size_t>{10048} : std::vector<std::size_t>{10016, 10048};
  const std::vector<std::size_t> thread_counts =
      opt.quick ? std::vector<std::size_t>{1, 2} : std::vector<std::size_t>{1, 2, 4};
  const std::size_t query_batch = opt.quick ? 256 : 1024;
  const std::size_t classes = 5;
  const std::size_t majority_rows = 9;
  const std::size_t trial_rows = 55;  // one 55-sample trial's 1-grams
  const unsigned trial_planes = 6;    // counter_planes_for(55)
  const std::size_t encode_batch = opt.quick ? 64 : 256;
  const std::size_t trials_batch = opt.quick ? 16 : 64;
  const std::size_t samples_per_trial = 20;

  std::vector<const kernels::Backend*> backends;
  for (const kernels::Backend* b : kernels::compiled_backends()) {
    if (b->supported()) backends.push_back(b);
  }

  std::vector<BenchRow> rows;
  Xoshiro256StarStar rng(0xbe7c4);
  const double word_bytes = static_cast<double>(sizeof(Word));

  auto push_row = [&](const char* kernel, const kernels::Backend* backend,
                      std::size_t threads, std::size_t dim, std::size_t batch,
                      const detail::Spread& ns, double bytes_per_query) {
    BenchRow row;
    row.kernel = kernel;
    row.backend = backend->name;
    row.threads = threads;
    row.dim = dim;
    row.batch = batch;
    row.ns_per_query = ns.p50;
    row.p25_ns = ns.p25;
    row.p75_ns = ns.p75;
    row.gb_per_s = bytes_per_query / ns.p50;  // bytes/ns == GB/s
    row.reps = reps;
    row.warmup = warmup;
    rows.push_back(row);
  };

  for (const std::size_t dim : dims) {
    const std::size_t words = words_for_dim(dim);

    // Shared random operands per dim so every backend times identical data.
    const std::vector<Word> queries = detail::random_words(query_batch * words, rng);
    const std::vector<Word> prototypes = detail::random_words(classes * words, rng);
    const std::vector<Word> row_a = detail::random_words(words, rng);
    const std::vector<Word> row_b = detail::random_words(words, rng);
    std::vector<std::vector<Word>> majority_storage;
    std::vector<const Word*> majority_ptrs;
    for (std::size_t r = 0; r < majority_rows; ++r) {
      majority_storage.push_back(detail::random_words(words, rng));
      majority_ptrs.push_back(majority_storage.back().data());
    }
    std::vector<std::vector<Word>> trial_storage;
    std::vector<const Word*> trial_ptrs;
    for (std::size_t r = 0; r < trial_rows; ++r) {
      trial_storage.push_back(detail::random_words(words, rng));
      trial_ptrs.push_back(trial_storage.back().data());
    }

    for (const kernels::Backend* backend : backends) {
      const kernels::ScopedBackend forced(backend);

      // hamming_rows: the AM search kernel, one query against the packed
      // prototype matrix per call, serial as classify_batch runs it.
      {
        std::vector<std::uint32_t> out(classes);
        const detail::Spread ns = detail::ns_per_item(
            [&] {
              for (std::size_t q = 0; q < query_batch; ++q) {
                backend->hamming_rows(queries.data() + q * words, prototypes.data(), classes,
                                      words, out.data());
              }
            },
            query_batch, warmup, reps, target_ms);
        push_row("hamming_rows", backend, 1, dim, query_batch, ns,
                 2.0 * static_cast<double>(classes * words) * word_bytes);
      }

      // hamming_words: one packed-row distance. The volatile store keeps
      // the call from being optimized out.
      {
        volatile std::uint64_t sink = 0;
        const detail::Spread ns = detail::ns_per_item(
            [&] { sink = backend->hamming_words(row_a.data(), row_b.data(), words); }, 1,
            warmup, reps, target_ms);
        (void)sink;
        push_row("hamming_words", backend, 1, dim, 1, ns,
                 2.0 * static_cast<double>(words) * word_bytes);
      }

      // xor_words: bulk binding.
      {
        std::vector<Word> out(words);
        const detail::Spread ns = detail::ns_per_item(
            [&] { backend->xor_words(row_a.data(), row_b.data(), out.data(), words); }, 1,
            warmup, reps, target_ms);
        push_row("xor_words", backend, 1, dim, 1, ns,
                 3.0 * static_cast<double>(words) * word_bytes);
      }

      // majority_words: bit-sliced bundling over 9 rows.
      {
        std::vector<Word> out(words);
        const detail::Spread ns = detail::ns_per_item(
            [&] {
              backend->threshold_words(majority_ptrs.data(), majority_rows,
                                       majority_rows / 2, out.data(), words);
            },
            1, warmup, reps, target_ms);
        push_row("majority_words", backend, 1, dim, majority_rows, ns,
                 static_cast<double>(majority_rows + 1) * static_cast<double>(words) *
                     word_bytes);
      }

      // accumulate_counters: one trial's bundling at the paper's shape — 55
      // N-gram rows into 6 counter planes in one multi-row call, as
      // StreamingEncoder hands a whole-trial window its chunk. With 6
      // planes the planes stay in registers, so the cost does not depend
      // on the counts and the planes need no reset between calls.
      {
        std::vector<Word> planes(trial_planes * words);
        const detail::Spread ns = detail::ns_per_item(
            [&] {
              backend->accumulate_rows(trial_ptrs.data(), trial_rows, planes.data(),
                                       trial_planes, words);
            },
            1, warmup, reps, target_ms);
        push_row("accumulate_counters", backend, 1, dim, trial_rows, ns,
                 static_cast<double>(trial_rows + 2 * trial_planes) *
                     static_cast<double>(words) * word_bytes);
      }

      // spatial_encode_batch: the 4-channel batch spatial encode.
      {
        const std::size_t channels = 4;
        const hd::ItemMemory im(channels, dim, 5);
        const hd::ContinuousItemMemory cim(22, dim, 0.0, 21.0, 6);
        const hd::SpatialEncoder enc(im, cim, channels);
        std::vector<std::vector<float>> samples(encode_batch,
                                                std::vector<float>(channels));
        for (auto& sample : samples) {
          for (auto& v : sample) {
            v = static_cast<float>(rng.next() % 2100u) / 100.0f;
          }
        }
        std::vector<hd::Hypervector> out(encode_batch, hd::Hypervector(dim));
        const detail::Spread ns = detail::ns_per_item(
            [&] { enc.encode_batch(samples, out); }, encode_batch, warmup, reps,
            target_ms);
        // Closed-form bind + majority: reads one IM and one CIM row per
        // channel and writes the output row; no bound row is materialized.
        push_row("spatial_encode_batch", backend, 1, dim, encode_batch, ns,
                 (2.0 * static_cast<double>(channels) + 1.0) * static_cast<double>(words) *
                     word_bytes);
      }
    }

    // encode_trials: end-to-end trial encoding (spatial + temporal +
    // bundling) across every supported backend and the thread knob — the
    // rows the thread scaling (or its absence; see the "cores" field) is
    // read from.
    {
      hd::ClassifierConfig cfg;
      cfg.dim = dim;
      hd::HdClassifier clf(cfg);
      std::vector<hd::Trial> trials(trials_batch);
      for (auto& trial : trials) {
        for (std::size_t s = 0; s < samples_per_trial; ++s) {
          hd::Sample sample(cfg.channels);
          for (auto& v : sample) {
            v = static_cast<float>(rng.next() % 2100u) / 100.0f;
          }
          trial.push_back(std::move(sample));
        }
      }
      const std::size_t words_per_sample = (cfg.channels + 1) * words;
      for (const kernels::Backend* backend : backends) {
        const kernels::ScopedBackend forced(backend);
        for (const std::size_t threads : thread_counts) {
          clf.set_threads(threads);
          const detail::Spread ns = detail::ns_per_item(
              [&] { clf.encode_trials(trials); }, trials_batch, warmup, reps, target_ms);
          push_row("encode_trials", backend, threads, dim, trials_batch, ns,
                   static_cast<double>(samples_per_trial) * 5.0 *
                       static_cast<double>(words_per_sample) * word_bytes);
        }
      }
    }
  }
  return rows;
}

void write_bench_json(const std::vector<BenchRow>& rows, const std::string& path,
                             const SuiteOptions& opt) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("write_bench_json: cannot open " + path);
  out << "{\n  \"schema\": \"pulphd-bench-v1\",\n  \"bench\": \"bench_hd_ops\",\n";
  out << "  \"cpu_features\": \"" << cpu_feature_summary() << "\",\n";
  // Thread-scaling rows are only meaningful relative to the runner: with
  // `cores` == 1 the shared pool has zero workers and every threads > 1 row
  // legitimately matches the threads == 1 row (the PR 4 diagnosis of the
  // flat 1/2/4 rows — the runner, not the sharding, was the limit).
  out << "  \"cores\": " << ThreadPool::hardware_threads() << ",\n";
  out << "  \"pool_workers\": " << ThreadPool::shared().workers() << ",\n";
  out << "  \"quick\": " << (opt.quick ? "true" : "false") << ",\n  \"rows\": [\n";
  char buf[64];
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const BenchRow& r = rows[i];
    out << "    {\"kernel\": \"" << r.kernel << "\", \"backend\": \"" << r.backend
        << "\", \"threads\": " << r.threads << ", \"dim\": " << r.dim
        << ", \"batch\": " << r.batch;
    std::snprintf(buf, sizeof(buf), "%.2f", r.ns_per_query);
    out << ", \"ns_per_query\": " << buf;
    std::snprintf(buf, sizeof(buf), "%.2f", r.p25_ns);
    out << ", \"p25_ns\": " << buf;
    std::snprintf(buf, sizeof(buf), "%.2f", r.p75_ns);
    out << ", \"p75_ns\": " << buf;
    std::snprintf(buf, sizeof(buf), "%.3f", r.gb_per_s);
    out << ", \"gb_per_s\": " << buf;
    out << ", \"reps\": " << r.reps << ", \"warmup\": " << r.warmup << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  if (!out.flush()) throw std::runtime_error("write_bench_json: write failed: " + path);
}

void print_rows(const std::vector<BenchRow>& rows) {
  std::printf("%-26s %-9s %7s %7s %7s %14s %12s %12s %10s\n", "kernel", "backend", "threads",
              "dim", "batch", "ns/query", "p25", "p75", "GB/s");
  for (const BenchRow& r : rows) {
    std::printf("%-26s %-9s %7zu %7zu %7zu %14.2f %12.2f %12.2f %10.3f\n", r.kernel.c_str(),
                r.backend.c_str(), r.threads, r.dim, r.batch, r.ns_per_query, r.p25_ns,
                r.p75_ns, r.gb_per_s);
  }
}

}  // namespace
}  // namespace pulphd

int main(int argc, char** argv) {
  using namespace pulphd;
  SuiteOptions opt;
  std::string out_path = "BENCH_hd_ops.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      opt.quick = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--out=PATH]\n", argv[0]);
      return 2;
    }
  }
  std::printf("cpu features: %s; active backend: %s; cores: %zu; pool workers: %zu\n",
              cpu_feature_summary().c_str(), kernels::active_backend().name,
              ThreadPool::hardware_threads(), ThreadPool::shared().workers());
  const std::vector<BenchRow> rows = run_backend_suite(opt);
  print_rows(rows);
  write_bench_json(rows, out_path, opt);
  std::printf("wrote %s (%zu rows)\n", out_path.c_str(), rows.size());
  return 0;
}
