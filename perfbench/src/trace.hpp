// Bench-side tracing: spans recorded around the benchmark's own calls into
// each layer's public functions, kept in memory per client thread and
// written out when the run ends; a per-thread heap-allocation counter; and
// the order statistics every metric is reported with.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

/// One timed call. `units` is the work the call did (samples, trials,
/// queries, calls), so a per-unit self time is self / units. Spans of one
/// request share `request`; `parent` is 0 for a root.
struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  double units = 1.0;
};

/// Append-only span buffer owned by one client thread. Ids are unique
/// across threads: the thread index sits in the top 16 bits.
class SpanLog {
 public:
  explicit SpanLog(std::uint32_t thread_index)
      : prefix_(static_cast<std::uint64_t>(thread_index + 1) << 48) {}

  std::uint64_t new_id() noexcept { return prefix_ | ++next_; }

  /// Records a finished span under a fresh id.
  void add(const char* name, std::uint64_t parent, std::uint64_t request, std::int64_t start_ns,
           std::int64_t end_ns, double units = 1.0) {
    add_with_id(new_id(), name, parent, request, start_ns, end_ns, units);
  }

  /// Records a finished span under an id taken earlier from new_id() (a
  /// parent whose children were recorded before it ended).
  void add_with_id(std::uint64_t id, const char* name, std::uint64_t parent,
                   std::uint64_t request, std::int64_t start_ns, std::int64_t end_ns,
                   double units = 1.0) {
    spans_.push_back({name, id, parent, request, start_ns, end_ns, units});
  }

  /// Times `fn()` as a span and returns its result.
  template <typename Fn>
  auto timed(const char* name, std::uint64_t parent, std::uint64_t request, double units,
             Fn&& fn) {
    const std::int64_t t0 = now_ns();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      add(name, parent, request, t0, now_ns(), units);
    } else {
      auto result = fn();
      add(name, parent, request, t0, now_ns(), units);
      return result;
    }
  }

  const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  std::uint64_t prefix_;
  std::uint64_t next_ = 0;
  std::vector<Span> spans_;
};

/// Per-name self time per unit, in nanoseconds: a span's duration minus the
/// durations of its children, divided by its units.
std::map<std::string, std::vector<double>> self_ns_per_unit(const std::vector<Span>& spans);

/// Writes every span as one JSON object per line.
void write_spans(const std::vector<Span>& spans, const std::string& path);

/// Counts the bytes `operator new` hands to the calling thread while alive
/// (the benchmark binary replaces the global allocation functions).
class AllocScope {
 public:
  AllocScope();
  ~AllocScope();
  AllocScope(const AllocScope&) = delete;
  AllocScope& operator=(const AllocScope&) = delete;

  std::uint64_t bytes() const noexcept;

 private:
  std::uint64_t start_;
};

/// The q-quantile of a sample, interpolated linearly between order
/// statistics; 0 when empty.
double quantile(std::vector<double> values, double q);

}  // namespace perfbench
