// Client-side retry with capped exponential backoff — the other half of
// the server's graceful degradation story.
//
// The serving daemon sheds load instead of falling over: over-cap
// connections are refused with one `err code=overloaded` line, transient
// accept failures pause the listeners briefly, and a restarting daemon is
// simply absent for a moment (ECONNREFUSED / ENOENT on the socket path).
// All of those are *retryable by design*, and this module gives every
// client in the repo (pulphd_cli stream, the serve chaos test) the same
// policy: exponential backoff with a hard cap, bounded attempts, and
// deterministic decorrelating jitter so a thundering herd of clients does
// not re-dogpile the daemon in lockstep.
//
// Determinism: jitter comes from a seeded xorshift64* stream, never from
// wall-clock entropy — the same seed replays the same delay schedule,
// which is what lets retry_test assert the exact sequence.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace pulphd::serve {

/// Retry schedule knobs. Defaults suit a local daemon restart: first retry
/// is nearly immediate, later ones back off to `cap`, and the whole dance
/// gives up after `max_attempts` tries (initial attempt included).
struct BackoffPolicy {
  std::chrono::milliseconds initial{20};
  std::chrono::milliseconds cap{1000};
  double multiplier = 2.0;
  /// Total tries, counting the first one; 1 means "no retries at all".
  std::size_t max_attempts = 5;
  /// Jitter stream seed; 0 disables jitter (delays are the exact
  /// exponential schedule — handy for tests and reproducible benches).
  std::uint64_t jitter_seed = 0;
};

/// One retry episode: hands out successive delays until the policy's
/// attempt budget is spent. Not thread-safe; make one per episode.
class Backoff {
 public:
  explicit Backoff(BackoffPolicy policy) noexcept;

  /// The delay to sleep before the *next* attempt, or nullopt when the
  /// attempt budget is exhausted and the caller should give up. With
  /// jitter enabled the delay is drawn uniformly from
  /// [base/2, base] ("equal jitter": never collapses to zero, still
  /// decorrelates clients).
  std::optional<std::chrono::milliseconds> next_delay() noexcept;

  /// Delays handed out so far (== retries performed by the caller).
  std::size_t retries() const noexcept { return retries_; }

 private:
  BackoffPolicy policy_;
  std::chrono::milliseconds current_;
  std::size_t retries_ = 0;
  std::uint64_t rng_state_;
};

/// Client-side retry counters, so a degraded exchange is visible, not
/// silent; the serve chaos test asserts on them.
struct RetryStats {
  std::uint64_t connect_retries = 0;     ///< re-connects after refused/absent
  std::uint64_t overloaded_retries = 0;  ///< re-sends after `err code=overloaded`
  std::uint64_t give_ups = 0;            ///< episodes that exhausted the budget
};

/// True when `err` (an errno from connect(2)) means "the daemon is not
/// there *right now*" — worth retrying: ECONNREFUSED (socket file exists,
/// nobody listening), ENOENT (restart window before bind), EAGAIN.
bool connect_errno_is_transient(int err) noexcept;

/// Connects a SOCK_STREAM AF_UNIX socket to `path`, retrying transient
/// failures per `policy` (sleeping the backoff delay between tries) and
/// bumping `stats` when given. Returns the connected fd. Throws
/// std::runtime_error naming the path and last errno once the budget is
/// spent or on a non-transient failure.
int connect_unix_retry(const std::string& path, const BackoffPolicy& policy,
                       RetryStats* stats = nullptr);

}  // namespace pulphd::serve
