// The daemon under test: `pulphd_cli serve` as a child process on a Unix
// socket. Construction spawns it and returns once it answers a ping; the
// destructor stops it with SIGINT (its graceful shutdown) and reaps it.
#pragma once

#include <sys/types.h>

#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct DaemonSpec {
  std::string cli;     ///< path of the pulphd_cli binary
  std::string socket;  ///< Unix socket path (relative paths are fine)
  std::string log;     ///< the daemon's stdout and stderr go here
  std::vector<std::pair<std::string, std::string>> models;  ///< NAME, PATH
  int workers = 2;
  int threads = 1;
};

class Daemon {
 public:
  /// Spawns the daemon and waits until every model is loaded and a `phd1
  /// ping` is answered. Throws std::runtime_error (with the daemon's log)
  /// when it exits early or is not ready within 60 s.
  explicit Daemon(const DaemonSpec& spec);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Seconds from fork until the first pong.
  double ready_seconds() const noexcept { return ready_seconds_; }

  /// The daemon's peak resident set (VmHWM) so far, in MiB.
  double peak_rss_mib() const;

  /// Stops the daemon and reaps it; true when it exited cleanly (status 0).
  /// Idempotent.
  bool stop();

 private:
  DaemonSpec spec_;
  pid_t pid_ = -1;
  double ready_seconds_ = 0.0;
  bool clean_exit_ = false;
};

}  // namespace perfbench
