#include "daemon.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "wire.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Waits up to `timeout` for `pid` to exit; returns its wait status, or -1
/// when it is still running.
int wait_for(pid_t pid, std::chrono::milliseconds timeout) {
  const auto deadline = Clock::now() + timeout;
  for (;;) {
    int status = 0;
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid) return status;
    if (r < 0) return 0;  // already reaped
    if (Clock::now() >= deadline) return -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

}  // namespace

Daemon::Daemon(const DaemonSpec& spec) : spec_(spec) {
  ::unlink(spec_.socket.c_str());
  std::vector<std::string> args = {spec_.cli, "serve", "--socket", spec_.socket, "--workers",
                                   std::to_string(spec_.workers), "--threads",
                                   std::to_string(spec_.threads)};
  for (const auto& [name, path] : spec_.models) {
    args.push_back("--model");
    args.push_back(name + "=" + path);
  }
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const auto t0 = Clock::now();
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    // Child: only async-signal-safe calls until exec. The daemon dies with
    // the benchmark, so a crashed benchmark never leaves it running.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    const int log = ::open(spec_.log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (log >= 0) {
      ::dup2(log, STDOUT_FILENO);
      ::dup2(log, STDERR_FILENO);
    }
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }

  const auto deadline = t0 + std::chrono::seconds(60);
  for (;;) {
    const int fd = try_connect_unix(spec_.socket);
    if (fd >= 0) {
      try {
        send_all(fd, "phd1 ping\n");
        ResponseFramer framer(false);
        const std::string pong = framer.read_response(fd);
        ::close(fd);
        if (pong != "ok pong\n") throw std::runtime_error("unexpected ping answer: " + pong);
      } catch (...) {
        ::close(fd);
        stop();
        throw;
      }
      break;
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("daemon exited during start-up:\n" + read_file(spec_.log));
    }
    if (Clock::now() >= deadline) {
      stop();
      throw std::runtime_error("daemon not ready within 60 s:\n" + read_file(spec_.log));
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  ready_seconds_ = std::chrono::duration<double>(Clock::now() - t0).count();
}

Daemon::~Daemon() { stop(); }

double Daemon::peak_rss_mib() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  throw std::runtime_error("VmHWM not readable for the daemon");
}

bool Daemon::stop() {
  if (pid_ < 0) return clean_exit_;
  ::kill(pid_, SIGINT);
  int status = wait_for(pid_, std::chrono::seconds(10));
  if (status == -1) {
    ::kill(pid_, SIGKILL);
    status = wait_for(pid_, std::chrono::seconds(10));
    clean_exit_ = false;
  } else {
    clean_exit_ = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }
  pid_ = -1;
  return clean_exit_;
}

}  // namespace perfbench
