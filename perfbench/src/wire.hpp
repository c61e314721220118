// Client-side socket plumbing for the load generator: a blocking Unix
// socket connection and a response framer that splits the daemon's byte
// stream into whole responses of either wire protocol, so every response can
// be compared byte-for-byte with the offline expectation.
#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace perfbench {

/// Connects to the daemon's Unix socket. Reads time out after
/// `read_timeout_s`, so a stalled daemon fails a run instead of hanging it.
/// Throws std::runtime_error on failure.
int connect_unix(const std::string& path, int read_timeout_s = 20);

/// Connects once, returning -1 instead of throwing when nobody listens yet.
int try_connect_unix(const std::string& path);

/// Writes every byte (MSG_NOSIGNAL); throws std::runtime_error on failure.
void send_all(int fd, std::string_view data);

/// Splits a response byte stream into whole responses. Binary (phd2)
/// responses are u32-LE length-prefixed frames. Text (phd1) responses are a
/// header line plus the body lines it announces (`results=K` of a classify,
/// `windows=K` of a stream-push); every other text response is one line.
class ResponseFramer {
 public:
  explicit ResponseFramer(bool binary) : binary_(binary) {}

  void feed(std::string_view bytes) { buffer_.append(bytes.data(), bytes.size()); }

  /// The next complete response (all its bytes), or nullopt while it is
  /// still partial.
  std::optional<std::string> next();

  /// Blocking read of the next complete response from `fd`. Throws
  /// std::runtime_error on EOF, a read error or the socket's read timeout.
  std::string read_response(int fd);

 private:
  std::optional<std::string> next_text();

  bool binary_;
  std::string buffer_;
};

}  // namespace perfbench
