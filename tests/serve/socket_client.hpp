// Test-only blocking socket client shared by the serve suites
// (server_test, chaos_test): a scripted client on one end of a connection
// to a real ClassifyServer, plus a Unix-socket connect that goes through
// the production client retry path, serve::connect_unix_retry.
#pragma once

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "serve/protocol.hpp"
#include "serve/retry.hpp"

namespace pulphd::serve::test {

/// A scripted blocking client on one end of a connection.
class Client {
 public:
  explicit Client(int fd) : fd_(fd) {}
  Client(Client&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client& operator=(Client&&) = delete;
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send(const std::string& data) {
    ASSERT_EQ(::send(fd_, data.data(), data.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(data.size()));
  }

  /// Reads one '\n'-terminated line (blocking). Fails the test on EOF.
  std::string read_line() {
    std::string line;
    char c = 0;
    while (true) {
      const ssize_t n = ::read(fd_, &c, 1);
      if (n <= 0) {
        ADD_FAILURE() << "connection closed while expecting a line";
        return line;
      }
      if (c == '\n') return line;
      line += c;
    }
  }

  /// Reads exactly `bytes` bytes (blocking). Fails the test on EOF.
  std::string read_exact(std::size_t bytes) {
    std::string out(bytes, '\0');
    std::size_t got = 0;
    while (got < bytes) {
      const ssize_t n = ::read(fd_, out.data() + got, bytes - got);
      if (n <= 0) {
        ADD_FAILURE() << "connection closed while expecting " << bytes << " bytes";
        out.resize(got);
        return out;
      }
      got += static_cast<std::size_t>(n);
    }
    return out;
  }

  /// Reads one complete phd2 frame (length prefix + payload) and decodes it.
  BinaryResponse read_frame() {
    const std::string prefix = read_exact(4);
    std::uint32_t length = 0;
    for (int i = 3; i >= 0; --i) {
      length = (length << 8) | static_cast<std::uint8_t>(prefix[static_cast<std::size_t>(i)]);
    }
    BinaryResponseParser parser;
    parser.feed(prefix);
    parser.feed(read_exact(length));
    const auto response = parser.next();
    EXPECT_TRUE(response.has_value());
    return response.value_or(BinaryResponse{});
  }

  /// True when the peer has closed (read returns EOF).
  bool at_eof() {
    char c = 0;
    return ::read(fd_, &c, 1) == 0;
  }

  void close_now() {
    ::close(fd_);
    fd_ = -1;
  }

  int fd() const { return fd_; }

 private:
  int fd_ = -1;
};

/// Connects to a Unix socket with the default client retry policy. Fails
/// the test and returns -1 once the policy gives up.
inline int connect_unix(const std::string& path) {
  try {
    return connect_unix_retry(path, BackoffPolicy{});
  } catch (const std::runtime_error& e) {
    ADD_FAILURE() << e.what();
    return -1;
  }
}

}  // namespace pulphd::serve::test
