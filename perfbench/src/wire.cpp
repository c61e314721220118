#include "wire.hpp"

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <stdexcept>

namespace perfbench {

namespace {

sockaddr_un unix_address(const std::string& path) {
  sockaddr_un addr{};
  if (path.size() + 1 > sizeof(addr.sun_path)) {
    throw std::runtime_error("socket path too long: " + path);
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

/// The count announced by `key` ("results=" / "windows=") in a header line.
std::size_t announced_lines(std::string_view header, std::string_view key) {
  const std::size_t at = header.find(key);
  if (at == std::string_view::npos) return 0;
  std::size_t count = 0;
  for (std::size_t i = at + key.size(); i < header.size() && header[i] >= '0' && header[i] <= '9';
       ++i) {
    count = count * 10 + static_cast<std::size_t>(header[i] - '0');
  }
  return count;
}

}  // namespace

int try_connect_unix(const std::string& path) {
  const sockaddr_un addr = unix_address(path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket() failed: " + std::string(std::strerror(errno)));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

int connect_unix(const std::string& path, int read_timeout_s) {
  const int fd = try_connect_unix(path);
  if (fd < 0) throw std::runtime_error("cannot connect to " + path);
  timeval tv{};
  tv.tv_sec = read_timeout_s;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return fd;
}

void send_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("send failed: " + std::string(std::strerror(errno)));
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
}

std::optional<std::string> ResponseFramer::next() {
  if (!binary_) return next_text();
  if (buffer_.size() < 4) return std::nullopt;
  std::uint32_t length = 0;
  for (int i = 3; i >= 0; --i) {
    length = (length << 8) | static_cast<std::uint8_t>(buffer_[static_cast<std::size_t>(i)]);
  }
  if (buffer_.size() < 4u + length) return std::nullopt;
  std::string out = buffer_.substr(0, 4u + length);
  buffer_.erase(0, 4u + length);
  return out;
}

std::optional<std::string> ResponseFramer::next_text() {
  const std::size_t header_end = buffer_.find('\n');
  if (header_end == std::string::npos) return std::nullopt;
  const std::string_view header(buffer_.data(), header_end);
  std::size_t body = 0;
  if (header.rfind("ok classify ", 0) == 0) body = announced_lines(header, " results=");
  if (header.rfind("ok stream-push ", 0) == 0) body = announced_lines(header, " windows=");
  std::size_t end = header_end + 1;
  for (std::size_t line = 0; line < body; ++line) {
    const std::size_t nl = buffer_.find('\n', end);
    if (nl == std::string::npos) return std::nullopt;
    end = nl + 1;
  }
  std::string out = buffer_.substr(0, end);
  buffer_.erase(0, end);
  return out;
}

std::string ResponseFramer::read_response(int fd) {
  char chunk[1 << 16];
  for (;;) {
    if (std::optional<std::string> response = next()) return std::move(*response);
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("read failed: " + std::string(std::strerror(errno)));
    }
    if (n == 0) throw std::runtime_error("daemon closed the connection mid-response");
    feed({chunk, static_cast<std::size_t>(n)});
  }
}

}  // namespace perfbench
