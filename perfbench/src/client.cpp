#include "client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <ctime>
#include <stdexcept>

namespace perfbench {

LineClient::LineClient(int port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("client: socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd_);
    throw std::runtime_error("client: cannot connect to 127.0.0.1:" +
                             std::to_string(port));
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

LineClient::~LineClient() {
  if (fd_ >= 0) ::close(fd_);
}

void LineClient::send(std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t w = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) throw std::runtime_error("client: send failed");
    bytes.remove_prefix(static_cast<std::size_t>(w));
  }
}

std::string LineClient::read_line() {
  for (;;) {
    const std::size_t nl = buffer_.find('\n', head_);
    if (nl != std::string::npos) {
      std::string line = buffer_.substr(head_, nl - head_);
      head_ = nl + 1;
      compact();
      return line;
    }
    receive();
  }
}

bool LineClient::wait_readable(std::int64_t timeout_ns) {
  if (buffer_.find('\n', head_) != std::string::npos) return true;
  pollfd p{fd_, POLLIN, 0};
  timespec ts{};
  if (timeout_ns >= 0) {
    ts.tv_sec = static_cast<time_t>(timeout_ns / 1'000'000'000);
    ts.tv_nsec = static_cast<long>(timeout_ns % 1'000'000'000);
  }
  const int r = ::ppoll(&p, 1, timeout_ns >= 0 ? &ts : nullptr, nullptr);
  return r > 0;
}

void LineClient::receive() {
  char chunk[65536];
  for (;;) {
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n > 0) {
      buffer_.append(chunk, static_cast<std::size_t>(n));
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    throw std::runtime_error(n == 0 ? "client: server closed the connection"
                                    : "client: recv failed");
  }
}

void LineClient::compact() {
  if (head_ == buffer_.size()) {
    buffer_.clear();
    head_ = 0;
  } else if (head_ > 65536) {
    buffer_.erase(0, head_);
    head_ = 0;
  }
}

}  // namespace perfbench
